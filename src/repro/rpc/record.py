"""TCP record marking (RFC 1057 §10).

RPC over TCP delimits messages with *record marking*: each record is a
sequence of fragments, each prefixed by a 4-byte header whose high bit
flags the last fragment and whose low 31 bits give the fragment length.

Every failure mode of the wire surfaces as a typed
:class:`~repro.errors.RpcError` — a peer that closes mid-record,
resets the connection, or announces an oversized or absurd fragment
raises :class:`~repro.errors.RpcConnectionError` /
:class:`~repro.errors.RpcProtocolError` with context, never a bare
``struct.error`` or ``ConnectionResetError``.

Both framings that put several RPC messages into one transmit live
here, because the call engine (:mod:`repro.rpc.mux`) and the server
transports must agree on them byte for byte: :func:`mark_record`
(record marking without a socket, so several records can share one
``send``) and the UDP *batch envelope*.  So does the socket mode both
ends' loops run in, :func:`kernel_timeout`.

Batch envelope (UDP)
--------------------

A datagram carrying more than one RPC message is framed as::

    >III   BATCH_MAGIC, 0xFFFFFFFF, count
    count x (>I length, message bytes)

The second word can never occur in a plain RPC message at that offset
(``msg_type`` is 0 or 1), so the envelope is unambiguous even against
an adversarial xid equal to ``BATCH_MAGIC``.  A lone message is always
sent raw, so single calls stay wire-compatible with any Sun RPC peer.
"""

import functools
import socket
import struct

from repro.errors import RpcConnectionError, RpcProtocolError

LAST_FRAGMENT = 0x8000_0000
MAX_FRAGMENT = 0x7FFF_FFFF
#: Sun's default fragment size.
DEFAULT_FRAGMENT_SIZE = 8192
#: cap on fragments per record — a peer streaming endless zero-length
#: non-last fragments must error out, not spin the reader forever.
MAX_FRAGMENTS = 1 << 16

#: first word of a batch-envelope datagram.
BATCH_MAGIC = 0xB47C4A11
#: second word — an impossible ``msg_type`` (calls use 0, replies 1),
#: so a plain RPC message can never be mistaken for an envelope.
_BATCH_FLAG = 0xFFFFFFFF
_BATCH_HEADER = struct.Struct(">III")
_WORD = struct.Struct(">I")


def kernel_timeout(sock, seconds):
    """Make ``sock`` blocking, with the kernel bounding each receive and
    each send to ``seconds`` (``SO_RCVTIMEO`` / ``SO_SNDTIMEO``); one
    that runs out raises ``BlockingIOError``.  Unlike ``settimeout``,
    this leaves CPython nothing to ``poll`` before each call: a serial
    round trip's syscalls are its sends and receives.  Returns
    ``sock``."""
    sock.settimeout(None)
    whole = int(seconds)
    value = struct.pack("@ll", whole, int((seconds - whole) * 1e6))
    for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
        sock.setsockopt(socket.SOL_SOCKET, option, value)
    return sock


def batch_groups(messages, max_bytes):
    """Split ``messages`` (bytes-likes) into runs that each fit one
    batch datagram of ``max_bytes``: the envelope header plus a length
    word and the bytes of each member.  (A run of one goes out plain,
    whatever its size.)  Everything fits, the common case, is one test
    at C speed."""
    if (_BATCH_HEADER.size + 4 * len(messages) + sum(map(len, messages))
            <= max_bytes):
        return [messages] if messages else []
    groups, group, group_bytes = [], [], _BATCH_HEADER.size
    for message in messages:
        message_bytes = len(message) + 4
        if group and group_bytes + message_bytes > max_bytes:
            groups.append(group)
            group, group_bytes = [], _BATCH_HEADER.size
        group.append(message)
        group_bytes += message_bytes
    if group:
        groups.append(group)
    return groups


def pack_batch(messages):
    """Frame ``messages`` (bytes-likes) into one batch datagram: one
    join over the header, then each member's length word and bytes."""
    parts = [None] * (2 * len(messages) + 1)
    parts[0] = _BATCH_HEADER.pack(BATCH_MAGIC, _BATCH_FLAG, len(messages))
    parts[1::2] = map(_WORD.pack, map(len, messages))
    parts[2::2] = messages
    return b"".join(parts)


@functools.lru_cache(maxsize=16)
def _run_words(count, length):
    """The length words of ``count`` members of ``length`` bytes each,
    as one ``Struct`` (from the first word on)."""
    return struct.Struct(">" + f"I{length}x" * count)


def unpack_batch(data):
    """The messages inside a batch datagram, or None for a plain one.

    Returns a list of ``memoryview`` slices (zero-copy) when ``data``
    carries the envelope; ``None`` when it is an ordinary RPC message.
    A recognized envelope that is internally inconsistent raises
    :class:`~repro.errors.RpcProtocolError` (callers drop it like any
    other garbage datagram).  A run of equal-length members that fills
    the datagram exactly — what one client's calls to one procedure
    make — is read with one ``Struct`` and sliced with one ``map``;
    anything else member by member.
    """
    total = len(data)
    if total < _BATCH_HEADER.size:
        return None
    magic, flag, count = _BATCH_HEADER.unpack_from(data, 0)
    if magic != BATCH_MAGIC or flag != _BATCH_FLAG:
        return None
    view = memoryview(data)
    offset = _BATCH_HEADER.size
    if count and total >= offset + 4:
        length = _WORD.unpack_from(data, offset)[0]
        step = length + 4
        if (offset + count * step == total
                and _run_words(count, length).unpack_from(data, offset)
                .count(length) == count):
            start, end = offset + 4, total + 4
            return list(map(view.__getitem__, map(
                slice, range(start, end, step),
                range(start + length, end + length, step))))
    messages = []
    for _ in range(count):
        if offset + 4 > total:
            raise RpcProtocolError("truncated batch envelope")
        (length,) = _WORD.unpack_from(data, offset)
        offset += 4
        if offset + length > total:
            raise RpcProtocolError(
                f"batch member of {length} bytes overruns the datagram"
            )
        messages.append(view[offset:offset + length])
        offset += length
    return messages


def mark_record(payload, fragment_size=DEFAULT_FRAGMENT_SIZE):
    """``payload`` as record-marked bytes (the wire form of one TCP
    message), without touching a socket — lets an event loop coalesce
    several records into a single ``send``."""
    total = len(payload)
    if total <= fragment_size:
        # one fragment, the common case: header + payload, no views
        return _WORD.pack(total | LAST_FRAGMENT) + payload
    view = memoryview(payload)
    parts = []
    offset = 0
    while offset < total:
        chunk = view[offset:offset + fragment_size]
        offset += len(chunk)
        header = len(chunk) | (LAST_FRAGMENT if offset >= total else 0)
        parts.append(struct.pack(">I", header))
        parts.append(bytes(chunk))
    return b"".join(parts)


def write_record(sock, payload, fragment_size=DEFAULT_FRAGMENT_SIZE):
    """Send one RPC record, fragmenting as needed.

    Transport failures (peer reset, broken pipe) raise
    :class:`~repro.errors.RpcConnectionError`.
    """
    try:
        sock.sendall(mark_record(payload, fragment_size))
    except (BrokenPipeError, ConnectionResetError, ConnectionAbortedError) \
            as exc:
        raise RpcConnectionError(
            f"connection lost sending record ({len(payload)} bytes): {exc}"
        ) from exc


def _read_exact(sock, size, context):
    chunks = []
    remaining = size
    while remaining:
        try:
            data = sock.recv(remaining)
        except (ConnectionResetError, ConnectionAbortedError) as exc:
            raise RpcConnectionError(
                f"connection reset {context}"
                f" ({size - remaining} of {size} bytes read): {exc}"
            ) from exc
        if not data:
            raise RpcConnectionError(
                f"connection closed {context}"
                f" ({size - remaining} of {size} bytes read)"
            )
        chunks.append(data)
        remaining -= len(data)
    return b"".join(chunks)


class RecordAssembler:
    """Incremental record reassembly for non-blocking streams.

    The blocking :func:`read_record` owns the socket until a record
    completes; an event loop cannot afford that.  Feed whatever bytes
    the socket yielded and collect the records that completed::

        for record in assembler.feed(chunk):
            dispatch(record)

    State (a partial fragment header, a partial fragment, fragments of
    an unfinished record) carries over between ``feed`` calls.  The
    same pathologies :func:`read_record` rejects raise
    :class:`~repro.errors.RpcProtocolError` here: an oversized record
    or an endless non-last fragment chain.
    """

    def __init__(self, max_size=1 << 24):
        self.max_size = max_size
        self._buffer = bytearray()
        self._fragments = []
        self._record_size = 0
        self._fragment_count = 0

    def feed(self, data):
        """Absorb ``data``; return the list of records it completed."""
        if not (self._buffer or self._fragment_count):
            # Between records, and ``data`` is exactly one
            # single-fragment record — the common case for a reply read
            # in one ``recv``: nothing to buffer.
            size = len(data) - 4
            if (0 <= size <= self.max_size
                    and _WORD.unpack_from(data, 0)[0]
                    == size | LAST_FRAGMENT):
                return [bytes(data[4:])]
        self._buffer += data
        records = []
        while True:
            if len(self._buffer) < 4:
                return records
            header = struct.unpack_from(">I", self._buffer, 0)[0]
            last = bool(header & LAST_FRAGMENT)
            length = header & MAX_FRAGMENT
            if (length > self.max_size
                    or self._record_size + length > self.max_size):
                raise RpcProtocolError(
                    f"record too large: fragment of {length} bytes,"
                    f" {self._record_size + length} total"
                    f" > {self.max_size}"
                )
            if len(self._buffer) < 4 + length:
                return records
            self._fragment_count += 1
            if self._fragment_count > MAX_FRAGMENTS:
                raise RpcProtocolError(
                    f"record exceeds {MAX_FRAGMENTS} fragments"
                )
            if length:
                self._fragments.append(bytes(self._buffer[4:4 + length]))
                self._record_size += length
            del self._buffer[:4 + length]
            if last:
                records.append(b"".join(self._fragments))
                self._fragments = []
                self._record_size = 0
                self._fragment_count = 0


def read_record(sock, max_size=1 << 24):
    """Receive one complete RPC record (all fragments).

    Raises :class:`~repro.errors.RpcConnectionError` on EOF or reset
    mid-record and :class:`~repro.errors.RpcProtocolError` on a peer
    that announces an oversized record or streams pathological
    fragment chains.
    """
    fragments = []
    total = 0
    count = 0
    while True:
        header = struct.unpack(
            ">I", _read_exact(sock, 4, "reading fragment header")
        )[0]
        last = bool(header & LAST_FRAGMENT)
        length = header & MAX_FRAGMENT
        count += 1
        total += length
        if length > max_size or total > max_size:
            raise RpcProtocolError(
                f"record too large: fragment of {length} bytes,"
                f" {total} total > {max_size}"
            )
        if count > MAX_FRAGMENTS:
            raise RpcProtocolError(
                f"record exceeds {MAX_FRAGMENTS} fragments"
            )
        if length:
            fragments.append(
                _read_exact(sock, length, "mid-record")
            )
        if last:
            return b"".join(fragments)
