"""Generic RPC client interface.

Message construction and reply validation, shared by every client
(the call itself — xids in flight, timers, retransmission — is
:mod:`repro.rpc.clnt_core`'s); marshaling is pluggable so the
Tempo-specialized marshalers drop in for the generic XDR micro-layers
(the client-side half of the paper's experiment).

Two message-building disciplines coexist:

* the *generic* path re-encodes the call header through the XDR
  micro-layers and allocates a fresh buffer on every call — the
  unspecialized baseline of the paper;
* the *fast* path (:meth:`RpcClient.enable_fastpath`) stages the
  constant work the way the paper's specializer does: the header is a
  pre-serialized :class:`~repro.rpc.fastpath.CallHeaderTemplate`
  patched with the xid, and encode buffers come from a
  :class:`~repro.rpc.fastpath.BufferPool` so steady-state calls
  allocate no scratch space.  Both produce byte-identical wire
  messages.
"""

import itertools
import os
import struct

from repro.errors import XdrError
from repro.rpc.auth import NULL_AUTH
from repro.rpc.fastpath import (
    BufferPool,
    CallHeaderTemplate,
    ReplyHeaderTemplate,
)
from repro.rpc.message import (
    CallHeader,
    decode_reply_header,
    encode_call_header,
    raise_for_reply,
)
from repro.rpc.overload import make_deadline_cred, propagation_enabled
from repro.xdr import XdrMemStream, XdrOp

#: Sun's UDP transfer-unit default.
UDPMSGSIZE = 8800

#: Smallest buffer the fast path will shrink to: the worst-case header
#: (two 400-byte auth areas) and error/mismatch replies must still fit
#: even when the expected success message is tiny.
MIN_FASTPATH_BUFSIZE = 1024

#: The accepted-SUCCESS reply header with a NULL verifier — the common
#: case; the fast path checks replies against it with one slice compare
#: and leaves everything else to the generic header decoder.
_ACCEPTED_SUCCESS = ReplyHeaderTemplate()


class RpcClient:
    """Base class: message building, reply validation, call plumbing."""

    def __init__(self, prog, vers, cred=NULL_AUTH, verf=NULL_AUTH,
                 bufsize=UDPMSGSIZE, propagate_deadline=None):
        self.prog = prog
        self.vers = vers
        self.cred = cred
        self.verf = verf
        self.bufsize = bufsize
        #: opt-in deadline propagation (REPRO_DEADLINE_PROPAGATION):
        #: calls carrying a Deadline ride their remaining budget in an
        #: opaque cred so servers can drop doomed work.  Off → the cred
        #: stays NULL_AUTH and the wire is byte-identical.
        self.propagate_deadline = propagation_enabled(propagate_deadline)
        start = struct.unpack(">I", os.urandom(4))[0]
        self._xids = itertools.count(start)
        #: optional whole-message codecs per proc number — installed by
        #: the specialization pipeline (the residual code marshals the
        #: call header too, as the paper's specialized clntudp_call does).
        self._codecs = {}
        #: fast-path state: per-proc header templates + the encode
        #: buffer pool.
        self._templates = {}
        self._send_pool = None

    # -- marshaling plug point -------------------------------------------

    def install_codec(self, proc, build_request, parse_reply):
        """Override the *whole message* for ``proc``.

        ``build_request(xid, args) -> bytes`` serializes the complete
        call message (header included); ``parse_reply(data, xid) ->
        (matched, value)`` validates and decodes a complete reply.
        """
        self._codecs[proc] = (build_request, parse_reply)

    def codec_for(self, proc):
        """The installed ``(build_request, parse_reply)`` pair for
        ``proc``, or None."""
        return self._codecs.get(proc)

    # -- fast path --------------------------------------------------------

    @property
    def fastpath_enabled(self):
        return self._send_pool is not None

    def enable_fastpath(self, send_size=None, pool_limit=4):
        """Turn on header templates and encode-buffer pooling.

        ``send_size`` bounds the pooled buffers (default: ``bufsize``);
        an installed specialization narrows it to the exact expected
        request size via :meth:`configure_buffers`.  (Replies land in
        the transport's one receive buffer: the engine has a single
        reader.)
        """
        self._send_pool = BufferPool(send_size or self.bufsize,
                                     limit=pool_limit, prefill=1)
        return self

    def configure_buffers(self, request_size):
        """Shrink the encode pool to the exact-fit request size — called
        when a specialization is installed and the wire size is a known
        invariant."""
        if not self.fastpath_enabled:
            return
        self._send_pool = BufferPool(
            max(int(request_size), MIN_FASTPATH_BUFSIZE),
            limit=self._send_pool.limit, prefill=1)

    def _template_for(self, proc):
        template = self._templates.get(proc)
        if template is None:
            template = CallHeaderTemplate(
                self.prog, self.vers, proc, self.cred, self.verf
            )
            self._templates[proc] = template
        return template

    def next_xid(self):
        return next(self._xids) & 0xFFFFFFFF

    def build_call(self, xid, proc, args, xdr_args):
        """Serialize a complete call message; returns the bytes."""
        codec = self._codecs.get(proc)
        if codec is not None:
            return codec[0](xid, args)
        if self.fastpath_enabled:
            if xdr_args is None:  # no arguments: the header is the call
                return self._template_for(proc).message(xid)
            buffer, length = self.build_call_pooled(xid, proc, args,
                                                    xdr_args)
            try:
                return bytes(buffer[:length])
            finally:
                self.release_send_buffer(buffer)
        buffer = bytearray(self.bufsize)
        stream = XdrMemStream(buffer, XdrOp.ENCODE)
        header = CallHeader(xid, self.prog, self.vers, proc, self.cred,
                            self.verf)
        encode_call_header(stream, header)
        if xdr_args is not None:
            xdr_args(stream, args)
        return stream.data()

    def build_call_deadline(self, xid, proc, args, xdr_args, deadline):
        """Serialize a call carrying ``deadline``'s remaining budget in
        the opaque deadline cred (:mod:`repro.rpc.overload`).

        Deliberately bypasses the header template and whole-message
        codecs — those are specialized for the constant NULL-cred
        shape — and returns a mutable ``bytearray`` so the engine
        can re-stamp a shrunken budget into retransmissions with
        :func:`~repro.rpc.overload.stamp_deadline`.
        """
        buffer = bytearray(self.bufsize)
        stream = XdrMemStream(buffer, XdrOp.ENCODE)
        header = CallHeader(xid, self.prog, self.vers, proc,
                            make_deadline_cred(deadline), self.verf)
        encode_call_header(stream, header)
        if xdr_args is not None:
            xdr_args(stream, args)
        del buffer[stream.pos:]
        return buffer

    def _encode_into(self, buffer, xid, proc, args, xdr_args):
        offset = self._template_for(proc).write_into(buffer, xid)
        stream = XdrMemStream(buffer, XdrOp.ENCODE, offset=offset)
        if xdr_args is not None:
            xdr_args(stream, args)
        return stream.pos

    def build_call_pooled(self, xid, proc, args, xdr_args):
        """Fast path: serialize into a pooled buffer.

        Returns ``(buffer, length)``; the caller sends
        ``buffer[:length]`` and must hand the buffer back via
        :meth:`release_send_buffer`.  Requires an enabled fast path and
        no whole-message codec for ``proc`` (codecs own their bytes).
        Calls that overflow an exact-fit pool (another proc, bigger
        args than the installed invariants) retry once with a
        full-size scratch buffer instead of failing.
        """
        buffer = self._send_pool.acquire()
        try:
            length = self._encode_into(buffer, xid, proc, args, xdr_args)
        except XdrError:
            self.release_send_buffer(buffer)
            if len(buffer) >= self.bufsize:
                raise
            buffer = bytearray(self.bufsize)
            length = self._encode_into(buffer, xid, proc, args, xdr_args)
        except BaseException:
            self.release_send_buffer(buffer)
            raise
        return buffer, length

    def release_send_buffer(self, buffer):
        if self._send_pool is not None:
            self._send_pool.release(buffer)

    def parse_reply(self, data, xid, proc, xdr_res):
        """Validate a reply message and decode the results.

        ``data`` may be ``bytes``, ``bytearray``, or a ``memoryview``
        over the received datagram — decoding never copies it.
        Returns ``(matched, value)``: ``matched`` is False when the xid
        belongs to a different (stale) call and the datagram should be
        ignored rather than failing the call.
        """
        codec = self._codecs.get(proc)
        if codec is not None:
            return codec[1](data, xid)
        if self.fastpath_enabled and _ACCEPTED_SUCCESS.matches(data):
            if struct.unpack_from(">I", data, 0)[0] != xid:
                return False, None
            if xdr_res is None:
                return True, None
            return True, xdr_res(XdrMemStream(
                data, XdrOp.DECODE, offset=_ACCEPTED_SUCCESS.size), None)
        stream = XdrMemStream(data, XdrOp.DECODE)
        reply = decode_reply_header(stream)
        if reply.xid != xid:
            return False, None
        raise_for_reply(reply)
        if xdr_res is not None:
            return True, xdr_res(stream, None)
        return True, None

    # -- the public call surface ---------------------------------------------

    def call(self, proc, args=None, xdr_args=None, xdr_res=None):
        """Perform one remote procedure call; transport-specific."""
        raise NotImplementedError

    def null_call(self):
        """Procedure 0 — the RPC ping."""
        return self.call(0)

    def close(self):
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
