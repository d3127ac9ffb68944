"""Runtime fast path: the two header templates.

The paper's specialized ``clntudp_call`` folds the static parts of the
call header away at specialization time, leaving only the xid store in
the residual code (§5).  This module applies the same staging
discipline to the live Python stack without running Tempo:

* :class:`CallHeaderTemplate` serializes the constant call-header
  prefix — program, version, procedure, credential, verifier — exactly
  once per ``(prog, vers, proc, cred, verf)`` tuple.  Per call, the
  template bytes are copied into the send buffer and the 4-byte xid is
  patched in place, replacing ten-plus trips through the XDR
  micro-layers (``putlong``/``x_handy`` accounting) with one slice
  store and one ``pack_into``.

* :class:`ReplyHeaderTemplate` mirrors it server-side: the accepted
  SUCCESS reply header for a fixed verifier is pre-built and patched
  with the caller's xid.

There is no buffer pool: under CPython a fresh ``bytearray`` of the
transfer size is cheaper than a locked free-list round trip, and a
specialized call's fused entry writes its own exact-size message.

Everything here is byte-for-byte equivalent to the generic encoders in
:mod:`repro.rpc.message` — the equivalence tests in
``tests/rpc/test_fastpath.py`` pin that down.
"""

import struct

from repro.rpc.auth import MAX_AUTH_BYTES, NULL_AUTH
from repro.rpc.message import (
    AcceptStat,
    CallHeader,
    encode_accepted_reply,
    encode_call_header,
)
from repro.xdr import XdrMemStream, XdrOp

#: worst-case header template: 6 words + two auth areas of
#: flavor + length + 400-byte body each.
_MAX_HEADER_BYTES = 6 * 4 + 2 * (8 + MAX_AUTH_BYTES)
_XID = struct.Struct(">I")


class CallHeaderTemplate:
    """The pre-serialized static prefix of a call message.

    The xid occupies the first four bytes of the template and is left
    zeroed; :meth:`write_into` patches it per call.
    """

    __slots__ = ("prog", "vers", "proc", "prefix", "size", "_tail")

    def __init__(self, prog, vers, proc, cred=NULL_AUTH, verf=NULL_AUTH):
        self.prog = prog
        self.vers = vers
        self.proc = proc
        stream = XdrMemStream(bytearray(_MAX_HEADER_BYTES), XdrOp.ENCODE)
        encode_call_header(stream, CallHeader(0, prog, vers, proc, cred,
                                              verf))
        self.prefix = stream.data()
        self.size = len(self.prefix)
        self._tail = self.prefix[4:]

    def message(self, xid):
        """The whole call message of a procedure with no arguments."""
        return _XID.pack(xid & 0xFFFFFFFF) + self._tail

    def write_into(self, buffer, xid):
        """Copy the template into ``buffer`` and patch the xid.

        Returns the number of bytes written (the body offset).
        """
        size = self.size
        buffer[:size] = self.prefix
        struct.pack_into(">I", buffer, 0, xid & 0xFFFFFFFF)
        return size

    def render(self, xid):
        """A standalone header as a fresh bytearray (tests, one-offs)."""
        buffer = bytearray(self.prefix)
        struct.pack_into(">I", buffer, 0, xid & 0xFFFFFFFF)
        return buffer


class ReplyHeaderTemplate:
    """The pre-serialized accepted-reply header for a fixed verifier."""

    __slots__ = ("stat", "prefix", "size", "_tail")

    def __init__(self, verf=NULL_AUTH, stat=AcceptStat.SUCCESS):
        self.stat = stat
        stream = XdrMemStream(bytearray(_MAX_HEADER_BYTES), XdrOp.ENCODE)
        encode_accepted_reply(stream, 0, stat, verf)
        self.prefix = stream.data()
        self.size = len(self.prefix)
        self._tail = self.prefix[4:]

    def write_into(self, buffer, xid):
        """Copy the template into ``buffer`` and patch the xid."""
        size = self.size
        buffer[:size] = self.prefix
        struct.pack_into(">I", buffer, 0, xid & 0xFFFFFFFF)
        return size

    def matches(self, data):
        """True when ``data`` starts with this header under *any* xid.

        The client-side dual of :meth:`write_into`: instead of decoding
        the reply header field by field through the micro-layers, the
        expected accepted-SUCCESS header is *checked* with one slice
        compare (the body then starts at :attr:`size`).  Any reply that
        does not match — an error, a mismatched verifier — falls back
        to the generic decoder.
        """
        return len(data) >= self.size and data[4:self.size] == self._tail
