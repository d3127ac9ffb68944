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
  patched with the xid, and a reply's accepted-SUCCESS header is
  checked with one slice compare.  The arguments are encoded into a
  fresh buffer, as on the generic path.  Both produce byte-identical
  wire messages.
"""

import itertools
import os
import struct

from repro.rpc.auth import NULL_AUTH
from repro.rpc.fastpath import CallHeaderTemplate, ReplyHeaderTemplate
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
        #: whole-message codecs per proc number, which the pipeline
        #: installs (the residual marshals the header too, as the
        #: paper's specialized clntudp_call does)
        self._codecs = {}
        #: per-proc header templates (None: the fast path is off)
        self._templates = None

    # -- marshaling plug point -------------------------------------------

    def install_codec(self, proc, build_request, parse_reply):
        """Override the *whole message* for ``proc``.

        ``build_request(xid, args) -> bytes`` serializes the complete
        call message (header included); ``parse_reply(data, xid) ->
        (matched, value)`` validates and decodes a complete reply.  What
        they decline, :meth:`encode_call` / :meth:`decode_reply` code."""
        self._codecs[proc] = (build_request, parse_reply)

    def codec_for(self, proc):
        """The installed ``(build_request, parse_reply)`` pair for
        ``proc``, or None."""
        return self._codecs.get(proc)

    # -- fast path --------------------------------------------------------

    @property
    def fastpath_enabled(self):
        return self._templates is not None

    def enable_fastpath(self):
        """Turn on the header templates: a call header is built once
        per procedure and patched with each call's xid, and a reply's
        accepted-SUCCESS header is checked with one slice compare."""
        self._templates = {}
        return self

    def next_xid(self):
        return next(self._xids) & 0xFFFFFFFF

    def build_call(self, xid, proc, args, xdr_args):
        """Serialize a complete call message; returns the bytes."""
        codec = self._codecs.get(proc)
        return (self.encode_call(xid, proc, args, xdr_args) if codec is None
                else codec[0](xid, args))

    def encode_call(self, xid, proc, args, xdr_args):
        """:meth:`build_call` with no codec."""
        templates = self._templates
        if templates is not None:
            template = templates.get(proc)
            if template is None:
                template = templates[proc] = CallHeaderTemplate(
                    self.prog, self.vers, proc, self.cred, self.verf)
            if xdr_args is None:  # no arguments: the header is the call
                return template.message(xid)
            buffer = bytearray(self.bufsize)
            stream = XdrMemStream(buffer, XdrOp.ENCODE,
                                  offset=template.write_into(buffer, xid))
            xdr_args(stream, args)
            return stream.data()
        stream = XdrMemStream(bytearray(self.bufsize), XdrOp.ENCODE)
        encode_call_header(stream, CallHeader(
            xid, self.prog, self.vers, proc, self.cred, self.verf))
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
        :func:`~repro.rpc.overload.stamp_deadline`."""
        buffer = bytearray(self.bufsize)
        stream = XdrMemStream(buffer, XdrOp.ENCODE)
        encode_call_header(stream, CallHeader(
            xid, self.prog, self.vers, proc, make_deadline_cred(deadline),
            self.verf))
        if xdr_args is not None:
            xdr_args(stream, args)
        del buffer[stream.pos:]
        return buffer

    def parse_reply(self, data, xid, proc, xdr_res):
        """Validate a reply message and decode the results.

        ``data`` may be ``bytes``, ``bytearray``, or a ``memoryview``
        over the received datagram — decoding never copies it.
        Returns ``(matched, value)``: ``matched`` is False when the xid
        belongs to a different (stale) call and the datagram should be
        ignored rather than failing the call."""
        codec = self._codecs.get(proc)
        return (self.decode_reply(data, xid, xdr_res) if codec is None
                else codec[1](data, xid))

    def decode_reply(self, data, xid, xdr_res):
        """:meth:`parse_reply` with no codec."""
        if self._templates is not None and _ACCEPTED_SUCCESS.matches(data):
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
        return True, None if xdr_res is None else xdr_res(stream, None)

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
