"""The paper's benchmark workload.

§5: "The test program, which utilizes remote procedure calls, emulates
the behavior of parallel programs that exchange large chunks of
structured data. [...] The client test program loops on a simple RPC
which sends and receives an array of integers."

:class:`IntArrayWorkload` builds everything both measurement modes
need: the generic MiniC program (rpcgen output over the Sun RPC
micro-layers), the Tempo-specialized variants per array size, the
interpreter harnesses that execute either and record cost traces, and
the request/reply sizes for the wire model.
"""

import functools

from repro.minic import values as rv
from repro.minic.cost import Trace
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program
from repro.minic.typecheck import typecheck_program
from repro.rpcgen.codegen_minic import generate_minic
from repro.rpcgen.contract import StubContract
from repro.rpcgen.idl_parser import parse_idl
from repro.specialized.pipeline import assumptions
from repro.tempo import Dyn, Known, specialize
from repro.tempo.unroll import reroll_program

#: the paper's array sizes (4-byte integers)
ARRAY_SIZES = (20, 100, 250, 500, 1000, 2000)

MAXN = 2000
PROG_NUMBER = 0x20000321
VERS_NUMBER = 1
BUFSIZE = 8800

WORKLOAD_IDL = f"""
const MAXN = {MAXN};

struct intarr {{
    int vals<MAXN>;
}};

program XCHG_PROG {{
    version XCHG_VERS {{
        intarr SENDRECV(intarr) = 1;
    }} = {VERS_NUMBER};
}} = {PROG_NUMBER};
"""

#: the remote procedure: echo the array back incremented (so replies
#: are data-dependent and decode results are checkable)
WORKLOAD_IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""

#: the stub contract of the workload: the entry signatures every
#: harness below binds by role, and the message sizes
VERSION = StubContract(parse_idl(WORKLOAD_IDL)).versions[0]
PROC = VERSION.procs[0]


def _vals(n):
    """The assumed lengths of an ``n``-element array, either side."""
    return PROC.arg.lens_of_count(n)


def _lens(n):
    return PROC.lens(_vals(n), _vals(n))


def request_bytes(n):
    """Call message of an ``n``-element array."""
    return PROC.request_size(_vals(n))


def reply_bytes(n):
    """Success reply of an ``n``-element array."""
    return PROC.reply_size(_vals(n))


class IntArrayWorkload:
    """Builds and runs the generic and specialized RPC code paths."""

    def __init__(self):
        self.interface = parse_idl(WORKLOAD_IDL)
        self.source = generate_minic(
            self.interface, impl_sources=[WORKLOAD_IMPL]
        )
        self.program = parse_program(self.source)
        self.typeinfo = typecheck_program(self.program)

    # ------------------------------------------------------------------
    # specializations (cached per array size)

    def specialize(self, sig, n, options=None, **lengths):
        """Residual of the emitted entry ``sig`` for arrays of ``n``,
        under the pipeline's static/dynamic split."""
        return specialize(
            self.program,
            sig.name,
            assumptions(sig, PROC, PROG_NUMBER, VERS_NUMBER, _vals(n),
                        _vals(n), BUFSIZE, **lengths),
            options=options,
            typeinfo=self.typeinfo,
        )

    @functools.lru_cache(maxsize=None)
    def specialized_marshal(self, n, options=None):
        """Residual of the client marshaling path for arrays of ``n``."""
        return self.specialize(PROC.marshal, n, options)

    @functools.lru_cache(maxsize=None)
    def specialized_call(self, n, options=None):
        """Residual of the full client call (marshal + net + decode)."""
        return self.specialize(PROC.call, n, options,
                               expected_inlen=Known(reply_bytes(n)))

    @functools.lru_cache(maxsize=None)
    def specialized_server(self, n, options=None):
        """Residual of the server dispatch path."""
        return self.specialize(VERSION.handle, n, options, inlen=Dyn(),
                               expected_inlen=Known(request_bytes(n)))

    def rerolled_marshal(self, n, factor):
        """Table 4: the specialized marshal with the unrolled run
        re-rolled into chunks of ``factor`` elements (the paper's manual
        250-element transformation, automated).  A fresh
        specialization, so the cached one stays fully unrolled."""
        fresh = self.specialize(PROC.marshal, n)
        reroll_program(fresh.program, factor, entry=fresh.entry_name)
        return fresh

    # ------------------------------------------------------------------
    # execution harnesses (trace-recording interpreter runs)

    @staticmethod
    def _test_data(n):
        return [(17 * i + 3) & 0x7FFFFFFF for i in range(n)]

    def _client_values(self, interp, n, data, xid=0x1234ABCD):
        clnt = interp.make_struct("CLIENT")
        clnt.field("cl_prog").value = PROG_NUMBER
        clnt.field("cl_vers").value = VERS_NUMBER
        args = interp.make_struct("intarr")
        args.field("vals_len").value = n
        args.field("vals").value.set_values(data)
        resp = interp.make_struct("intarr")
        outbuf = interp.make_buffer(BUFSIZE, "outbuf")
        inbuf = interp.make_buffer(BUFSIZE, "inbuf")
        return {
            **PROC.call.bind({
                "client": interp.ptr_to(clnt),
                "xid": xid,
                "args": interp.ptr_to(args),
                "result": interp.ptr_to(resp),
                "outbuf": rv.BufPtr(outbuf, 0, 1),
                "outsize": BUFSIZE,
                "inbuf": rv.BufPtr(inbuf, 0, 1),
                "insize": BUFSIZE,
                "expected_inlen": reply_bytes(n),
            }, _lens(n), int),
            "_outbuf": outbuf,
            "_resp": resp,
        }

    def run_marshal(self, program, entry, params, n, trace=None):
        """Run a marshal entry; returns (outlen, request bytes, trace)."""
        interp = Interpreter(program)
        values = self._client_values(interp, n, self._test_data(n))
        trace = trace if trace is not None else Trace()
        outlen = interp.call(
            entry, [values[name] for name in params], trace=trace
        )
        return outlen, bytes(values["_outbuf"].data[:outlen]), trace

    def generic_marshal_trace(self, n):
        return self.run_marshal(
            self.program, PROC.marshal.name, PROC.marshal.names, n
        )

    def specialized_marshal_trace(self, n, result=None):
        result = result or self.specialized_marshal(n)
        params = [name for _t, name in result.residual_params]
        return self.run_marshal(result.program, result.entry_name, params, n)

    def run_server(self, program, entry, params, n, request, trace=None):
        """Run a server entry on request bytes; returns (reply, trace)."""
        interp = Interpreter(program)
        inbuf = interp.make_buffer(BUFSIZE, "srv_in")
        outbuf = interp.make_buffer(BUFSIZE, "srv_out")
        inbuf.data[:len(request)] = request
        values = VERSION.handle.bind({
            "inbuf": rv.BufPtr(inbuf, 0, 1),
            "inlen": len(request),
            "outbuf": rv.BufPtr(outbuf, 0, 1),
            "outsize": BUFSIZE,
            "expected_inlen": request_bytes(n),
        }, _lens(n), int)
        trace = trace if trace is not None else Trace()
        outlen = interp.call(
            entry, [values[name] for name in params], trace=trace
        )
        return bytes(outbuf.data[:outlen]), trace

    def generic_server_reply(self, n, request):
        return self.run_server(
            self.program, VERSION.handle.name, VERSION.handle.names, n,
            request,
        )

    def specialized_server_reply(self, n, request, result=None):
        result = result or self.specialized_server(n)
        params = [name for _t, name in result.residual_params]
        return self.run_server(
            result.program, result.entry_name, params, n, request
        )

    def run_call(self, program, entry, params, n, network, trace=None):
        """Run a full client call with a loopback ``network`` callable;
        returns (status, decoded values, trace)."""
        interp = Interpreter(program)
        interp.network = network
        values = self._client_values(interp, n, self._test_data(n))
        trace = trace if trace is not None else Trace()
        status = interp.call(
            entry, [values[name] for name in params], trace=trace
        )
        resp = values["_resp"]
        decoded = resp.field("vals").value.values()[:n]
        return status, decoded, trace

    def generic_network(self, n):
        """A loopback network running the generic server (untraced)."""

        def network(request):
            reply, _trace = self.generic_server_reply(n, request)
            return reply

        return network

    def specialized_network(self, n):
        server = self.specialized_server(n)
        params = [name for _t, name in server.residual_params]

        def network(request):
            reply, _trace = self.run_server(
                server.program, server.entry_name, params, n, request
            )
            return reply

        return network

    # -- convenience: matched traces for the round-trip model ---------------

    def roundtrip_traces(self, n, specialized):
        """(client trace, server trace, request size, reply size) for
        one complete call in either mode."""
        if specialized:
            marshal = self.specialized_marshal(n)
            _outlen, request, _t = self.specialized_marshal_trace(n, marshal)
            _reply, server_trace = self.specialized_server_reply(n, request)
            call = self.specialized_call(n)
            params = [name for _t2, name in call.residual_params]
            status, decoded, client_trace = self.run_call(
                call.program, call.entry_name, params, n,
                self.specialized_network(n),
            )
        else:
            _outlen, request, _t = self.generic_marshal_trace(n)
            _reply, server_trace = self.generic_server_reply(n, request)
            status, decoded, client_trace = self.run_call(
                self.program, PROC.call.name, PROC.call.names, n,
                self.generic_network(n),
            )
        assert status == 1, f"round trip failed (n={n})"
        want = [(x + 1) for x in self._test_data(n)]
        assert decoded == want, f"bad echo payload (n={n})"
        return client_trace, server_trace, request_bytes(n), reply_bytes(n)
