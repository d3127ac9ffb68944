"""MiniC stub generation — the rpcgen output the Tempo specializer eats.

For an interface, generates (on top of the fixed Sun RPC micro-layer
runtime in :mod:`repro.rpcgen.sunrpc_minic`):

* one MiniC struct per IDL struct (bounded arrays ``T f<N>`` flatten to
  ``int f_len; T f[N];`` as the classic rpcgen's ``struct { u_int len;
  T *val; }`` does, with the bound made explicit);
* one ``xdr_<S>`` filter per struct, written with the *expected-length
  guard* of the paper's §6.2: the dynamic length is compared against a
  parameter known at specialization time, and the matching branch
  re-assigns the known value so flow-sensitive binding-time analysis
  unrolls the element loop; the ``else`` is the generic loop, or, in
  the pipeline's live stubs (``decline=True``), ``return FALSE``;
* per procedure: ``<proc>_marshal`` (client argument marshaling — the
  paper's Table 1 micro-benchmark), ``<proc>_call`` (full client call
  over ``net_sendrecv`` with the ``expected_inlen`` rewrite — Table 2),
  and a server dispatcher ``svc_handle_<prog>_<vers>`` (+ its
  ``svc_process`` body shared by the expected/generic branches).

The MiniC path supports the type subset the paper's workload exercises:
32-bit scalars (int/unsigned/bool/enum), structs of them, fixed arrays
and bounded arrays.  Strings, floats, unions and optionals are served by
the Python stub path (:mod:`repro.rpcgen.codegen_py`); a struct or
procedure that needs them is left out of the MiniC text, with the
reason recorded.  What is in, how it lies on the wire and the parameter
list of every entry are data first — the stub contract,
:mod:`repro.rpcgen.contract` — and the emitters below print them.
"""

from repro.errors import IdlError
from repro.rpcgen.contract import StubContract, expected_lens
from repro.rpcgen.sunrpc_minic import SUNRPC_MINIC_RUNTIME

_SCALAR_FILTERS = {
    "int": "xdr_int",
    "u_int": "xdr_u_int",
    "bool": "xdr_bool",
}

_SCALAR_CTYPES = {
    "int": "int",
    "u_int": "unsigned",
    "bool": "int",
}


def _trail(names):
    """``names`` as trailing call arguments: ``, a, b``."""
    return "".join(f", {name}" for name in names)


class MiniCGenerator:
    """Emits the MiniC text of what :attr:`contract` describes: the
    in-subset structs and procedures of the interface."""

    def __init__(self, interface, decline=False):
        self.interface = interface
        self.decline = decline
        self.contract = StubContract(interface)
        self.lines = []

    def emit(self, text=""):
        self.lines.append(text)

    # -- struct definitions -------------------------------------------------

    def struct_defs(self):
        for shape in self.contract.shapes.values():
            self.emit(f"struct {shape.name} {{")
            for field in shape.fields:
                if field.struct is not None:
                    self.emit(f"    struct {field.struct.name} {field.name};")
                    continue
                ctype = _SCALAR_CTYPES[field.kind]
                if field.bound is not None:
                    self.emit(f"    int {field.name}_len;")
                    self.emit(f"    {ctype} {field.name}[{field.bound}];")
                elif field.size is not None:
                    self.emit(f"    {ctype} {field.name}[{field.size}];")
                else:
                    self.emit(f"    {ctype} {field.name};")
            self.emit("};")
            self.emit("")

    # -- xdr filters ------------------------------------------------------------

    def xdr_filters(self):
        for shape in self.contract.shapes.values():
            self._xdr_filter(shape)

    def _scalar_call(self, kind, target):
        return f"{_SCALAR_FILTERS[kind]}(xdrs, &{target})"

    def _xdr_filter(self, shape):
        params = expected_lens(shape)
        expected = {p.field: p.name for p in params}
        params = "".join(f", {p.ctype}{p.name}" for p in params)
        self.emit(
            f"bool_t xdr_{shape.name}(struct XDR *xdrs,"
            f" struct {shape.name} *objp{params})"
        )
        self.emit("{")
        if any(field.size is not None or field.bound is not None
               for field in shape.fields):
            self.emit("    int i;")
        for field in shape.fields:
            if field.struct is not None:
                self.emit(
                    f"    if (!xdr_{field.struct.name}(xdrs,"
                    f" &objp->{field.name}))"
                )
                self.emit("        return FALSE;")
            elif field.bound is not None:
                self._var_array_field(field, expected[field.name])
            elif field.size is not None:
                self.emit(f"    for (i = 0; i < {field.size}; i++) {{")
                self.emit(
                    "        if (!"
                    f"{self._scalar_call(field.kind, f'objp->{field.name}[i]')})"
                )
                self.emit("            return FALSE;")
                self.emit("    }")
            else:
                self.emit(
                    "    if (!"
                    f"{self._scalar_call(field.kind, f'objp->{field.name}')})"
                )
                self.emit("        return FALSE;")
        self.emit("    return TRUE;")
        self.emit("}")
        self.emit("")

    def _var_array_field(self, field, expected):
        """Bounded array with the paper's expected-length guard: the
        matching branch re-binds the length to the statically known
        value so the element loop unrolls under specialization."""
        name = field.name
        item = self._scalar_call(field.kind, f"objp->{name}[i]")
        loop = [f"for (i = 0; i < objp->{name}_len; i++) {{",
                f"    if (!{item})", "        return FALSE;", "}"]
        for test in (f"!xdr_int(xdrs, &objp->{name}_len)",
                     f"objp->{name}_len < 0", f"objp->{name}_len > {field.bound}"):
            self.emit(f"    if ({test})")
            self.emit("        return FALSE;")
        self.emit(f"    if (objp->{name}_len == {expected}) {{")
        self.emit(f"        objp->{name}_len = {expected};")
        for line in loop:
            self.emit(f"        {line}")
        self.emit("    } else {")
        for line in ["return FALSE;"] if self.decline else loop:
            self.emit(f"        {line}")
        self.emit("    }")

    # -- client functions -----------------------------------------------------

    def client_functions(self, version):
        for proc in version.served:
            self._marshal_function(proc)
            self._recv_function(proc)
            self._call_function(proc)

    def _marshal_function(self, proc):
        sig, arg = proc.marshal, proc.arg
        self.emit(sig.decl())
        self.emit("{")
        self.emit("    struct XDR xdr_out;")
        self.emit("    xdrmem_create(&xdr_out, outbuf, outsize, XDR_ENCODE);")
        self.emit(
            f"    if (!xdr_callhdr(&xdr_out, xid, clnt->cl_prog,"
            f" clnt->cl_vers, {proc.number}))"
        )
        self.emit("        return 0;")
        self.emit(
            f"    if (!xdr_{arg.name}(&xdr_out, argsp"
            f"{_trail(sig.expected())}))"
        )
        self.emit("        return 0;")
        self.emit("    return xdr_getpos(&xdr_out);")
        self.emit("}")
        self.emit("")

    def _recv_function(self, proc):
        sig, ret = proc.recv, proc.ret
        self.emit(sig.decl())
        self.emit("{")
        self.emit("    struct XDR xdr_in;")
        self.emit("    xdrmem_create(&xdr_in, inbuf, inlen, XDR_DECODE);")
        self.emit("    if (!xdr_replyhdr(&xdr_in, xid))")
        self.emit("        return FALSE;")
        self.emit(
            f"    if (!xdr_{ret.name}(&xdr_in, resp"
            f"{_trail(sig.expected())}))"
        )
        self.emit("        return FALSE;")
        self.emit("    return TRUE;")
        self.emit("}")
        self.emit("")

    def _call_function(self, proc):
        sig, recv = proc.call, proc.recv.name
        self.emit(sig.decl())
        self.emit("{")
        self.emit("    struct XDR xdr_out;")
        self.emit("    int outlen;")
        self.emit("    int inlen;")
        self.emit("    xdrmem_create(&xdr_out, outbuf, outsize, XDR_ENCODE);")
        self.emit(
            f"    if (!xdr_callhdr(&xdr_out, xid, clnt->cl_prog,"
            f" clnt->cl_vers, {proc.number}))"
        )
        self.emit("        return FALSE;")
        self.emit(
            f"    if (!xdr_{proc.arg.name}(&xdr_out, argsp"
            f"{_trail(sig.expected(proc.name, 'arg'))}))"
        )
        self.emit("        return FALSE;")
        self.emit("    outlen = xdr_getpos(&xdr_out);")
        self.emit("    bzero(inbuf, insize);")
        self.emit("    inlen = net_sendrecv(outbuf, outlen, inbuf, insize);")
        res_args = _trail(sig.expected(proc.name, "res"))
        self.emit("    if (inlen == expected_inlen) {")
        self.emit(
            f"        return {recv}(inbuf, expected_inlen, xid,"
            f" resp{res_args});"
        )
        self.emit("    }")
        self.emit(
            f"    return {recv}(inbuf, inlen, xid, resp{res_args});"
        )
        self.emit("}")
        self.emit("")

    # -- server functions -----------------------------------------------------

    def server_functions(self, version):
        self._svc_process(version)
        self._svc_handle(version)

    def _svc_process(self, version):
        """The dispatcher over the in-subset procedures; any other
        procedure number returns 0, which leaves the call to the
        generic body."""
        sig = version.process
        self.emit(sig.decl())
        self.emit("{")
        self.emit("    struct XDR xdr_in;")
        self.emit("    struct XDR xdr_out;")
        self.emit("    u_long xid;")
        self.emit("    long proc;")
        self.emit("    xid = 0;")
        self.emit("    proc = 0;")
        self.emit("    xdrmem_create(&xdr_in, inbuf, inlen, XDR_DECODE);")
        self.emit(
            f"    if (!xdr_callhdr_decode(&xdr_in, {version.program.number},"
            f" {version.version.number}, &xid, &proc))"
        )
        self.emit("        return 0;")
        for proc in version.served:
            arg, ret = proc.arg, proc.ret
            arg_args = _trail(sig.expected(proc.name, "arg"))
            ret_args = _trail(sig.expected(proc.name, "res"))
            self.emit(f"    if (proc == {proc.number}) {{")
            self.emit(f"        struct {arg.name} args;")
            self.emit(f"        struct {ret.name} res;")
            self.emit(
                f"        if (!xdr_{arg.name}(&xdr_in, &args{arg_args}))"
            )
            self.emit("            return 0;")
            self.emit(f"        {proc.lname}_impl(&args, &res);")
            self.emit(
                "        xdrmem_create(&xdr_out, outbuf, outsize,"
                " XDR_ENCODE);"
            )
            self.emit("        if (!xdr_replyhdr_encode(&xdr_out, xid))")
            self.emit("            return 0;")
            self.emit(
                f"        if (!xdr_{ret.name}(&xdr_out, &res{ret_args}))"
            )
            self.emit("            return 0;")
            self.emit("        return xdr_getpos(&xdr_out);")
            self.emit("    }")
        self.emit("    return 0;")
        self.emit("}")
        self.emit("")

    def _svc_handle(self, version):
        sig, process = version.handle, version.process.name
        self.emit(sig.decl())
        self.emit("{")
        args = _trail(sig.expected())
        self.emit("    if (inlen == expected_inlen) {")
        self.emit(
            f"        return {process}(inbuf, expected_inlen,"
            f" outbuf, outsize{args});"
        )
        self.emit("    }")
        self.emit(
            f"    return {process}(inbuf, inlen, outbuf,"
            f" outsize{args});"
        )
        self.emit("}")
        self.emit("")

    # -- assembly ----------------------------------------------------------------

    def generate(self, impl_sources=None):
        """The MiniC translation unit of the in-subset part of the
        interface; an interface with nothing in it that was refused
        something raises the first reason."""
        versions = self.contract.versions
        refusals = self.contract.refusals()
        if refusals and not any(version.served for version in versions):
            raise IdlError(refusals[0])
        self.emit(SUNRPC_MINIC_RUNTIME)
        self.struct_defs()
        self.xdr_filters()
        if impl_sources:
            for source in impl_sources:
                self.emit(source)
                self.emit("")
        for version in versions:
            self.client_functions(version)
            if impl_sources:
                self.server_functions(version)
        return "\n".join(self.lines) + "\n"


def generate_minic(interface, impl_sources=None):
    """Generate the complete MiniC translation unit for an interface.

    ``impl_sources`` optionally supplies MiniC implementations
    (``<proc>_impl(struct A *, struct R *)``) enabling server-side
    generation; without them only client code is produced.
    """
    return MiniCGenerator(interface).generate(impl_sources)
