"""The stub contract: what the MiniC stub generator emits, stated as data.

Everything the paper specializes on — the message sizes, the assumed
array lengths, the program and procedure numbers — is a property of the
generated stubs.  :class:`StubContract` says it once per interface, in
three parts, and every consumer (the MiniC emitters, the specialization
pipeline, the fused-entry glue, the verifier, the online policy, the
paper benches) reads it instead of walking the IDL again:

* the **subset verdict** — per struct and per procedure: inside the
  MiniC stub subset (32-bit scalars, structs of them, fixed and bounded
  arrays of scalars), or outside it with the reason;
* the **wire layout** of an in-subset struct under assumed lengths
  (:meth:`StructShape.layout`): the flat sequence of 4-byte XDR words,
  each a :class:`DataWord` or a :class:`LenWord`;
* the **entry signature** of every function emitted per procedure and
  version (:class:`Signature`): the ordered parameters, each with the
  role that says how a caller binds it.

:mod:`repro.rpcgen.codegen_py` keeps its own walk on purpose: it is the
generic stub path for the full type set, and the independent reference
the layout is tested against.
"""

from collections import namedtuple

from repro.errors import IdlError
from repro.rpcgen import idl_ast as idl

#: RPC call header: xid, mtype, rpcvers, prog, vers, proc + two null
#: auth areas (flavor+length each).
CALL_HEADER_WORDS = 10
#: accepted SUCCESS reply header: xid, mtype, reply_stat, verf flavor,
#: verf length, accept_stat.
REPLY_HEADER_WORDS = 6

#: one word of a layout: a scalar (``path`` from the struct's root, as
#: ``p.x`` / ``vals[3]``; ``kind`` is int / u_int / bool) ...
DataWord = namedtuple("DataWord", "path kind")
#: ... or the element count of bounded array ``field`` (declared
#: ``bound``, assumed ``count``)
LenWord = namedtuple("LenWord", "field bound count")

#: one struct member: a scalar of ``kind``, a fixed array of ``size``
#: of them, an array of at most ``bound`` of them, or (``struct``) a
#: nested :class:`StructShape`
Field = namedtuple("Field", "name kind size bound struct")

#: one parameter of an emitted entry.  ``role`` is how a caller binds
#: it: client (the handle carrying the program and version numbers),
#: xid, args / result (the struct pointers), outbuf / inbuf, outsize /
#: insize (buffer capacities), inlen (the message length),
#: expected_inlen (the length the message is compared to), or
#: expected_len — the assumed element count of bounded array ``field``
#: of procedure ``proc`` on ``side`` ("arg" / "res").
Param = namedtuple("Param", "ctype name role proc side field",
                   defaults=(None, None, None))

EXPECTED_LEN = "expected_len"

_CLNT = Param("struct CLIENT *", "clnt", "client")
_XID = Param("u_long ", "xid", "xid")
_OUT = (Param("caddr_t ", "outbuf", "outbuf"),
        Param("int ", "outsize", "outsize"))
_INBUF = Param("caddr_t ", "inbuf", "inbuf")
_INLEN = Param("int ", "inlen", "inlen")
_EXPECTED_INLEN = Param("int ", "expected_inlen", "expected_inlen")


def expected_lens(shape, proc=None, side=None, prefix="", suffix=""):
    """The expected-length parameters of ``shape``'s bounded arrays —
    the one place their names are spelled."""
    return [Param("int ", f"{prefix}expected_{field}_len{suffix}",
                  EXPECTED_LEN, proc, side, field)
            for field in shape.bounds]


class StructShape:
    """An in-subset struct: its members, resolved."""

    def __init__(self, name, fields):
        self.name = name
        self.fields = fields
        #: bounded-array member -> declared bound, in member order
        self.bounds = {field.name: field.bound for field in fields
                       if field.bound is not None}
        #: the bounded array whose element count alone fixes the
        #: encoded size; None when there is none, or several
        self.count_field = (next(iter(self.bounds))
                            if len(self.bounds) == 1 else None)

    def assumed(self, lens):
        """``lens`` validated: exactly one count per bounded array."""
        lens = dict(lens or {})
        missing = set(self.bounds) - set(lens)
        if missing:
            raise IdlError(
                f"missing assumed lengths for bounded arrays of"
                f" {self.name}: {sorted(missing)}"
            )
        extra = set(lens) - set(self.bounds)
        if extra:
            raise IdlError(f"unknown bounded arrays: {sorted(extra)}")
        return lens

    def layout(self, lens, prefix=""):
        """The XDR encoding under the assumed ``lens``, word by word."""
        words = []
        for field in self.fields:
            path = prefix + field.name
            if field.struct is not None:
                words += field.struct.layout({}, path + ".")
                continue
            count = field.size
            if field.bound is not None:
                count = lens[field.name]
                words.append(LenWord(field.name, field.bound, count))
            if count is None:
                words.append(DataWord(path, field.kind))
            else:
                words += [DataWord(f"{path}[{index}]", field.kind)
                          for index in range(count)]
        return words

    def lens_of_count(self, count):
        """The one binding under which the bounded arrays hold
        ``count`` elements in all, or None (several arrays would split
        it ambiguously)."""
        if self.count_field is not None:
            return {self.count_field: count} if count >= 0 else None
        return None if self.bounds or count else {}

    def lens_of_words(self, nwords):
        """:meth:`layout` inverted: the lengths an ``nwords``-word
        encoding implies."""
        return self.lens_of_count(
            nwords - len(self.layout(dict.fromkeys(self.bounds, 0))))


class Signature:
    """One emitted entry: its name and ordered :class:`Param` list."""

    def __init__(self, name, params):
        self.name = name
        self.params = tuple(params)

    @property
    def names(self):
        return [param.name for param in self.params]

    def decl(self):
        params = ", ".join(p.ctype + p.name for p in self.params)
        return f"int {self.name}({params})"

    def expected(self, proc=None, side=None):
        """This entry's names for the expected-length parameters — all
        of them, or one procedure's on one side."""
        return [p.name for p in self.params if p.role == EXPECTED_LEN
                and (proc is None or (p.proc, p.side) == (proc, side))]

    def bind(self, fixed, lens, wrap):
        """``{parameter name: value}``: ``fixed[role]``, and for an
        expected-length parameter ``wrap(count)`` of the count
        ``lens[proc, side]`` assumes for its field — 0 for a procedure
        ``lens`` does not name (see :meth:`ProcContract.lens`)."""
        return {p.name: fixed[p.role] if p.role != EXPECTED_LEN else
                wrap(lens.get((p.proc, p.side), {}).get(p.field, 0))
                for p in self.params}


class ProcContract:
    """One procedure: its verdict and, inside the subset, its argument
    and result shapes and the signatures of its client entries."""

    def __init__(self, proc, arg, ret, refusal):
        self.name = proc.name
        self.number = proc.number
        self.lname = proc.name.lower()
        self.arg = arg
        self.ret = ret
        #: None inside the subset, else why not
        self.refusal = refusal
        if refusal is not None:
            return
        name = self.name
        argsp = Param(f"struct {arg.name} *", "argsp", "args")
        resp = Param(f"struct {ret.name} *", "resp", "result")
        self.marshal = Signature(
            f"{self.lname}_marshal",
            [_CLNT, _XID, argsp, *_OUT, *expected_lens(arg, name, "arg")])
        self.recv = Signature(
            f"{self.lname}_recv",
            [_INBUF, _INLEN, _XID, resp, *expected_lens(ret, name, "res")])
        self.call = Signature(
            f"{self.lname}_call",
            [_CLNT, _XID, argsp, resp, *_OUT, _INBUF,
             Param("int ", "insize", "insize"), _EXPECTED_INLEN,
             *expected_lens(arg, name, "arg"),
             *expected_lens(ret, name, "res", suffix="_res")])

    def lens(self, arg_lens, res_lens):
        """The assumed lengths of this procedure, as
        :meth:`Signature.bind` reads them."""
        return {(self.name, "arg"): arg_lens, (self.name, "res"): res_lens}

    def request_size(self, arg_lens):
        """Bytes of the call message under ``arg_lens``."""
        return 4 * (CALL_HEADER_WORDS + len(self.arg.layout(arg_lens)))

    def reply_size(self, res_lens):
        """Bytes of the success reply under ``res_lens``."""
        return 4 * (REPLY_HEADER_WORDS + len(self.ret.layout(res_lens)))

    def arg_lens_of(self, nbytes):
        """The argument lengths a ``nbytes`` call message implies, or
        None."""
        return None if nbytes % 4 else self.arg.lens_of_words(
            nbytes // 4 - CALL_HEADER_WORDS)

    def res_lens_of(self, nbytes):
        """The result lengths a ``nbytes`` success reply implies, or
        None."""
        return None if nbytes % 4 else self.ret.lens_of_words(
            nbytes // 4 - REPLY_HEADER_WORDS)


class VersionContract:
    """One program version: every procedure's contract, and the
    signatures of the server entries over the in-subset ones."""

    def __init__(self, program, version, procs):
        self.program = program
        self.version = version
        self.suffix = f"{program.name.lower()}_{version.number}"
        self.procs = procs
        #: the procedures the generated dispatcher serves
        self.served = [proc for proc in procs if proc.refusal is None]
        expected = [
            param for proc in self.served for param in
            expected_lens(proc.arg, proc.name, "arg", f"{proc.lname}_")
            + expected_lens(proc.ret, proc.name, "res", f"{proc.lname}_",
                            "_res")]
        self.process = Signature(f"svc_process_{self.suffix}",
                                 [_INBUF, _INLEN, *_OUT, *expected])
        self.handle = Signature(
            f"svc_handle_{self.suffix}",
            [_INBUF, _INLEN, *_OUT, _EXPECTED_INLEN, *expected])


class StubContract:
    """The contract of one interface (see the module docstring)."""

    def __init__(self, interface):
        self.interface = interface
        self._structs = {struct.name: struct for struct in interface.structs}
        self._enums = {enum.name for enum in interface.enums}
        #: in-subset struct name -> :class:`StructShape`, in
        #: declaration order
        self.shapes = {}
        #: out-of-subset struct name -> the reason
        self.refused = {}
        for name in self._structs:
            self._judge(name)
        self.shapes = {name: self.shapes[name] for name in self._structs
                       if name in self.shapes}
        self.versions = [
            VersionContract(program, version,
                            [self._proc(proc) for proc in version.procs])
            for program in interface.programs
            for version in program.versions]

    def version(self, program, version):
        """The contract of one ``ProgramDef`` / ``VersionDef`` pair."""
        return next(found for found in self.versions
                    if found.program is program and found.version is version)

    def signatures(self):
        """Every entry signature the generator emits."""
        for version in self.versions:
            for proc in version.served:
                yield from (proc.marshal, proc.recv, proc.call)
            yield from (version.process, version.handle)

    def refusals(self):
        """Every recorded reason, structs first."""
        return [*self.refused.values(),
                *(proc.refusal for version in self.versions
                  for proc in version.procs if proc.refusal is not None)]

    # -- the subset verdict -----------------------------------------------

    def scalar_kind(self, type_ref):
        """'int'/'u_int'/'bool' for 32-bit scalars, or None."""
        type_ref = self.interface.resolve(type_ref)
        if isinstance(type_ref, idl.Prim) and type_ref.name in (
            "int", "u_int", "bool",
        ):
            return type_ref.name
        if isinstance(type_ref, idl.Named) and type_ref.name in self._enums:
            return "int"
        return None

    def _judge(self, name):
        """Record struct ``name`` as a shape or a refusal (once)."""
        if name in self.shapes or name in self.refused:
            return
        # a struct that reaches itself meets this before its verdict
        self.refused[name] = f"{name}: recursive struct"
        try:
            fields = [self._field(name, field)
                      for field in self._structs[name].fields]
        except IdlError as exc:
            self.refused[name] = str(exc)
        else:
            del self.refused[name]
            self.shapes[name] = StructShape(name, fields)

    def _field(self, where, field):
        resolved = self.interface.resolve(field.type)
        kind = self.scalar_kind(resolved)
        if kind is not None:
            return Field(field.name, kind, None, None, None)
        if isinstance(resolved, (idl.FixedArray, idl.VarArray)):
            kind = self.scalar_kind(resolved.elem)
            if kind is not None:
                fixed = isinstance(resolved, idl.FixedArray)
                return Field(field.name, kind,
                             resolved.size if fixed else None,
                             None if fixed else resolved.bound, None)
        elif isinstance(resolved, idl.Named) and (
                resolved.name in self._structs):
            nested = self._struct_of(resolved, where)
            if nested.bounds:
                raise IdlError(
                    f"{where}.{field.name}: nested structs with"
                    " bounded arrays are outside the MiniC stub subset"
                )
            return Field(field.name, None, None, None, nested)
        raise IdlError(
            f"{where}: type {resolved!r} is outside the MiniC stub subset"
            " (use the Python stub path for strings/floats/unions)"
        )

    def _struct_of(self, type_ref, where):
        """The shape of a struct-typed reference; raises the reason
        when it is no struct, or one outside the subset."""
        resolved = self.interface.resolve(type_ref)
        if not (isinstance(resolved, idl.Named)
                and resolved.name in self._structs):
            raise IdlError(
                f"{where}: MiniC stubs need struct argument/result types,"
                f" got {type_ref!r}"
            )
        self._judge(resolved.name)
        if resolved.name in self.refused:
            raise IdlError(self.refused[resolved.name])
        return self.shapes[resolved.name]

    def _proc(self, proc):
        try:
            return ProcContract(proc, self._struct_of(proc.arg, proc.name),
                                self._struct_of(proc.ret, proc.name), None)
        except IdlError as exc:
            return ProcContract(proc, None, None, str(exc))
