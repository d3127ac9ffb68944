"""Residual-code equivalence verifier (analysis pass 1).

The specialization pipeline's whole bet — the paper's bet — is that
the Tempo-generated residual codec is semantically equivalent to the
generic Sun RPC stub it replaces.  Since PR 8 residual codecs are
auto-promoted from live traffic, so this module provides the
independent check: before a specialization installs, its residual MiniC
program is **symbolically executed** against the generic MiniC program
it was specialized from, over the codec's declared size-guard domain.

What is proved (per codec, on the declared domain):

* **byte equivalence** — the residual marshaler emits exactly the
  bytes the generic marshaler emits, for *every* argument assignment
  with the assumed array lengths (argument words are free 32-bit
  symbols); the residual receive/dispatch path decodes to exactly the
  generic result;
* **bounds safety** — every buffer and array access in the residual
  run is in bounds (the interpreter's bounds checks run during the
  symbolic execution), and every byte of the produced message was
  actually written (no uninitialized-byte leaks);
* **guard-domain conformance** — the sizes the specialization declares
  (`expected_request`/`expected_reply`, the ``expected_inlen`` rewrite)
  equal the wire arithmetic recomputed from the IDL and the assumed
  lengths, so a guard cannot silently widen past the profiled domain;
* **hostile-input behavior** — concrete probes (wrong message type,
  stale xid, corrupted or out-of-range length words) confirm the
  residual path never *accepts* an input the generic path rejects.
  The residual may always **decline** (return 0); the runtime then
  falls back to the generic path, so declining is safe — accepting
  with different bytes is the bug class this pass exists to catch;
* **entry conformance** — what installs is not the residual MiniC but
  the **fused entry** the transport calls: hand-staged glue, its size
  guard, and the :mod:`~repro.minic.compile_py` lowering of the
  residual (which elides wraps and rewrites loops on its own
  reasoning) over structs narrowed to the assumed array lengths.
  Every concrete probe above (one valid message plus the hostile set)
  is fed to that entry, which must answer what the generic program just
  answered or decline — and must not decline the valid message.
  Messages of off-profile *lengths* (one element fewer, one more, none;
  four bytes short, four bytes long) it must decline: the residual was
  proved on one size, and the guard is what keeps it there.

The three codecs — marshal, receive, dispatch — share one protocol,
:meth:`_Codec.verify`, which stops at the first step with a finding; a
codec supplies only what differs (the table in docs/ANALYSIS.md).

Soundness caveats (also in docs/ANALYSIS.md): equality of symbolic
values is decided by structural identity, so a residual program that
is equivalent but *algebraically rearranged* is reported as
undecidable — the verifier fails closed, never open.  Data-dependent
control flow in a residual codec is likewise reported, not guessed at.
"""

import itertools
import struct

from repro.analysis.findings import Finding
from repro.analysis.symexec import (
    SymbolicInterpreter,
    Undecidable,
    is_sym,
    render,
    sym,
    values_equal,
)
from repro.errors import InterpError, VerificationError
from repro.minic import types as ct
from repro.minic import values as rv
from repro.minic.typecheck import typecheck_program
from repro.rpcgen.contract import (
    CALL_HEADER_WORDS,
    REPLY_HEADER_WORDS,
    LenWord,
)

#: concrete probe payloads open with the words a wrong wrap or a wrong
#: pack format gets wrong, then count up from a deterministic filler.
_EDGE_WORDS = (0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0, 1)
_PROBE_FILL = 0x1357


#: the xid of concrete probes, and what a fused entry is handed on top
#: of it: the application's xid is any int, masked at the boundary.
_PROBE_XID = 0x7F03AB03
_XID_EXCESS = 1 << 32


def _probe_words():
    return itertools.chain(_EDGE_WORDS, itertools.count(_PROBE_FILL))


def _finding(rule, entry, message, **context):
    return Finding(
        rule=rule,
        path=f"residual:{entry}",
        line=0,
        message=message,
        context=context,
    )


def ensure_verified(findings, what):
    """Raise :class:`VerificationError` when any finding is present."""
    if findings:
        detail = "; ".join(f"[{f.rule}] {f.message}" for f in findings[:3])
        more = f" (+{len(findings) - 3} more)" if len(findings) > 3 else ""
        raise VerificationError(
            f"residual verification failed for {what}: {detail}{more}"
        )


# -- symbolic message templates ------------------------------------------


def _template(header, shape, lens, prefix):
    """A message as one entry per 4-byte word: the ``header`` words,
    then ``shape``'s wire layout under ``lens`` — symbolic for data,
    concrete for length words.  The layout is the stub contract's; that
    it is the encoding is checked where the template is used, by
    running the generic MiniC program on it."""
    return header + [
        word.count if isinstance(word, LenWord)
        else sym(f"{prefix}.{word.path}") for word in shape.layout(lens)]


def _len_words(header_words, shape, lens):
    """``(word index, LenWord)`` of every bounded-array length word of
    the message — the corruption targets of the hostile-input probes."""
    return [(header_words + index, word)
            for index, word in enumerate(shape.layout(lens))
            if isinstance(word, LenWord)]


def _concrete_words(words):
    """Replace the symbolic words of a template with deterministic
    concrete values, keeping concrete words (status, lengths) as-is.
    Word 0, the xid, is the caller's to set: the edge words go to the
    data, where a wrong wrap shows."""
    fill = _probe_words()
    return words[:1] + [w if not is_sym(w) else next(fill)
                        for w in words[1:]]


def _words_to_buffer(interp, words, name):
    buffer = interp.make_sym_buffer(4 * len(words), name=name)
    for index, word in enumerate(words):
        buffer.store_u32(4 * index, word)
    return buffer


# -- symbolic struct instances -------------------------------------------


def _sym_value(name, _ctype):
    return sym(name)


def _fill_symbolic(struct_val, var_fields, lens, prefix,
                   value_of=_sym_value):
    """Make every data field of a MiniC struct instance a fresh symbol
    (or whatever ``value_of(name, ctype)`` supplies); bounded-array
    length fields get their assumed (concrete) length, and the
    elements past it stay zero."""
    for fname, ftype in struct_val.stype.fields:
        cell = struct_val.field(fname)
        name = f"{prefix}.{fname}"
        if isinstance(ftype, ct.ArrayType):
            array = cell.value
            for index in range(min(lens.get(fname, len(array)),
                                   len(array))):
                array.elem(index).value = value_of(f"{name}[{index}]",
                                                   ftype.base)
        elif isinstance(ftype, ct.StructType):
            _fill_symbolic(cell.value, (), {}, name, value_of)
        elif fname.endswith("_len") and fname[:-4] in var_fields:
            cell.value = lens[fname[:-4]]
        else:
            cell.value = value_of(name, ftype)


def _probe_values():
    """A ``value_of`` for :func:`_fill_symbolic` giving deterministic
    concrete values of each field's own type."""
    words = _probe_words()
    return lambda name, ctype: ct.wrap_int(next(words), ctype)


def _struct_mismatches(entry, prefix, left, right, findings):
    """Structural comparison of two decoded struct instances."""
    for fname, ftype in left.stype.fields:
        name = f"{prefix}.{fname}"
        cell_l, cell_r = left.field(fname), right.field(fname)
        if isinstance(ftype, ct.StructType):
            _struct_mismatches(entry, name, cell_l.value, cell_r.value,
                               findings)
        elif isinstance(ftype, ct.ArrayType):
            arr_l, arr_r = cell_l.value, cell_r.value
            # the residual's array may be narrower; the decoded length
            # (compared as a field) lies within both
            for index in range(min(len(arr_l), len(arr_r))):
                vl = arr_l.elem(index).value
                vr = arr_r.elem(index).value
                if not values_equal(vl, vr):
                    findings.append(_finding(
                        "residual-divergence", entry,
                        f"decoded {name}[{index}] diverges:"
                        f" generic={render(vl)} residual={render(vr)}",
                    ))
                    return
        elif not values_equal(cell_l.value, cell_r.value):
            findings.append(_finding(
                "residual-divergence", entry,
                f"decoded {name} diverges:"
                f" generic={render(cell_l.value)}"
                f" residual={render(cell_r.value)}",
            ))
            return


def _compare_buffers(entry, what, generic_buf, residual_buf, length,
                     findings):
    generic_bytes = generic_buf.sym_bytes()
    residual_bytes = residual_buf.sym_bytes()
    if not residual_buf.covered(length):
        hole = next(
            i for i in range(length) if not residual_buf.written[i]
        )
        findings.append(_finding(
            "residual-uninitialized", entry,
            f"{what}: residual output byte {hole} of {length} was never"
            " written",
        ))
        return
    for index in range(length):
        if not values_equal(generic_bytes[index], residual_bytes[index]):
            findings.append(_finding(
                "residual-divergence", entry,
                f"{what}: output byte {index} diverges:"
                f" generic={render(generic_bytes[index])}"
                f" residual={render(residual_bytes[index])}",
            ))
            return


# -- running one entry ----------------------------------------------------


class _Run:
    """Outcome of one symbolic/concrete execution of a codec entry."""

    __slots__ = ("status", "value", "error", "out", "resp")

    def __init__(self, status, value=None, error=None, out=None, resp=None):
        self.status = status  # "ok" | "error" | "undecidable"
        self.value = value
        self.error = error
        self.out = out
        self.resp = resp


def _run_with(interp, entry, param_names, make_values):
    """Run ``entry`` on the world ``make_values(interp)`` builds."""
    values, out, resp = make_values(interp)
    try:
        result = interp.call(
            entry, [values[name] for name in param_names]
        )
    except Undecidable as exc:
        return _Run("undecidable", error=exc)
    except (InterpError, KeyError) as exc:
        return _Run("error", error=exc)
    return _Run("ok", value=result, out=out, resp=resp)


def _python_value(shape, struct_val):
    """A concrete interpreter struct as the application passes it: a
    dict per struct, bounded arrays cut to their length."""
    out = {}
    for field in shape.fields:
        value = struct_val.field(field.name).value
        if isinstance(value, rv.ArrayVal):
            value = value.values()
            if field.bound is not None:
                value = value[:struct_val.field(f"{field.name}_len").value]
        elif isinstance(value, rv.StructVal):
            value = _python_value(field.struct, value)
        out[field.name] = value
    return out


def _plain_stub(value):
    """A decoded stub struct as :func:`_python_value` spells it."""
    if hasattr(value, "__slots__"):
        return {name: _plain_stub(getattr(value, name))
                for name in value.__slots__}
    return value


def _message(words):
    return struct.pack(f">{len(words)}I", *words)


def _patched(words, index, value):
    out = list(words)
    out[index] = value
    return out


def _length_corruptions(base, header_words, shape, lens, short):
    """(label, words) of the message ``base`` with each bounded-array
    length word past its bound, negative and (``short``) one short."""
    probes = []
    for index, (field, bound, count) in _len_words(header_words, shape,
                                                   lens):
        probes.append((f"len-{field}-over-bound",
                       _patched(base, index, bound + 1)))
        probes.append((f"len-{field}-negative",
                       _patched(base, index, 0xFFFFFFFF)))
        if short and count > 0:
            probes.append((f"len-{field}-short",
                           _patched(base, index, count - 1)))
    return probes


def _off_profile_lens(shape, lens):
    """(label, lens) for the off-profile neighbours of ``lens``: per
    bounded array one element fewer, one more, and none."""
    probes = []
    for field, count in lens.items():
        for other in sorted({count - 1, count + 1, 0} - {count}):
            if 0 <= other <= shape.bounds[field]:
                probes.append((f"len-{field}-{other}-elements",
                               {**lens, field: other}))
    return probes


def _off_profile_messages(shape, lens, base, template_for):
    """(label, words) of concrete messages that are not of the proved
    size: the in-domain message ``base`` four bytes short and four
    long, and the well-formed message ``template_for(other)`` for each
    off-profile neighbour ``other`` of ``lens``."""
    probes = [("short-4-bytes", base[:-1]), ("long-4-bytes", base + [0])]
    for label, other in _off_profile_lens(shape, lens):
        probes.append((label, _concrete_words(template_for(other))))
    return probes


# -- the protocol ---------------------------------------------------------


class _Codec:
    """One codec under the verification protocol (:meth:`verify`).  A
    subclass supplies only what differs between the three:

    * :meth:`world` — the input world of one run, symbolic or of the
      concrete ``probe``, as ``(values, out, resp)``;
    * :meth:`answers` — what answering means (a decline is safe: the
      caller goes generic);
    * :meth:`compare` — what is compared: the message bytes, or the
      decoded struct;
    * ``faults_decline`` — whether a residual fault on a hostile probe
      is a decline (the server's entry falls back) or a finding;
    * :meth:`entry` — the fused entry's answer to a concrete probe, and
      :meth:`output` a generic run's answer spelled the same way;
    * :meth:`hostile` and :meth:`entry_only` — the probe lists, built
      only once the symbolic pair has passed.
    """

    #: what the codec reads or writes, for the findings
    message = None
    #: the input template (recv, dispatch) and its declared size
    template = size = None
    faults_decline = False
    #: whether the generic program must answer on the declared domain
    #: (a marshal's may not: the request does not fit its ``outsize``)
    oracle_answers = True
    #: the length the generic marshal must produce, when one is declared
    declared = None

    def __init__(self, pipeline, result, sig, module):
        self.pipeline, self.sig = pipeline, sig
        self.entry_name = result.entry_name
        self.generic_program = pipeline.program_ast
        self.generic_typeinfo = pipeline.typeinfo
        self.generic_names = [param.name for param in
                              self.generic_program.func(sig.name).params]
        #: the residual program as it serves: the one ``module`` (its
        #: compiled form, arrays narrowed) was built from, checked once
        self.program = module.program
        self.typeinfo = typecheck_program(self.program)
        self.residual_names = [name for _ctype, name
                               in result.residual_params]

    def run_generic(self, make_values):
        return _run_with(SymbolicInterpreter(
            self.generic_program, typeinfo=self.generic_typeinfo),
            self.sig.name, self.generic_names, make_values)

    def run_pair(self, make_values):
        """``make_values(interp)`` builds the world for one program
        (fresh buffers/structs, shared symbol names); returns the two
        :class:`_Run` outcomes (generic, residual)."""
        return self.run_generic(make_values), _run_with(
            SymbolicInterpreter(self.program, typeinfo=self.typeinfo),
            self.entry_name, self.residual_names, make_values)

    def finding(self, rule, message, **context):
        return [_finding(rule, self.entry_name, message, **context)]

    def verify(self):
        """The protocol: the symbolic pair; each hostile probe, both
        programs then the fused entry; the entry-only probes.  Returns
        the findings of the first step that has any."""
        name = self.name
        if self.template is not None and 4 * len(self.template) != self.size:
            return self.finding(
                "verify-internal",
                f"{self.message} template is {4 * len(self.template)}"
                f" bytes, expected {self.size}")
        generic, residual = self.run_pair(self.world)
        if generic.status != "ok" or is_sym(generic.value) or (
                self.oracle_answers and not self.answers(generic.value)):
            return self.finding(
                "verify-internal",
                f"generic {name} oracle refused the in-domain"
                f" {self.message}: {generic.error or generic.value!r}")
        if residual.status == "undecidable":
            return self.finding(
                "residual-undecidable",
                f"{name} has data-dependent control flow the verifier"
                f" cannot decide: {residual.error}")
        if residual.status == "error":
            return self.finding(
                "residual-bounds",
                f"{name} faulted on the declared domain: {residual.error}")
        if not self.answers(residual.value):
            return self.finding(
                "residual-domain-reject",
                f"{name} declines its own declared domain"
                f" (returns {render(residual.value)})")
        findings = self.compare(generic, residual)
        if findings:
            return findings

        for label, probe in self.hostile():
            generic, residual = self.run_pair(
                lambda interp: self.world(interp, probe))
            findings = []
            if residual.status != "ok":
                if not self.faults_decline:
                    return self.finding(
                        "residual-bounds",
                        f"{name} faulted on hostile input ({label}):"
                        f" {residual.error}", probe=label)
            elif self.answers(residual.value):
                if generic.status != "ok" or generic.value != residual.value:
                    return self.finding(
                        "residual-accepts-bad-input",
                        f"{name} answers a {self.message} the generic"
                        f" program refuses or answers otherwise"
                        f" ({label})", probe=label)
                findings = self.compare(generic, residual, label)
            findings += self.gate(label, probe, lambda: self.output(generic))
            if findings:
                return findings

        for label, probe, asked in self.entry_only():
            findings = self.gate(label, probe, (
                lambda: self.output(self.run_generic(
                    lambda interp: self.world(interp, probe))))
                if asked else None)
            if findings:
                return findings
        return []

    def gate(self, label, probe, oracle=None):
        """The entry gate for one concrete probe: the fused entry's
        answer to it (None: it declined) against ``oracle()``, what the
        generic program answers (None: it refuses).  Only the
        ``in-domain`` probe must be served; an answer must be the
        oracle's.  A probe with no oracle is of a length the residual
        was not proved on: the entry's guard must decline it, whatever
        the residual would have made of it."""
        answer = self.entry(probe)
        rule = "lowering-divergence"
        if answer is None:
            if label != "in-domain":
                return []
            what = "the entry declines the message it was built for"
        elif oracle is None:
            rule = "guard-domain"
            what = "the entry serves a length outside its guard domain"
        else:
            expected = oracle()
            if answer == expected:
                return []
            what = ("the entry answers a message the generic program"
                    " refuses" if expected is None else
                    "the entry's answer differs from the generic program's")
        return self.finding(rule, f"{what} ({label})", probe=label)

    def output(self, run):
        """The bytes a concrete generic run produced, None when it
        refused."""
        if run.status != "ok" or not self.answers(run.value):
            return None
        return bytes(run.out.sym_bytes()[:run.value])

    def compare(self, generic, residual, label=None):
        """The message bytes, the return value their length: on the
        symbolic pair (no ``label``) the lengths first."""
        name = self.name
        if label is None:
            if is_sym(residual.value):
                return self.finding(
                    "residual-divergence",
                    f"{name} output length is data-dependent:"
                    f" {render(residual.value)}")
            if residual.value != generic.value or self.declared not in (
                    None, generic.value):
                declared = ("" if self.declared is None
                            else f" declared={self.declared}")
                return self.finding(
                    "residual-divergence",
                    f"{name} length diverges: generic={generic.value}"
                    f" residual={residual.value}{declared}")
        findings = []
        _compare_buffers(self.entry_name,
                         name if label is None else f"{name}[{label}]",
                         generic.out, residual.out, generic.value, findings)
        return findings

    def hostile(self):
        return []

    def _base(self):
        """The concrete in-domain message, with the codec's probe xid."""
        return [self.XID] + _concrete_words(self.template)[1:]


class _Marshal(_Codec):
    name, message = "marshal", "request"
    oracle_answers = False

    def __init__(self, pipeline, spec):
        super().__init__(pipeline, spec.marshal_result, spec.proc.marshal,
                         spec._marshal_module)
        self.spec = spec
        self.declared = spec.expected_request

    @staticmethod
    def answers(value):
        return is_sym(value) or value != 0

    def world(self, interp, lens=None):
        """The symbolic world, or (``lens`` given) a concrete one whose
        bounded arrays hold ``lens`` elements; the argument struct
        rides in the result slot."""
        spec = self.spec
        out = interp.make_sym_buffer(spec.bufsize, name="out")
        clnt = interp.make_struct("CLIENT")
        clnt.field("cl_prog").value = self.pipeline.prog_number
        clnt.field("cl_vers").value = self.pipeline.vers_number
        args = interp.make_struct(spec.arg_struct.name)
        concrete = lens is not None
        _fill_symbolic(args, tuple(spec.arg_struct.bounds),
                       lens if concrete else spec._arg_lens, "arg",
                       _probe_values() if concrete else _sym_value)
        return self.sig.bind({
            "client": interp.ptr_to(clnt),
            "xid": _PROBE_XID if concrete else sym("xid"),
            "args": interp.ptr_to(args),
            "outbuf": rv.BufPtr(out, 0, 1, True),
            "outsize": spec.bufsize,
        }, spec.proc.lens(spec._arg_lens, {}), int), out, args

    def entry(self, lens):
        # the arguments as the generic program, built on the capacity
        # it declares (the residual's arrays are narrowed), holds them
        args = self.world(SymbolicInterpreter(
            self.generic_program, typeinfo=self.generic_typeinfo), lens)[2]
        return self.spec.build_request(
            _PROBE_XID + _XID_EXCESS, _python_value(self.spec.arg_struct,
                                                    args))

    def entry_only(self):
        spec = self.spec
        return [("in-domain", spec._arg_lens, True)] + [
            (label, lens, False) for label, lens in _off_profile_lens(
                spec.arg_struct, spec._arg_lens)]


def _reply_template(spec, xid, lens=None):
    # xid, REPLY, MSG_ACCEPTED, null verf, SUCCESS — six header words
    return _template([xid, 1, 0, 0, 0, 0], spec.ret_struct,
                     spec._res_lens if lens is None else lens, "res")


class _Recv(_Codec):
    name, message = "recv", "reply"
    #: the xid of the concrete replies
    XID = 0x7F03AB01

    def __init__(self, pipeline, spec):
        super().__init__(pipeline, spec.recv_result, spec.proc.recv,
                         spec._recv_module)
        self.spec = spec
        self.template = _reply_template(spec, sym("xid"))
        self.size = spec.expected_reply

    @staticmethod
    def answers(value):
        return value == 1

    def world(self, interp, probe=None):
        words, xid = (self.template, sym("xid")) if probe is None else probe
        buf = _words_to_buffer(interp, words, "in")
        resp = interp.make_struct(self.spec.ret_struct.name)
        return self.sig.bind({
            "inbuf": rv.BufPtr(buf, 0, 1, True),
            "inlen": 4 * len(words),
            "xid": xid,
            "result": interp.ptr_to(resp),
        }, self.spec.proc.lens({}, self.spec._res_lens), int), buf, resp

    def compare(self, generic, residual, label=None):
        findings = []
        _struct_mismatches(self.entry_name,
                           "res" if label is None else f"res[{label}]",
                           generic.resp, residual.resp, findings)
        return findings

    def output(self, run):
        if run.status != "ok" or not self.answers(run.value):
            return None
        return _python_value(self.spec.ret_struct, run.resp)

    def entry(self, probe):
        words, xid = probe
        return _plain_stub(self.spec.decode_reply(_message(words),
                                                  xid + _XID_EXCESS))

    def hostile(self):
        """The in-domain reply and its corruptions, each with the xid
        the caller expects."""
        base, xid = self._base(), self.XID
        return [
            ("in-domain", (list(base), xid)),
            ("wrong-mtype", (_patched(base, 1, 0), xid)),
            ("denied-reply", (_patched(base, 2, 1), xid)),
            ("garbage-args-stat", (_patched(base, 5, 4), xid)),
            ("stale-xid", (list(base), (xid + 1) & 0xFFFFFFFF)),
        ] + [(label, (words, xid)) for label, words in _length_corruptions(
            base, REPLY_HEADER_WORDS, self.spec.ret_struct,
            self.spec._res_lens, True)]

    def entry_only(self):
        spec = self.spec
        return [(label, (words, self.XID), False)
                for label, words in _off_profile_messages(
                    spec.ret_struct, spec._res_lens, self._base(),
                    lambda lens: _reply_template(spec, self.XID, lens))]


def _call_template(pipeline, proc, arg_lens, xid):
    return _template([
        xid, 0, 2, pipeline.prog_number, pipeline.vers_number,
        proc.number, 0, 0, 0, 0,
    ], proc.arg, arg_lens, "arg")


class _Dispatch(_Codec):
    """Server semantics differ from the client in one way: the fused
    entry treats *any* residual exception as a decline and the generic
    body answers, so a residual fault on hostile input is safe — only
    answering with bytes that diverge from the generic dispatcher is an
    error."""

    name, message = "dispatch", "call"
    faults_decline = True
    #: the xid of the concrete calls
    XID = 0x7F03AB02

    def __init__(self, pipeline, result, proc, arg_lens, res_lens, bufsize,
                 module):
        super().__init__(pipeline, result, pipeline._version.process,
                         module)
        self.proc, self.module = proc, module
        self.arg_lens, self.res_lens = arg_lens, res_lens
        self.bufsize = bufsize
        self.template = _call_template(pipeline, proc, arg_lens, sym("xid"))
        self.size = proc.request_size(arg_lens)

    @staticmethod
    def answers(value):
        return not is_sym(value) and value != 0

    def world(self, interp, words=None):
        words = self.template if words is None else words
        buf = _words_to_buffer(interp, words, "in")
        out = interp.make_sym_buffer(self.bufsize, name="out")
        return self.sig.bind({
            "inbuf": rv.BufPtr(buf, 0, 1, True),
            "inlen": 4 * len(words),
            "outbuf": rv.BufPtr(out, 0, 1, True),
            "outsize": self.bufsize,
        }, self.proc.lens(self.arg_lens, self.res_lens), int), out, None

    def entry(self, words):
        return self.module.entry(_message(words))

    def hostile(self):
        base, proc = self._base(), self.proc
        return [
            ("in-domain", list(base)),
            ("wrong-mtype", _patched(base, 1, 1)),
            ("wrong-rpcvers", _patched(base, 2, 3)),
            ("wrong-prog", _patched(base, 3, self.pipeline.prog_number + 1)),
            ("wrong-proc", _patched(base, 5, proc.number + 1)),
        ] + _length_corruptions(base, CALL_HEADER_WORDS, proc.arg,
                                self.arg_lens, False)

    def entry_only(self):
        return [(label, words, False) for label, words in
                _off_profile_messages(
                    self.proc.arg, self.arg_lens, self._base(),
                    lambda lens: _call_template(self.pipeline, self.proc,
                                                lens, self.XID))]


# -- the entry points -----------------------------------------------------


def verify_client_spec(pipeline, spec):
    """Verify one :class:`ClientSpecialization`.  Returns findings
    (empty list == verified)."""
    findings = []
    # Guard-domain conformance: the declared fast-path sizes must equal
    # the contract's wire arithmetic, recomputed here from the lengths.
    want_request = spec.proc.request_size(spec._arg_lens)
    want_reply = spec.proc.reply_size(spec._res_lens)
    if spec.expected_request != want_request:
        findings.append(_finding(
            "guard-domain", spec.marshal_result.entry_name,
            f"declared request guard {spec.expected_request} !="
            f" computed {want_request}",
        ))
    if spec.expected_reply != want_reply:
        findings.append(_finding(
            "guard-domain", spec.recv_result.entry_name,
            f"declared reply guard {spec.expected_reply} !="
            f" computed {want_reply}",
        ))
    if findings:
        return findings
    return (_Marshal(pipeline, spec).verify()
            + _Recv(pipeline, spec).verify())


def verify_server_residual(pipeline, result, proc, arg_lens, res_lens,
                           bufsize, module=None):
    """Verify one residual server dispatcher.  Returns findings.
    ``module`` is its compiled form, the one that serves; given none,
    it is compiled by the build's own recipe,
    ``pipeline.compile_server``.  The program it was compiled from is
    the one interpreted, and its fused entry is held to the gate."""
    if module is None:
        module = pipeline.compile_server(result, proc, arg_lens, res_lens)
    return _Dispatch(pipeline, result, proc, arg_lens, res_lens, bufsize,
                     module).verify()
