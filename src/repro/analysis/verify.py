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


def _generic_params(program, entry):
    return [param.name for param in program.func(entry).params]


def _residual_params(result):
    return [name for _ctype, name in result.residual_params]


class _Harness:
    """Builds matched input worlds for the generic and residual
    programs of one codec and runs both."""

    def __init__(self, pipeline, result, generic_entry, module=None):
        self.pipeline = pipeline
        self.result = result
        self.generic_entry = generic_entry
        self.generic_program = pipeline.program_ast
        self.generic_typeinfo = pipeline.typeinfo
        #: the residual program as it runs: the one ``module`` (its
        #: compiled form, arrays narrowed) was built from, when given
        self.program = result.program if module is None else module.program
        #: checked once here, not once per probe
        self.residual_typeinfo = typecheck_program(self.program)
        self.generic_names = _generic_params(
            self.generic_program, generic_entry
        )
        self.residual_names = _residual_params(result)

    def run_pair(self, make_values):
        """``make_values(interp)`` builds the world for one program
        (fresh buffers/structs, shared symbol names); returns the two
        :class:`_Run` outcomes (generic, residual)."""
        return self.run_generic(make_values), self.run_residual(make_values)

    def run_generic(self, make_values):
        interp = SymbolicInterpreter(
            self.generic_program, typeinfo=self.generic_typeinfo
        )
        values, out, resp = make_values(interp)
        return _run_with(interp, self.generic_entry, self.generic_names,
                         values, out, resp)

    def run_residual(self, make_values):
        interp = SymbolicInterpreter(
            self.program, typeinfo=self.residual_typeinfo
        )
        values, out, resp = make_values(interp)
        return _run_with(interp, self.result.entry_name,
                         self.residual_names, values, out, resp)

    def entry_findings(self, label, answer, oracle=None):
        """The entry gate for one concrete probe: ``answer`` is what the
        fused entry returned for it (None: it declined) and ``oracle()``
        what the generic program answers (None: it refuses).  Only the
        ``in-domain`` probe must be served; an answer must be the
        oracle's.  A probe with no oracle is of a length the residual
        was not proved on: the entry's guard must decline it, whatever
        the residual would have made of it."""
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
        return [_finding(rule, self.result.entry_name, f"{what} ({label})",
                         probe=label)]


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


def _output(run):
    """The bytes a concrete generic run produced, None when it refused."""
    if run.status != "ok" or not run.value:
        return None
    return bytes(run.out.sym_bytes()[:run.value])


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


def _run_with(interp, entry, param_names, values, out, resp):
    try:
        result = interp.call(
            entry, [values[name] for name in param_names]
        )
    except Undecidable as exc:
        return _Run("undecidable", error=exc)
    except InterpError as exc:
        return _Run("error", error=exc)
    except KeyError as exc:
        return _Run("error", error=exc)
    return _Run("ok", value=result, out=out, resp=resp)


# -- the client verifier --------------------------------------------------


def verify_client_spec(pipeline, spec):
    """Verify one :class:`ClientSpecialization`.  Returns findings
    (empty list == verified)."""
    findings = []
    marshal_entry = spec.marshal_result.entry_name
    recv_entry = spec.recv_result.entry_name

    # Guard-domain conformance: the declared fast-path sizes must equal
    # the contract's wire arithmetic, recomputed here from the lengths.
    want_request = spec.proc.request_size(spec._arg_lens)
    want_reply = spec.proc.reply_size(spec._res_lens)
    if spec.expected_request != want_request:
        findings.append(_finding(
            "guard-domain", marshal_entry,
            f"declared request guard {spec.expected_request} !="
            f" computed {want_request}",
        ))
    if spec.expected_reply != want_reply:
        findings.append(_finding(
            "guard-domain", recv_entry,
            f"declared reply guard {spec.expected_reply} !="
            f" computed {want_reply}",
        ))
    if findings:
        return findings

    findings.extend(_verify_marshal(pipeline, spec, want_request))
    findings.extend(_verify_recv(pipeline, spec, want_reply))
    return findings


def _verify_marshal(pipeline, spec, want_request):
    findings = []
    sig = spec.proc.marshal
    harness = _Harness(pipeline, spec.marshal_result, sig.name,
                       spec._marshal_module)
    var_fields = tuple(spec.arg_struct.bounds)
    entry = spec.marshal_result.entry_name
    xid = sym("xid")

    def make_values(interp, lens=None):
        """The symbolic world, or (``lens`` given) a concrete one whose
        bounded arrays hold ``lens`` elements; the argument struct
        rides in the result slot."""
        out = interp.make_sym_buffer(spec.bufsize, name="out")
        clnt = interp.make_struct("CLIENT")
        clnt.field("cl_prog").value = pipeline.prog_number
        clnt.field("cl_vers").value = pipeline.vers_number
        args = interp.make_struct(spec.arg_struct.name)
        concrete = lens is not None
        _fill_symbolic(args, var_fields, lens if concrete else spec._arg_lens,
                       "arg", _probe_values() if concrete else _sym_value)
        return sig.bind({
            "client": interp.ptr_to(clnt),
            "xid": _PROBE_XID if concrete else xid,
            "args": interp.ptr_to(args),
            "outbuf": rv.BufPtr(out, 0, 1, True),
            "outsize": spec.bufsize,
        }, spec.proc.lens(spec._arg_lens, {}), int), out, args

    generic, residual = harness.run_pair(make_values)
    if generic.status != "ok" or is_sym(generic.value):
        findings.append(_finding(
            "verify-internal", entry,
            f"generic marshal oracle failed: {generic.error or generic.value!r}",
        ))
        return findings
    if residual.status == "undecidable":
        findings.append(_finding(
            "residual-undecidable", entry,
            f"marshal has data-dependent control flow the verifier cannot"
            f" decide: {residual.error}",
        ))
        return findings
    if residual.status == "error":
        findings.append(_finding(
            "residual-bounds", entry,
            f"marshal faulted on the declared domain: {residual.error}",
        ))
        return findings
    if is_sym(residual.value):
        findings.append(_finding(
            "residual-divergence", entry,
            f"marshal output length is data-dependent:"
            f" {render(residual.value)}",
        ))
        return findings
    if residual.value == 0:
        findings.append(_finding(
            "residual-domain-reject", entry,
            "marshal declines its own declared domain (returns 0)",
        ))
        return findings
    if residual.value != generic.value or generic.value != want_request:
        findings.append(_finding(
            "residual-divergence", entry,
            f"marshal length diverges: generic={generic.value}"
            f" residual={residual.value} declared={want_request}",
        ))
        return findings
    _compare_buffers(entry, "marshal", generic.out, residual.out,
                     want_request, findings)
    if findings:
        return findings

    # The entry gate, on concrete arguments of the assumed lengths —
    # the oracle is the generic program, built on the capacity it
    # declares (the residual's arrays are narrowed) — and of their
    # neighbours, which the entry must decline.
    def built(lens):
        args = make_values(SymbolicInterpreter(
            harness.generic_program, typeinfo=harness.generic_typeinfo,
        ), lens)[2]
        return spec.build_request(_PROBE_XID + _XID_EXCESS,
                                  _python_value(spec.arg_struct, args))

    findings.extend(harness.entry_findings(
        "in-domain", built(spec._arg_lens),
        lambda: _output(harness.run_generic(
            lambda interp: make_values(interp, spec._arg_lens)))))
    for label, lens in _off_profile_lens(spec.arg_struct, spec._arg_lens):
        if findings:
            break
        findings.extend(harness.entry_findings(label, built(lens)))
    return findings


def _reply_template(spec, xid, lens=None):
    # xid, REPLY, MSG_ACCEPTED, null verf, SUCCESS — six header words
    return _template([xid, 1, 0, 0, 0, 0], spec.ret_struct,
                     spec._res_lens if lens is None else lens, "res")


def _verify_recv(pipeline, spec, want_reply):
    findings = []
    sig = spec.proc.recv
    harness = _Harness(pipeline, spec.recv_result, sig.name,
                       spec._recv_module)
    entry = spec.recv_result.entry_name
    xid = sym("xid")
    words = _reply_template(spec, xid)
    if 4 * len(words) != want_reply:
        findings.append(_finding(
            "verify-internal", entry,
            f"reply template is {4 * len(words)} bytes, expected"
            f" {want_reply}",
        ))
        return findings

    def make_values(interp, template=words, pxid=xid):
        buf = _words_to_buffer(interp, template, "in")
        resp = interp.make_struct(spec.ret_struct.name)
        return sig.bind({
            "inbuf": rv.BufPtr(buf, 0, 1, True),
            "inlen": 4 * len(template),
            "xid": pxid,
            "result": interp.ptr_to(resp),
        }, spec.proc.lens({}, spec._res_lens), int), buf, resp

    generic, residual = harness.run_pair(make_values)
    if generic.status != "ok" or generic.value != 1:
        findings.append(_finding(
            "verify-internal", entry,
            f"generic recv oracle rejected the in-domain reply:"
            f" {generic.error or generic.value!r}",
        ))
        return findings
    if residual.status == "undecidable":
        findings.append(_finding(
            "residual-undecidable", entry,
            f"recv has data-dependent control flow the verifier cannot"
            f" decide: {residual.error}",
        ))
        return findings
    if residual.status == "error":
        findings.append(_finding(
            "residual-bounds", entry,
            f"recv faulted on the declared domain: {residual.error}",
        ))
        return findings
    if residual.value != 1:
        findings.append(_finding(
            "residual-domain-reject", entry,
            "recv declines its own declared domain (returns 0)",
        ))
        return findings
    _struct_mismatches(entry, "res", generic.resp, residual.resp, findings)
    if findings:
        return findings

    def decoded(run):
        """What a concrete generic run decoded, None when it refused."""
        if run.status != "ok" or run.value != 1:
            return None
        return _python_value(spec.ret_struct, run.resp)

    def gate(label, template, pxid, generic=None):
        """The entry gate on one concrete reply, ``generic`` the
        generic program's run on it (none: an off-profile length)."""
        return harness.entry_findings(
            label,
            _plain_stub(spec.decode_reply(_message(template),
                                          pxid + _XID_EXCESS)),
            None if generic is None else lambda: decoded(generic))

    # Hostile-input probes: concrete corrupted replies.  The residual
    # may decline anything; it must never accept what generic rejects,
    # and when both accept the decode must agree.
    probes = _recv_probes(spec, words)
    for label, probe_words, probe_xid in probes:
        generic, residual = harness.run_pair(
            lambda interp: make_values(interp, probe_words, probe_xid))
        if residual.status in ("error", "undecidable"):
            findings.append(_finding(
                "residual-bounds", entry,
                f"recv faulted on hostile input ({label}):"
                f" {residual.error}",
                probe=label,
            ))
            return findings
        if residual.value == 1:
            if generic.status != "ok" or generic.value != 1:
                findings.append(_finding(
                    "residual-accepts-bad-input", entry,
                    f"recv accepts a reply the generic decoder rejects"
                    f" ({label})",
                    probe=label,
                ))
                return findings
            _struct_mismatches(entry, f"res[{label}]", generic.resp,
                               residual.resp, findings)
        findings.extend(gate(label, probe_words, probe_xid, generic))
        if findings:
            return findings

    # Off-profile lengths: the residual program assumes ``inlen``, so
    # only the entry — its guard — is asked.
    _label, base, probe_xid = probes[0]
    for label, template in _off_profile_messages(
            spec.ret_struct, spec._res_lens, base,
            lambda lens: _reply_template(spec, probe_xid, lens)):
        findings.extend(gate(label, template, probe_xid))
        if findings:
            return findings
    return findings


def _recv_probes(spec, template):
    """(label, words, xid) triples of corrupted concrete replies."""
    base = _concrete_words(template)
    xid = 0x7F03AB01
    base[0] = xid
    probes = [
        ("in-domain", list(base), xid),
        ("wrong-mtype", _patched(base, 1, 0), xid),
        ("denied-reply", _patched(base, 2, 1), xid),
        ("garbage-args-stat", _patched(base, 5, 4), xid),
        ("stale-xid", list(base), (xid + 1) & 0xFFFFFFFF),
    ]
    for index, (field, bound, count) in _len_words(
            REPLY_HEADER_WORDS, spec.ret_struct, spec._res_lens):
        probes.append((
            f"len-{field}-over-bound", _patched(base, index, bound + 1),
            xid,
        ))
        probes.append((
            f"len-{field}-negative", _patched(base, index, 0xFFFFFFFF),
            xid,
        ))
        if count > 0:
            probes.append((
                f"len-{field}-short", _patched(base, index, count - 1),
                xid,
            ))
    return probes


def _patched(words, index, value):
    out = list(words)
    out[index] = value
    return out


# -- the server verifier --------------------------------------------------


def _call_template(pipeline, proc, arg_lens, xid):
    return _template([
        xid, 0, 2, pipeline.prog_number, pipeline.vers_number,
        proc.number, 0, 0, 0, 0,
    ], proc.arg, arg_lens, "arg")


def verify_server_residual(pipeline, result, proc, arg_lens, res_lens,
                           bufsize, module=None):
    """Verify one residual server dispatcher.  Returns findings.
    ``module`` is the dispatcher's compiled form, when there is one:
    the program it was compiled from is the one interpreted, and its
    fused entry is held to the entry gate.

    Server semantics differ from the client in one way: the fused entry
    treats *any* residual exception as a decline and the generic body
    answers, so a residual fault on hostile input is safe — only
    accepting with bytes that diverge from the generic dispatcher is an
    error.  On the declared domain the residual must still answer (no
    decline) with the generic bytes.
    """
    findings = []
    entry = result.entry_name
    want_request = proc.request_size(arg_lens)

    sig = pipeline._version.process
    harness = _Harness(pipeline, result, sig.name, module)

    words = _call_template(pipeline, proc, arg_lens, sym("xid"))
    if 4 * len(words) != want_request:
        findings.append(_finding(
            "verify-internal", entry,
            f"call template is {4 * len(words)} bytes, expected"
            f" {want_request}",
        ))
        return findings

    def make_values(interp, template=words):
        buf = _words_to_buffer(interp, template, "in")
        out = interp.make_sym_buffer(bufsize, name="out")
        return sig.bind({
            "inbuf": rv.BufPtr(buf, 0, 1, True),
            "inlen": 4 * len(template),
            "outbuf": rv.BufPtr(out, 0, 1, True),
            "outsize": bufsize,
        }, proc.lens(arg_lens, res_lens), int), out, None

    generic, residual = harness.run_pair(make_values)
    if generic.status != "ok" or is_sym(generic.value) \
            or generic.value == 0:
        findings.append(_finding(
            "verify-internal", entry,
            f"generic dispatch oracle failed on the in-domain call:"
            f" {generic.error or generic.value!r}",
        ))
        return findings
    if residual.status == "undecidable":
        findings.append(_finding(
            "residual-undecidable", entry,
            f"dispatch has control flow the verifier cannot decide:"
            f" {residual.error}",
        ))
        return findings
    if residual.status == "error":
        findings.append(_finding(
            "residual-bounds", entry,
            f"dispatch faulted on the declared domain: {residual.error}",
        ))
        return findings
    if is_sym(residual.value) or residual.value == 0:
        findings.append(_finding(
            "residual-domain-reject", entry,
            "dispatch declines its own declared domain",
        ))
        return findings
    if residual.value != generic.value:
        findings.append(_finding(
            "residual-divergence", entry,
            f"dispatch reply length diverges: generic={generic.value}"
            f" residual={residual.value}",
        ))
        return findings
    _compare_buffers(entry, "dispatch", generic.out, residual.out,
                     generic.value, findings)
    if findings:
        return findings

    def gate(label, template, generic=None):
        """The entry gate on one concrete call, ``generic`` the generic
        program's run on it (none: an off-profile length)."""
        if module is None:
            return []
        return harness.entry_findings(
            label, module.entry(_message(template)),
            None if generic is None else lambda: _output(generic))

    # Hostile probes: residual may decline or fault (the entry treats
    # both as fallback) but must not answer with divergent bytes.
    probes = _server_probes(pipeline, arg_lens, proc, words)
    for label, probe in probes:
        generic, residual = harness.run_pair(
            lambda interp: make_values(interp, probe))
        # a decline or fault is the generic fallback's to handle
        if residual.status == "ok" and residual.value != 0:
            if generic.status != "ok" or generic.value != residual.value:
                findings.append(_finding(
                    "residual-accepts-bad-input", entry,
                    f"dispatch answers a call the generic dispatcher"
                    f" handles differently ({label})",
                    probe=label,
                ))
                return findings
            _compare_buffers(entry, f"dispatch[{label}]", generic.out,
                             residual.out, generic.value, findings)
        findings.extend(gate(label, probe, generic))
        if findings:
            return findings

    # Off-profile lengths: the residual program assumes ``inlen``, so
    # only the entry — its guard — is asked.
    base = probes[0][1]
    for label, template in _off_profile_messages(
            proc.arg, arg_lens, base,
            lambda lens: _call_template(pipeline, proc, lens, base[0])):
        findings.extend(gate(label, template))
        if findings:
            return findings
    return findings


def _server_probes(pipeline, arg_lens, proc, template):
    base = _concrete_words(template)
    base[0] = 0x7F03AB02
    probes = [
        ("in-domain", list(base)),
        ("wrong-mtype", _patched(base, 1, 1)),
        ("wrong-rpcvers", _patched(base, 2, 3)),
        ("wrong-prog", _patched(base, 3, pipeline.prog_number + 1)),
        ("wrong-proc", _patched(base, 5, proc.number + 1)),
    ]
    for index, (field, bound, _count) in _len_words(
            CALL_HEADER_WORDS, proc.arg, arg_lens):
        probes.append((
            f"len-{field}-over-bound", _patched(base, index, bound + 1)
        ))
        probes.append((
            f"len-{field}-negative", _patched(base, index, 0xFFFFFFFF)
        ))
    return probes
