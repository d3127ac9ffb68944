"""Seeded-bug corpus: the verifier must reject every mutated residual.

Each mutant plants one realistic specializer bug — an off-by-one
length, a swapped store order, a dropped bounds check, a guard widened
past the profiled domain — in an otherwise-verified residual codec,
and the test asserts the verifier rejects it.  A verifier that accepts
any of these would wave divergent residual code into live dispatch.

The flip side is the Hypothesis property at the bottom: codecs the
verifier *accepts* are byte-identical to the generic stack on random
in-domain payloads.
"""

import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import verify_client_spec, verify_server_residual
from repro.minic import ast
from repro.minic import types as ct
from repro.minic.parser import parse_program
from repro.rpc.client import RpcClient
from repro.rpc.message import (AcceptStat, NULL_AUTH,
                               encode_accepted_reply)
from repro.specialized import SpecializationPipeline
from repro.xdr import XdrMemStream, XdrOp

from tests.analysis.conftest import XFER_IDL, XFER_IMPL
from tests.analysis.test_verify import respec
from tests.minic.test_lowering import relowered

VALS_LEN = 8


def mutate(result, fn):
    """Deep-copy a SpecializationResult and apply ``fn(program)``."""
    clone = copy.deepcopy(result)
    fn(clone.program)
    return clone


def bump_literals(old, new):
    """Every IntLit ``old`` becomes ``new`` (off-by-one seeding)."""
    def apply(program):
        changed = 0
        for func in program.funcs:
            for node in ast.walk(func):
                if isinstance(node, ast.IntLit) and node.value == old:
                    node.value = new
                    changed += 1
        assert changed, "mutation found nothing to change"
    return apply


def swap_adjacent_assigns(program):
    """Swap the last two adjacent assignment statements in a block."""
    for func in program.funcs:
        for node in ast.walk(func):
            if not isinstance(node, ast.Block):
                continue
            idxs = [i for i, s in enumerate(node.stmts)
                    if isinstance(s, ast.ExprStmt)
                    and isinstance(s.expr, ast.Assign)]
            if len(idxs) >= 2:
                a, b = idxs[-2], idxs[-1]
                node.stmts[a], node.stmts[b] = node.stmts[b], node.stmts[a]
                return
    raise AssertionError("mutation found nothing to change")


def drop_negative_length_check(field):
    """Remove every ``if (<field> < 0) ...`` guard in the program."""
    def _is_check(stmt):
        return (isinstance(stmt, ast.If)
                and isinstance(stmt.cond, ast.Binary)
                and stmt.cond.op == "<"
                and isinstance(stmt.cond.right, ast.IntLit)
                and stmt.cond.right.value == 0
                and getattr(stmt.cond.left, "field", None) == field)

    def apply(program):
        dropped = 0
        for func in program.funcs:
            for node in ast.walk(func):
                if isinstance(node, ast.Block):
                    kept = [s for s in node.stmts if not _is_check(s)]
                    dropped += len(node.stmts) - len(kept)
                    node.stmts[:] = kept
        assert dropped, "mutation found nothing to change"
    return apply


def drop_decline(field):
    """Replace every ``if (<field> == N) { T } else { return 0; }`` — a
    length guard's decline of every other length — by ``T``."""
    def _is_guard(stmt):
        other = getattr(stmt, "other", None)
        return (isinstance(stmt, ast.If)
                and isinstance(stmt.cond, ast.Binary)
                and stmt.cond.op == "=="
                and getattr(stmt.cond.left, "field", None) == field
                and isinstance(other, ast.Block) and len(other.stmts) == 1
                and isinstance(other.stmts[0], ast.Return))

    def apply(program):
        dropped = 0
        for func in program.funcs:
            for node in ast.walk(func):
                if isinstance(node, ast.Block):
                    kept = []
                    for stmt in node.stmts:
                        if _is_guard(stmt):
                            kept.append(stmt.then)
                            dropped += 1
                        else:
                            kept.append(stmt)
                    node.stmts[:] = kept
        assert dropped, "mutation found nothing to change"
    return apply


def both(*mutations):
    def apply(program):
        for mutation in mutations:
            mutation(program)
    return apply


def swap_assigns_in(name_fragment):
    """Swap the last two assignments in each function matching the name.

    Targets codec bodies (element stores) rather than whatever block
    ``ast.walk`` yields first — a swap in a struct-setup prologue is
    order-independent and the verifier rightly accepts it.
    """
    def apply(program):
        swapped = 0
        for func in program.funcs:
            if name_fragment not in func.name:
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Block):
                    continue
                idxs = [i for i, s in enumerate(node.stmts)
                        if isinstance(s, ast.ExprStmt)
                        and isinstance(s.expr, ast.Assign)]
                if len(idxs) >= 2:
                    a, b = idxs[-2], idxs[-1]
                    node.stmts[a], node.stmts[b] = node.stmts[b], node.stmts[a]
                    swapped += 1
                    break
        assert swapped, "mutation found nothing to change"
    return apply


def last_buffer_store(program):
    """(statement list, index) of the last store through a pointer —
    in a rolled codec, the element store of the loop body."""
    found = None
    for func in program.funcs:
        for node in ast.walk(func):
            if not isinstance(node, ast.Block):
                continue
            for index, stmt in enumerate(node.stmts):
                if (isinstance(stmt, ast.ExprStmt)
                        and isinstance(stmt.expr, ast.Assign)
                        and isinstance(stmt.expr.target, ast.Unary)
                        and stmt.expr.target.op == "*"):
                    found = node.stmts, index
    assert found, "mutation found nothing to change"
    return found


def swap_last_store_and_bump(program):
    """The last buffer store trades places with its cursor bump."""
    stmts, index = last_buffer_store(program)
    stmts[index], stmts[index + 1] = stmts[index + 1], stmts[index]


def drop_last_store(program):
    """Delete the last buffer store (a skipped field write)."""
    stmts, index = last_buffer_store(program)
    del stmts[index]


class TestClientMutants:
    def _verify(self, pipeline, spec):
        return [f.rule for f in verify_client_spec(pipeline, spec)]

    def test_marshal_len_off_by_one(self, xfer_pipeline, xfer_client):
        # mutant 1: the stored length word says 9, the guard says 8.
        bad = respec(xfer_pipeline, xfer_client,
                     marshal_result=mutate(xfer_client.marshal_result,
                                           bump_literals(VALS_LEN,
                                                         VALS_LEN + 1)))
        assert self._verify(xfer_pipeline, bad)

    def test_marshal_swapped_stores(self, xfer_pipeline, xfer_client):
        # mutant 2: the element stores land one slot late.
        bad = respec(xfer_pipeline, xfer_client,
                     marshal_result=mutate(xfer_client.marshal_result,
                                           swap_last_store_and_bump))
        assert self._verify(xfer_pipeline, bad)

    def test_marshal_dropped_store(self, xfer_pipeline, xfer_client):
        # mutant 3: one field write is simply missing.
        bad = respec(xfer_pipeline, xfer_client,
                     marshal_result=mutate(xfer_client.marshal_result,
                                           drop_last_store))
        assert self._verify(xfer_pipeline, bad)

    def test_recv_dropped_bounds_check(self, xfer_pipeline, xfer_client):
        # mutant 4: the negative-length rejection is gone, and with it
        # the decline of every other length (alone, either leaves the
        # other to refuse); a hostile reply the generic stack refuses
        # is now accepted.
        bad = respec(xfer_pipeline, xfer_client,
                     recv_result=mutate(
                         xfer_client.recv_result,
                         both(drop_negative_length_check("vals_len"),
                              drop_decline("vals_len"))))
        rules = self._verify(xfer_pipeline, bad)
        assert "residual-accepts-bad-input" in rules

    def test_request_guard_widened(self, xfer_pipeline, xfer_client):
        # mutant 5: fast-path request guard wider than the profile.
        bad = respec(xfer_pipeline, xfer_client)
        bad.expected_request += 4
        assert self._verify(xfer_pipeline, bad) == ["guard-domain"]

    def test_reply_guard_widened(self, xfer_pipeline, xfer_client):
        # mutant 6: fast-path reply guard wider than the profile.
        bad = respec(xfer_pipeline, xfer_client)
        bad.expected_reply += 4
        assert self._verify(xfer_pipeline, bad) == ["guard-domain"]

    def test_recv_swapped_fields(self, rmin_pipeline, rmin_client):
        # mutant 7: the two result fields decode into swapped slots.
        bad = respec(rmin_pipeline, rmin_client,
                     recv_result=mutate(rmin_client.recv_result,
                                        swap_adjacent_assigns))
        assert self._verify(rmin_pipeline, bad)


def rolled_loop(program):
    """(statements around it, index, the While) of the rolled element
    loop ``k = 0; while (k < N) { ACCESS; BUMP; k = k + 1; }``."""
    for func in program.funcs:
        for node in ast.walk(func):
            if not isinstance(node, ast.Block):
                continue
            for index, stmt in enumerate(node.stmts):
                if (isinstance(stmt, ast.While)
                        and isinstance(stmt.cond.right, ast.IntLit)
                        and stmt.cond.right.value == VALS_LEN):
                    return node.stmts, index, stmt
    raise AssertionError("mutation found nothing to change")


def one_trip_short(program):
    _stmts, _index, loop = rolled_loop(program)
    loop.cond.right.value -= 1


def starts_at_one(program):
    stmts, index, _loop = rolled_loop(program)
    stmts[index - 1].expr.value.value = 1


def index_off_by_one(program):
    _stmts, _index, loop = rolled_loop(program)
    access = loop.body.stmts[0]
    element = next(node for node in ast.walk(access)
                   if isinstance(node, ast.Index)
                   and isinstance(node.index, ast.Var))
    element.index = ast.Binary("+", element.index, ast.IntLit(1))


def bump_of_eight(program):
    _stmts, _index, loop = rolled_loop(program)
    loop.body.stmts[1].expr.value.right.value = 8


def stride_of_two(program):
    _stmts, _index, loop = rolled_loop(program)
    loop.body.stmts[2].expr.value.right.value = 2


class TestRolledLoopMutants:
    """One wrong constant in a loop residualized by induction — the
    bound, the start, the index, the cursor bump, the counter step —
    must not get past the verifier, on the store loop or the load
    loop."""

    MUTANTS = (one_trip_short, starts_at_one, index_off_by_one,
               bump_of_eight, stride_of_two)

    def test_the_subject_is_a_rolled_loop(self, xfer_client):
        for result in (xfer_client.marshal_result, xfer_client.recv_result):
            assert f"while (k < {VALS_LEN})" in result.pretty()

    @pytest.mark.parametrize("mutant", MUTANTS,
                             ids=lambda fn: fn.__name__)
    def test_marshal_loop(self, xfer_pipeline, xfer_client, mutant):
        bad = respec(xfer_pipeline, xfer_client,
                     marshal_result=mutate(xfer_client.marshal_result,
                                           mutant))
        assert verify_client_spec(xfer_pipeline, bad)

    @pytest.mark.parametrize("mutant", MUTANTS,
                             ids=lambda fn: fn.__name__)
    def test_recv_loop(self, xfer_pipeline, xfer_client, mutant):
        bad = respec(xfer_pipeline, xfer_client,
                     recv_result=mutate(xfer_client.recv_result, mutant))
        assert verify_client_spec(xfer_pipeline, bad)


class TestServerMutants:
    def _verify(self, pipeline, server, result):
        proc = pipeline.find_proc("SENDRECV")
        return [f.rule for f in verify_server_residual(
            pipeline, result, proc, {"vals": VALS_LEN},
            {"vals": VALS_LEN}, server.bufsize)]

    def test_server_swapped_element_stores(self, xfer_pipeline,
                                           xfer_server):
        # mutant 8: element stores in the array codec land in each
        # other's slots.  The symbolic run can no longer prove the
        # bytes match and the verifier rejects — fail closed.
        bad = mutate(xfer_server.result, swap_assigns_in("intarr"))
        assert self._verify(xfer_pipeline, xfer_server, bad)

    def test_server_dropped_bounds_check(self, xfer_pipeline, xfer_server):
        # mutant 9: negative-length requests reach the handler instead
        # of drawing GARBAGE_ARGS (the decline of other lengths is gone
        # too); the hostile probe catches the residual answering where
        # the generic stack refuses.
        bad = mutate(xfer_server.result,
                     both(drop_negative_length_check("vals_len"),
                          drop_decline("vals_len")))
        rules = self._verify(xfer_pipeline, xfer_server, bad)
        assert "residual-accepts-bad-input" in rules


class TestDeclineArmMutants:
    """A live residual declines a length other than the one it was
    built for.  Here its decline arm answers instead, with the bytes of
    the assumed length: the hostile probe whose length word is one
    short (a message of the proved size, which the entry's size guard
    lets through) must catch it, on either side."""

    N = 20

    @staticmethod
    def answer_off_profile(program):
        """``if (len == N) { T } else { return 0; }`` becomes ``if (len
        == N) { T } else { T }``."""
        changed = 0
        for func in program.funcs:
            for node in ast.walk(func):
                other = getattr(node, "other", None)
                if (isinstance(node, ast.If)
                        and isinstance(node.cond, ast.Binary)
                        and node.cond.op == "=="
                        and getattr(node.cond.left, "field", None)
                        == "vals_len"
                        and isinstance(other, ast.Block)
                        and len(other.stmts) == 1
                        and isinstance(other.stmts[0], ast.Return)):
                    node.other = copy.deepcopy(node.then)
                    changed += 1
        assert changed, "mutation found nothing to change"

    def test_server_decline_arm_that_answers(self, xfer_pipeline):
        lens = {"vals": self.N}
        server = xfer_pipeline.specialize_server(
            "SENDRECV", arg_lens=lens, res_lens=lens)
        proc = xfer_pipeline.find_proc("SENDRECV")

        def verify(result):
            return [f.rule for f in verify_server_residual(
                xfer_pipeline, result, proc, lens, lens, server.bufsize)]

        assert verify(server.result) == []
        rules = verify(mutate(server.result, self.answer_off_profile))
        assert rules and set(rules) <= {"guard-domain",
                                        "residual-accepts-bad-input"}

    def test_recv_decline_arm_that_answers(self, xfer_pipeline):
        lens = {"vals": self.N}
        client = xfer_pipeline.specialize_client(
            "SENDRECV", arg_lens=lens, res_lens=lens)
        assert verify_client_spec(xfer_pipeline, client) == []
        bad = respec(xfer_pipeline, client, recv_result=mutate(
            client.recv_result, self.answer_off_profile))
        rules = [f.rule for f in verify_client_spec(xfer_pipeline, bad)]
        assert rules and set(rules) <= {"guard-domain",
                                        "residual-accepts-bad-input"}


class TestSignednessMutants:
    """A handler computing ``x >> 4`` on a signed int, and the residual
    with that shift made unsigned.  The symbolic pair alone rejects it:
    the finding is the pair's, before any concrete probe runs."""

    SHIFT_IMPL = XFER_IMPL.replace("args->vals[i] + 1",
                                   "args->vals[i] >> 4")

    @staticmethod
    def unsigned_shift(program):
        """Every signed ``a >> b`` becomes ``(int)((unsigned)a >> b)``."""
        changed = 0
        for func in program.funcs:
            for node in ast.walk(func):
                for name in node.__slots__:
                    child = getattr(node, name, None)
                    if (isinstance(child, ast.Binary) and child.op == ">>"
                            and not isinstance(child.left, ast.Cast)):
                        child.left = ast.Cast(ct.UNSIGNED, child.left)
                        setattr(node, name, ast.Cast(ct.INT, child))
                        changed += 1
        assert changed, "mutation found nothing to change"

    def test_unsigned_shift_is_rejected_by_the_symbolic_pair(self):
        assert self.SHIFT_IMPL != XFER_IMPL
        pipeline = SpecializationPipeline(
            XFER_IDL, impl_sources=[self.SHIFT_IMPL], verify=False)
        lens = {"vals": VALS_LEN}
        server = pipeline.specialize_server("SENDRECV", arg_lens=lens,
                                            res_lens=lens)
        proc = pipeline.find_proc("SENDRECV")

        def verify(result):
            return verify_server_residual(pipeline, result, proc, lens,
                                          lens, server.bufsize)

        assert verify(server.result) == []
        findings = verify(mutate(server.result, self.unsigned_shift))
        assert [f.rule for f in findings] == ["residual-divergence"]
        assert findings[0].message.startswith("dispatch: output byte")


def relower(module, old, new):
    """A CompiledModule whose generated Python has ``old`` -> ``new``:
    the residual MiniC is right, its lowering is not."""
    assert old in module.source, "mutation found nothing to change"
    return relowered(module, lambda source: source.replace(old, new))


class TestLoweringMutants:
    """The bug is in ``compile_py``'s output, not in the residual MiniC:
    only the lowering gate can see it."""

    def _verify(self, pipeline, server, module):
        proc = pipeline.find_proc("SENDRECV")
        return [f.rule for f in verify_server_residual(
            pipeline, server.result, proc, {"vals": VALS_LEN},
            {"vals": VALS_LEN}, server.bufsize, module=module)]

    def test_clean_lowering_passes_the_gate(self, xfer_pipeline,
                                            xfer_server):
        assert self._verify(xfer_pipeline, xfer_server,
                            xfer_server._module) == []

    def test_handler_loop_one_trip_short(self, xfer_pipeline, xfer_server):
        # mutant 10: the handler's map comprehension stops one element
        # early, so the last element goes back unincremented.
        loop = re.search(r"for _e1 in (\w+)\[(\d+):\]\]",
                         xfer_server._module.source)
        bad = relower(xfer_server._module, loop.group(0),
                      f"for _e1 in {loop.group(1)}[{loop.group(2)}:-1]]")
        assert self._verify(xfer_pipeline, xfer_server, bad) == [
            "lowering-divergence"]

    #: the handler's map loop ``res.vals[i] = args.vals[i] + 1``, with
    #: one of its parts lowered wrong: (pattern, replacement).  The
    #: in-domain probe opens with ``INT_MAX``, whose ``+ 1`` wraps: the
    #: reply's pack is the range check, its ``struct.error`` arm the
    #: wrap.
    MAP_MUTANTS = {
        "rewrap-deleted": (
            r"(except _struct\.error:\n +)\w+ = [^\n]+", r"\1pass"),
        # the arm taken on a failure the pack does not raise
        "range-check-wrong-side": (
            r"except _struct\.error:", r"except OverflowError:"),
        "range-check-deleted": (
            r"try:\n +(return _S\d+\.pack\([^\n]+)\n +except _struct\.error:"
            r"\n[^\n]+\n[^\n]+", r"\1"),
        "map-reads-dst": (
            r"(\w+) = \[(_e1 \+ 1) for _e1 in [^\n]+\]", r"\1 = [\2 for _e1 in \1]"),
    }

    @pytest.mark.parametrize("name", sorted(MAP_MUTANTS))
    def test_map_loop_mutant(self, xfer_pipeline, xfer_server, name):
        pattern, replacement = self.MAP_MUTANTS[name]
        source = xfer_server._module.source
        assert re.search(pattern, source), "mutation found nothing to change"
        bad = relowered(xfer_server._module,
                        lambda text: re.sub(pattern, replacement, text))
        assert self._verify(xfer_pipeline, xfer_server, bad) == [
            "lowering-divergence"]

    def test_promoted_cursor_advanced_one_word_short(self, xfer_pipeline,
                                                     xfer_server):
        # mutant 13: the reply run, one pack since the reply buffer's
        # length is known, ends one word short of the 15-word reply:
        # its format and its values one word short.
        bad = relowered(xfer_server._module, lambda text: text.replace(
            f"I{VALS_LEN}i')", f"I{VALS_LEN - 1}i')").replace(
            "*t_arr)", "*t_arr[:-1])"))
        assert bad.source != xfer_server._module.source
        assert self._verify(xfer_pipeline, xfer_server, bad) == [
            "lowering-divergence"]

    def test_escaping_cursor_promoted_anyway(self, xfer_pipeline,
                                             xfer_server):
        # mutant 14: escape analysis that missed a call — the reply
        # cursor is promoted to an ``int`` offset, yet handed to a callee
        # that was not inlined and so still takes a pointer.
        run = re.search(r"(_S\d+)\.pack\(([^*]+), \*(\w+)\)",
                        xfer_server._module.source)
        packer, words, vals = run.groups()
        callee = (f"\ndef mc_put_vals(xdrs_private, *words):\n"
                  f"    {packer}.pack_into(xdrs_private.buffer.data,"
                  f" xdrs_private.offset, *words)\n")
        bad = relowered(xfer_server._module, lambda text: text.replace(
            run.group(0), f"mc_put_vals(0, {words}, *{vals})") + callee)
        assert self._verify(xfer_pipeline, xfer_server, bad) == [
            "lowering-divergence"]

    def test_client_marshal_slice_shifted(self, xfer_pipeline, xfer_client):
        # mutant 11: the slice-packed run starts one element late.
        bad = respec(xfer_pipeline, xfer_client)
        bad._marshal_module = relower(
            bad._marshal_module, "*argsp__vals)",
            f"*argsp__vals[1:{VALS_LEN}], 0)")
        assert [f.rule for f in verify_client_spec(xfer_pipeline, bad)] == [
            "lowering-divergence"]

    def test_client_recv_elided_wrap_gone_wrong(self, xfer_pipeline,
                                                xfer_client):
        # mutant 12: the decoded words are stored unsigned.
        words = 6 + 1 + VALS_LEN  # the reply, read whole
        bad = respec(xfer_pipeline, xfer_client)
        bad._recv_module = relower(
            bad._recv_module, f"'>{words}i'", f"'>{words}I'")
        assert "lowering-divergence" in [
            f.rule for f in verify_client_spec(xfer_pipeline, bad)]


class TestFusedEntryMutants:
    """The bug is in the staged interface of a fused entry — how it
    binds the caller's values and the message, and what it answers; the
    residual MiniC and its lowering are right: only a gate on the entry
    the transport calls can see it."""

    #: (the module sabotaged, old, new, the rule that must fire)
    MUTANTS = {
        # the caller's xid and a header word handed over swapped
        "marshal-arguments-swapped": (
            "_marshal_module", "pack(xid & 0xFFFFFFFF, 0, 2,",
            "pack(0, xid & 0xFFFFFFFF, 2,", "lowering-divergence"),
        # the request's xid and a reply word handed over swapped
        "dispatch-arguments-swapped": (
            "server", "pack(_w_inbuf[0], 1, 0,", "pack(1, _w_inbuf[0], 0,",
            "lowering-divergence"),
        # the reply pack one element short of its format: the reply
        # buffer one word short
        "dispatch-capacity-one-short": (
            "server", "*t_arr)", "*t_arr[:-1])", "lowering-divergence"),
        "marshal-guard-widened": (
            # wider, and the arguments cut to fit the pack
            "_marshal_module", f"if len(argsp__vals) != {VALS_LEN}:",
            f"argsp__vals = argsp__vals[:{VALS_LEN}]\n"
            f"        if len(argsp__vals) < {VALS_LEN}:",
            "guard-domain"),
        "recv-guard-widened": (
            "_recv_module", "if len(data) != ", "if len(data) < ",
            "guard-domain"),
        "dispatch-guard-widened": (
            "server", "if len(data) != ", "if len(data) < ",
            "guard-domain"),
        # the argument's field bound one element off
        "marshal-slice-off-by-one": (
            "_marshal_module", "else args.vals)\n",
            "else args.vals)[1:] + [0]\n", "lowering-divergence"),
        "recv-xid-mask-dropped": (
            "_recv_module", "!= (xid & 0xFFFFFFFF)", "!= xid",
            "lowering-divergence"),
        "recv-result-one-element-short": (
            "_recv_module", "list(_w_inbuf[7:])", "list(_w_inbuf[7:-1])",
            "lowering-divergence"),
        "dispatch-reply-one-word-short": (
            "server", ", *t_arr)\n", ", *t_arr)[:-4]\n",
            "lowering-divergence"),
    }

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_sabotaged_glue_is_rejected(self, xfer_pipeline, xfer_client,
                                        xfer_server, name):
        where, old, new, rule = self.MUTANTS[name]
        if where == "server":
            findings = verify_server_residual(
                xfer_pipeline, xfer_server.result,
                xfer_pipeline.find_proc("SENDRECV"), {"vals": VALS_LEN},
                {"vals": VALS_LEN}, xfer_server.bufsize,
                module=relower(xfer_server._module, old, new))
        else:
            bad = respec(xfer_pipeline, xfer_client)
            setattr(bad, where, relower(getattr(bad, where), old, new))
            findings = verify_client_spec(xfer_pipeline, bad)
        assert [f.rule for f in findings] == [rule]

    def test_a_residual_handed_over_alone_is_gated(
            self, xfer_pipeline, xfer_server, monkeypatch):
        # with no compiled form given, the verifier compiles the
        # residual by the build's own recipe and gates that entry —
        # as ``python -m repro.analysis verify`` once did not
        from repro.specialized import runtime

        real = runtime.dispatch_entry

        def sabotaged(*args):
            # the reply buffer one word short
            entry = real(*args)
            kind, size = entry.bindings["outbuf"]
            assert kind == "fresh"
            entry.bindings["outbuf"] = (kind, size - 4)
            return entry

        monkeypatch.setattr(runtime, "dispatch_entry", sabotaged)
        findings = verify_server_residual(
            xfer_pipeline, xfer_server.result,
            xfer_pipeline.find_proc("SENDRECV"), {"vals": VALS_LEN},
            {"vals": VALS_LEN}, xfer_server.bufsize)
        assert [f.rule for f in findings] == ["lowering-divergence"]


def prepended(source):
    """The codec's entry function opens with the MiniC ``source``."""
    def apply(program, entry):
        program.func(entry).body.stmts[:0] = parse_program(
            f"void f(void) {{ {source} }}").funcs[0].body.stmts
    return apply


#: a store past the end of a local array: a fault inside the residual
#: subset (``abort()`` is a call, outside it)
FAULT = "int mz[1]; mz[1] = 0;"


def on_word(index, test, then):
    """``if (WORD test) { then }``, WORD the ``index``-th word of the
    message, read through a cursor of its own (a byte read by index,
    ``inbuf[k]``, is a pointer read outside the residual subset)."""
    return (f"char *mc; mc = inbuf; mc = mc + {4 * index};"
            f" if ((long)ntohl((u_long)*(long *)mc) {test}) {{ {then} }}")


def drop_first_literal_store(program, entry):
    """The entry function's first store of a literal word is gone: a
    header word of the message is never written."""
    for block in ast.walk(program.func(entry)):
        if not isinstance(block, ast.Block):
            continue
        for index, stmt in enumerate(block.stmts):
            if (isinstance(stmt, ast.ExprStmt)
                    and isinstance(stmt.expr, ast.Assign)
                    and isinstance(stmt.expr.target, ast.Unary)
                    and stmt.expr.target.op == "*"
                    and isinstance(stmt.expr.value, ast.IntLit)):
                del block.stmts[index]
                return
    raise AssertionError("mutation found nothing to change")


class TestLadderRules:
    """Each step of the verification protocol, per codec, with the
    exact findings it yields: ``(rule, probe)`` in order.  A rule that
    moved to another step, or a step that stopped stopping, shows here.

    Every cell the protocol has is reached by a residual mutant.  Two
    combinations are not cells: the marshal has no hostile probes (its
    input is the application's struct, not a message), and the receive
    path writes a struct, not bytes, so it has no unwritten-byte step —
    a field it never sets shows as a divergence.  The server's entry
    turns any residual fault into a decline, so a dispatch that faults
    only on a hostile probe is accepted; the client's is a finding."""

    #: name -> (codec, mutation, findings)
    CELLS = {
        "marshal-declines": (
            "marshal", prepended("return 0;"),
            [("residual-domain-reject", None)]),
        "marshal-faults": (
            "marshal", prepended(FAULT), [("residual-bounds", None)]),
        "marshal-branches-on-xid": (
            "marshal", prepended("if (xid == 5) return 0;"),
            [("residual-undecidable", None)]),
        "marshal-leaves-a-word-unwritten": (
            "marshal", drop_first_literal_store,
            [("residual-uninitialized", None)]),
        "recv-declines": (
            "recv", prepended("return 0;"),
            [("residual-domain-reject", None)]),
        "recv-faults": (
            "recv", prepended(FAULT), [("residual-bounds", None)]),
        "recv-branches-on-xid": (
            "recv", prepended("if (xid == 5) return 0;"),
            [("residual-undecidable", None)]),
        "recv-faults-on-a-hostile-probe": (
            "recv", prepended(on_word(1, "!= 1", FAULT)),
            [("residual-bounds", "wrong-mtype")]),
        "dispatch-declines": (
            "dispatch", prepended("return 0;"),
            [("residual-domain-reject", None)]),
        "dispatch-faults": (
            "dispatch", prepended(FAULT), [("residual-bounds", None)]),
        "dispatch-branches-on-an-argument-byte": (
            "dispatch", prepended(on_word(11, "== 5", "return 0;")),
            [("residual-undecidable", None)]),
        "dispatch-leaves-a-word-unwritten": (
            "dispatch", drop_first_literal_store,
            [("residual-uninitialized", None)]),
        "dispatch-faults-only-on-a-hostile-probe": (
            "dispatch", prepended(on_word(1, "!= 0", FAULT)), []),
    }

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_each_step_keeps_its_rule(self, xfer_pipeline, xfer_client,
                                      xfer_server, name):
        codec, mutation, expected = self.CELLS[name]

        def mutant(result):
            clone = copy.deepcopy(result)
            mutation(clone.program, clone.entry_name)
            return clone

        if codec == "dispatch":
            findings = verify_server_residual(
                xfer_pipeline, mutant(xfer_server.result),
                xfer_pipeline.find_proc("SENDRECV"), {"vals": VALS_LEN},
                {"vals": VALS_LEN}, xfer_server.bufsize)
        else:
            result = getattr(xfer_client, f"{codec}_result")
            findings = verify_client_spec(xfer_pipeline, respec(
                xfer_pipeline, xfer_client,
                **{f"{codec}_result": mutant(result)}))
        assert [(f.rule, f.context.get("probe"))
                for f in findings] == expected


class TestAcceptedMeansIdentical:
    """Hypothesis: an accepted codec is byte-identical to generic."""

    @settings(max_examples=25, deadline=None)
    @given(
        vals=st.lists(st.integers(-2**31, 2**31 - 1),
                      min_size=VALS_LEN, max_size=VALS_LEN),
        xid=st.integers(1, 0xFFFFFFFF),
    )
    def test_request_bytes_identical(self, xfer_pipeline, xfer_client,
                                     vals, xid):
        stubs = xfer_pipeline.stubs
        proc = xfer_pipeline.find_proc("SENDRECV")
        client = RpcClient(xfer_pipeline.prog_number,
                           xfer_pipeline.vers_number)
        generic = client.build_call(xid, proc.number,
                                    stubs.intarr(vals=list(vals)),
                                    stubs.xdr_intarr)
        residual = xfer_client.build_request(
            xid, stubs.intarr(vals=list(vals)))
        assert residual == generic

    @settings(max_examples=25, deadline=None)
    @given(
        vals=st.lists(st.integers(-2**31, 2**31 - 1),
                      min_size=VALS_LEN, max_size=VALS_LEN),
        xid=st.integers(1, 0xFFFFFFFF),
    )
    def test_reply_decodes_identically(self, xfer_pipeline, xfer_client,
                                       vals, xid):
        stubs = xfer_pipeline.stubs
        stream = XdrMemStream(bytearray(1024), XdrOp.ENCODE)
        encode_accepted_reply(stream, xid, AcceptStat.SUCCESS, NULL_AUTH)
        stubs.xdr_intarr(stream, stubs.intarr(vals=list(vals)))
        data = stream.data()
        value = xfer_client.decode_reply(data, xid)
        assert list(value.vals) == list(vals)
