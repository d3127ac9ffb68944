"""Loops by induction: residualize a static loop as one counted loop.

The paper's Tempo unrolls a static loop completely, so a marshaling
loop over n elements leaves n copies of its body in the residual
program.  :class:`LoopInduction` — a part of
:class:`repro.tempo.specializer.Specializer`, selected by
``Options(roll=True)`` — instead *proves* that every trip does the same
thing and emits the body once:

* two scratch trips give the per-trip delta of every static location
  the loop changes;
* each such loop-carried location is bound to ``base + step * k``
  (:class:`repro.tempo.pe_values.Affine`) over a fresh residual counter
  ``k``, and the trip count N is solved from the loop test;
* the body is specialized once from that hypothesis — tests on affine
  values are decided at both ends of ``[0, N)`` — and must map the
  hypothesis at ``k`` to the hypothesis at ``k + 1``;
* ``k = 0; while (k < N) { body; k = k + 1; }`` is emitted and
  specialization goes on from the state at ``k = N``, where the loop
  test must fail.

Anything that is not affine abandons the attempt without a trace and
the loop is unrolled, so the rule never loses a specialization
(docs/SPECIALIZATION.md, "Loops by induction").
"""

from repro.errors import SpecializationError
from repro.minic import ast
from repro.minic import types as ctypes
from repro.tempo import pe_values as pv
from repro.tempo.signals import (
    NeedsLoopDemotion,
    NeedsOutline,
    SpecBreak,
    SpecContinue,
    SpecReturn,
)

#: loop tests the rule can solve for a trip count
_ROLL_TESTS = ("<", "<=", ">", ">=", "!=")
#: specializations of the body before its residual identities must
#: have settled (two suffice for every loop seen so far)
_MAX_ROUNDS = 8


class LoopInduction:
    """The induction rule, written against the engine's own state,
    block and naming machinery (``self`` is the ``Specializer``)."""

    def _roll_loop(self, cond_node, body_node, step_node):
        """Residualize a static loop as ``k = 0; while (k < N) { body;
        k = k + 1; }`` when its trips are provably all alike
        (docs/SPECIALIZATION.md, "Loops by induction") and return True;
        or leave no trace and return False, so the caller unrolls."""
        if not (
            isinstance(cond_node, ast.Binary) and cond_node.op in _ROLL_TESTS
        ):
            return False
        mark = self._mark()
        self._rolling = pv.Induction()
        try:
            self._roll(cond_node, body_node, step_node, mark)
            return True
        except (SpecializationError, SpecBreak, SpecReturn):
            # Not inductive (pv.NotAffine), or the loop ends or fails
            # inside its first trips: the unrolling meets that again.
            self._reset(mark)
            return False
        except (NeedsOutline, NeedsLoopDemotion):
            self._reset(mark)
            raise
        finally:
            self._rolling = None

    def _mark(self):
        """Everything a scratch specialization can touch, for
        :meth:`_reset`: the PE state, the open block, the recorded
        returns, and the name and function tables (so that an abandoned
        attempt costs not even a name)."""
        return (
            self.snapshot_state(),
            self.fb.snapshot(),
            self.residual.snapshot(),
            len(self.frame.returns),
            dict(self.spec_cache),
            self._tmp_counter,
        )

    def _reset(self, mark):
        state, function, program, returns, spec_cache, self._tmp_counter = mark
        self.restore_state(state)
        self.fb.rollback(function)
        self.residual.rollback(program)
        del self.frame.returns[returns:]
        self.spec_cache = dict(spec_cache)

    def _spec_trip(self, cond_node, body_node, step_node):
        """One trip of a static loop — the test, which must hold, the
        body, the step — into a block of its own, which is returned."""
        block = self.fb.push_block()
        try:
            cond = self.spec_expr(cond_node)
            if not (
                isinstance(cond, pv.Static) and self.truthy_static(cond.value)
            ):
                raise pv.NotAffine("loop test not statically true")
            try:
                self.spec_stmt(body_node)
            except SpecContinue:
                pass
            if step_node is not None:
                self.spec_expr(step_node)
        finally:
            self.fb.pop_block()
        if block.terminated:
            raise pv.NotAffine("the body always leaves the loop")
        return block

    def _bind_carried(self, carried, at):
        """Bind every loop-carried location to its value at ``at``."""
        for key, value in carried.items():
            value = pv.Static(_map_affine(value, at))
            if key[0] == "v":
                self.frame.scopes[key[1]][key[2]] = value
            elif key[0] == "f":
                self.store.mutable(key[1]).fields[key[2]] = value
            elif key[0] == "e":
                self.store.mutable(key[1]).set_elem(key[2], value)
            else:
                self.store.mutable(key[1]).value = value

    def _roll(self, cond_node, body_node, step_node, mark):
        ind = self._rolling
        # Two scratch trips: what they change must change by one delta.
        states = [self.snapshot_state()]
        for _trip in range(2):
            self._spec_trip(cond_node, body_node, step_node)
            states.append(self.snapshot_state())
        first, second, third = map(self.state_locations, states)
        carried = {}
        for key, value in first.items():
            values = (value, second.get(key), third.get(key))
            if not all(map(self._branch_values_agree, values, values[1:])):
                carried[key] = _affine_through(values, ind)
        self._reset(mark)
        # The hypothesis at k, and N from the loop test under it.
        ind.name = self._residual_var("k", ctypes.INT)
        self._bind_carried(carried, lambda value: value)
        hypothesis = self.snapshot_state()
        scratch = self.fb.push_block()
        try:
            left = self.spec_expr(cond_node.left)
            right = self.spec_expr(cond_node.right)
        finally:
            self.fb.pop_block()
        if scratch.stmts or not all(
            isinstance(side, pv.Static)
            and isinstance(side.value, (int, pv.Affine))
            for side in (left, right)
        ):
            raise pv.NotAffine("loop test is not an affine ordering")
        ind.trips = pv.solve_trips(cond_node.op, left.value - right.value)
        if ind.trips < 3:
            raise pv.NotAffine("fewer than three trips")
        # The step: the body takes the hypothesis at k to the one at
        # k + 1 and changes nothing else.  A trip may also give an
        # object its residual identity (the same for every k): the body
        # is then specialized again from the state that has it.
        for _round in range(_MAX_ROUNDS):
            self.restore_state(hypothesis)
            body = self._spec_trip(cond_node, body_node, step_node)
            before = self.state_locations(hypothesis)
            for key, value in self.state_locations(self.snapshot_state()).items():
                if key in carried:
                    wanted = pv.Static(
                        _map_affine(carried[key], lambda a: a + a.step)
                    )
                elif key in before:
                    wanted = before[key]
                elif (
                    isinstance(value, pv.Static)
                    and pv.is_affine(value.value)
                    and (key[0] == "v" or key[1] in hypothesis[0].objects)
                ):
                    # a new element, field or variable of something that
                    # outlives the loop would carry the counter out
                    raise pv.NotAffine(f"{key} keeps an affine value")
                else:
                    continue
                if not self._branch_values_agree(wanted, value):
                    raise pv.NotAffine(f"{key} leaves the hypothesis")
            if all(
                self.store.get(oid).root is obj.root
                for oid, obj in hypothesis[0].objects.items()
            ):
                break
            self._bind_carried(carried, lambda value: value)
            hypothesis = self.snapshot_state()
        else:
            raise pv.NotAffine("residual identities did not settle")

        def assign_counter(value):
            return ast.ExprStmt(ast.Assign(None, ast.Var(ind.name), value))

        self.fb.emit(assign_counter(ast.IntLit(0)))
        body.emit(
            assign_counter(
                ast.Binary("+", ast.Var(ind.name), ast.IntLit(1))
            )
        )
        self.fb.emit(
            ast.While(
                ast.Binary("<", ast.Var(ind.name), ast.IntLit(ind.trips)),
                body.to_block(),
            )
        )
        # Onward from the state at k = N, where the test must fail.
        self._bind_carried(carried, lambda value: value.at(ind.trips))
        cond = self.spec_expr(cond_node)
        if not isinstance(cond, pv.Static) or self.truthy_static(cond.value):
            raise pv.NotAffine("loop test holds after the last trip")


def _affine_through(values, ind):
    """The affine value — an integer, or a pointer into one array at an
    affine index — that takes the three static ``values`` at k = 0, 1
    and 2."""
    if not all(isinstance(value, pv.Static) for value in values):
        raise pv.NotAffine("loop-carried value is not static")
    values = [value.value for value in values]
    if all(isinstance(value, pv.ElemPtr) for value in values):
        if len({value.aid for value in values}) != 1:
            raise pv.NotAffine("loop-carried pointer changes array")
        index = _affine_through(
            [pv.Static(value.index) for value in values], ind
        )
        return pv.ElemPtr(values[0].aid, index)
    first, second, third = values
    if not all(isinstance(value, int) for value in values) or (
        second - first != third - second
    ):
        raise pv.NotAffine("loop-carried value is not an arithmetic progression")
    return pv.affine(first, second - first, ind)


def _map_affine(concrete, function):
    """``function`` applied to the affine part of a loop-carried value."""
    if isinstance(concrete, pv.ElemPtr):
        return pv.ElemPtr(concrete.aid, function(concrete.index))
    return function(concrete)
