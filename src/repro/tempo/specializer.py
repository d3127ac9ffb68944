"""The Tempo specialization engine: an online, polyvariant partial
evaluator for MiniC.

Architecture
============

Specialization interprets the program over the PE value domain
(:mod:`repro.tempo.pe_values`): static computations are *executed* at
specialization time, dynamic computations are *residualized* into the
output program.  The engine implements the four refinements the paper
singles out for system code:

* **partially-static structures** — struct fields carry independent
  binding times in the PE store;
* **flow sensitivity** — binding times live in per-program-point
  environments; dynamic conditionals specialize each branch against a
  cloned state and *merge* at the join, lifting disagreeing statics into
  residual assignments at the ends of the branches;
* **context sensitivity** — calls are specialized per binding-time
  signature.  Calls whose specialized bodies have no dynamic early exit
  are inlined (the paper: "the specialized ``xdr_long()``, being small
  enough, disappears after inlining"); calls with residual returns under
  dynamic control are *outlined* into named residual functions, cached
  by signature;
* **static returns** — an outlined call all of whose return values are
  the same static constant is folded at the call site and the residual
  function is rewritten to return ``void`` (§3.3 of the paper).

Dynamic loops are residualized after a demotion fixpoint: any location
whose static value the loop body would change is lifted to a residual
variable before the loop, because the body re-executes at run time.

Alias assumption
================

Stores through *dynamic* pointers (the XDR buffer cursors) are assumed
not to alias statically-tracked storage.  This mirrors Tempo's declared
alias preconditions for the Sun RPC experiment; the RPC code satisfies
it because dynamic pointers only ever point into I/O buffers.
"""

from repro.errors import SpecializationError
from repro.minic import ast
from repro.minic import builtins
from repro.minic import types as ctypes
from repro.minic.interp import _address_taken_names, int_op
from repro.minic.pretty import pretty_expr
from repro.tempo import pe_values as pv
from repro.tempo.induction import LoopInduction
from repro.tempo.residual import (
    FunctionBuilder,
    ResidualProgram,
    is_simple_path,
)
from repro.tempo.signals import (
    NeedsLoopDemotion,
    NeedsOutline,
    SpecBreak,
    SpecContinue,
    SpecReturn,
)

_MAX_TOTAL_STATIC_ITERATIONS = 2_000_000
_MAX_INLINE_DEPTH = 64
_MAX_LOOP_FIXPOINT = 25


class Options:
    """Tunable knobs, including the paper's ablation switches."""

    def __init__(
        self,
        flow_sensitive=True,
        context_sensitive=True,
        partially_static=True,
        static_returns=True,
        inline=True,
        max_unroll=None,
        roll=False,
    ):
        self.flow_sensitive = flow_sensitive
        self.context_sensitive = context_sensitive
        self.partially_static = partially_static
        self.static_returns = static_returns
        self.inline = inline
        #: Residualize (do not unroll) static loops whose trip count
        #: exceeds this bound.  ``None`` = unroll completely, the
        #: paper's default behaviour.
        self.max_unroll = max_unroll
        #: Residualize a static loop whose trips are provably all alike
        #: as one counted loop (:mod:`repro.tempo.induction`) instead of
        #: unrolling it.  Off = the paper's Tempo.
        self.roll = roll

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in sorted(vars(self).items())
        )
        return f"Options({fields})"

    def __eq__(self, other):
        return isinstance(other, Options) and vars(self) == vars(other)


from repro.tempo.pe_values import UNINIT


class Frame:
    """One specialization-time activation."""

    __slots__ = (
        "func",
        "scopes",
        "types",
        "kind",
        "dyn_depth",
        "returns",
        "loop_stack",
    )

    def __init__(self, func, kind):
        self.func = func
        self.scopes = [{}]
        self.types = {}
        #: 'inline' frames raise on dynamic-control returns; 'residual'
        #: frames (the entry and outlined functions) emit them.
        self.kind = kind
        self.dyn_depth = 0
        #: list of (return_stmt_or_None, PEVal_or_None) in 'residual'
        #: frames; used for the static-returns/voidify decision.
        self.returns = []
        #: stack of 'static' / 'dynamic' markers for enclosing loops.
        self.loop_stack = []

    def push_scope(self):
        self.scopes.append({})

    def pop_scope(self):
        self.scopes.pop()

    def declare(self, name, value, ctype):
        self.scopes[-1][name] = value
        self.types[name] = ctype

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise KeyError(name)

    def assign(self, name, value):
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        raise KeyError(name)

    def has(self, name):
        return any(name in scope for scope in self.scopes)

    def env_snapshot(self):
        return [dict(scope) for scope in self.scopes]

    def env_restore(self, snapshot):
        self.scopes = [dict(scope) for scope in snapshot]


class Specializer(LoopInduction):
    """Drives specialization of one entry point.

    Use :func:`repro.tempo.driver.specialize` rather than this class
    directly; the driver translates user assumptions into the initial PE
    state and packages the result.
    """

    def __init__(self, program, typeinfo, options=None):
        self.program = program
        self.typeinfo = typeinfo
        self.options = options or Options()
        self.store = pv.Store()
        self.residual = ResidualProgram(program)
        self.frames = []
        #: (func name, signature) -> dict(name=..., ret=PEVal|None,
        #: void=bool, ret_type=CType)
        self.spec_cache = {}
        #: signatures known to need outlining (skip the inline trial)
        self.needs_outline = set()
        #: coarse signatures (array indexes erased) that inlined cleanly
        #: before: such calls are re-inlined without the snapshot/rollback
        #: safety net, which keeps unrolled loops linear instead of
        #: quadratic in the array size.
        self.inline_ok = set()
        self.call_stack = []
        self.static_iterations = 0
        #: original node uid -> set of 'S'/'D' marks (visualization)
        self.bt_marks = {}
        self._taken_cache = {}
        self._fb_stack = []
        self._tmp_counter = 0
        self._loop_entry_depths = []
        self._residual_loop_kinds = []
        #: the Induction of the loop being residualized by induction
        self._rolling = None

    # ------------------------------------------------------------------
    # small helpers

    @property
    def frame(self):
        return self.frames[-1]

    @property
    def fb(self):
        return self._fb_stack[-1]

    def mark(self, node, bt):
        self.bt_marks.setdefault(node.uid, set()).add(bt)

    def type_of(self, node):
        return self.typeinfo.expr_types.get(node.uid, ctypes.INT)

    def lift(self, value):
        """Residual expression for a PE value (fresh AST)."""
        if isinstance(value, pv.Dynamic):
            return pv.clone_expr(value.template)
        concrete = value.value
        if isinstance(concrete, bool):
            return ast.IntLit(int(concrete))
        if isinstance(concrete, (int, pv.Affine)):
            return _index_expr(concrete)
        if isinstance(concrete, pv.NullValue):
            return ast.IntLit(0)
        if isinstance(concrete, pv.StructPtr):
            self.materialize(self.store.get(concrete.sid))
            return self.store.pointer_expr(concrete.sid)
        if isinstance(concrete, pv.FieldPtr):
            self.materialize(self.store.get(concrete.sid))
            return ast.Unary(
                "&", self.store.member_expr(concrete.sid, concrete.field)
            )
        if isinstance(concrete, pv.ElemPtr):
            self.materialize(self.store.get(concrete.aid))
            if concrete.index == 0:
                return self.store.object_expr(concrete.aid)
            return ast.Unary(
                "&",
                self.store.elem_expr(concrete.aid, _index_expr(concrete.index)),
            )
        if isinstance(concrete, pv.LocalPtr):
            self.materialize(self.store.get(concrete.lid))
            return self.store.pointer_expr(concrete.lid)
        raise SpecializationError(f"cannot lift {value!r} into residual code")

    def materialize(self, obj):
        """Ensure a store object has a residual identity (a root);
        returns the store's mutable instance."""
        if obj.root is not None:
            return obj
        obj = self.store.mutable(obj.oid)
        if isinstance(obj, pv.PEStruct):
            name = self.fb.fresh_name(f"t_{obj.stype.name.lower()}")
            self.fb.hoist_decl(obj.stype, name)
        elif isinstance(obj, pv.PEArray):
            name = self.fb.fresh_name("t_arr")
            self.fb.hoist_decl(obj.atype, name)
        else:
            name = self.fb.fresh_name(obj.name or "t_loc")
            self.fb.hoist_decl(obj.ctype, name)
        obj.root = pv.LocalRoot(name)
        return obj

    def wrap_static(self, value, ctype_):
        if isinstance(ctype_, ctypes.IntType):
            if isinstance(value, int):
                return ctypes.wrap_int(value, ctype_)
            if isinstance(value, pv.Affine):
                return value.fit(ctype_)
        return value

    # ------------------------------------------------------------------
    # state snapshot / diff (for branches, loops, trials)

    def snapshot_state(self):
        return (self.store.clone(), self.frame.env_snapshot())

    def restore_state(self, snap):
        store, env = snap
        self.store.assign_from(store)
        self.frame.env_restore(env)

    def state_locations(self, snap):
        """Flatten a snapshot into {location key: PEVal-ish}."""
        store, env = snap
        locations = {}
        for oid, obj in store.objects.items():
            if isinstance(obj, pv.PEStruct):
                for fname, fval in obj.fields.items():
                    locations[("f", oid, fname)] = fval
            elif isinstance(obj, pv.PEArray):
                for index, elem in obj.elems.items():
                    locations[("e", oid, index)] = elem
            else:
                locations[("l", oid)] = obj.value
        for scope_index, scope in enumerate(env):
            for name, value in scope.items():
                locations[("v", scope_index, name)] = value
        return locations

    @staticmethod
    def _values_conflict(before, after):
        """Does the change from ``before`` to ``after`` require the
        location to be demoted to dynamic for a re-executed region?"""
        if before is after:
            return False
        if before is None:
            # Location created inside the region; it dies or is
            # re-created at run time — no demotion needed.
            return False
        if isinstance(before, pv.Dynamic) and isinstance(after, pv.Dynamic):
            return False
        if isinstance(before, pv.Static) and isinstance(after, pv.Static):
            return not pv.static_equal(before.value, after.value)
        if before is UNINIT:
            return False
        return True  # static -> dynamic or shape change

    def diff_locations(self, before_snap, after_snap):
        """Locations whose PE value changed in a way that matters."""
        before = self.state_locations(before_snap)
        after = self.state_locations(after_snap)
        changed = []
        for key, before_val in before.items():
            after_val = after.get(key)
            if after_val is None:
                continue
            if self._values_conflict(before_val, after_val):
                changed.append(key)
        return changed

    # ------------------------------------------------------------------
    # demotion (lifting a static location into residual state)

    def demote_location(self, key, emit_into=None):
        """Make a location dynamic, emitting a lift assignment for its
        current static value (into ``emit_into`` or the current block).
        Returns True if anything changed."""
        emit = (emit_into or self.fb.block).emit
        if key[0] == "v":
            _, scope_index, name = key
            return self._demote_var(name, emit)
        if key[0] == "f":
            _, oid, fname = key
            return self._demote_field(oid, fname, emit)
        if key[0] == "e":
            _, oid, index = key
            return self._demote_elem(oid, index, emit)
        if key[0] == "l":
            _, oid = key
            return self._demote_local_obj(oid, emit)
        raise SpecializationError(f"unknown location {key!r}")

    def _demote_var(self, name, emit):
        value = self.frame.lookup(name)
        if isinstance(value, pv.Dynamic):
            return False
        if value is UNINIT:
            ctype_ = self.frame.types.get(name, ctypes.INT)
            res = self._residual_var(name, ctype_)
            self.frame.assign(name, pv.Dynamic(ast.Var(res)))
            return True
        ctype_ = self.frame.types.get(name, ctypes.INT)
        if isinstance(value, pv.Static) and isinstance(
            value.value, (pv.StructPtr, pv.ElemPtr)
        ):
            # Pointer-valued local: lift the pointer expression.
            res = self._residual_var(name, ctype_)
            emit(ast.ExprStmt(ast.Assign(None, ast.Var(res), self.lift(value))))
            self.frame.assign(name, pv.Dynamic(ast.Var(res)))
            return True
        res = self._residual_var(name, ctype_)
        emit(ast.ExprStmt(ast.Assign(None, ast.Var(res), self.lift(value))))
        self.frame.assign(name, pv.Dynamic(ast.Var(res)))
        return True

    def _residual_var(self, name, ctype_):
        res = self.fb.fresh_name(name)
        self.fb.hoist_decl(ctype_, res)
        return res

    def _demote_field(self, oid, fname, emit):
        obj = self.store.get(oid)
        value = obj.fields.get(fname)
        if isinstance(value, pv.Dynamic) or value is None:
            return False
        obj = self.materialize(self.store.mutable(oid))
        if value is not UNINIT:
            emit(
                ast.ExprStmt(
                    ast.Assign(
                        None,
                        self.store.member_expr(oid, fname),
                        self.lift(value),
                    )
                )
            )
        obj.fields[fname] = pv.Dynamic(self.store.member_expr(oid, fname))
        return True

    def _demote_elem(self, oid, index, emit):
        obj = self.store.get(oid)
        value = obj.elems.get(index)
        if isinstance(value, pv.Dynamic) or value is None:
            return False
        obj = self.materialize(self.store.mutable(oid))
        path = self.store.elem_expr(oid, ast.IntLit(index))
        if value is not UNINIT:
            emit(
                ast.ExprStmt(
                    ast.Assign(
                        None,
                        self.store.elem_expr(oid, ast.IntLit(index)),
                        self.lift(value),
                    )
                )
            )
        obj.set_elem(index, pv.Dynamic(path))
        return True

    def _demote_local_obj(self, oid, emit):
        obj = self.store.get(oid)
        value = obj.value
        if isinstance(value, pv.Dynamic) or value is None:
            return False
        obj = self.materialize(self.store.mutable(oid))
        if value is not UNINIT:
            emit(
                ast.ExprStmt(
                    ast.Assign(
                        None, self.store.object_expr(oid), self.lift(value)
                    )
                )
            )
        obj.value = pv.Dynamic(self.store.object_expr(oid))
        return True

    # ------------------------------------------------------------------
    # struct field / array element access

    def read_field(self, sid, fname, node=None):
        obj = self.store.get(sid)
        value = obj.fields.get(fname)
        if value is None:
            lazy = self._lazy_subobject(obj, fname)
            if lazy is not None:
                self.store.mutable(sid).fields[fname] = lazy
                return lazy
            if obj.root is not None:
                # Canonical dynamic read; deliberately not cached so a
                # shared (snapshotted) instance stays untouched.
                return pv.Dynamic(self.store.member_expr(obj.oid, fname))
            raise SpecializationError(
                f"read of uninitialized field"
                f" {obj.stype.name}.{fname}"
            )
        if value is UNINIT:
            raise SpecializationError(
                f"read of uninitialized field {obj.stype.name}.{fname}"
            )
        return value

    def _lazy_subobject(self, obj, fname):
        """Aggregate-typed fields are modelled as nested store objects,
        created on first touch."""
        ftype = obj.stype.field_type(fname)
        if isinstance(ftype, ctypes.StructType):
            root = (
                pv.SubRoot(obj.oid, field=fname)
                if obj.root is not None
                else None
            )
            nested = self.store.add(pv.PEStruct(ftype, root))
            return pv.Static(pv.StructPtr(nested.oid))
        if isinstance(ftype, ctypes.ArrayType):
            root = (
                pv.SubRoot(obj.oid, field=fname)
                if obj.root is not None
                else None
            )
            nested = self.store.add(pv.PEArray(ftype, root))
            return pv.Static(pv.ElemPtr(nested.oid, 0))
        return None

    def write_field(self, sid, fname, value):
        obj = self.store.mutable(sid)
        ftype = obj.stype.field_type(fname)
        if isinstance(value, pv.Static):
            value = pv.Static(self.wrap_static(value.value, ftype))
            current = obj.fields.get(fname)
            if isinstance(current, pv.Dynamic) and not self.options.flow_sensitive:
                # Ablation: once dynamic, stays dynamic.
                self._residual_field_store(obj, fname, value)
                return
            if not self.options.partially_static and obj.root is not None:
                # Ablation: rooted structs are wholly dynamic.
                self._residual_field_store(obj, fname, value)
                return
            obj.fields[fname] = value
            return
        self._residual_field_store(obj, fname, value)

    def _residual_field_store(self, obj, fname, value):
        obj = self.materialize(self.store.mutable(obj.oid))
        self.fb.emit(
            ast.ExprStmt(
                ast.Assign(
                    None,
                    self.store.member_expr(obj.oid, fname),
                    self.lift(value),
                )
            )
        )
        # Canonicalize: the field now lives in runtime storage.
        obj.fields[fname] = pv.Dynamic(self.store.member_expr(obj.oid, fname))

    def _elem_span(self, obj, index):
        """Element ``index`` (affine) of ``obj`` for every trip: one
        residual path, provided all of the span lives in runtime storage
        the way an element missing from ``elems`` does."""
        if not all(0 <= end < obj.length for end in index.ends()):
            raise pv.NotAffine(f"index {index!r} leaves [0, {obj.length})")
        if obj.root is None or obj.static_count:
            raise pv.NotAffine(f"{obj!r} is not all dynamic")
        return self.store.elem_expr(obj.oid, index.expr())

    def read_elem(self, aid, index):
        obj = self.store.get(aid)
        if isinstance(index, pv.Affine):
            return pv.Dynamic(self._elem_span(obj, index))
        if not 0 <= index < obj.length:
            raise SpecializationError(
                f"static array index {index} out of bounds"
                f" [0, {obj.length})"
            )
        value = obj.elems.get(index)
        if value is None:
            if obj.root is not None:
                return pv.Dynamic(
                    self.store.elem_expr(obj.oid, ast.IntLit(index))
                )
            raise SpecializationError(
                f"read of uninitialized array element [{index}]"
            )
        if value is UNINIT:
            raise SpecializationError(
                f"read of uninitialized array element [{index}]"
            )
        return value

    def write_elem(self, aid, index, value):
        obj = self.store.mutable(aid)
        if isinstance(index, pv.Affine):
            if isinstance(value, pv.Static):
                raise pv.NotAffine("static store at an affine index")
            target = self._elem_span(self.materialize(obj), index)
            self.fb.emit(
                ast.ExprStmt(ast.Assign(None, target, self.lift(value)))
            )
            return
        if not 0 <= index < obj.length:
            raise SpecializationError(
                f"static array index {index} out of bounds [0, {obj.length})"
            )
        etype = obj.atype.base
        if isinstance(value, pv.Static):
            if not self.options.partially_static and obj.root is not None:
                self._residual_elem_store(obj, index, value)
                return
            obj.set_elem(index, pv.Static(self.wrap_static(value.value, etype)))
            return
        self._residual_elem_store(obj, index, value)

    def _residual_elem_store(self, obj, index, value):
        obj = self.materialize(self.store.mutable(obj.oid))
        self.fb.emit(
            ast.ExprStmt(
                ast.Assign(
                    None,
                    self.store.elem_expr(obj.oid, ast.IntLit(index)),
                    self.lift(value),
                )
            )
        )
        obj.set_elem(
            index,
            pv.Dynamic(self.store.elem_expr(obj.oid, ast.IntLit(index))),
        )

    def demote_whole_array(self, aid):
        """A dynamic index touches the array: every element must live in
        runtime storage."""
        obj = self.store.get(aid)
        for index in range(obj.length):
            value = obj.elems.get(index)
            if isinstance(value, pv.Static):
                self._demote_elem(obj.oid, index, self.fb.block.emit)
        self.materialize(self.store.get(aid))

    # ------------------------------------------------------------------
    # binary / unary static computation (shared with the interpreter)

    def static_binary(self, op, left, right, result_type):
        if isinstance(left, (pv.NullValue, pv.PEPtr)) or isinstance(
            right, (pv.NullValue, pv.PEPtr)
        ):
            return self._static_pointer_binary(op, left, right)
        if isinstance(left, pv.Affine) or isinstance(right, pv.Affine):
            return pv.affine_binary(op, left, right, result_type)
        return int_op(op, result_type)(int(left), int(right))

    def _static_pointer_binary(self, op, left, right):
        if op == "+":
            if isinstance(left, pv.PEPtr):
                return self.ptr_add(left, _index(right))
            return self.ptr_add(right, _index(left))
        if op == "-":
            if isinstance(right, pv.PEPtr) and isinstance(left, pv.PEPtr):
                if isinstance(left, pv.ElemPtr) and isinstance(
                    right, pv.ElemPtr
                ) and left.aid == right.aid:
                    return left.index - right.index
                raise SpecializationError("subtracting unrelated pointers")
            return self.ptr_add(left, -_index(right))
        if op in ("==", "!="):
            if pv.is_affine(left) or pv.is_affine(right):
                if not (
                    isinstance(left, pv.ElemPtr)
                    and isinstance(right, pv.ElemPtr)
                    and left.aid == right.aid
                ):
                    raise pv.NotAffine("affine pointer against another object")
                return int(pv.affine_test(op, left.index - right.index))
            equal = pv.static_equal(left, right)
            if isinstance(left, pv.PEPtr) and isinstance(right, int):
                equal = False  # non-null pointer vs integer 0
            if isinstance(right, pv.PEPtr) and isinstance(left, int):
                equal = False
            return int(equal) if op == "==" else int(not equal)
        raise SpecializationError(f"pointer operation {op!r} not supported")

    @staticmethod
    def ptr_add(pointer, elems):
        if isinstance(pointer, pv.ElemPtr):
            return pv.ElemPtr(pointer.aid, pointer.index + elems)
        if elems == 0:
            return pointer
        raise SpecializationError(
            f"pointer arithmetic past non-array object: {pointer!r}"
        )

    @staticmethod
    def truthy_static(value):
        if isinstance(value, pv.NullValue):
            return False
        if isinstance(value, pv.PEPtr):
            return True
        if isinstance(value, pv.Affine):
            return pv.affine_test("!=", value)
        return value != 0

    def address_taken(self, func):
        if func.name not in self._taken_cache:
            self._taken_cache[func.name] = _address_taken_names(func)
        return self._taken_cache[func.name]

    # ==================================================================
    # environment variables

    def read_var(self, name, node=None):
        try:
            value = self.frame.lookup(name)
        except KeyError:
            raise SpecializationError(f"undefined variable {name!r}") from None
        if isinstance(value, LocalRef):
            return self._read_local(value.lid)
        if value is UNINIT:
            raise SpecializationError(f"read of uninitialized {name!r}")
        return value

    def _read_local(self, lid):
        local = self.store.local(lid)
        if local.value is UNINIT or local.value is None:
            if local.root is not None:
                return pv.Dynamic(self.store.object_expr(lid))
            raise SpecializationError(
                f"read of uninitialized local {local.name!r}"
            )
        return local.value

    def write_var(self, name, value, ctype_hint=None):
        try:
            current = self.frame.lookup(name)
        except KeyError:
            raise SpecializationError(f"assignment to undefined {name!r}") from None
        if isinstance(current, LocalRef):
            self._write_local(current.lid, value)
            return
        ctype_ = self.frame.types.get(name, ctype_hint or ctypes.INT)
        if isinstance(value, pv.Static):
            value = pv.Static(self.wrap_static(value.value, ctype_))
            if isinstance(current, pv.Dynamic) and not self.options.flow_sensitive:
                self._residual_var_store(name, value, ctype_)
                return
            self.frame.assign(name, value)
            return
        self._residual_var_store(name, value, ctype_)

    def _residual_var_store(self, name, value, ctype_):
        res = self.frame_residual_name(name, ctype_)
        self.fb.emit(
            ast.ExprStmt(ast.Assign(None, ast.Var(res), self.lift(value)))
        )
        self.frame.assign(name, pv.Dynamic(ast.Var(res)))

    def frame_residual_name(self, name, ctype_):
        """Stable residual variable backing MiniC local ``name``: reuse
        the existing residual name when the current value already lives
        in one."""
        current = None
        try:
            current = self.frame.lookup(name)
        except KeyError:
            pass
        if (
            isinstance(current, pv.Dynamic)
            and isinstance(current.template, ast.Var)
        ):
            return current.template.name
        return self._residual_var(name, ctype_)

    def _write_local(self, lid, value):
        local = self.store.mutable(lid)
        if isinstance(value, pv.Static):
            value = pv.Static(self.wrap_static(value.value, local.ctype))
            if isinstance(local.value, pv.Dynamic) and not (
                self.options.flow_sensitive
            ):
                self._residual_local_store(local, value)
                return
            local.value = value
            return
        self._residual_local_store(local, value)

    def _residual_local_store(self, local, value):
        local = self.materialize(self.store.mutable(local.oid))
        self.fb.emit(
            ast.ExprStmt(
                ast.Assign(
                    None, self.store.object_expr(local.oid), self.lift(value)
                )
            )
        )
        local.value = pv.Dynamic(self.store.object_expr(local.oid))

    # ==================================================================
    # expressions

    def spec_expr(self, node):
        value = self._spec_expr(node)
        if value is not None:
            self.mark(node, "S" if isinstance(value, pv.Static) else "D")
        return value

    def _spec_expr(self, node):
        if isinstance(node, ast.IntLit):
            return pv.Static(node.value)
        if isinstance(node, ast.StrLit):
            return pv.Dynamic(ast.StrLit(node.value))
        if isinstance(node, ast.Var):
            return self.read_var(node.name, node)
        if isinstance(node, ast.SizeOf):
            return pv.Static(node.ctype.size())
        if isinstance(node, ast.Unary):
            return self.spec_unary(node)
        if isinstance(node, ast.Binary):
            return self.spec_binary(node)
        if isinstance(node, ast.Assign):
            return self.spec_assign(node)
        if isinstance(node, ast.IncDec):
            return self.spec_incdec(node)
        if isinstance(node, ast.Call):
            return self.spec_call(node)
        if isinstance(node, ast.Member):
            return self.spec_member(node)
        if isinstance(node, ast.Index):
            return self.spec_index(node)
        if isinstance(node, ast.Cast):
            return self.spec_cast(node)
        if isinstance(node, ast.Cond):
            return self.spec_cond_expr(node)
        raise SpecializationError(f"cannot specialize expression {node!r}")

    def spec_unary(self, node):
        if node.op == "&":
            return self.spec_address_of(node.operand)
        if node.op == "*":
            pointer = self.spec_expr(node.operand)
            return self.read_loc(self.deref_loc(pointer, node))
        operand = self.spec_expr(node.operand)
        result_type = self.type_of(node)
        if isinstance(operand, pv.Static):
            value = operand.value
            if node.op == "-":
                return pv.Static(self.wrap_static(-value, result_type))
            if node.op == "~":
                return pv.Static(self.wrap_static(~value, result_type))
            if node.op == "!":
                return pv.Static(0 if self.truthy_static(value) else 1)
        return pv.Dynamic(ast.Unary(node.op, self.lift(operand)))

    def spec_address_of(self, target):
        if isinstance(target, ast.Var):
            value = self.frame.lookup(target.name)
            if isinstance(value, LocalRef):
                return pv.Static(pv.LocalPtr(value.lid))
            if isinstance(value, pv.Static) and isinstance(
                value.value, (pv.StructPtr, pv.ElemPtr)
            ):
                return value  # aggregates decay to their handle
            if isinstance(value, pv.Dynamic):
                # Address of a dynamic aggregate-valued variable.
                return pv.Dynamic(ast.Unary("&", self.lift(value)))
            raise SpecializationError(
                f"&{target.name}: scalar not modelled as address-taken"
            )
        loc = self.spec_lvalue(target)
        return self.loc_address(loc)

    def loc_address(self, loc):
        kind = loc[0]
        if kind == "field":
            _, sid, fname = loc
            obj = self.store.get(sid)
            ftype = obj.stype.field_type(fname)
            if isinstance(ftype, (ctypes.StructType, ctypes.ArrayType)):
                return self.read_field(sid, fname)
            return pv.Static(pv.FieldPtr(sid, fname))
        if kind == "elem":
            _, aid, index = loc
            return pv.Static(pv.ElemPtr(aid, index))
        if kind == "local":
            return pv.Static(pv.LocalPtr(loc[1]))
        if kind == "dyn":
            return pv.Dynamic(ast.Unary("&", pv.clone_expr(loc[1])))
        if kind == "dynelem":
            _, aid, index_pe = loc
            self.demote_whole_array(aid)
            return pv.Dynamic(
                ast.Unary(
                    "&",
                    self.store.elem_expr(aid, self.lift(index_pe)),
                )
            )
        raise SpecializationError(f"cannot take address of location {loc!r}")

    def spec_member(self, node):
        if node.arrow:
            obj = self.spec_expr(node.obj)
            if isinstance(obj, pv.Static):
                if isinstance(obj.value, pv.StructPtr):
                    return self.read_field(obj.value.sid, node.field, node)
                raise SpecializationError(
                    f"-> through non-struct pointer {obj!r}"
                )
            return pv.Dynamic(ast.Member(self.lift(obj), node.field, True))
        base = self.spec_expr(node.obj)
        if isinstance(base, pv.Static) and isinstance(
            base.value, pv.StructPtr
        ):
            return self.read_field(base.value.sid, node.field, node)
        if isinstance(base, pv.Dynamic):
            return pv.Dynamic(ast.Member(self.lift(base), node.field, False))
        raise SpecializationError(f". on non-struct {base!r}")

    def spec_index(self, node):
        base = self.spec_expr(node.obj)
        index = self.spec_expr(node.index)
        if isinstance(base, pv.Static) and isinstance(base.value, pv.ElemPtr):
            aid = base.value.aid
            offset = base.value.index
            if isinstance(index, pv.Static):
                return self.read_elem(aid, offset + _index(index.value))
            self.demote_whole_array(aid)
            index_expr = self.lift(index)
            if offset != 0:
                index_expr = ast.Binary("+", _index_expr(offset), index_expr)
            return pv.Dynamic(self.store.elem_expr(aid, index_expr))
        if isinstance(base, pv.Dynamic):
            return pv.Dynamic(
                ast.Index(self.lift(base), self.lift(index))
            )
        raise SpecializationError(f"subscript of {base!r}")

    def spec_binary(self, node):
        op = node.op
        if op in ("&&", "||"):
            return self.spec_logical(node)
        left = self.spec_expr(node.left)
        right = self.spec_expr(node.right)
        result_type = self.type_of(node)
        if isinstance(left, pv.Static) and isinstance(right, pv.Static):
            value = self.static_binary(op, left.value, right.value, result_type)
            if isinstance(value, (pv.PEPtr, pv.NullValue)):
                return pv.Static(value)
            return pv.Static(value)
        return pv.Dynamic(
            ast.Binary(op, self.lift(left), self.lift(right))
        )

    def spec_logical(self, node):
        left = self.spec_expr(node.left)
        if isinstance(left, pv.Static):
            left_true = self.truthy_static(left.value)
            if node.op == "&&" and not left_true:
                return pv.Static(0)
            if node.op == "||" and left_true:
                return pv.Static(1)
            right = self.spec_expr(node.right)
            if isinstance(right, pv.Static):
                return pv.Static(int(self.truthy_static(right.value)))
            return pv.Dynamic(
                ast.Binary("!=", self.lift(right), ast.IntLit(0))
            )
        # Dynamic left: branch on it so static effects on the right stay
        # correct (the right side must not run when short-circuited).
        result = self.fresh_tmp(ctypes.INT)
        if node.op == "&&":
            self.spec_dynamic_if(
                left,
                then_fn=lambda: self._assign_truth_tmp(result, node.right),
                else_fn=lambda: self.write_var(result, pv.Static(0)),
            )
        else:
            self.spec_dynamic_if(
                left,
                then_fn=lambda: self.write_var(result, pv.Static(1)),
                else_fn=lambda: self._assign_truth_tmp(result, node.right),
            )
        return self.read_var(result)

    def _assign_truth_tmp(self, name, expr_node):
        value = self.spec_expr(expr_node)
        if isinstance(value, pv.Static):
            self.write_var(name, pv.Static(int(self.truthy_static(value.value))))
        else:
            self.write_var(
                name,
                pv.Dynamic(ast.Binary("!=", self.lift(value), ast.IntLit(0))),
            )

    def fresh_tmp(self, ctype_):
        """Declare a synthetic frame-local temp (no residual decl until a
        dynamic value lands in it)."""
        self._tmp_counter += 1
        name = f"_pe{self._tmp_counter}"
        self.frame.declare(name, UNINIT, ctype_)
        return name

    def spec_cond_expr(self, node):
        cond = self.spec_expr(node.cond)
        if isinstance(cond, pv.Static):
            branch = node.then if self.truthy_static(cond.value) else node.other
            return self.spec_expr(branch)
        result_type = self.type_of(node)
        result = self.fresh_tmp(result_type)
        self.spec_dynamic_if(
            cond,
            then_fn=lambda: self.write_var(result, self.spec_expr(node.then)),
            else_fn=lambda: self.write_var(result, self.spec_expr(node.other)),
        )
        return self.read_var(result)

    def spec_cast(self, node):
        value = self.spec_expr(node.operand)
        target = node.ctype
        if isinstance(value, pv.Static):
            concrete = value.value
            if isinstance(concrete, (int, pv.Affine)) and target.is_integer:
                return pv.Static(self.wrap_static(concrete, target))
            return value
        return pv.Dynamic(ast.Cast(target, self.lift(value)))

    def spec_assign(self, node):
        loc = self.spec_lvalue(node.target)
        value = self.spec_expr(node.value)
        if node.op is not None:
            current = self.read_loc(loc)
            target_type = self.type_of(node.target)
            if isinstance(current, pv.Static) and isinstance(value, pv.Static):
                combined = self.static_binary(
                    node.op, current.value, value.value, target_type
                )
                value = pv.Static(combined)
            else:
                value = pv.Dynamic(
                    ast.Binary(node.op, self.lift(current), self.lift(value))
                )
        return self.write_loc(loc, value)

    def spec_incdec(self, node):
        loc = self.spec_lvalue(node.target)
        current = self.read_loc(loc)
        delta = 1 if node.op == "++" else -1
        target_type = self.type_of(node.target)
        if isinstance(current, pv.Static):
            concrete = current.value
            if isinstance(concrete, pv.PEPtr):
                updated = pv.Static(self.ptr_add(concrete, delta))
            else:
                updated = pv.Static(
                    self.wrap_static(concrete + delta, target_type)
                )
            stored = self.write_loc(loc, updated)
            return stored if node.prefix else current
        if not node.prefix:
            # Postfix on a dynamic target: the pre-update value must be
            # captured before the store overwrites the location.
            tmp = self._residual_var("_old", target_type)
            self.fb.emit(
                ast.ExprStmt(
                    ast.Assign(None, ast.Var(tmp), self.lift(current))
                )
            )
            current = pv.Dynamic(ast.Var(tmp))
        updated = pv.Dynamic(
            ast.Binary(
                "+" if delta > 0 else "-",
                self.lift(current),
                ast.IntLit(1),
            )
        )
        stored = self.write_loc(loc, updated)
        return stored if node.prefix else current

    # ==================================================================
    # lvalues

    def spec_lvalue(self, node):
        """Locations:
        ('var', name) | ('local', lid) | ('field', sid, fname) |
        ('elem', aid, index) | ('dynelem', aid, index_peval) |
        ('dyn', template_expr)."""
        if isinstance(node, ast.Var):
            value = self.frame.lookup(node.name)
            if isinstance(value, LocalRef):
                return ("local", value.lid)
            return ("var", node.name)
        if isinstance(node, ast.Member):
            if node.arrow:
                obj = self.spec_expr(node.obj)
            else:
                obj = self._aggregate_value(node.obj)
            if isinstance(obj, pv.Static) and isinstance(
                obj.value, pv.StructPtr
            ):
                return ("field", obj.value.sid, node.field)
            if isinstance(obj, pv.Dynamic):
                return (
                    "dyn",
                    ast.Member(self.lift(obj), node.field, node.arrow),
                )
            raise SpecializationError(f"member store through {obj!r}")
        if isinstance(node, ast.Index):
            base = self.spec_expr(node.obj)
            index = self.spec_expr(node.index)
            if isinstance(base, pv.Static) and isinstance(
                base.value, pv.ElemPtr
            ):
                if isinstance(index, pv.Static):
                    return (
                        "elem",
                        base.value.aid,
                        base.value.index + _index(index.value),
                    )
                if base.value.index != 0:
                    index = pv.Dynamic(
                        ast.Binary(
                            "+",
                            _index_expr(base.value.index),
                            self.lift(index),
                        )
                    )
                return ("dynelem", base.value.aid, index)
            if isinstance(base, pv.Dynamic):
                return ("dyn", ast.Index(self.lift(base), self.lift(index)))
            raise SpecializationError(f"subscript store through {base!r}")
        if isinstance(node, ast.Unary) and node.op == "*":
            pointer = self.spec_expr(node.operand)
            return self.deref_loc(pointer, node)
        raise SpecializationError(f"not an lvalue: {node!r}")

    def _aggregate_value(self, node):
        """Value of an aggregate expression used as ``x.f`` base."""
        if isinstance(node, ast.Var):
            return self.read_var(node.name, node)
        if isinstance(node, (ast.Member, ast.Index)):
            return self.spec_expr(node)
        if isinstance(node, ast.Unary) and node.op == "*":
            return self.spec_expr(node.operand)
        raise SpecializationError(f"bad aggregate expression {node!r}")

    def deref_loc(self, pointer, node):
        if isinstance(pointer, pv.Dynamic):
            return ("dyn", ast.Unary("*", self.lift(pointer)))
        concrete = pointer.value
        if isinstance(concrete, pv.FieldPtr):
            return ("field", concrete.sid, concrete.field)
        if isinstance(concrete, pv.ElemPtr):
            return ("elem", concrete.aid, concrete.index)
        if isinstance(concrete, pv.LocalPtr):
            return ("local", concrete.lid)
        if isinstance(concrete, pv.StructPtr):
            raise SpecializationError("cannot dereference a whole struct")
        if isinstance(concrete, pv.NullValue):
            raise SpecializationError("NULL dereference at spec time")
        raise SpecializationError(f"dereference of {pointer!r}")

    def read_loc(self, loc):
        kind = loc[0]
        if kind == "var":
            return self.read_var(loc[1])
        if kind == "local":
            return self._read_local(loc[1])
        if kind == "field":
            return self.read_field(loc[1], loc[2])
        if kind == "elem":
            return self.read_elem(loc[1], loc[2])
        if kind == "dynelem":
            _, aid, index = loc
            self.demote_whole_array(aid)
            return pv.Dynamic(self.store.elem_expr(aid, self.lift(index)))
        if kind == "dyn":
            return pv.Dynamic(pv.clone_expr(loc[1]))
        raise SpecializationError(f"cannot read location {loc!r}")

    def write_loc(self, loc, value):
        """Store ``value``; the expression value of the assignment is the
        *post-store* canonical value (re-reading the location), so that
        ``(x -= 4) < 0`` tests the stored result rather than re-lifting
        the arithmetic against the updated location."""
        kind = loc[0]
        if kind == "var":
            self.write_var(loc[1], value)
            return self.read_var(loc[1])
        if kind == "local":
            self._write_local(loc[1], value)
            return self._read_local(loc[1])
        if kind == "field":
            self.write_field(loc[1], loc[2], value)
            return self.read_field(loc[1], loc[2])
        if kind == "elem":
            self.write_elem(loc[1], loc[2], value)
            return self.read_elem(loc[1], loc[2])
        if kind == "dynelem":
            _, aid, index = loc
            self.demote_whole_array(aid)
            self.fb.emit(
                ast.ExprStmt(
                    ast.Assign(
                        None,
                        self.store.elem_expr(aid, self.lift(index)),
                        self.lift(value),
                    )
                )
            )
            return value
        if kind == "dyn":
            self.fb.emit(
                ast.ExprStmt(
                    ast.Assign(None, pv.clone_expr(loc[1]), self.lift(value))
                )
            )
            return value
        raise SpecializationError(f"cannot write location {loc!r}")


    # ==================================================================
    # statements

    def spec_stmt(self, node):
        if isinstance(node, ast.Block):
            self.frame.push_scope()
            try:
                self.spec_stmts(node.stmts)
            finally:
                self.frame.pop_scope()
            return
        if isinstance(node, ast.ExprStmt):
            self.spec_expr(node.expr)
            return
        if isinstance(node, ast.Decl):
            self.spec_decl(node)
            return
        if isinstance(node, ast.If):
            self.spec_if(node)
            return
        if isinstance(node, ast.While):
            self.spec_while(node.cond, node.body, node)
            return
        if isinstance(node, ast.For):
            self.spec_for(node)
            return
        if isinstance(node, ast.Return):
            self.spec_return(node)
            return
        if isinstance(node, ast.Break):
            self.spec_break()
            return
        if isinstance(node, ast.Continue):
            self.spec_continue()
            return
        raise SpecializationError(f"cannot specialize statement {node!r}")

    def spec_stmts(self, stmts):
        for stmt in stmts:
            if self.fb.block.terminated:
                return
            self.spec_stmt(stmt)

    def spec_decl(self, node):
        taken = self.address_taken(self.frame.func)
        init = None
        if node.init is not None:
            init = self.spec_expr(node.init)
            if isinstance(init, pv.Static):
                init = pv.Static(self.wrap_static(init.value, node.ctype))
        if isinstance(node.ctype, ctypes.StructType):
            obj = self.store.add(pv.PEStruct(node.ctype))
            self.frame.declare(
                node.name, pv.Static(pv.StructPtr(obj.oid)), node.ctype
            )
            return
        if isinstance(node.ctype, ctypes.ArrayType):
            obj = self.store.add(pv.PEArray(node.ctype))
            self.frame.declare(
                node.name, pv.Static(pv.ElemPtr(obj.oid, 0)), node.ctype
            )
            return
        if node.name in taken:
            local = self.store.add(
                pv.PELocal(node.ctype, UNINIT if init is None else init,
                           node.name)
            )
            self.frame.declare(node.name, LocalRef(local.oid), node.ctype)
            if isinstance(init, pv.Dynamic):
                local.value = UNINIT
                self.frame.types[node.name] = node.ctype
                self._write_local(local.oid, init)
            return
        self.frame.declare(node.name, UNINIT if init is None else init,
                           node.ctype)
        if isinstance(init, pv.Dynamic):
            # Bind through a residual variable so later reads are stable.
            self.frame.assign(node.name, UNINIT)
            self.write_var(node.name, init)

    def spec_return(self, node):
        value = None
        if node.value is not None:
            value = self.spec_expr(node.value)
        frame = self.frame
        if frame.kind == "inline":
            if frame.dyn_depth > 0:
                raise NeedsOutline()
            raise SpecReturn(value)
        # Residual frame: emit a residual return.
        if value is None:
            stmt = ast.Return(None)
        else:
            stmt = ast.Return(self.lift(value))
            if isinstance(value, pv.Static) and pv.is_affine(value.value):
                # the counter dies with its loop: not a static return
                value = pv.Dynamic(stmt.value)
        self.fb.emit(stmt)
        frame.returns.append((stmt, value))
        self.fb.block.mark_terminated()

    def spec_break(self):
        frame = self.frame
        if not frame.loop_stack:
            raise SpecializationError("break outside a loop")
        mode = frame.loop_stack[-1]
        if mode == "static":
            if frame.dyn_depth > self._loop_entry_depths[-1]:
                raise NeedsLoopDemotion()
            raise SpecBreak()
        self.fb.emit(ast.Break())
        self.fb.block.mark_terminated()

    def spec_continue(self):
        frame = self.frame
        if not frame.loop_stack:
            raise SpecializationError("continue outside a loop")
        mode = frame.loop_stack[-1]
        if mode == "static":
            if frame.dyn_depth > self._loop_entry_depths[-1]:
                raise NeedsLoopDemotion()
            raise SpecContinue()
        if self._residual_loop_kinds[-1] == "for-desugared":
            raise SpecializationError(
                "continue inside a residualized for loop is not supported"
            )
        self.fb.emit(ast.Continue())
        self.fb.block.mark_terminated()

    # ------------------------------------------------------------------
    # conditionals

    def spec_if(self, node):
        cond = self.spec_expr(node.cond)
        if isinstance(cond, pv.Static):
            self.mark(node, "S")
            if self.truthy_static(cond.value):
                self.spec_stmt(node.then)
            elif node.other is not None:
                self.spec_stmt(node.other)
            return
        self.mark(node, "D")
        then_fn = lambda: self.spec_stmt(node.then)  # noqa: E731
        else_fn = (
            (lambda: self.spec_stmt(node.other))
            if node.other is not None
            else (lambda: None)
        )
        self.spec_dynamic_if(cond, then_fn, else_fn)

    def spec_dynamic_if(self, cond, then_fn, else_fn):
        """Specialize both branches of a residual conditional against
        cloned states and merge at the join (flow sensitivity)."""
        cond_expr = self.lift(cond)
        base = self.snapshot_state()
        then_block, then_state, then_done = self._spec_branch(then_fn)
        self.restore_state(base)
        else_block, else_state, else_done = self._spec_branch(else_fn)
        self.restore_state(base)
        self._merge_branches(
            base, then_block, then_state, then_done,
            else_block, else_state, else_done,
        )
        else_ast = else_block.to_block() if else_block.stmts else None
        self.fb.emit(ast.If(cond_expr, then_block.to_block(), else_ast))
        if then_done and else_done:
            self.fb.block.mark_terminated()

    def _spec_branch(self, branch_fn):
        block = self.fb.push_block()
        self.frame.dyn_depth += 1
        try:
            branch_fn()
        finally:
            self.frame.dyn_depth -= 1
            self.fb.pop_block()
        return block, self.snapshot_state(), block.terminated

    def _merge_branches(
        self, base, then_block, then_state, then_done,
        else_block, else_state, else_done,
    ):
        if then_done and else_done:
            return  # join unreachable; keep base state
        if then_done:
            self._adopt_state(else_state)
            return
        if else_done:
            self._adopt_state(then_state)
            return
        base_locs = self.state_locations(base)
        then_locs = self.state_locations(then_state)
        else_locs = self.state_locations(else_state)
        conflicts = []
        for key, base_val in base_locs.items():
            t_val = then_locs.get(key, base_val)
            e_val = else_locs.get(key, base_val)
            if self._branch_values_agree(t_val, e_val):
                continue
            conflicts.append((key, t_val, e_val))
        # Adopt the then-branch state, then demote every conflict.
        self._adopt_state(then_state)
        for key, t_val, e_val in conflicts:
            self._merge_demote(key, t_val, then_block, e_val, else_block)

    @staticmethod
    def _branch_values_agree(left, right):
        if left is right:
            return True
        if isinstance(left, pv.Static) and isinstance(right, pv.Static):
            return pv.static_equal(left.value, right.value)
        if isinstance(left, pv.Dynamic) and isinstance(right, pv.Dynamic):
            return pretty_expr(left.template) == pretty_expr(right.template)
        return False

    def _adopt_state(self, state):
        store, env = state
        self.store.assign_from(store)
        self.frame.env_restore(env)

    def _merge_demote(self, key, t_val, then_block, e_val, else_block):
        """Lift a conflicting location into residual state: each branch
        gets an assignment of its value; the merged value is dynamic."""
        target_expr, set_merged = self._canonical_target(key)
        canonical_text = pretty_expr(target_expr())
        for value, block in ((t_val, then_block), (e_val, else_block)):
            if value is None or value is UNINIT:
                continue
            if (
                isinstance(value, pv.Dynamic)
                and pretty_expr(value.template) == canonical_text
            ):
                continue  # branch value already lives in the target
            block.emit(
                ast.ExprStmt(
                    ast.Assign(None, target_expr(), self.lift(value))
                )
            )
        set_merged(pv.Dynamic(target_expr()))

    def _canonical_target(self, key):
        """Residual storage backing a merged location.  Returns a fresh
        target-expression factory and a setter for the merged value."""
        kind = key[0]
        if kind == "v":
            _, _scope, name = key
            ctype_ = self.frame.types.get(name, ctypes.INT)
            res = self.frame_residual_name(name, ctype_)

            def set_var(value):
                self.frame.assign(name, value)

            return (lambda: ast.Var(res)), set_var
        if kind == "f":
            _, oid, fname = key
            self.materialize(self.store.get(oid))

            def set_field(value):
                self.store.mutable(oid).fields[fname] = value

            return (lambda: self.store.member_expr(oid, fname)), set_field
        if kind == "e":
            _, oid, index = key
            self.materialize(self.store.get(oid))

            def set_elem(value):
                self.store.mutable(oid).set_elem(index, value)

            return (
                lambda: self.store.elem_expr(oid, ast.IntLit(index))
            ), set_elem
        if kind == "l":
            _, oid = key
            self.materialize(self.store.get(oid))

            def set_local(value):
                self.store.mutable(oid).value = value

            return (lambda: self.store.object_expr(oid)), set_local
        raise SpecializationError(f"unmergeable location {key!r}")

    # ------------------------------------------------------------------
    # loops

    def spec_while(self, cond_node, body_node, node, step_node=None):
        """Specialize a while loop (``step_node`` supports desugared
        ``for`` loops: it runs after the body each iteration)."""
        iterations = 0
        loop_snapshot = self.snapshot_state()
        block_snapshot = self.fb.block.snapshot()
        self._loop_entry_depths.append(self.frame.dyn_depth)
        self.frame.loop_stack.append("static")
        try:
            if (
                self.options.roll
                and self._rolling is None
                and self._roll_loop(cond_node, body_node, step_node)
            ):
                return
            while True:
                cond = self.spec_expr(cond_node) if cond_node is not None else (
                    pv.Static(1)
                )
                if isinstance(cond, pv.Dynamic):
                    if iterations == 0:
                        raise NeedsLoopDemotion()
                    # The condition went dynamic mid-unroll (rare);
                    # restart as a residual loop.
                    raise NeedsLoopDemotion()
                if not self.truthy_static(cond.value):
                    return
                iterations += 1
                self.static_iterations += 1
                if self.static_iterations > _MAX_TOTAL_STATIC_ITERATIONS:
                    raise SpecializationError(
                        "static loop iteration budget exhausted"
                    )
                if (
                    self.options.max_unroll is not None
                    and iterations > self.options.max_unroll
                ):
                    raise NeedsLoopDemotion()
                try:
                    self.spec_stmt(body_node)
                except SpecBreak:
                    return
                except SpecContinue:
                    pass
                if step_node is not None:
                    self.spec_expr(step_node)
        except NeedsLoopDemotion:
            self.restore_state(loop_snapshot)
            self.fb.block.rollback(block_snapshot)
            self._residualize_loop(cond_node, body_node, step_node, node)
        finally:
            self.frame.loop_stack.pop()
            self._loop_entry_depths.pop()

    def _residualize_loop(self, cond_node, body_node, step_node, node):
        """Emit a residual while loop after a demotion fixpoint: every
        location whose static value the body would change must live in
        runtime storage, because the body re-executes at run time."""
        for _round in range(_MAX_LOOP_FIXPOINT):
            before = self.snapshot_state()
            scratch = self.fb.push_block()
            self.frame.dyn_depth += 1
            self.frame.loop_stack.append("dynamic")
            self._residual_loop_kinds.append(
                "for-desugared" if step_node is not None else "while"
            )
            try:
                if cond_node is not None:
                    self.spec_expr(cond_node)
                if not scratch.terminated:
                    self.spec_stmt(body_node)
                if step_node is not None and not scratch.terminated:
                    self.spec_expr(step_node)
            finally:
                self._residual_loop_kinds.pop()
                self.frame.loop_stack.pop()
                self.frame.dyn_depth -= 1
                self.fb.pop_block()
            after = self.snapshot_state()
            self.restore_state(before)
            changed = self.diff_locations(before, after)
            if not changed:
                break
            for key in changed:
                self.demote_location(key)
        else:
            raise SpecializationError("loop demotion fixpoint diverged")
        # Final emission against the stabilized state.
        cond_prelude = self.fb.push_block()
        cond = (
            self.spec_expr(cond_node)
            if cond_node is not None
            else pv.Static(1)
        )
        self.fb.pop_block()
        body_block = self.fb.push_block()
        self.frame.dyn_depth += 1
        self.frame.loop_stack.append("dynamic")
        self._residual_loop_kinds.append(
            "for-desugared" if step_node is not None else "while"
        )
        try:
            # Re-emit the condition prelude inside the loop so each
            # iteration re-evaluates it.
            if cond_prelude.stmts:
                for stmt in cond_prelude.stmts:
                    self.fb.emit(stmt)
            if isinstance(cond, pv.Dynamic) and cond_prelude.stmts:
                self.fb.emit(
                    ast.If(
                        ast.Unary("!", self.lift(cond)),
                        ast.Block([ast.Break()]),
                        None,
                    )
                )
            self.spec_stmt(body_node)
            if step_node is not None and not self.fb.block.terminated:
                self.spec_expr(step_node)
        finally:
            self._residual_loop_kinds.pop()
            self.frame.loop_stack.pop()
            self.frame.dyn_depth -= 1
            self.fb.pop_block()
        if isinstance(cond, pv.Static):
            if not self.truthy_static(cond.value):
                return  # loop never runs
            cond_expr = ast.IntLit(1)
        elif cond_prelude.stmts:
            cond_expr = ast.IntLit(1)
        else:
            cond_expr = self.lift(cond)
        self.fb.emit(ast.While(cond_expr, body_block.to_block()))

    def spec_for(self, node):
        self.frame.push_scope()
        try:
            if isinstance(node.init, ast.Decl):
                self.spec_decl(node.init)
            elif isinstance(node.init, ast.ExprStmt):
                self.spec_expr(node.init.expr)
            self.spec_while(node.cond, node.body, node, step_node=node.step)
        finally:
            self.frame.pop_scope()

    # ==================================================================
    # calls

    def spec_call(self, node):
        name = node.name
        args = [self.spec_expr(arg) for arg in node.args]
        if builtins.is_builtin(name):
            return self.spec_builtin(name, args, node)
        try:
            func = self.program.func(name)
        except KeyError:
            raise SpecializationError(
                f"call to undefined function {name!r}"
            ) from None
        if not self.options.context_sensitive:
            # Ablation: widen static scalar arguments to dynamic at call
            # boundaries, collapsing per-context specializations of the
            # scalar inputs (the paper's procedure-id opportunity dies).
            widened = []
            for arg in args:
                if isinstance(arg, pv.Static) and isinstance(arg.value, int):
                    widened.append(pv.Dynamic(ast.IntLit(arg.value)))
                else:
                    widened.append(arg)
            args = widened
        key = (
            name,
            tuple(pv.value_signature(arg, self.store) for arg in args),
        )
        coarse = _coarse_signature(key)
        if any(entry == key for entry in self.call_stack):
            raise SpecializationError(
                f"recursive specialization of {name!r} is not supported"
            )
        if len(self.call_stack) > _MAX_INLINE_DEPTH:
            raise SpecializationError("specialization call depth exceeded")
        self.call_stack.append(key)
        try:
            if self.options.inline and coarse not in self.needs_outline:
                if coarse in self.inline_ok:
                    # Proven-inlinable shape: skip the snapshot (the
                    # inline/outline decision depends only on binding
                    # times, which the coarse signature captures).
                    return self.inline_call(func, args, node)
                snap = self.snapshot_state()
                block_snap = self.fb.block.snapshot()
                frames_depth = len(self.frames)
                fb_depth = len(self.fb.blocks)
                try:
                    result = self.inline_call(func, args, node)
                    self.inline_ok.add(coarse)
                    return result
                except NeedsOutline:
                    del self.frames[frames_depth:]
                    del self.fb.blocks[fb_depth:]
                    self.restore_state(snap)
                    self.fb.block.rollback(block_snap)
                    self.needs_outline.add(coarse)
            return self.outline_call(func, args, key, node)
        finally:
            self.call_stack.pop()

    # -- inline path ----------------------------------------------------

    def inline_call(self, func, args, node):
        frame = Frame(func, "inline")
        self.frames.append(frame)
        try:
            self.bind_params(frame, func, args)
            try:
                self.spec_stmt(func.body)
            except SpecReturn as signal:
                return signal.value
            if not func.ret_type.is_void:
                raise SpecializationError(
                    f"{func.name}: non-void function fell off the end"
                )
            return None
        finally:
            self.frames.pop()

    def bind_params(self, frame, func, args):
        taken = self.address_taken(func)
        for param, arg in zip(func.params, args):
            value = arg
            if isinstance(value, pv.Static):
                value = pv.Static(self.wrap_static(value.value, param.ctype))
            if param.name in taken:
                local = self.store.add(
                    pv.PELocal(param.ctype, value, param.name)
                )
                frame.declare(param.name, LocalRef(local.oid), param.ctype)
                continue
            if isinstance(value, pv.Dynamic) and not isinstance(
                value.template, (ast.Var, ast.IntLit)
            ) and not is_simple_path(value.template):
                # Bind complex dynamic arguments through a residual temp
                # to preserve evaluate-once semantics.
                res = self._residual_var(param.name, param.ctype)
                self.fb.emit(
                    ast.ExprStmt(
                        ast.Assign(None, ast.Var(res), self.lift(value))
                    )
                )
                value = pv.Dynamic(ast.Var(res))
            frame.declare(param.name, value, param.ctype)

    # -- outline path ------------------------------------------------------

    def outline_call(self, func, args, key, node):
        taken = self.address_taken(func)
        # An induction counter is not in scope in the residual function.
        args = [
            pv.Dynamic(self.lift(arg))
            if isinstance(arg, pv.Static) and isinstance(arg.value, pv.Affine)
            else arg
            for arg in args
        ]
        # Pass 1 (caller side): pointer arguments into statically-tracked
        # scalar storage mean the callee will write through a runtime
        # pointer; demote the targets first.
        for arg in args:
            if not isinstance(arg, pv.Static):
                continue
            concrete = arg.value
            if isinstance(concrete, pv.FieldPtr):
                self._demote_field(
                    concrete.sid, concrete.field, self.fb.block.emit
                )
            elif isinstance(concrete, pv.ElemPtr):
                self.demote_whole_array(concrete.aid)
            elif isinstance(concrete, pv.LocalPtr):
                self._demote_local_obj(concrete.lid, self.fb.block.emit)
            elif isinstance(concrete, pv.StructPtr):
                self.materialize(self.store.get(concrete.sid))
        key = (
            func.name,
            tuple(pv.value_signature(arg, self.store) for arg in args),
        )
        cached = self.spec_cache.get(key)
        res_name = (
            cached["name"]
            if cached is not None
            else self.residual.fresh_func_name(f"{func.name}_spec")
        )
        # Pass 2: build caller-side argument expressions and the callee
        # binding plan.
        call_args = []
        bind_plan = []  # (param, mode, payload)
        rerooted = {}  # oid -> original root
        for param, arg in zip(func.params, args):
            if isinstance(arg, pv.Dynamic):
                call_args.append(self.lift(arg))
                bind_plan.append((param, "dyn", None))
                continue
            concrete = arg.value
            if isinstance(concrete, (int, pv.NullValue)):
                bind_plan.append((param, "static", arg))
                continue
            if isinstance(concrete, pv.StructPtr):
                call_args.append(self.store.pointer_expr(concrete.sid))
                obj = self.store.get(concrete.sid)
                rerooted.setdefault(concrete.sid, obj.root)
                bind_plan.append((param, "struct", concrete.sid))
                continue
            # Scalar pointers were demoted above: pass them dynamically.
            call_args.append(self.lift(arg))
            bind_plan.append((param, "dyn", None))
        # Pass 3: specialize the callee body in place (its spec-time
        # effects are the call's effects; the residual function performs
        # the runtime ones) with pointer arguments re-rooted to the
        # callee's parameters.
        fb2 = FunctionBuilder(res_name, func.ret_type)
        frame = Frame(func, "residual")
        self.frames.append(frame)
        self._fb_stack.append(fb2)
        try:
            for param, mode, payload in bind_plan:
                if mode == "static":
                    self._bind_one(frame, func, taken, param, payload)
                elif mode == "dyn":
                    fb2.add_param(param.ctype, param.name)
                    self._bind_one(
                        frame, func, taken, param,
                        pv.Dynamic(ast.Var(param.name)),
                    )
                else:  # struct pointer
                    fb2.add_param(param.ctype, param.name)
                    obj = self.store.mutable(payload)
                    obj.root = pv.ParamPtrRoot(param.name)
                    self._bind_one(
                        frame, func, taken, param,
                        pv.Static(pv.StructPtr(payload)),
                    )
            # Dynamic field values captured in the caller still carry
            # caller-local residual paths; re-express them through the
            # callee's parameter roots before specializing the body.
            self._canonicalize_store()
            self.spec_stmt(func.body)
            fell_through = not self.fb.block.terminated
            returns = frame.returns
        finally:
            self._fb_stack.pop()
            self.frames.pop()
        # Static-returns folding (§3.3): all returns carry the same
        # static value -> the residual function becomes void.
        static_value = None
        voidify = False
        if (
            self.options.static_returns
            and not func.ret_type.is_void
            and returns
            and all(
                isinstance(value, pv.Static) for _stmt, value in returns
            )
        ):
            values = {value.value for _stmt, value in returns}
            if len(values) == 1 and not fell_through:
                static_value = values.pop()
                voidify = True
                for stmt, _value in returns:
                    stmt.value = None
                fb2.ret_type = ctypes.VOID
        if not voidify and not func.ret_type.is_void and fell_through:
            # Preserve a well-defined value on undefined-behaviour paths.
            fb2.emit(ast.Return(ast.IntLit(0)))
        # Restore the caller's roots and re-canonicalize paths.
        for oid, root in rerooted.items():
            self.store.mutable(oid).root = root
        self._canonicalize_store()
        body = fb2.build()
        if cached is None:
            self.residual.add_function(body)
            self.spec_cache[key] = {
                "name": res_name,
                "void": voidify or func.ret_type.is_void,
                "static_value": static_value,
            }
        # Emit the residual call in the caller.
        empty_body = not body.body.stmts
        call_expr = ast.Call(res_name, call_args)
        if voidify:
            if not empty_body:
                self.fb.emit(ast.ExprStmt(call_expr))
            return pv.Static(static_value)
        if func.ret_type.is_void:
            if not empty_body:
                self.fb.emit(ast.ExprStmt(call_expr))
            return None
        tmp = self._residual_var(f"r_{func.name}", func.ret_type)
        self.fb.emit(ast.ExprStmt(ast.Assign(None, ast.Var(tmp), call_expr)))
        return pv.Dynamic(ast.Var(tmp))

    def _bind_one(self, frame, func, taken, param, value):
        if isinstance(value, pv.Static):
            value = pv.Static(self.wrap_static(value.value, param.ctype))
        if param.name in taken:
            local = self.store.add(pv.PELocal(param.ctype, value, param.name))
            if isinstance(value, pv.Dynamic):
                local.root = pv.LocalRoot(param.name)
                local.value = pv.Dynamic(ast.Var(param.name))
            frame.declare(param.name, LocalRef(local.oid), param.ctype)
        else:
            frame.declare(param.name, value, param.ctype)

    def _canonicalize_store(self):
        """After adopting an outlined callee's store, dynamic values of
        rooted objects must be re-expressed through the restored caller
        roots."""
        for oid in list(self.store.objects):
            obj = self.store.get(oid)
            if obj.root is None:
                continue
            if isinstance(obj, pv.PEStruct):
                if any(
                    isinstance(v, pv.Dynamic) for v in obj.fields.values()
                ):
                    obj = self.store.mutable(oid)
                    for fname, fval in list(obj.fields.items()):
                        if isinstance(fval, pv.Dynamic):
                            obj.fields[fname] = pv.Dynamic(
                                self.store.member_expr(oid, fname)
                            )
            elif isinstance(obj, pv.PEArray):
                if any(
                    isinstance(v, pv.Dynamic) for v in obj.elems.values()
                ):
                    obj = self.store.mutable(oid)
                    for index, elem in list(obj.elems.items()):
                        if isinstance(elem, pv.Dynamic):
                            obj.set_elem(
                                index,
                                pv.Dynamic(
                                    self.store.elem_expr(
                                        oid, ast.IntLit(index)
                                    )
                                ),
                            )
            else:
                if isinstance(obj.value, pv.Dynamic):
                    obj = self.store.mutable(oid)
                    obj.value = pv.Dynamic(self.store.object_expr(oid))

    # -- builtins --------------------------------------------------------------

    _BYTE_OPS = {"htonl": 4, "ntohl": 4, "htons": 2, "ntohs": 2}

    def spec_builtin(self, name, args, node):
        if name in self._BYTE_OPS:
            width = self._BYTE_OPS[name]
            mask = (1 << (8 * width)) - 1
            (arg,) = args
            if isinstance(arg, pv.Static):
                return pv.Static(int(arg.value) & mask)
            return pv.Dynamic(ast.Call(name, [self.lift(arg)]))
        if name in ("bzero", "memcpy"):
            for arg in args:
                if isinstance(arg, pv.Static) and isinstance(
                    arg.value, pv.ElemPtr
                ):
                    self.demote_whole_array(arg.value.aid)
            self.fb.emit(
                ast.ExprStmt(
                    ast.Call(name, [self.lift(arg) for arg in args])
                )
            )
            return None
        if name == "net_sendrecv":
            tmp = self._residual_var("inlen", ctypes.INT)
            self.fb.emit(
                ast.ExprStmt(
                    ast.Assign(
                        None,
                        ast.Var(tmp),
                        ast.Call(name, [self.lift(arg) for arg in args]),
                    )
                )
            )
            return pv.Dynamic(ast.Var(tmp))
        if name == "abort":
            self.fb.emit(ast.ExprStmt(ast.Call("abort", [])))
            return None
        raise SpecializationError(f"builtin {name!r} not supported")

    # ==================================================================
    # entry point

    def specialize_entry(self, entry_name, residual_name, params_plan):
        """Specialize the entry function.

        ``params_plan`` is a list of (param, PEVal-or-None, keep) built
        by the driver from user assumptions: the PEVal is the initial
        binding; ``keep`` says whether the parameter survives in the
        residual signature.
        """
        func = self.program.func(entry_name)
        fb = FunctionBuilder(residual_name, func.ret_type)
        frame = Frame(func, "residual")
        self.frames.append(frame)
        self._fb_stack.append(fb)
        taken = self.address_taken(func)
        try:
            for param, value, keep in params_plan:
                if keep:
                    fb.add_param(param.ctype, param.name)
                self._bind_one(frame, func, taken, param, value)
            self.spec_stmt(func.body)
            fell_through = not self.fb.block.terminated
            if fell_through and not func.ret_type.is_void:
                fb.emit(ast.Return(ast.IntLit(0)))
        finally:
            self._fb_stack.pop()
            self.frames.pop()
        entry_def = fb.build()
        self.residual.functions.insert(0, entry_def)
        return entry_def


def _index(value):
    """A static index or offset: an int, or an affine value as it is."""
    return value if isinstance(value, pv.Affine) else int(value)


def _index_expr(value):
    """Residual expression of a static int or affine value."""
    if isinstance(value, pv.Affine):
        return value.expr()
    return ast.IntLit(int(value))


def _coarse_signature(key):
    """Erase array element indexes from a call signature.

    Two calls that differ only in *which* element of an array they point
    at have identical binding-time structure: they inline (or outline)
    identically, even though their residual bodies bake different index
    constants.  The coarse signature keys the inline/outline decision
    cache; the full signature still keys the residual-function cache.
    """
    if isinstance(key, tuple):
        if len(key) == 4 and key[0] == "a":
            return ("a", key[1], "*", _coarse_signature(key[3]))
        return tuple(_coarse_signature(part) for part in key)
    return key


class LocalRef:
    """Environment marker: the variable lives in the PE store (its
    address is taken somewhere in the function)."""

    __slots__ = ("lid",)

    def __init__(self, lid):
        self.lid = lid

    def __repr__(self):
        return f"LocalRef(#{self.lid})"
