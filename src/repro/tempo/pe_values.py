"""Partial-evaluation value domain for the Tempo specializer.

A *PE value* is either

* :class:`Static` — fully known at specialization time: an ``int``, the
  null pointer, a :class:`PEPtr` referencing a specialization-time
  storage object, or — only while a loop is being residualized by
  induction — an :class:`Affine` function of that loop's counter; or
* :class:`Dynamic` — a runtime value represented by a *template* residual
  expression.  Templates are cloned on every lift so residual AST nodes
  are never shared (node identity drives the simulator's code layout).

Storage objects (registered in a :class:`Store` so branch specialization
can snapshot and merge program state):

* :class:`PEStruct` — a struct instance with per-field PE values — the
  paper's **partially-static structures**;
* :class:`PEArray` — an array with per-element PE values;
* :class:`PELocal` — an address-taken scalar local.

Each storage object may carry a *residual root* describing how the
runtime counterpart is named in the residual program (a parameter, a
materialized local, or a sub-object of another rooted object).
"""

import itertools
import operator

from repro.errors import SpecializationError
from repro.minic import ast
from repro.minic import types as ct

_obj_ids = itertools.count(1)


def clone_expr(node):
    """Deep-copy an expression AST with fresh node uids."""
    if isinstance(node, ast.IntLit):
        return ast.IntLit(node.value, line=node.line)
    if isinstance(node, ast.StrLit):
        return ast.StrLit(node.value, line=node.line)
    if isinstance(node, ast.Var):
        return ast.Var(node.name, line=node.line)
    if isinstance(node, ast.Unary):
        return ast.Unary(node.op, clone_expr(node.operand), line=node.line)
    if isinstance(node, ast.Binary):
        return ast.Binary(
            node.op, clone_expr(node.left), clone_expr(node.right),
            line=node.line,
        )
    if isinstance(node, ast.Assign):
        return ast.Assign(
            node.op, clone_expr(node.target), clone_expr(node.value),
            line=node.line,
        )
    if isinstance(node, ast.IncDec):
        return ast.IncDec(
            node.op, clone_expr(node.target), node.prefix, line=node.line
        )
    if isinstance(node, ast.Call):
        return ast.Call(
            node.name, [clone_expr(a) for a in node.args], line=node.line
        )
    if isinstance(node, ast.Member):
        return ast.Member(
            clone_expr(node.obj), node.field, node.arrow, line=node.line
        )
    if isinstance(node, ast.Index):
        return ast.Index(
            clone_expr(node.obj), clone_expr(node.index), line=node.line
        )
    if isinstance(node, ast.Cast):
        return ast.Cast(node.ctype, clone_expr(node.operand), line=node.line)
    if isinstance(node, ast.Cond):
        return ast.Cond(
            clone_expr(node.cond),
            clone_expr(node.then),
            clone_expr(node.other),
            line=node.line,
        )
    if isinstance(node, ast.SizeOf):
        return ast.SizeOf(node.ctype, line=node.line)
    raise SpecializationError(f"cannot clone expression {node!r}")


class _Uninit:
    """Sentinel for declared-but-unassigned storage."""

    def __repr__(self):
        return "<uninit>"


UNINIT = _Uninit()


class PEVal:
    """Base class for partial-evaluation values."""

    __slots__ = ()

    @property
    def is_static(self):
        return isinstance(self, Static)


class Static(PEVal):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Static({self.value!r})"

    def __eq__(self, other):
        return isinstance(other, Static) and static_equal(
            self.value, other.value
        )

    def __hash__(self):
        return hash(repr(self.value))


class Dynamic(PEVal):
    """A runtime value.  ``template`` is a residual expression AST that
    is cloned at every use (see :func:`lift`)."""

    __slots__ = ("template",)

    def __init__(self, template):
        self.template = template

    def __repr__(self):
        from repro.minic.pretty import pretty_expr

        return f"Dynamic({pretty_expr(self.template)})"


def static_equal(left, right):
    """Equality on static values (ints and pointers)."""
    if isinstance(left, PEPtr) or isinstance(right, PEPtr):
        return isinstance(left, PEPtr) and isinstance(right, PEPtr) and (
            left.key() == right.key()
        )
    if (left is PE_NULL) != (right is PE_NULL):
        return False
    return left == right


# -- affine values (loops by induction) ---------------------------------------


class NotAffine(SpecializationError):
    """A loop being residualized by induction met something its
    hypothesis cannot carry; the specializer abandons the attempt and
    unrolls."""


class Induction:
    """The residual counter ``name`` of one loop being residualized by
    induction, ranging over ``[0, trips)``; ``trips`` is None until the
    loop test has been solved for it."""

    __slots__ = ("name", "trips")

    def __init__(self):
        self.name = None
        self.trips = None


class Affine:
    """The static value ``base + step * k`` over the counter ``k`` of
    :class:`Induction` ``ind`` — what a loop-carried static is bound to
    while the body is specialized once for every trip.

    Sums, differences and integer multiples stay affine; anything else
    raises :class:`NotAffine`.  An affine function is monotone, so a
    test on one is decided for every ``k`` by deciding it at both ends
    of the range (:func:`affine_test`).
    """

    __slots__ = ("base", "step", "ind")

    def __init__(self, base, step, ind):
        self.base = base
        self.step = step
        self.ind = ind

    def at(self, k):
        return self.base + self.step * k

    def ends(self):
        """The values at the first and the last trip."""
        if self.ind.trips is None:
            raise NotAffine("trip count not solved yet")
        return self.at(0), self.at(self.ind.trips - 1)

    def fit(self, ctype):
        """``self`` as a value of integer type ``ctype``: unchanged
        when no trip wraps, not affine otherwise (unchecked while the
        trip count is being solved: the loop test is specialized again
        once it is known)."""
        if self.ind.trips is not None:
            for value in self.ends():
                if ct.wrap_int(value, ctype) != value:
                    raise NotAffine(f"{self!r} wraps in {ctype}")
        return self

    def expr(self):
        """The residual expression ``base + step * k``."""
        term = ast.Var(self.ind.name)
        if self.step != 1:
            term = ast.Binary("*", ast.IntLit(self.step), term)
        if self.base == 0:
            return term
        return ast.Binary("+", ast.IntLit(self.base), term)

    def _coefficients(self, other):
        if isinstance(other, Affine):
            if other.ind is not self.ind:
                raise NotAffine("values of two inductions")
            return other.base, other.step
        if isinstance(other, int):
            return other, 0
        raise NotAffine(f"affine arithmetic with {other!r}")

    def __add__(self, other):
        base, step = self._coefficients(other)
        return affine(self.base + base, self.step + step, self.ind)

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.base, -self.step, self.ind)

    def __sub__(self, other):
        base, step = self._coefficients(other)
        return affine(self.base - base, self.step - step, self.ind)

    def __rsub__(self, other):
        return -self + other

    def __invert__(self):
        return -self - 1

    def __mul__(self, other):
        if not isinstance(other, int):
            raise NotAffine("product of two affine values")
        return affine(self.base * other, self.step * other, self.ind)

    __rmul__ = __mul__

    def __eq__(self, other):
        """Identity of the two functions (not the ``==`` of MiniC,
        which is :func:`affine_test`)."""
        return (
            isinstance(other, Affine)
            and other.ind is self.ind
            and other.base == self.base
            and other.step == self.step
        )

    def __hash__(self):
        return hash((self.base, self.step, id(self.ind)))

    def __bool__(self):
        raise NotAffine(f"truth of {self!r} outside a test")

    def __int__(self):
        raise NotAffine(f"{self!r} used as one integer")

    __index__ = __int__

    def __repr__(self):
        return f"Affine({self.base} + {self.step}*{self.ind.name or 'k'})"


def affine(base, step, ind):
    """``base + step * k``: a plain integer when it does not vary."""
    return Affine(base, step, ind) if step else base


def is_affine(concrete):
    """Does a static value depend on an induction counter?"""
    return isinstance(concrete, Affine) or (
        isinstance(concrete, ElemPtr) and isinstance(concrete.index, Affine)
    )


_TESTS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "!=": operator.ne,
    "==": operator.eq,
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def affine_test(op, diff):
    """Decide ``diff op 0`` for every trip, ``diff`` the difference of
    the two operands: monotone, so ends that agree decide an ordering
    for all ``k``; ``==``/``!=`` also need both ends on one side of
    zero (a crossing could land on it in between)."""
    test = _TESTS[op]
    if not isinstance(diff, Affine):
        return test(diff, 0)
    first, last = diff.ends()
    if op in ("==", "!="):
        if (first > 0) != (last > 0) or first == 0 or last == 0:
            raise NotAffine(f"{diff!r} may cross zero")
        return op == "!="
    if test(first, 0) != test(last, 0):
        raise NotAffine(f"{diff!r} {op} 0 flips inside the range")
    return test(first, 0)


def affine_binary(op, left, right, result_type):
    """``left op right`` with an :class:`Affine` operand."""
    if op in _TESTS:
        return int(affine_test(op, left - right))
    if op not in _ARITHMETIC:
        raise NotAffine(f"operator {op!r} on an affine value")
    value = _ARITHMETIC[op](left, right)
    if isinstance(value, Affine):
        return value.fit(result_type)
    return ct.wrap_int(value, result_type)


def solve_trips(op, diff):
    """The trip count N of a loop whose test is ``diff op 0`` with
    ``diff = a + b*k``: the test holds for k in [0, N) and fails at
    k = N."""
    if not isinstance(diff, Affine) or op == "==":
        raise NotAffine("loop test is not an affine ordering")
    a, b = diff.base, diff.step
    if op in (">", ">=") or (op == "!=" and b < 0):
        a, b = -a, -b
    if b < 0 or (op == "!=" and a % b):
        raise NotAffine("loop test never fails")
    if op in ("<=", ">="):
        return -a // b + 1
    return (-a + b - 1) // b


# -- pointers ---------------------------------------------------------------


class PEPtr:
    """Base class for static pointers into the PE store."""

    __slots__ = ()

    def key(self):
        raise NotImplementedError


class NullValue:
    def __repr__(self):
        return "PE_NULL"


PE_NULL = NullValue()


class StructPtr(PEPtr):
    __slots__ = ("sid",)

    def __init__(self, sid):
        self.sid = sid

    def key(self):
        return ("sp", self.sid)

    def __repr__(self):
        return f"StructPtr(#{self.sid})"


class FieldPtr(PEPtr):
    """Pointer to one scalar field of a PEStruct (``&p->f``)."""

    __slots__ = ("sid", "field")

    def __init__(self, sid, field):
        self.sid = sid
        self.field = field

    def key(self):
        return ("fp", self.sid, self.field)

    def __repr__(self):
        return f"FieldPtr(#{self.sid}.{self.field})"


class ElemPtr(PEPtr):
    """Pointer to element ``index`` of a PEArray."""

    __slots__ = ("aid", "index")

    def __init__(self, aid, index):
        self.aid = aid
        self.index = index

    def key(self):
        return ("ep", self.aid, self.index)

    def __repr__(self):
        return f"ElemPtr(#{self.aid}[{self.index}])"


class LocalPtr(PEPtr):
    """Pointer to an address-taken scalar local (``&x``)."""

    __slots__ = ("lid",)

    def __init__(self, lid):
        self.lid = lid

    def key(self):
        return ("lp", self.lid)

    def __repr__(self):
        return f"LocalPtr(#{self.lid})"


# -- residual roots -----------------------------------------------------------


class Root:
    """How a store object is named in the residual program.

    Roots are resolved *through the store* (see :meth:`Store.object_expr`)
    so that re-rooting a parent object — as outlined-function
    specialization does when it rebinds a caller object to a callee
    parameter — is automatically seen by nested sub-objects.
    """

    __slots__ = ()


class ParamPtrRoot(Root):
    """The object is the pointee of residual parameter ``name``."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"ParamPtrRoot({self.name!r})"


class LocalRoot(Root):
    """The object is residual local variable ``name``."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"LocalRoot({self.name!r})"


class SubRoot(Root):
    """The object is a field/element of another store object."""

    __slots__ = ("parent_oid", "field", "index")

    def __init__(self, parent_oid, field=None, index=None):
        self.parent_oid = parent_oid
        self.field = field
        self.index = index

    def __repr__(self):
        part = self.field if self.field is not None else f"[{self.index}]"
        return f"SubRoot(#{self.parent_oid}.{part})"


# -- store objects --------------------------------------------------------------


class StoreObject:
    __slots__ = ("oid", "root")

    def clone(self):
        raise NotImplementedError


class PEStruct(StoreObject):
    __slots__ = ("stype", "fields")

    def __init__(self, stype, root=None, oid=None):
        self.oid = oid if oid is not None else next(_obj_ids)
        self.stype = stype
        self.root = root
        self.fields = {}

    def field_type(self, name):
        return self.stype.field_type(name)

    def clone(self):
        copy = PEStruct(self.stype, self.root, oid=self.oid)
        copy.fields = dict(self.fields)
        return copy

    def __repr__(self):
        return f"PEStruct(#{self.oid} {self.stype.name})"


class PEArray(StoreObject):
    __slots__ = ("atype", "elems", "static_count")

    def __init__(self, atype, root=None, oid=None):
        self.oid = oid if oid is not None else next(_obj_ids)
        self.atype = atype
        self.root = root
        self.elems = {}
        #: number of elements currently holding a Static value; keeping
        #: this incrementally makes signature computation O(1) for the
        #: common all-dynamic marshaling arrays (it would otherwise be a
        #: full scan per call, quadratic over an unrolled loop).
        self.static_count = 0

    @property
    def length(self):
        return self.atype.length

    def set_elem(self, index, value):
        old = self.elems.get(index)
        self.static_count += int(isinstance(value, Static)) - int(
            isinstance(old, Static)
        )
        self.elems[index] = value

    def clone(self):
        copy = PEArray(self.atype, self.root, oid=self.oid)
        copy.elems = dict(self.elems)
        copy.static_count = self.static_count
        return copy

    def __repr__(self):
        return f"PEArray(#{self.oid} {self.atype})"


class PELocal(StoreObject):
    """An address-taken scalar local: one PE value cell."""

    __slots__ = ("ctype", "value", "name")

    def __init__(self, ctype, value, name, root=None, oid=None):
        self.oid = oid if oid is not None else next(_obj_ids)
        self.ctype = ctype
        self.value = value
        self.name = name
        self.root = root

    def clone(self):
        copy = PELocal(self.ctype, self.value, self.name, self.root,
                       oid=self.oid)
        return copy

    def __repr__(self):
        return f"PELocal(#{self.oid} {self.name})"


class Store:
    """All specialization-time storage objects, keyed by object id.

    Snapshots are copy-on-write: :meth:`clone` shares the object
    instances and marks every oid *shared* in both stores; mutators must
    go through :meth:`mutable`, which clones a shared object on first
    write.  This keeps branch/trial snapshots O(#objects) instead of
    O(total state), which is what makes specializing a 2000-element
    unrolled marshaling loop linear.
    """

    def __init__(self):
        self.objects = {}
        self.shared = set()

    def add(self, obj):
        self.objects[obj.oid] = obj
        self.shared.discard(obj.oid)
        return obj

    def get(self, oid):
        try:
            return self.objects[oid]
        except KeyError:
            raise SpecializationError(f"dangling store object #{oid}") from None

    def mutable(self, oid):
        """Fetch an object for mutation, un-sharing it if needed."""
        obj = self.get(oid)
        if oid in self.shared:
            obj = obj.clone()
            self.objects[oid] = obj
            self.shared.discard(oid)
        return obj

    def assign_from(self, other):
        """Adopt another store's state (copy-on-write both ways)."""
        self.objects = dict(other.objects)
        self.shared = set(other.objects)
        other.shared = set(other.objects)

    def struct(self, pointer):
        obj = self.get(pointer.sid)
        if not isinstance(obj, PEStruct):
            raise SpecializationError(f"#{pointer.sid} is not a struct")
        return obj

    def array(self, aid):
        obj = self.get(aid)
        if not isinstance(obj, PEArray):
            raise SpecializationError(f"#{aid} is not an array")
        return obj

    def local(self, lid):
        obj = self.get(lid)
        if not isinstance(obj, PELocal):
            raise SpecializationError(f"#{lid} is not a local")
        return obj

    def clone(self):
        copy = Store()
        copy.objects = dict(self.objects)
        copy.shared = set(self.objects)
        self.shared = set(self.objects)
        return copy

    # -- residual path construction --------------------------------------

    def object_expr(self, oid):
        """Fresh residual expression denoting store object ``oid``."""
        obj = self.get(oid)
        root = obj.root
        if root is None:
            raise SpecializationError(
                f"store object #{oid} has no residual root"
            )
        if isinstance(root, ParamPtrRoot):
            if isinstance(obj, PEArray):
                # Array/pointer duality: an array reached through a
                # pointer parameter is indexed as ``p[i]``, not ``(*p)[i]``.
                return ast.Var(root.name)
            return ast.Unary("*", ast.Var(root.name))
        if isinstance(root, LocalRoot):
            return ast.Var(root.name)
        if isinstance(root, SubRoot):
            base = self.object_expr(root.parent_oid)
            if root.field is not None:
                return self._member(base, root.field)
            return ast.Index(base, ast.IntLit(root.index))
        raise SpecializationError(f"unknown root {root!r}")

    @staticmethod
    def _member(base, field):
        # ``(*p).f`` is rendered as ``p->f``.
        if isinstance(base, ast.Unary) and base.op == "*":
            return ast.Member(base.operand, field, True)
        return ast.Member(base, field, False)

    def pointer_expr(self, oid):
        """Fresh residual expression for the address of object ``oid``."""
        obj = self.get(oid)
        if isinstance(obj.root, ParamPtrRoot):
            return ast.Var(obj.root.name)
        return ast.Unary("&", self.object_expr(oid))

    def member_expr(self, oid, field):
        """Fresh residual expression for field ``field`` of struct
        ``oid``."""
        return self._member(self.object_expr(oid), field)

    def elem_expr(self, oid, index_expr):
        return ast.Index(self.object_expr(oid), index_expr)


# -- binding-time signatures -----------------------------------------------------


def value_signature(value, store, depth=0):
    """Abstract a PE value into a hashable binding-time signature.

    Signatures drive polyvariant specialization: calls whose arguments
    have equal signatures share one residual function.  Static scalars
    embed their value (so different static procedure numbers produce
    different specializations, as the paper requires); pointed-to
    storage is abstracted field by field.
    """
    if depth > 12:
        return ("deep",)
    if isinstance(value, Dynamic):
        return ("D",)
    concrete = value.value
    if isinstance(concrete, NullValue):
        return ("null",)
    if isinstance(concrete, (int, Affine)):
        return ("i", concrete)
    if isinstance(concrete, StructPtr):
        struct = store.struct(concrete)
        parts = []
        for fname, _ftype in struct.stype.fields:
            fval = struct.fields.get(fname)
            if fval is None:
                rooted = struct.root is not None
                parts.append((fname, ("D",) if rooted else ("unset",)))
            else:
                parts.append((fname, value_signature(fval, store, depth + 1)))
        return ("s", struct.stype.name, tuple(parts))
    if isinstance(concrete, FieldPtr):
        struct = store.get(concrete.sid)
        fval = struct.fields.get(concrete.field)
        if fval is not None:
            inner = value_signature(fval, store, depth + 1)
        else:
            inner = ("D",) if struct.root is not None else ("unset",)
        return ("f", struct.stype.name, concrete.field, inner)
    if isinstance(concrete, ElemPtr):
        array = store.array(concrete.aid)
        rooted = array.root is not None
        if array.static_count == 0 and rooted:
            summary = ("alldyn",)
        elif array.static_count == 0 and not array.elems:
            summary = ("allunset",)
        else:
            summary = tuple(
                value_signature(
                    array.elems.get(i, Dynamic(ast.IntLit(0))), store,
                    depth + 1,
                )
                for i in range(array.length)
            )
        return ("a", array.length, concrete.index, summary)
    if isinstance(concrete, LocalPtr):
        local = store.local(concrete.lid)
        if local.value is None or local.value is UNINIT:
            inner = ("D",) if local.root is not None else ("unset",)
        else:
            inner = value_signature(local.value, store, depth + 1)
        return ("l", str(local.ctype), inner)
    raise SpecializationError(f"cannot abstract value {value!r}")
