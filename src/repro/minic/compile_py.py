"""Compile a Tempo residual function to Python, as its fused entry.

One lowering: :func:`compile_program` compiles the entry function of a
residual program as the module's ``entry``, its parameters bound to the
caller's values and the message inside it (docs/SPECIALIZATION.md,
"Fused entries"), and nothing else.  What is lowered is the program
after :mod:`repro.minic.scalar`: one-call functions inlined, struct
locals split into scalars, cursors turned into ``int`` offsets into the
bytes a buffer parameter holds, dead stores dropped
(docs/SPECIALIZATION.md, "Scalar replacement").  A function that still
has a call, an address-of, a pointer other than such a cursor, a struct
object or a ``for`` / ``break`` / ``continue`` after that is outside the
*residual subset* (docs/SPECIALIZATION.md, "The residual subset"): it
raises a :class:`~repro.errors.CompileError` that names the construct,
and the procedure is served by the generic stack.

The translation is statement-oriented.  C expressions with side effects
(assignment expressions, ``++``) are flattened into prelude statements
feeding temporary variables, so the generated Python is simple and
debuggable.

The lowering is type-directed (docs/SPECIALIZATION.md, "Lowering rules
and the in-range invariant"): every integer object holds a value of its
declared type, so a wrap is emitted — inline — only where a value may
leave its type's range; tests are Python booleans, counted loops
``for ... in range``, cursor runs one precompiled ``struct`` call.
"""

import collections
import itertools
import keyword
import re

from repro.errors import CompileError
from repro.minic import ast
from repro.minic import scalar
from repro.minic import types as ct
from repro.minic.pretty import pretty_expr
from repro.minic.typecheck import typecheck_program

#: the ``struct`` format of an integer view: (width, signed)
_PACK_FMT = {(4, True): ">i", (4, False): ">I", (2, True): ">h",
             (2, False): ">H", (1, True): ">b", (1, False): ">B"}

#: the byte-order conversions: the identity on MiniC's big-endian
#: abstract machine, so the only calls the subset keeps
_IDENTITY = frozenset(("htonl", "ntohl"))

_NEGATED = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}

_ATOM = re.compile(r"[\w.]+(\[[\w.]+\])?")


def _p(code):
    """``code``, parenthesized unless it is already one operand."""
    return code if _ATOM.fullmatch(code) else f"({code})"


def _int_range(ctype):
    """The closed value range of an integer type; None for other types."""
    if not isinstance(ctype, ct.IntType):
        return None
    half = 1 << (8 * ctype.width - 1)
    return (-half, half - 1) if ctype.signed else (0, 2 * half - 1)


_I32 = _int_range(ct.INT)

#: ``op``: whether ``word op value`` is false when ``word == known``
#: — then, in a test that also has ``word != known``, it adds nothing
_IMPLIED = {
    "<": lambda known, value: known >= value,
    "<=": lambda known, value: known > value,
    ">": lambda known, value: known <= value,
    ">=": lambda known, value: known < value,
    "==": lambda known, value: known != value,
}

#: the operators of a map loop's element expression: none can fault
_MAP_OPS = frozenset(("+", "-", "*", "&", "|", "^"))


def _overlap(path, other):
    """Whether the objects two ``_lvalue_path`` paths name overlap: one
    path is a prefix of the other."""
    shared = min(len(path), len(other))
    return path[:shared] == other[:shared]


class _Code(str):
    """A Python expression plus what is statically known of its value.

    ``fits`` is a closed ``(lo, hi)`` range the value lies in (None:
    unknown).  ``pre`` is the expression a 32-bit wrap was applied to:
    a later wrap starts from it, since wraps compose modulo 2**32.
    Text derived from a ``_Code`` (an f-string) is a plain ``str``:
    nothing is known of it until a rule says so.
    """

    __slots__ = ("fits", "pre")

    def __new__(cls, text, fits=None, pre=None):
        self = str.__new__(cls, text)
        self.fits = fits
        self.pre = pre
        return self


class _Word(_Code):
    """Word ``index`` of a buffer read whole on entry (a ``_Code``)."""

    __slots__ = ("index",)

    def __new__(cls, text, index):
        self = _Code.__new__(cls, text, _I32)
        self.index = index
        return self


#: a rolled element loop as one item of a cursor run: ``trips`` words of
#: array ``base`` from element 0, indexed by the variable ``counter``
_LoopSpan = collections.namedtuple("_LoopSpan", "base trips counter")


def _pure(node):
    """Whether evaluating ``node`` can neither fault nor have an
    effect: literals, locals and arithmetic."""
    return all(isinstance(child, (ast.IntLit, ast.Var, ast.Cast, ast.SizeOf,
                                  ast.Binary))
               or isinstance(child, ast.Unary) and child.op != "*"
               for child in ast.walk(node))


def _default(ctype):
    """The initial value of a local of type ``ctype``."""
    if isinstance(ctype, ct.ArrayType):
        return f"[0] * {ctype.length}"
    return "0"


class _FuncCompiler:
    """Compiles a fused entry's function into Python source lines."""

    def __init__(self, module, func, typeinfo, fused, split):
        self.module = module
        self.func = func
        self.types = typeinfo.expr_types
        self.lines = []
        #: the body runs inside the entry's fault handler
        self.top = self.depth = 2
        #: the fused entry this function is (:class:`FusedEntry`), and
        #: its struct parameters split into one local per field
        self.fused, self.split = fused, split
        self.temp_counter = 0
        #: stack of scope dicts: MiniC name -> python name
        self.scopes = [{}]
        #: python names already used in this function
        self.used_names = set()
        #: uses of each variable in the function, and those that are
        #: not a dead store (counted on demand)
        self._var_uses = self._live_uses = None
        #: python name -> index in ``lines`` of its default initializer
        self._default_inits = {}
        #: uid of an ``ARRAY[i]`` read -> the name it is bound to in the
        #: map comprehension being emitted
        self._elements = {}
        #: the split locals of a fused entry's result, those its answer
        #: reads, and what it reads for a local whose one store it took
        self._result_arrays = {
            local for name, binding in fused.bindings.items()
            if binding[0] == "result" for local
            in self.split.get(name, {}).values()}
        self._declared = (set(scalar._declared(func.body))
                          | {param.name for param in func.params})
        #: promoted cursor -> its base parameter; buffer parameter ->
        #: whether the function stores through it
        self.cursors, self.buffers = scalar.cursors(func)
        self._check_subset()
        self._outputs, self._held = self._answer_reads(), {}
        self.live = scalar.Liveness(func, self._outputs)
        #: buffer parameter -> its exact byte length (the entry's size
        #: guard fixes it)
        self.sizes = {name: binding[-1] for name, binding
                      in fused.bindings.items()
                      if binding[0] in ("message", "fresh")
                      and name in self.buffers}
        #: a fresh reply buffer -> the line allocating it, while one
        #: whole pack may still be what it holds (:meth:`_emit_cursor_run`)
        self._fresh = {}
        #: the lines that set the fresh buffer to its one pack, while
        #: nothing was emitted after them; what the answer returns
        self._packed, self._reply = None, None
        #: map result -> its pending range scan, while one pack may do
        #: the check instead (:meth:`_emit_map`)
        self._deferred = {}
        #: python name -> the line of its last store of a literal
        self._literal_stores = {}
        #: local array -> its store sites, for the arrays only ever
        #: indexed (no pointer to one is taken); those read so far
        self._arrays = self._bare_arrays(func)
        self._touched = set()
        #: the split locals a fused entry fills before the body runs
        self._inputs = set()
        #: local -> the word it was loaded from and not yet stored
        #: (:meth:`_emit_words_run`), or the value it is bound to
        self._subst = {}
        #: what is known before emission, where the buffers' lengths
        #: are (:meth:`_known_values`): the cursors at one known offset
        #: wherever they are read (their stores are gone, each read is
        #: the literal); the read-only buffers read as one tuple of
        #: words on entry (buffer -> its name); the offset of each
        #: cursor read (uid ->), and of each read in a rolled element
        #: loop a run takes whole (its first word's); and what locals
        #: hold where each loop is entered (uid ->)
        self.static, self.words, self.offsets, self._spans, \
            self._entries = (self._known_values() if self.sizes else
                             (frozenset(), {}, {}, {}, {}))

    @staticmethod
    def _bare_arrays(func):
        """Local array -> its store sites (in the subset an array is
        only ever indexed: no pointer to one is taken)."""
        sites = collections.Counter(
            node.target.obj.name for node in ast.walk(func.body)
            if isinstance(node, (ast.Assign, ast.IncDec))
            and isinstance(node.target, ast.Index)
            and isinstance(node.target.obj, ast.Var))
        return {node.name: sites[node.name] for node in ast.walk(func.body)
                if isinstance(node, ast.Decl)
                and isinstance(node.ctype, ct.ArrayType)}

    # -- emit helpers ---------------------------------------------------

    def emit(self, text):
        self.lines.append("    " * self.depth + text)

    def temp(self):
        self.temp_counter += 1
        return f"_t{self.temp_counter}"

    def py_name(self, minic_name):
        for scope in reversed(self.scopes):
            if minic_name in scope:
                return scope[minic_name]
        raise CompileError(f"undefined variable {minic_name!r}")

    def declare(self, minic_name):
        candidate = minic_name
        suffix = 2
        while candidate in self.used_names or candidate in _RESERVED:
            candidate = f"{minic_name}__{suffix}"
            suffix += 1
        self.used_names.add(candidate)
        self.scopes[-1][minic_name] = candidate
        return candidate

    # -- type helpers ------------------------------------------------------

    def type_of(self, expr):
        return self.types.get(expr.uid, ct.INT)

    @staticmethod
    def typed(text, ctype):
        """``text`` reads an object of type ``ctype``: every store and
        return is wrapped, so it is in range."""
        return _Code(text, _int_range(ctype))

    def wrap(self, code, ctype):
        """``code`` converted to ``ctype``: itself when its value is known
        to fit, a folded constant for a literal, inline mask arithmetic
        otherwise (non-integer types convert to themselves)."""
        bounds = _int_range(ctype)
        if bounds is None:
            return code
        code = getattr(code, "pre", None) or code
        fits = getattr(code, "fits", None)
        if fits is not None:
            if bounds[0] <= fits[0] and fits[1] <= bounds[1]:
                return code
            if fits[0] == fits[1]:
                value = ct.wrap_int(fits[0], ctype)
                return _Code(repr(value), (value, value))
        lo, hi = bounds
        if ctype.signed:
            text = f"(({_p(code)} + 0x{-lo:X}) & 0x{hi - lo:X}) - 0x{-lo:X}"
        else:
            text = f"{_p(code)} & 0x{hi:X}"
        return _Code(text, bounds, pre=code if ctype.width == 4 else None)

    # -- compilation entry -------------------------------------------------

    def compile(self):
        self.scopes.append({})
        self._bind()
        for buffer, words in self.words.items():
            packer = self.module.packer(f">{self.sizes[buffer] // 4}i")
            self.emit(f"{words} = {packer}.unpack_from("
                      f"{self.py_name(buffer)})")
        self.stmt(self.func.body, new_scope=False)
        for name in list(self._deferred):
            self._scan(name)
        lines = [line for line in self.lines if line is not None]
        return ([f"def entry({self.fused.params}):"]
                + [f"    {line}" for line in self.fused.guard]
                + ["    try:"] + (lines or ["        pass"])
                + ["    except Exception:", "        pass",
                   "    return None"])

    def _check_subset(self):
        """Raise :class:`CompileError` naming the first construct of the
        function outside the residual subset (docs/SPECIALIZATION.md,
        "The residual subset")."""
        pointers = set(self.cursors) | set(self.buffers)
        globals_ = {glob.name for glob in self.module.program.globals}

        def cursor(node):
            # a cursor or buffer parameter: itself, cast, stepped, set
            if isinstance(node, ast.Cast):
                node = node.operand
            elif isinstance(node, (ast.Binary, ast.Assign)):
                node = getattr(node, "left", None) or node.target
            return isinstance(node, ast.Var) and node.name in pointers

        for node in ast.walk(self.func.body):
            decl = isinstance(node, ast.Decl)
            ctype = node.ctype if decl else self.types.get(node.uid)
            what = None
            if isinstance(node, ast.Call) and node.name not in _IDENTITY:
                what = f"a call to {node.name}"
            elif isinstance(node, (ast.For, ast.Break, ast.Continue)):
                what = f"a {type(node).__name__.lower()}"
            elif isinstance(node, ast.Unary) and node.op == "&":
                what = "an address-of"
            elif isinstance(node, ast.Cond):
                what = "a conditional expression"
            elif isinstance(node, ast.Binary) and node.op in ("/", "%"):
                what = f"a division ({node.op})"
            elif (isinstance(node, ast.Binary) and node.op in ("&&", "||")
                  and scalar.has_effects(node.right)):
                what = f"an effect right of {node.op}"
            elif isinstance(node, ast.Var) and node.name in globals_:
                what = f"the global {node.name}"
            elif isinstance(ctype, ct.StructType) or (
                    isinstance(ctype, ct.ArrayType)
                    and not ctype.base.is_integer):
                what = "a struct object"
            elif isinstance(ctype, ct.PointerType) and not (
                    node.name in self.cursors if decl else cursor(node)):
                what = "a pointer"
            if what is not None:
                if decl or isinstance(node, ast.Expr):
                    what += f" ({node.name if decl else pretty_expr(node)})"
                raise CompileError(f"{self.func.name}: outside the residual"
                                   f" subset: {what}")

    # -- a fused entry's interface ----------------------------------------

    def _answer_reads(self):
        """The split result locals the answer reads."""
        reads = set()
        for name, binding in self.fused.bindings.items():
            if binding[0] == "result" and name in self.split:
                fields = self.split[name]
                binding[1](lambda field: reads.add(fields.get(field)) or "_")
        return reads - {None}

    def _bind(self):
        """The entry's own statements before the function body: each
        parameter bound as :class:`FusedEntry` says.  A parameter bound
        to a value it never stores to stands for that value; a struct
        split into locals is filled field by field."""
        self.used_names.update(self.fused.names)
        # a parameter name a local also declares names more than it
        stored = {node.target.name for node in ast.walk(self.func.body)
                  if isinstance(node, (ast.Assign, ast.IncDec))
                  and isinstance(node.target, ast.Var)} | set(
                      scalar._declared(self.func.body))
        params = {param.name: param for param in self.func.params}
        for name, binding in self.fused.bindings.items():
            kind, value = binding[0], binding[1]
            param = params.get(name)
            if name in self.split:
                if kind == "fields":
                    fields = {field: self.declare(local) for field, local
                              in self.split[name].items()}
                    self._inputs.update(self.split[name].values())
                    for line in value(fields.get):
                        self.emit(line)
                continue
            if param is None:
                continue  # a parameter the residual does not keep
            if kind == "value" and name not in stored:
                self._subst[name] = self.typed(value, param.ctype)
                continue
            if kind == "message" and not self.buffers.get(name):
                self.scopes[-1][name] = value  # read in place
                continue
            py = self.declare(name)
            if kind == "message":
                value = f"bytearray({value})"
            elif kind == "fresh":
                self._fresh[name] = len(self.lines)
                value, self._reply = f"bytearray({value})", f"bytes({py})"
            self.emit(f"{py} = {value}")

    def _fused_return(self, value):
        """A ``return value`` of the fused entry: the answer when the
        value is the one that answers, ``None`` otherwise."""
        op, literal = self.fused.accepts
        fits = getattr(value, "fits", None)
        if fits is not None and fits[0] == fits[1]:
            if (fits[0] == literal) == (op == "=="):
                self._answer()
            else:
                self.emit("return None")
            return
        self.emit(f"if {_p(value)} {op} {literal}:")
        self.depth += 1
        self._answer()
        self.depth -= 1
        self.emit("return None")

    def _answer(self):
        """``return`` the entry's answer: the result struct built from
        the fields the function stored, or the fresh reply buffer."""
        for name, binding in self.fused.bindings.items():
            if binding[0] != "result":
                continue
            fields = self.split[name]
            struct = next(param.ctype.base for param in self.module.program
                          .func(self.func.name).params if param.name == name)

            def read(field):
                local = fields.get(field)
                if local is None:  # never stored: its initial value
                    return _default(struct.field_type(field))
                self._touched.add(local)
                return (self._held.get(local)
                        or self._subst.get(local) or self.py_name(local))
            lines, value = binding[1](read)
            for line in lines:
                self.emit(line)
            self.emit(f"return {value}")
            return
        if self._packed is not None and self._packed[1] == len(self.lines):
            # the reply is the one pack just emitted: return it
            for at in self._packed[0]:
                text = self.lines[at]
                indent = text[:len(text) - len(text.lstrip())]
                self.lines[at] = (indent + "return "
                                  + text.split(" = ", 1)[1])
            return
        self.emit(f"return {self._reply}")

    # -- expressions --------------------------------------------------------
    #
    # ``expr`` returns a Python expression string; any side effects are
    # emitted as prelude statements before the returned expression is
    # evaluated, preserving C's left-to-right evaluation of our subset.

    def expr(self, node):
        if isinstance(node, ast.IntLit):
            return _Code(repr(node.value), (node.value, node.value))
        if isinstance(node, ast.Var):
            if node.name in self.buffers:
                return _Code("0", (0, 0))  # a cursor's start offset
            if node.name in self.static:
                offset = self.offsets[node.uid]
                return _Code(repr(offset), (offset, offset))
            if node.name in self._subst:
                return self._subst[node.name]
            if node.name in self._held:
                return _Code(self._held[node.name])
            if node.name in self._arrays:
                self._touched.add(node.name)
            return self.typed(self.py_name(node.name), self.type_of(node))
        if isinstance(node, ast.Unary):
            return self._unary(node)
        if isinstance(node, ast.Binary):
            return self._binary(node)
        if isinstance(node, ast.Assign):
            return self._assign(node)
        if isinstance(node, ast.IncDec):
            return self._incdec(node)
        if isinstance(node, ast.Call):
            # ``htonl`` / ``ntohl``: the conversion to u_long the
            # argument has already had
            return self.wrap(self.expr(node.args[0]), ct.U_LONG)
        if isinstance(node, ast.Index):
            if node.uid in self._elements:
                return self._elements[node.uid]
            base = self.expr(node.obj)
            index = self.expr(node.index)
            return self.typed(f"{base}[{index}]", self.type_of(node))
        if isinstance(node, ast.Cast):
            return self.wrap(self.expr(node.operand), node.ctype)
        if isinstance(node, ast.SizeOf):
            size = node.ctype.size()
            return _Code(repr(size), (size, size))
        raise CompileError(f"cannot compile expression {node!r}")

    def cond(self, node, negate=False):
        """``node`` in test position, as a Python boolean expression
        (the test of ``!node`` when ``negate``)."""
        if isinstance(node, ast.Unary) and node.op == "!":
            return self.cond(node.operand, not negate)
        if isinstance(node, ast.Binary) and node.op in _NEGATED:
            left, right = self.expr(node.left), self.expr(node.right)
            op = _NEGATED[node.op] if negate else node.op
            return f"{_p(left)} {op} {_p(right)}"
        if (
            isinstance(node, ast.Binary)
            and node.op in ("&&", "||")
            and not scalar.has_effects(node.right)
        ):
            joiner = "and" if node.op == "&&" else "or"
            test = f"({self.cond(node.left)}) {joiner} ({self.cond(node.right)})"
            return f"not ({test})" if negate else test
        value = self.expr(node)
        return f"not {_p(value)}" if negate else value

    def _truth_value(self, node):
        """A comparison or logical operator in value position."""
        return _Code(f"(1 if {self.cond(node)} else 0)", (0, 1))

    def _unary(self, node):
        if node.op == "!":
            return self._truth_value(node)
        if node.op == "*":
            packer, where = self._cursor_access(node.operand)
            return self.typed(f"{packer}.unpack_from({where})[0]",
                              self.type_of(node))
        operand = self.expr(node.operand)
        fits = getattr(operand, "fits", None)
        if node.op == "-":
            fits = fits and (-fits[1], -fits[0])
        elif node.op == "~":
            fits = fits and (~fits[1], ~fits[0])
        else:
            raise CompileError(f"unknown unary {node.op!r}")
        return self.wrap(
            _Code(f"{node.op}{_p(operand)}", fits), self.type_of(node)
        )

    def _cursor_access(self, pointer):
        """``(packer, "data, offset")`` of ``*pointer``, ``pointer`` a
        promoted cursor, as itself or cast (the subset has no other)."""
        var = pointer.operand if isinstance(pointer, ast.Cast) else pointer
        ctype = self.type_of(pointer).base
        packer = self.module.packer(_PACK_FMT[ctype.width, ctype.signed])
        data = self.py_name(self.cursors[var.name])
        return packer, f"{data}, {self.expr(var)}"

    def _binary(self, node):
        op = node.op
        if op in _NEGATED or op in ("&&", "||"):
            return self._truth_value(node)
        left, right = self.expr(node.left), self.expr(node.right)
        if not isinstance(self.type_of(node.left), ct.PointerType):
            return self._int_binary(op, left, right, self.type_of(node))
        # a cursor's offset into its buffer: ``p + c`` and ``p - q`` in
        # bytes (the subset has no other pointer arithmetic)
        fits = [getattr(side, "fits", None) for side in (left, right)]
        if all(fit and fit[0] == fit[1] for fit in fits):
            value = (fits[0][0] + fits[1][0] if op == "+"
                     else fits[0][0] - fits[1][0])
            return _Code(repr(value), (value, value))
        return f"{left} {op} {_p(right)}"

    def _int_binary(self, op, left, right, result_type):
        if op in ("+", "-", "*", "&", "|", "^"):
            value = f"{_p(left)} {op} {_p(right)}"
            lfits = getattr(left, "fits", None)
            rfits = getattr(right, "fits", None)
            if op in ("+", "-") and lfits and rfits:
                if op == "-":
                    rfits = (-rfits[1], -rfits[0])
                value = _Code(value, (lfits[0] + rfits[0],
                                      lfits[1] + rfits[1]))
        elif op == "<<":
            value = f"{_p(left)} << ({_p(right)} & 31)"
        elif op == ">>":
            if not result_type.signed:
                left = f"{_p(left)} & 0xFFFFFFFF"
            value = f"{_p(left)} >> ({_p(right)} & 31)"
        else:
            raise CompileError(f"unknown binary {op!r}")
        return self.wrap(value, result_type)

    # -- assignment ----------------------------------------------------------

    def _store(self, target, value):
        """Emit a store of ``value`` (converted to the target's type)
        into lvalue ``target``; return an expression that re-reads it."""
        ttype = self.type_of(target)
        wrapped = self.wrap(value, ttype)
        if isinstance(target, ast.Var):
            if self._read_in_place(target, wrapped):
                self._subst[target.name] = wrapped
                return wrapped
            place = self.py_name(target.name)
        elif isinstance(target, ast.Index):
            place = f"{self.expr(target.obj)}[{self.expr(target.index)}]"
        else:  # ``*p``, ``p`` a cursor
            packer, where = self._cursor_access(target.operand)
            self.emit(f"{packer}.pack_into({where}, {wrapped})")
            return self.typed(f"{packer}.unpack_from({where})[0]", ttype)
        fits = getattr(wrapped, "fits", None)
        if fits is not None and fits[0] == fits[1]:
            self._literal_stores[place] = len(self.lines)
        self.emit(f"{place} = {wrapped}")
        return self.typed(place, ttype)

    def _read_in_place(self, target, value):
        """Whether the store of ``value`` — one word of a buffer read
        whole, which nothing changes, or its wrap — into local
        ``target`` is its one live store, at the top level, and read
        once: the read then reads the word itself."""
        word = value if isinstance(value, _Word) else getattr(
            value, "pre", None)
        if not (isinstance(word, _Word) and self.depth == self.top
                and target.name in self.live.tracked):
            return False
        if self._live_uses is None:
            self._live_uses = collections.Counter(
                node.name for node in ast.walk(self.func.body)
                if isinstance(node, ast.Var)
                and node.uid not in self.live.dead)
        return self._live_uses[target.name] == 2

    def _update(self, target, op, operand):
        """``target op= operand`` (``None``: the literal 1); returns
        (value before, re-read after)."""
        target_type = self.type_of(target)
        before = self.typed(self.temp(), target_type)
        self.emit(f"{before} = {self.expr(target)}")
        # C reads the target before evaluating the operand
        value = _Code("1", (1, 1)) if operand is None else self.expr(operand)
        updated = self._int_binary(op, before, value, target_type)
        return before, self._store(target, updated)

    def _assign(self, node):
        if node.op is None:
            value = self.expr(node.value)
            if (isinstance(node.target, ast.Var)
                    and node.target.name in self.static):
                return value  # a static cursor: nothing to store
            return self._store(node.target, value)
        return self._update(node.target, node.op, node.value)[1]

    # -- what is known before emission ------------------------------------
    #
    # In a function whose buffers have a known length, one forward pass
    # before emission follows what the locals hold: a cursor's offset
    # (``p = BASE`` sets it to 0, ``p = p + c`` adds ``c``) and the
    # literal an ``int`` local was last set to.  A branch keeps what its
    # arms agree on; a loop forgets what it stores to — but a rolled
    # element loop a run takes whole (:meth:`_cursor_step`) moves its
    # cursor by its words; a block forgets the names it declares; and
    # nothing after a jump is reached.  A cursor read only at known
    # offsets is static: its stores are gone and each read is a
    # literal.  A read-only buffer whose every word load is whole and
    # inside it, through static cursors only, is read once on entry,
    # whole, as a tuple of words.  A map loop entered with its counter
    # at a literal needs no test of its trip count.

    def _known_values(self):
        """``(static cursors, {buffer read whole: its words' name},
        {uid of a cursor read: its offset}, {uid of a cursor read in a
        rolled element loop a run takes whole: its first word's
        offset}, {uid of a loop: {local: what it holds where the loop
        is entered}})``."""
        literals = self._declared - set(self.cursors)
        offsets, spans, entries, unknown, unfit = {}, {}, {}, set(), set()

        def load(cursor, at, words):
            # ``words`` words loaded through ``cursor`` from where it is
            start = at.get(cursor)
            if start is not None and (start % 4 or start + 4 * words
                                      > self.sizes.get(self.cursors[cursor],
                                                       0)):
                unfit.add(self.cursors[cursor])

        def reads(node, at):
            stored = {child.target.uid for child in ast.walk(node)
                      if isinstance(child, ast.Assign) and child.op is None}
            for child in ast.walk(node):
                if (isinstance(child, ast.Var) and child.name in self.cursors
                        and child.uid not in stored):
                    offsets[child.uid] = at.get(child.name) if (
                        at is not None) else 0  # not reached: any will do
                    if offsets[child.uid] is None:
                        unknown.add(child.name)
                cursor = self._word_cursor(child)
                if (at is not None and isinstance(cursor, ast.Var)
                        and cursor.name in self.cursors):
                    load(cursor.name, at, 1)

        def stores(node, at):
            for child in ast.walk(node):
                if (isinstance(child, (ast.Assign, ast.IncDec))
                        and isinstance(child.target, ast.Var)):
                    at.pop(child.target.name, None)

        def assign(name, value, ctype, before, at):
            # ``name = value``, from what is known ``before`` it
            if name in self.cursors:
                if isinstance(value, ast.Var) and value.name in self.buffers:
                    at[name] = 0
                elif (isinstance(value, ast.Binary) and value.op == "+"
                      and isinstance(value.left, ast.Var)
                      and value.left.name == name
                      and isinstance(value.right, ast.IntLit)
                      and name in before):
                    at[name] = before[name] + value.right.value
            elif (name in literals and isinstance(value, ast.IntLit)
                  and isinstance(ctype, ct.IntType)
                  and ct.wrap_int(value.value, ctype) == value.value):
                at[name] = value.value

        def span(stmts, index, at):
            # whether ``stmts[index:index + 2]`` is a rolled element loop
            # a run takes whole; its cursor moved past it if so
            step = (self._cursor_step(stmts[index], stmts[index + 1], None)
                    if index + 1 < len(stmts) else None)
            if not (step is not None and isinstance(step[2], _LoopSpan)
                    and isinstance(step[1], ast.Var)
                    and step[1].name in self.cursors):
                return False
            cursor, trips = step[1].name, step[2].trips
            start = at.pop(cursor, None)
            for child in ast.walk(stmts[index + 1]):
                if isinstance(child, ast.Var) and child.name in self.cursors:
                    spans[child.uid] = start
            if start is None:
                unknown.add(cursor)
                return True
            if step[0] == "load":
                load(cursor, {cursor: start}, trips)
            at[cursor] = start + 4 * trips
            return True

        def run(node, at):
            # what is known after ``node`` runs from ``at`` (changed in
            # place; None: not reached)
            if at is None:
                reads(node, None)
                return None
            if isinstance(node, ast.Block):
                index = 0
                while index < len(node.stmts):
                    if at is not None and span(node.stmts, index, at):
                        index += 2
                        continue
                    at = run(node.stmts[index], at)
                    index += 1
                for stmt in node.stmts if at is not None else ():
                    if isinstance(stmt, ast.Decl):
                        at.pop(stmt.name, None)
                return at
            if isinstance(node, ast.ExprStmt):
                reads(node.expr, at)
                expr, before = node.expr, dict(at)
                stores(expr, at)
                if (isinstance(expr, ast.Assign) and expr.op is None
                        and isinstance(expr.target, ast.Var)):
                    assign(expr.target.name, expr.value,
                           self.type_of(expr.target), before, at)
                return at
            if isinstance(node, ast.Decl):
                before = dict(at)
                if node.init is not None:
                    reads(node.init, at)
                    stores(node.init, at)
                at.pop(node.name, None)
                if node.init is not None:
                    assign(node.name, node.init, node.ctype, before, at)
                return at
            if isinstance(node, ast.If):
                reads(node.cond, at)
                stores(node.cond, at)
                ends = [run(node.then, dict(at)),
                        dict(at) if node.other is None
                        else run(node.other, dict(at))]
                ends = [end for end in ends if end is not None]
                return {name: value for name, value in ends[0].items()
                        if all(end.get(name) == value for end in ends[1:])
                        } if ends else None
            if isinstance(node, ast.While):
                entries[node.uid] = dict(at)
                stores(node, at)
                reads(node.cond, at)
                run(node.body, dict(at))
                return at
            if getattr(node, "value", None) is not None:  # a return
                reads(node.value, at)
            return None

        run(self.func.body, {})
        static = frozenset(self.cursors) - unknown
        words = {
            buffer: f"_w_{buffer}"
            for buffer, stores_through in self.buffers.items()
            if not stores_through and buffer in self.sizes
            and self.sizes[buffer] % 4 == 0 and buffer not in unfit
            and all(cursor in static for cursor, base
                    in self.cursors.items() if base == buffer)
            and any(base == buffer for base in self.cursors.values())}
        return static, words, offsets, spans, entries

    def _incdec(self, node):
        op = "+" if node.op == "++" else "-"
        before, after = self._update(node.target, op, None)
        return after if node.prefix else before

    # -- statements ------------------------------------------------------------

    def _dead(self, name, after):
        """Whether local ``name`` is one nothing reads once the
        statement whose live-after set is ``after`` has run."""
        return (after is not None and name in self.live.tracked
                and name not in after)

    def _dead_store(self, node):
        """Whether the statement-level expression ``node`` stores a value
        that cannot fault into a local nothing reads afterwards."""
        if not (isinstance(node, (ast.Assign, ast.IncDec))
                and isinstance(node.target, ast.Var)
                and node.target.uid in self.live.dead):
            return False
        if isinstance(node, ast.IncDec):
            return True
        return node.op not in ("/", "%") and _pure(node.value)

    def _effect(self, node):
        """Evaluate expression ``node`` for its side effects only."""
        if self._dead_store(node):
            return
        value = self.expr(node)
        if isinstance(node, (ast.Assign, ast.IncDec)) or value.isidentifier():
            return  # the store is the effect; its re-read is dead
        self.emit(value)

    def stmt(self, node, new_scope=True):
        if isinstance(node, ast.Block):
            if new_scope:
                self.scopes.append({})
            self._stmts_with_batching(node.stmts)
            if new_scope:
                self.scopes.pop()
            return
        if isinstance(node, ast.ExprStmt):
            self._effect(node.expr)
            return
        if isinstance(node, ast.Decl):
            self._decl(node)
            return
        if isinstance(node, ast.If):
            self.emit(f"if {self.cond(node.cond)}:")
            self._suite(node.then)
            if node.other is not None:
                self.emit("else:")
                self._suite(node.other)
            return
        if isinstance(node, ast.While):
            self._while(node, self._entries.get(node.uid, {}))
            return
        if isinstance(node, ast.Return):
            self._return(node)
            return
        raise CompileError(f"cannot compile statement {node!r}")

    def _suite(self, node):
        self.depth += 1
        self.stmt(node)
        self._ensure_body()
        self.depth -= 1

    def _return(self, node):
        if node.value is None:
            self.emit("return None")
        else:
            self._fused_return(self.wrap(self.expr(node.value),
                                         self.func.ret_type))

    # -- cursor batching -------------------------------------------------
    #
    # Tempo residual code marshals through a byte cursor: runs of
    #     *(long *)X = <value>;  X = X + 4;
    # pairs (and the mirrored load form).  Recognizing whole runs and
    # emitting one struct.pack_into / unpack_from is the Python analogue
    # of what ``gcc -O2`` does to the residual straight-line C in the
    # paper.  A run may be one word long.

    def _stmts_with_batching(self, stmts, guards=True):
        index = 0
        total = len(stmts)
        while index < total:
            run = self._collect_cursor_run(stmts, index, guards)
            if run is not None:
                self._emit_cursor_run(run)
                index = run["end"]
                continue
            temp = self._forwarded(stmts, index, guards)
            if temp is not None:
                temp, run = temp
                # ``v = E;`` read only by the store run after it: the
                # run packs E itself (a wrap composes with E's own)
                self._subst[temp.target.name] = self.wrap(
                    self.expr(temp.value), self.type_of(temp.target))
                self._emit_cursor_run(run)
                del self._subst[temp.target.name]
                index = run["end"]
                continue
            self.stmt(stmts[index])
            index += 1

    def _forwarded(self, stmts, index, guards):
        """``(the assignment stmts[index], the store run after it)``
        when, in a function whose buffers have a known length, it sets
        a local, from locals and literals, that only that run reads."""
        store = self._plain_assign(stmts[index]) if self.sizes else None
        if not (store is not None and isinstance(store.target, ast.Var)
                and store.target.name in self.live.tracked
                and _pure(store.value)) or any(
                    isinstance(node, ast.Var) and node.name in self.cursors
                    for node in ast.walk(store.value)):
            return None
        run = self._collect_cursor_run(stmts, index + 1, guards)
        if run is None or run["kind"] != "store" or not self._dead(
                store.target.name, self.live.after(run["stmts"][-1])):
            return None
        return store, run

    @staticmethod
    def _unwrap_casts(expr):
        while isinstance(expr, ast.Cast):
            expr = expr.operand
        return expr

    @staticmethod
    def _plain_assign(stmt):
        """The Assign node of a ``TARGET = VALUE;`` statement, or None."""
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Assign) and expr.op is None:
                return expr
        return None

    @staticmethod
    def _word_cursor(expr):
        """``*(int32 *)CURSOR`` -> the CURSOR node, or None."""
        if not (isinstance(expr, ast.Unary) and expr.op == "*"):
            return None
        inner = expr.operand
        if (
            isinstance(inner, ast.Cast)
            and isinstance(inner.ctype, ct.PointerType)
            and inner.ctype.base.is_integer
            and inner.ctype.base.size() == 4
        ):
            return inner.operand
        return None

    def _match_cursor_store(self, stmt):
        """Match ``*(int32 *)CURSOR = VALUE;`` -> (cursor, value_expr)."""
        expr = self._plain_assign(stmt)
        cursor = self._word_cursor(expr.target) if expr else None
        if cursor is None:
            return None
        value = self._unwrap_casts(expr.value)
        if isinstance(value, ast.Call):
            if value.name not in ("htonl", "ntohl"):
                return None
            value = self._unwrap_casts(value.args[0])
            if isinstance(value, ast.Call):
                return None
        return cursor, value

    def _match_cursor_load(self, stmt):
        """Match ``TARGET = ntohl(*(int32 *)CURSOR);`` ->
        (cursor, target_lvalue)."""
        expr = self._plain_assign(stmt)
        if expr is None:
            return None
        value = self._unwrap_casts(expr.value)
        if isinstance(value, ast.Call):
            if value.name not in ("ntohl", "htonl"):
                return None
            value = self._unwrap_casts(value.args[0])
        cursor = self._word_cursor(value)
        if cursor is None:
            return None
        return cursor, expr.target

    def _match_cursor_bump(self, stmt, cursor_text):
        """Match ``CURSOR = CURSOR + 4;``."""
        expr = self._plain_assign(stmt)
        if expr is None or pretty_expr(expr.target) != cursor_text:
            return False
        value = expr.value
        return (
            isinstance(value, ast.Binary)
            and value.op == "+"
            and pretty_expr(value.left) == cursor_text
            and isinstance(value.right, ast.IntLit)
            and value.right.value == 4
        )

    def _match_element_loop(self, init, loop):
        """Match Tempo's rolled element loop ``k = 0; while (k < N) {
        ACCESS; BUMP; k = k + 1; }`` — N a literal, ``k`` a counter no
        other statement of the function mentions, so that it is dead
        after the loop — -> (k, N, ACCESS, BUMP), or None."""
        start = self._plain_assign(init)
        if not (
            start is not None
            and self._is_counter(start.target)
            and isinstance(start.value, ast.IntLit)
            and start.value.value == 0
            and isinstance(loop, ast.While)
            and isinstance(loop.body, ast.Block)
            and len(loop.body.stmts) == 3
        ):
            return None
        counter = start.target.name
        cond = loop.cond
        if not (
            isinstance(cond, ast.Binary)
            and cond.op == "<"
            and isinstance(cond.left, ast.Var)
            and cond.left.name == counter
            and isinstance(cond.right, ast.IntLit)
            and cond.right.value >= 1
        ):
            return None
        old, rest = self._match_step(loop.body.stmts, counter)
        if rest is None or old is not None:
            return None
        # the init, the test, the index and the step (twice)
        if self._uses_of(counter) != 5:
            return None
        return counter, cond.right.value, rest[0], rest[1]

    def _uses_of(self, name):
        """How many times the function mentions variable ``name``."""
        if self._var_uses is None:
            self._var_uses = collections.Counter(
                node.name
                for node in ast.walk(self.func)
                if isinstance(node, ast.Var)
            )
        return self._var_uses[name]

    def _cursor_step(self, first, second, kind):
        """(kind, cursor, item) when the two statements are one step of
        a cursor run of ``kind`` (None: of either kind) — a store or
        load then the cursor's bump, ``item`` the stored value or the
        load's target; or a rolled loop of that pair over ``BASE[k]``
        and its ``k = 0`` before it, ``item`` the (BASE, 0, N) span —
        or None."""
        loop = self._match_element_loop(first, second)
        if loop is not None:
            counter, trips, first, second = loop
        matched = None
        if kind != "load":
            matched, step_kind = self._match_cursor_store(first), "store"
        if matched is None and kind != "store":
            matched, step_kind = self._match_cursor_load(first), "load"
        if matched is None:
            return None
        cursor, item = matched
        if not self._match_cursor_bump(second, pretty_expr(cursor)):
            return None
        if loop is not None:
            array = self._int32_array(item)
            if not (
                array is not None
                and trips <= array.length
                and isinstance(item.index, ast.Var)
                and item.index.name == counter
            ):
                return None
            item = _LoopSpan(item.obj, trips, counter)
        return step_kind, cursor, item

    def _run_guard(self, stmt, cursor_text):
        """Whether ``stmt`` is ``if (COND) EXIT`` (:meth:`_exit`) with
        COND over literals and local variables other than the cursor: it
        has no effect and reads no memory, so not the cursor either —
        which a guarded run stores late."""
        if not (isinstance(stmt, ast.If) and stmt.other is None
                and self._exit(stmt.then)):
            return False
        for node in ast.walk(stmt.cond):
            if isinstance(node, ast.Var):
                if node.name == cursor_text or not self._local(node.name):
                    return False
            elif isinstance(node, ast.Unary):
                if node.op == "*":
                    return False
            elif not isinstance(node, (ast.IntLit, ast.Cast, ast.Binary)):
                return False
        return True

    def _run_local(self, stmt, cursor_text):
        """Whether ``stmt`` only sets a local from locals and literals
        (or declares one): an item of a run from a buffer read whole."""
        if isinstance(stmt, ast.Decl):
            return stmt.init is None and isinstance(stmt.ctype, ct.IntType)
        store = self._plain_assign(stmt)
        return (store is not None and isinstance(store.target, ast.Var)
                and store.target.name in self.live.tracked
                and store.target.name != cursor_text and _pure(store.value)
                and not any(isinstance(node, ast.Var)
                            and node.name == cursor_text
                            for node in ast.walk(store.value)))

    @staticmethod
    def _exit(then):
        """Whether ``then`` only leaves: ``return LITERAL;``."""
        stmts = then.stmts if isinstance(then, ast.Block) else [then]
        return (len(stmts) == 1 and isinstance(stmts[0], ast.Return)
                and isinstance(stmts[0].value, ast.IntLit))

    def _collect_cursor_run(self, stmts, start, guards=True):
        """Collect a maximal run of (store|load, bump) pairs and rolled
        element loops over one cursor.  With ``guards``, a run of plain
        loads also steps over the early-return tests between its words
        (:meth:`_run_guard`): they are items of the run, as ``If``
        nodes."""
        kind = cursor = cursor_text = None
        items = []
        words = 0
        index = start
        whole = False
        while index + 1 < len(stmts):
            step = self._cursor_step(stmts[index], stmts[index + 1], kind)
            if step is None:
                break
            if cursor is None:
                kind, cursor, _item = step
                cursor_text = pretty_expr(cursor)
                # from a buffer read whole (:meth:`_emit_words_run`)
                whole = (kind == "load" and isinstance(cursor, ast.Var)
                         and cursor.name in self.static
                         and self.cursors[cursor.name] in self.words)
            elif pretty_expr(step[1]) != cursor_text:
                break
            items.append(step[2])
            words += step[2].trips if isinstance(step[2], _LoopSpan) else 1
            index += 2
            if isinstance(step[2], _LoopSpan) and not whole:
                guards = False
            while (
                guards
                and kind == "load"
                and index < len(stmts)
                and (self._run_guard(stmts[index], cursor_text)
                     or whole and self._run_local(stmts[index], cursor_text)
                     and (index + 1 == len(stmts) or self._cursor_step(
                         stmts[index], stmts[index + 1], None) is None))
            ):
                items.append(stmts[index])
                index += 1
        while items and not whole and isinstance(items[-1], ast.If):
            # a test after the last word is not between two of them
            # (from a buffer read whole, every test is one of the run's)
            items.pop()
            index -= 1
        if not items:
            return None
        return {"kind": kind, "cursor": cursor, "items": items,
                "words": words, "end": index, "stmts": stmts[start:index]}

    def _emit_cursor_run(self, run):
        items = run["items"]
        count = run["words"]
        node = run["cursor"]
        # the cursor is a promoted local (the subset has no other)
        words = None
        buffer = self.cursors[node.name]
        data = self.py_name(buffer)
        start = self.offsets.get(node.uid, self._spans.get(node.uid))
        offset = (_Code(repr(start), (start, start))
                  if node.name in self.static else self.expr(node))
        advanced = f"{offset} + {{}}"
        after = self.live.after(run["stmts"][-1])
        if node.name in self.static:
            words = self.words.get(buffer)
            advanced = None
            node = None  # its reads are literals
        elif self._dead(node.name, after):
            node = None  # nothing reads where the run leaves it
        where = f"{data}, {offset}"
        guarded = words is None and any(
            isinstance(item, ast.If) for item in items) and not (
            advanced is None and start + 4 * count
            <= self.sizes.get(self.cursors[run["cursor"].name], 0))
        if words is not None and run["kind"] == "load" and all(
                not isinstance(item, ast.If) or self._declines(item)
                for item in items):
            self._emit_words_run(run, words, start // 4)
            items = ()  # emitted
        if guarded:
            # One unpack would fault on a buffer that ends inside the
            # run, where word by word an earlier test may have returned:
            # batch only what is known to be there.
            self.emit(f"if {offset} + {4 * count} <= len({data}):")
            self.depth += 1
        if not items:
            pass
        elif run["kind"] == "store":
            # Words pack unsigned (masked; constants at compile time); a
            # span of one int array packs signed straight from a slice —
            # in range by the invariant, refused by the pack otherwise.
            kinds, values, index, wraps = [], [], 0, []
            while index < len(items):
                span = self._index_span(items, index)
                if span is None:
                    value = self.wrap(self.expr(items[index]), ct.U_LONG)
                    signed = getattr(value, "pre", None)
                    fits = getattr(signed, "fits", None)
                    if fits and _I32[0] <= fits[0] and fits[1] <= _I32[1]:
                        # the same four bytes, packed from the int
                        # itself: no mask
                        kinds.append("i")
                        values.append(signed)
                    else:
                        kinds.append("I")
                        values.append(value)
                    index += 1
                else:
                    base, first, length, used = span
                    kinds.extend("i" * length)
                    whole = (self.sizes and first == 0
                             and self._length(base) == length)
                    name = getattr(base, "name", None)
                    if name in self._deferred:
                        wraps += self._checked_by_pack(name, run)
                    values.append(f"*{self.expr(base)}" if whole else
                                  f"*{self.expr(base)}[{first}:"
                                  f"{first + length}]")
                    index += used
            fmt = "".join(
                f"{len(list(group))}{kind}"
                for kind, group in itertools.groupby(kinds)
            )
            packer = self.module.packer(">" + fmt)
            statement = f"{packer}.pack_into({where}, {', '.join(values)})"
            buffer = self.cursors.get(getattr(run["cursor"], "name", None))
            whole = (advanced is None and start == 0
                     and buffer in self._fresh
                     and 4 * count == self.sizes[buffer]
                     and self._fills(buffer, items))
            if whole:
                # the whole reply, written once: it is what pack returns
                self.lines[self._fresh.pop(buffer)] = None
                statement = (f"{self.py_name(buffer)} = "
                             f"{packer}.pack({', '.join(values)})")
            lines = []
            if wraps:
                # the pack is the range check: on a value out of range,
                # wrap and pack again (a wrap is the identity in range)
                self.emit("try:")
                lines.append(len(self.lines))
                self.emit(f"    {statement}")
                self.emit("except _struct.error:")
                self.depth += 1
                for line in wraps:
                    self.emit(line)
            lines.append(len(self.lines))
            self.emit(statement)
            if wraps:
                self.depth -= 1
            if whole:
                self._packed = (lines, len(self.lines))
        else:
            if words is None:
                vals, base = self.temp(), 0
                packer = self.module.packer(f">{count}i")
                self.emit(f"{vals} = {packer}.unpack_from({where})")
            else:
                vals, base = words, start // 4
            index = position = 0
            while index < len(items):
                if isinstance(items[index], (ast.Decl, ast.ExprStmt)):
                    self.stmt(items[index])  # a local (a whole run's)
                    index += 1
                    continue
                if isinstance(items[index], ast.If):
                    # leave as word by word would: the cursor past the
                    # words read so far
                    guard = items[index]
                    self.emit(f"if {self.cond(guard.cond)}:")
                    self.depth += 1
                    if advanced is not None and not (
                            isinstance(run["cursor"], ast.Var)
                            and self._dead(run["cursor"].name,
                                           self.live.before(guard.then))):
                        self._store(run["cursor"],
                                    advanced.format(4 * position))
                    self.stmt(guard.then)
                    self.depth -= 1
                    index += 1
                    continue
                span = self._index_span(items, index)
                if span is None:
                    if items[index].uid not in self.live.dead:
                        self._store(items[index], _Code(
                            f"{vals}[{base + position}]", _I32))
                    index += 1
                    position += 1
                else:
                    array, first, length, used = span
                    read = (vals if length == count and not base
                            else self._words_slice(
                                vals, base + position, length))
                    self._slice_store(array, first, first + length, read,
                                      sites=used, words=words is not None)
                    index += used
                    position += length
        # One cursor update for the whole run.
        if node is not None:
            self._store(run["cursor"], advanced.format(4 * count))
        if guarded:
            self.depth -= 1
            self.emit("else:")
            self.depth += 1
            self._stmts_with_batching(run["stmts"], guards=False)
            self.depth -= 1
        for item in items:
            if isinstance(item, _LoopSpan):
                # every use of the counter was in the loop: it is gone
                init = self._default_inits.get(self.py_name(item.counter))
                if init is not None:
                    self.lines[init] = None

    def _checked_by_pack(self, name, run):
        """The wrap of map result ``name`` when the signed pack of
        ``run`` is all that reads it, at the map's own depth — then the
        pack is its range check; else nothing, its scan emitted."""
        depth, wrapped = self._deferred[name][1:3]
        uses = sum(isinstance(node, ast.Var) and node.name == name
                   for stmt in run["stmts"] for node in ast.walk(stmt))
        if depth != self.depth or self._uses_of(name) != 1 + uses:
            self._scan(name)
            return []
        del self._deferred[name]
        py = self.py_name(name)
        return [f"{py} = [{wrapped} for _e in {py}]"]

    def _fills(self, buffer, items):
        """Whether the store run of ``items`` is every access the
        function makes through ``buffer``'s cursors: as many plain
        stores as the run has, and no other dereference."""
        def through(node):
            pointer = (self._unwrap_casts(node.operand)
                       if isinstance(node, ast.Unary) and node.op == "*"
                       else None)
            return (isinstance(pointer, ast.Var)
                    and self.cursors.get(pointer.name) == buffer)

        nodes = list(ast.walk(self.func.body))
        stores = sum(isinstance(node, ast.Assign) and node.op is None
                     and through(node.target) for node in nodes)
        return sum(map(through, nodes)) == stores == sum(
            not isinstance(item, ast.If) for item in items)

    @staticmethod
    def _declines(guard):
        """The literal ``guard`` (``if (c) return L;``) returns, or None
        when its exit is anything else."""
        then = guard.then
        if isinstance(then, ast.Block) and len(then.stmts) == 1:
            then = then.stmts[0]
        if isinstance(then, ast.Return) and isinstance(then.value,
                                                       ast.IntLit):
            return then.value
        return None

    def _emit_words_run(self, run, words, base):
        """A load run from the words of a buffer read whole on entry.
        A local loaded in the run stands for its word until the run
        ends, when it is stored only if it is read later; the tests
        between the words, each a ``return L``, are emitted as one test
        per stretch with one ``L`` and no store between (a word is in
        bounds and cannot fault, so evaluating every term is safe)."""
        items = run["items"]
        loaded, tests, exit_ = {}, [], None
        index = position = 0
        while index < len(items):
            item = items[index]
            if isinstance(item, ast.If):
                value = self._declines(item)
                if tests and value.value != exit_.value:
                    self._emit_tests(tests, exit_, words)
                tests.append(self._compare_terms(item.cond))
                exit_ = value
                index += 1
                continue
            if isinstance(item, (ast.Decl, ast.ExprStmt)):  # a local
                if isinstance(item, ast.ExprStmt):  # a test may read it
                    self._emit_tests(tests, exit_, words)
                name = getattr(getattr(item, "expr", None), "target", item)
                name = getattr(name, "name", None)
                if name in loaded:
                    del loaded[name]
                    self._subst.pop(name)
                self.stmt(item)
                index += 1
                continue
            span = self._index_span(items, index)
            if span is not None:
                self._emit_tests(tests, exit_, words)
                array, first, length, used = span
                self._slice_store(array, first, first + length,
                                  self._words_slice(
                                      words, base + position, length),
                                  sites=used, words=True)
                index += used
                position += length
                continue
            word = _Word(f"{words}[{base + position}]", base + position)
            if isinstance(item, ast.Var) and item.name in self.live.tracked:
                self._subst[item.name] = self.wrap(word, self.type_of(item))
                loaded[item.name] = item
            elif item.uid not in self.live.dead:
                self._emit_tests(tests, exit_, words)
                self._store(item, word)
            index += 1
            position += 1
        self._emit_tests(tests, exit_, words)
        after = self.live.after(run["stmts"][-1])
        for name, item in loaded.items():
            code = self._subst.pop(name)
            if not self._dead(name, after):
                self._store(item, code)

    def _compare_terms(self, cond):
        """``cond`` of a run test as ``(word index, op, literal)`` when
        it compares a whole word with a literal, else its Python text.
        An unsigned view of a signed word compared for equality with a
        literal compares the word with the literal's signed value."""
        negate = False
        while isinstance(cond, ast.Unary) and cond.op == "!":
            cond, negate = cond.operand, not negate
        if isinstance(cond, ast.Binary) and cond.op in _NEGATED:
            left, right = cond.left, cond.right
            op = _NEGATED[cond.op] if negate else cond.op
            if (isinstance(left, ast.Cast) and op in ("==", "!=")
                    and isinstance(right, ast.IntLit)
                    and _int_range(self.type_of(left)) == (0, 0xFFFFFFFF)
                    and _int_range(self.type_of(left.operand)) == _I32
                    and 0 <= right.value <= 0xFFFFFFFF):
                word = self.expr(left.operand)
                value = ct.wrap_int(right.value, ct.INT)
            else:
                word = self.expr(left)
                value = right.value if isinstance(right, ast.IntLit) else None
            if isinstance(word, _Word) and value is not None:
                return word.index, op, value
        return self.cond(cond, negate)

    def _emit_tests(self, tests, exit_, words):
        """``if T1 or T2 ...: return L`` for the terms ``tests`` (then
        emptied) and the ``return L`` node ``exit_``.  Words tested
        ``!=`` a literal are compared as one tuple per stretch of
        consecutive words; a range test that a ``!=`` of the same word
        implies is left out."""
        if not tests:
            return
        unequal = {}
        for term in tests:
            if isinstance(term, tuple) and term[1] == "!=":
                unequal.setdefault(term[0], term[2])
        texts, groups = [], []
        for index, value in sorted(unequal.items()):
            if groups and groups[-1][-1][0] == index - 1:
                groups[-1].append((index, value))
            else:
                groups.append([(index, value)])
        for group in groups:
            first, value = group[0]
            if len(group) == 1:
                texts.append(f"{words}[{first}] != {value}")
            else:
                values = ", ".join(str(value) for _index, value in group)
                texts.append(f"{words}[{first}:{first + len(group)}]"
                             f" != ({values})")
        for term in tests:
            if not isinstance(term, tuple):
                texts.append(term)
                continue
            index, op, value = term
            known = unequal.get(index)
            if op == "!=" or known is not None and _IMPLIED[op](known,
                                                                value):
                continue  # in a tuple, or true whenever ``!=`` is false
            texts.append(f"{words}[{index}] {op} {value}")
        self.emit(f"if {' or '.join(texts)}:")
        self.depth += 1
        self._return(ast.Return(exit_))
        self.depth -= 1
        tests.clear()

    def _words_slice(self, words, lo, length):
        """The text of ``length`` words from ``lo`` of the tuple
        ``words``: a buffer read whole, sliced to its end as ``[lo:]``
        (or a tuple of the run's words, sliced)."""
        total = next((self.sizes[buffer] // 4 for buffer, name
                      in self.words.items() if name == words), None)
        if lo + length == total:
            return words if lo == 0 else f"{words}[{lo}:]"
        return f"{words}[{lo}:{lo + length}]"

    def _int32_array(self, item):
        """The type of the signed 32-bit array ``item`` is an element
        of, or None."""
        if isinstance(item, ast.Index):
            array = self.type_of(item.obj)
            if isinstance(array, ct.ArrayType) and (
                _int_range(array.base) == _I32
            ):
                return array
        return None

    def _index_span(self, items, start):
        """The longest span ``BASE[k], BASE[k+1], ...`` of literal-index
        elements of one signed 32-bit array beginning at ``items[start]``
        — or the span a rolled loop there covers: (base_node, k, length,
        items used), or None when ``items[start]`` is neither."""
        first = items[start]
        if isinstance(first, _LoopSpan):
            return first.base, 0, first.trips, 1
        if self._int32_array(first) is None or not isinstance(
            first.index, ast.IntLit
        ):
            return None
        base_text = pretty_expr(first.obj)
        length = 1
        for item in itertools.islice(items, start + 1, None):
            if not (
                isinstance(item, ast.Index)
                and isinstance(item.index, ast.IntLit)
                and item.index.value == first.index.value + length
                and pretty_expr(item.obj) == base_text
            ):
                break
            length += 1
        return first.obj, first.index.value, length, length

    def _length(self, array):
        """The length of the MiniC array ``array`` — every list that
        holds one is as long as its type says — or None."""
        atype = self.type_of(array)
        return atype.length if isinstance(atype, ct.ArrayType) else None

    def _slice_store(self, array, lo, hi, values, sized=True, fresh=False,
                     sites=1, words=False):
        """Emit ``array[lo:hi] = values`` (``array`` a MiniC node, the
        bounds literals or Python text, ``values`` a new tuple — a new
        list when ``fresh``) so that it faults where the element stores
        it stands for would: a Python slice store into a list that ends
        before ``hi`` grows the list instead.  Unless ``sized``
        (``values`` known to be ``hi - lo`` long), a ``values`` of
        another length — the element reads that made it ran off their
        array — faults too.  A store of a whole local array, indexed
        only, of ``values`` known to be as long — and the ``sites``
        element stores it stands for all the array has, unless
        ``values`` is fresh — binds it to them, and
        the first, at the top level, drops its initial value: nothing
        read it.  There, ``words`` (``values`` a slice of a buffer read
        whole, which nothing changes) read once — by the body, or by a
        fused entry's answer for a result field — are read in place.
        Returns whether the array was bound."""
        name = array.name if isinstance(array, ast.Var) else None
        first = name is not None and name not in self._touched
        text = self.expr(array)
        # what is known of lengths is used where buffer lengths are
        length = self._length(array) if self.sizes else None
        if (sized and lo == 0 and hi == length and name in self._arrays
                and (fresh or self._arrays[name] == sites)):
            init = self._default_inits.get(str(text))
            top = self.depth == self.top
            if first and init is not None and top:
                self.lines[init] = None
                reads = self._uses_of(name) - self._arrays[name]
                if words and reads + (name in self._result_arrays) == 1:
                    self._held[name] = values
                    return True
            self.emit(f"{text} = {values}")
            return True
        tests = []
        if not (isinstance(hi, int) and length is not None and hi <= length):
            tests.append(f"len({text}) < {hi}")
        if not sized:
            tests.append(f"len({values}) != {hi} - {lo}")
        if tests:
            self.emit(f"if {' or '.join(tests)}:")
            self.emit("    return None")
        self.emit(f"{text}[{lo}:{hi}] = {values}")
        return False

    def _ensure_body(self):
        """Guarantee the just-opened suite is non-empty."""
        last = self.lines[-1] if self.lines else ""
        if last.endswith(":"):
            self.emit("pass")

    def _decl(self, node):
        if node.name in self._inputs:
            return  # declared and set where the entry binds it
        name = self.declare(node.name)
        if node.name in self.static and node.init is not None:
            self.expr(node.init)  # a static cursor: nothing to store
            return
        if self._dead(node.name, self.live.after(node)) and (
            node.init is None or _pure(node.init)
        ):
            return  # no path reads this value
        if node.init is not None:
            init = self.wrap(self.expr(node.init), node.ctype)
        elif node.name in self.cursors:
            init = "None"  # a NULL cursor: any use of it faults
        else:
            init = _default(node.ctype)
        if node.init is None:
            self._default_inits[name] = len(self.lines)
        self.emit(f"{name} = {init}")

    # -- loops -----------------------------------------------------------------

    def _while(self, node, entry):
        """``entry``: what locals hold where the loop is entered
        (:meth:`_known_values`)."""
        if self._counted_loop(node, entry):
            return
        head = len(self.lines)
        self.emit("while True:")
        self.depth += 1
        test = self.cond(node.cond)
        if len(self.lines) == head + 1:
            self.lines[head] = "    " * (self.depth - 1) + f"while {test}:"
        else:
            # the test has preludes that must re-run every iteration
            self.emit(f"if not ({test}):")
            self.emit("    break")
        self.stmt(node.body)
        self._ensure_body()
        self.depth -= 1

    def _is_counter(self, expr):
        """A function-local ``int`` variable."""
        return (
            isinstance(expr, ast.Var)
            and _int_range(self.type_of(expr)) == _I32
            and self._local(expr.name)
        )

    def _local(self, name):
        """Whether ``name`` is a local here — declared, or declared
        further on in a statement list a run is being collected from."""
        return (name in self._declared
                or any(name in scope for scope in self.scopes))

    def _match_step(self, body, counter):
        """Split a loop body whose tail is ``counter++`` — spelled
        ``i++;``, ``i = i + 1;`` or Tempo's ``old = i; i = old + 1;`` —
        into (old name or None, the statements before it), or (None,
        None)."""
        step = body[-1].expr if isinstance(body[-1], ast.ExprStmt) else None
        if isinstance(step, ast.IncDec) and step.op == "++":
            source = step.target
        elif (
            isinstance(step, ast.Assign)
            and step.op is None
            and isinstance(step.value, ast.Binary)
            and step.value.op == "+"
            and isinstance(step.value.right, ast.IntLit)
            and step.value.right.value == 1
        ):
            source = step.value.left
        else:
            return None, None
        if not (
            isinstance(step.target, ast.Var)
            and step.target.name == counter
            and isinstance(source, ast.Var)
        ):
            return None, None
        if source.name == counter:
            return None, body[:-1]
        copy = self._plain_assign(body[-2]) if len(body) > 1 else None
        if (
            copy is not None
            and self._is_counter(copy.target)
            and copy.target.name == source.name
            and isinstance(copy.value, ast.Var)
            and copy.value.name == counter
        ):
            return source.name, body[:-2]
        return None, None

    def _lvalue_path(self, expr, elements=True):
        """``(variable,)`` naming a variable or (with ``elements``) an
        element of the array one names: two such objects overlap iff
        one path is a prefix of the other.  None for anything else (a
        cursor's word)."""
        while elements and isinstance(expr, ast.Index):
            expr = expr.obj
        return (expr.name,) if isinstance(expr, ast.Var) else None

    def _counted_loop(self, node, entry):
        """Emit ``while (i < BOUND) { body; i++; }`` as ``for i in
        range(i, BOUND)`` and return True — or return False, emitting
        nothing, unless BOUND is a literal or a variable, and nothing in
        the body can change it, ``i`` or the trip count (no return, no
        store through a cursor, no byte-order conversion).  A
        body of the map shape (:meth:`_map_store`) is emitted with no
        loop at all (:meth:`_emit_map`)."""
        cond = node.cond
        body = node.body.stmts if isinstance(node.body, ast.Block) else [node.body]
        if not (
            isinstance(cond, ast.Binary)
            and cond.op == "<"
            and self._is_counter(cond.left)
            and body
        ):
            return False
        counter = cond.left.name
        old, rest = self._match_step(body, counter)
        if rest is None:
            return False
        bound = cond.right
        frozen = [(counter,), (old,)]
        if not isinstance(bound, ast.IntLit):
            frozen.append(self._lvalue_path(bound, elements=False))
            if frozen[-1] is None or _int_range(self.type_of(bound)) != _I32:
                return False
        for child in itertools.chain.from_iterable(map(ast.walk, rest)):
            if isinstance(child, (ast.Call, ast.Return)):
                return False
            if isinstance(child, ast.Decl) and any(
                child.name == path[0] for path in frozen
            ):
                return False
            if isinstance(child, ast.Var) and child.name == old:
                return False
            if isinstance(child, (ast.Assign, ast.IncDec)):
                written = self._lvalue_path(child.target)
                if written is None or any(_overlap(path, written)
                                          for path in frozen):
                    return False
        mapped = self._map_store(rest, counter)
        limit = self.expr(bound)
        if not (isinstance(bound, ast.IntLit) or limit.isidentifier()):
            temp = self.temp()
            self.emit(f"{temp} = {limit}")
            limit = temp
        index = self.py_name(counter)
        if mapped is not None:
            after = self.live.after(node)
            self._emit_map(index, limit,
                           None if self._dead(old, after) else old,
                           *mapped, exits=not self._dead(counter, after),
                           start=entry.get(counter), loop=node)
            return True
        self.emit(f"for {index} in range({index}, {limit}):")
        self.depth += 1
        self.scopes.append({})
        self._stmts_with_batching(rest)
        self._ensure_body()
        self.scopes.pop()
        self.depth -= 1
        # C leaves i == BOUND (and old == BOUND - 1) after at least one
        # trip; Python leaves i == BOUND - 1.  Zero trips touch neither.
        after = self.live.after(node)
        old_live = old is not None and not self._dead(old, after)
        if old_live or not self._dead(counter, after):
            self.emit(f"if {index} < {limit}:")
            if old_live:
                self.emit(f"    {self.py_name(old)} = {index}")
            self.emit(f"    {index} += 1")
        return True

    def _element_path(self, node, counter):
        """The path of the signed 32-bit array of which ``node`` is the
        element ``[counter]``, or None."""
        if (
            self._int32_array(node) is not None
            and isinstance(node.index, ast.Var)
            and node.index.name == counter
        ):
            return self._lvalue_path(node.obj, elements=False)
        return None

    def _map_store(self, body, counter):
        """Match a counted-loop body that is one store ``DST[i] = E;``
        (the map shape): DST a signed 32-bit array, E built from
        literals, operators that cannot fault and reads ``SRC[i]`` of
        signed 32-bit arrays, each disjoint from DST — so that every
        element stored depends on the elements read at its own index
        and on nothing the loop writes.  -> (the store, the SRC[i]
        nodes), or None."""
        store = self._plain_assign(body[0]) if len(body) == 1 else None
        dst = store and self._element_path(store.target, counter)
        if dst is None:
            return None
        reads = []
        pending = [store.value]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.Binary) and node.op in _MAP_OPS:
                pending.extend((node.right, node.left))
            elif isinstance(node, ast.Unary) and node.op in ("-", "~"):
                pending.append(node.operand)
            elif isinstance(node, ast.Index):
                src = self._element_path(node, counter)
                if src is None or _overlap(src, dst):
                    return None
                reads.append(node)
            elif not isinstance(node, ast.IntLit):
                return None
        return (store, reads) if reads else None

    def _emit_map(self, index, limit, old, store, reads, exits=True,
                  start=None, loop=None):
        """Emit the map loop ``DST[i] = E`` over ``range(i, limit)``:
        one comprehension over the slices ``SRC[i:limit]`` (a whole
        array itself) computing E before its 32-bit wrap, a test on
        only the sides of the int range its value can leave, a second
        pass wrapping every element when one did leave it — wraps
        compose modulo 2**32, so a value in range wraps to itself — one
        slice store, and C's exit values of ``i`` (unless not
        ``exits``) and ``old`` (unless None): the ones read afterwards;
        after zero trips, nothing.  A literal start the counter is set
        to only for this ``loop`` is not stored.  A DST bound to the
        values and read by nothing but one signed pack leaves the range
        test to that pack (:meth:`_emit_cursor_run`)."""
        trips = None
        if start is not None and limit.isdigit():
            trips = int(limit) - start
            if trips <= 0:
                return  # no trip: nothing changes
            index = str(start)
            counter = store.target.index.name
            init = self._literal_stores.get(self.py_name(counter))
            if not exits and init is not None and self._uses_of(counter) == (
                    1 + sum(isinstance(node, ast.Var) and node.name == counter
                            for node in ast.walk(loop))):
                self.lines[init] = None  # only this loop read it
        sources, lengths = {}, {}
        for node in reads:
            base = self.expr(node.obj)
            name = sources.setdefault(base, f"_e{len(sources) + 1}")
            lengths[base] = self._length(node.obj)
            self._elements[node.uid] = _Code(name, _I32)
        value = self.wrap(self.expr(store.value), self.type_of(store.target))
        self._elements.clear()
        pre = getattr(value, "pre", None)
        sized = trips is not None and all(
            length is not None and length >= int(limit)
            for length in lengths.values())
        whole = sized and start == 0
        slices = ", ".join(
            base if whole and lengths[base] == int(limit)
            else f"{base}[{index}:{limit}]" for base in sources)
        if len(sources) > 1:
            slices = f"zip({slices})"
        values = self.temp()
        if trips is None:
            self.emit(f"if {index} < {limit}:")
            self.depth += 1
        made = len(self.lines)
        self.emit(f"{values} = [{pre or value}"
                  f" for {', '.join(sources.values())} in {slices}]")
        scan = len(self.lines)
        if pre is not None:
            self.lines.append(None)  # the range scan, unless a pack checks
        if trips is not None:
            index, limit = start, int(limit)
        dst = store.target.obj
        bound = self._slice_store(dst, index, limit, values, sized=sized,
                                  fresh=True)
        if bound and self.lines[-1] == (
                "    " * self.depth + f"{self.expr(dst)} = {values}"):
            # the comprehension makes the array itself
            self.lines[-1] = None
            self.lines[made] = self.lines[made].replace(
                values, self.expr(dst), 1)
            values = self.expr(dst)
        if pre is not None:
            fits = getattr(pre, "fits", None)
            lo, hi = _I32
            tests = []
            if fits is None or fits[1] > hi:
                tests.append(f"max({values}) > 0x{hi:X}")
            if fits is None or fits[0] < lo:
                tests.append(f"min({values}) < -0x{-lo:X}")
            wrapped = self.wrap("_e", self.type_of(store.target))
            scan = (scan, self.depth, wrapped,
                    [f"if {' or '.join(tests)}:",
                     f"    {values} = [{wrapped} for _e in {values}]"])
            name = getattr(dst, "name", None)
            if name in self._deferred:
                self._scan(name)  # an earlier map's, not yet checked
            self._deferred[name] = scan
            if not (bound and isinstance(dst, ast.Var)):
                self._scan(name)
        if old is not None:
            last = (limit - 1 if isinstance(limit, int) else
                    int(limit) - 1 if limit.isdigit() else f"{limit} - 1")
            self.emit(f"{self.py_name(old)} = {last}")
        if exits:
            self.emit(f"{self.py_name(store.target.index.name)} = {limit}")
        if trips is None:
            self.depth -= 1

    def _scan(self, name):
        """Emit the range scan of map result ``name`` where the map
        left room for it: no pack checks that result."""
        at, depth, _wrapped, lines = self._deferred.pop(name)
        self.lines[at] = "\n".join("    " * depth + line for line in lines)


#: names a MiniC identifier may not take in the generated module
_RESERVED = frozenset(keyword.kwlist) | {
    "_struct", "len", "max", "min", "zip"}


class FusedEntry:
    """What makes a compiled function a **fused entry**: the function
    itself, defined as ``entry(params)`` with its parameters bound
    inside it (docs/SPECIALIZATION.md, "Fused entries").

    ``bindings`` maps each parameter of the MiniC function ``name`` to
    how the entry binds it:

    * ``("value", text)`` — the Python expression ``text``;
    * ``("message", text, size)`` — the ``size`` bytes ``text`` holds,
      read in place unless the function stores through them;
    * ``("fresh", size)`` — a new ``size``-byte reply, which the answer
      returns as ``bytes``;
    * ``("fields", fill)`` — a struct the entry fills: ``fill(place)``
      is the lines that convert and check the caller's value, storing
      field ``f`` into ``place(f)`` (None: nothing reads it);
    * ``("result", build)`` — a struct the function fills:
      ``build(read)`` is ``(lines, expression)`` making the answer,
      field ``f`` read as ``read(f)``.

    A struct the function only reaches by ``p->f`` is split into one
    local per field (:func:`~repro.minic.scalar.split_params`); any
    other is outside the residual subset.  A return of ``value`` answers when
    ``value op literal`` holds (``accepts``); every other return, and
    any exception, returns ``None``: a decline.  ``guard`` lines run
    before the fault handler; ``names`` are the Python names the
    entry's own text uses."""

    def __init__(self, name, params, bindings, accepts, guard=(),
                 names=()):
        self.name = name
        self.params = params
        self.bindings = bindings
        self.accepts = accepts
        self.guard = list(guard)
        self.names = set(names) | {
            word.strip() for word in params.split(",")}


class CompiledModule:
    """A residual program's fused entry compiled to a live Python
    namespace: ``entry`` is the function :class:`FusedEntry` names, and
    the module keeps only what that function reaches."""

    def __init__(self, program, fused):
        self.program = program
        #: run format -> name of its module-level ``struct.Struct``
        self.packers = {}
        # what is lowered is ``program`` after scalar replacement
        lowered = scalar.scalarize(program)
        func = lowered.func(fused.name)
        split = scalar.split_params(func, {
            name for name, binding in fused.bindings.items()
            if binding[0] in ("fields", "result")})
        body = _FuncCompiler(self, func, typecheck_program(lowered), fused,
                             split).compile()
        head = [f"{name} = _struct.Struct({fmt!r})"
                for fmt, name in self.packers.items()]
        lines = ["# Generated by repro.minic.compile_py — do not edit."]
        if head:
            lines += ["import struct as _struct", "", *head]
        self.source = "\n".join(lines + ["", *body, ""]) + "\n"
        self.namespace = {}
        code = compile(self.source, "<minic-compiled>", "exec")
        exec(code, self.namespace)  # noqa: S102 - our own generated code

    def packer(self, fmt):
        """The name of the ``struct.Struct`` for ``fmt``, compiled once at
        module build rather than looked up by format string per call."""
        return self.packers.setdefault(fmt, f"_S{len(self.packers) + 1}")

    @property
    def entry(self):
        """The fused entry (:class:`FusedEntry`)."""
        return self.namespace["entry"]


def compile_program(program, fused):
    """Compile the function of ``program`` that ``fused`` (a
    :class:`FusedEntry`) names as the module's fused entry; returns a
    :class:`CompiledModule`.  Raises :class:`CompileError` naming the
    construct when that function is outside the residual subset."""
    return CompiledModule(program, fused)
