"""Compile MiniC programs to executable Python.

Both the generic Sun RPC micro-layers and the Tempo residual programs are
compiled with this backend, which gives an apples-to-apples live-Python
performance comparison (the residual program wins because the *code* is
simpler, not because it runs on a different substrate).

The translation is statement-oriented.  C expressions with side effects
(assignment expressions, ``++``, short-circuit operators with effectful
right-hand sides) are flattened into prelude statements feeding temporary
variables, so the generated Python is simple and debuggable.

Pointers/structs/buffers are represented by :mod:`repro.minic.pyruntime`
values; struct types become generated Python classes with ``__slots__``.

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
from repro.minic import builtins
from repro.minic import types as ct
from repro.minic.interp import _address_taken_names
from repro.minic.pretty import pretty_expr
from repro.minic.typecheck import typecheck_program

_RT = "_rt"

_BUILTIN_MAP = {
    "htons": f"{_RT}.htons",
    "ntohs": f"{_RT}.ntohs",
    "bzero": f"{_RT}.bzero",
    "memcpy": f"{_RT}.memcpy",
    "abort": f"{_RT}.c_abort",
    # Resolved inside the generated module namespace; callers inject a
    # real transport via CompiledModule.attach_network().
    "net_sendrecv": "_net_sendrecv",
}

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


#: a rolled element loop as one item of a cursor run: ``trips`` words of
#: array ``base`` from element 0, indexed by the variable ``counter``
_LoopSpan = collections.namedtuple("_LoopSpan", "base trips counter")


def _struct_class_name(name):
    return f"S_{name}"


class _FuncCompiler:
    """Compiles one FuncDef into Python source lines."""

    def __init__(self, module, func):
        self.module = module
        self.func = func
        self.types = module.typeinfo.expr_types
        self.lines = []
        self.depth = 1
        self.temp_counter = 0
        #: stack of scope dicts: MiniC name -> python name
        self.scopes = [{}]
        #: python names already used in this function
        self.used_names = set()
        #: MiniC locals that are boxed because their address is taken
        self.boxed = set()
        #: loop context stack: "while" (continue ok) or "for" (see below)
        self.loop_stack = []
        self.address_taken = _address_taken_names(func)
        #: uses of each variable in the function (counted on demand)
        self._var_uses = None
        #: python name -> index in ``lines`` of its default initializer
        self._default_inits = {}

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
        if minic_name in self.module.global_names:
            return self.module.global_names[minic_name]
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
        """``text`` reads an object (or a call result) of type ``ctype``:
        every store, return and argument is wrapped, so it is in range."""
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
        params = [self.declare(param.name) for param in self.func.params]
        header = f"def {self.module.func_name(self.func.name)}({', '.join(params)}):"
        for param, name in zip(self.func.params, params):
            if param.name in self.address_taken:
                self.boxed.add(name)
                self.emit(f"{name} = [{name}]")
        self.stmt(self.func.body, new_scope=False)
        lines = [line for line in self.lines if line is not None]
        return [header] + (lines or ["    pass"])

    # -- expressions --------------------------------------------------------
    #
    # ``expr`` returns a Python expression string; any side effects are
    # emitted as prelude statements before the returned expression is
    # evaluated, preserving C's left-to-right evaluation of our subset.

    def expr(self, node):
        if isinstance(node, ast.IntLit):
            return _Code(repr(node.value), (node.value, node.value))
        if isinstance(node, ast.StrLit):
            return repr(node.value)
        if isinstance(node, ast.Var):
            name = self.py_name(node.name)
            if name in self.boxed:
                name = f"{name}[0]"
            return self.typed(name, self.type_of(node))
        if isinstance(node, ast.Unary):
            return self._unary(node)
        if isinstance(node, ast.Binary):
            return self._binary(node)
        if isinstance(node, ast.Assign):
            return self._assign(node)
        if isinstance(node, ast.IncDec):
            return self._incdec(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Member):
            obj = self.expr(node.obj)
            return self.typed(f"{obj}.{node.field}", self.type_of(node))
        if isinstance(node, ast.Index):
            base = self.expr(node.obj)
            index = self.expr(node.index)
            if isinstance(self.type_of(node.obj), ct.ArrayType):
                return self.typed(f"{base}[{index}]", self.type_of(node))
            return self.typed(
                f"{_RT}.ptr_add({base}, {index}).get()", self.type_of(node)
            )
        if isinstance(node, ast.Cast):
            return self._cast(node)
        if isinstance(node, ast.Cond):
            return self._cond(node)
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
            left, right, pointers = self._operands(node)
            if pointers and node.op not in ("==", "!="):
                raise CompileError(f"unsupported pointer operation {node.op!r}")
            op = _NEGATED[node.op] if negate else node.op
            return f"{_p(left)} {op} {_p(right)}"
        if (
            isinstance(node, ast.Binary)
            and node.op in ("&&", "||")
            and not self._has_side_effects(node.right)
        ):
            joiner = "and" if node.op == "&&" else "or"
            test = f"({self.cond(node.left)}) {joiner} ({self.cond(node.right)})"
            return f"not ({test})" if negate else test
        value = self.expr(node)
        if isinstance(self.type_of(node), (ct.PointerType, ct.ArrayType)):
            value = f"{_RT}.truthy({value})"
        return f"not {_p(value)}" if negate else value

    def _truth_value(self, node):
        """A comparison or logical operator in value position."""
        return _Code(f"(1 if {self.cond(node)} else 0)", (0, 1))

    def _unary(self, node):
        if node.op == "&":
            return self._address_of(node.operand)
        if node.op == "!":
            return self._truth_value(node)
        operand = self.expr(node.operand)
        if node.op == "*":
            pointer_type = self.type_of(node.operand)
            if isinstance(pointer_type, ct.PointerType) and isinstance(
                pointer_type.base, ct.StructType
            ):
                return operand  # struct pointers are the object itself
            return self.typed(f"{operand}.get()", self.type_of(node))
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

    def _address_of(self, target):
        if isinstance(target, ast.Var):
            name = self.py_name(target.name)
            ttype = self.type_of(target)
            if isinstance(ttype, ct.ArrayType):
                return f"{_RT}.ElemPtr({name}, 0)"
            if isinstance(ttype, ct.StructType):
                return name
            if name not in self.boxed:
                raise CompileError(
                    f"address of unboxed local {target.name!r}"
                    " (address-taken analysis missed it)"
                )
            return f"{_RT}.VarPtr({name})"
        if isinstance(target, ast.Member):
            obj = self.expr(target.obj)
            ftype = self.type_of(target)
            if isinstance(ftype, (ct.StructType,)):
                return f"{obj}.{target.field}"
            if isinstance(ftype, ct.ArrayType):
                return f"{_RT}.ElemPtr({obj}.{target.field}, 0)"
            return f"{_RT}.FieldPtr({obj}, {target.field!r})"
        if isinstance(target, ast.Index):
            base = self.expr(target.obj)
            index = self.expr(target.index)
            if isinstance(self.type_of(target.obj), ct.ArrayType):
                return f"{_RT}.ElemPtr({base}, {index})"
            return f"{_RT}.ptr_add({base}, {index})"
        if isinstance(target, ast.Unary) and target.op == "*":
            return self.expr(target.operand)
        raise CompileError(f"cannot take address of {target!r}")

    def _operands(self, node):
        """Both operands of a binary node (arrays decayed to pointers)
        and whether either is a pointer."""
        sides = []
        pointers = False
        for side in (node.left, node.right):
            code = self.expr(side)
            side_type = self.type_of(side)
            if isinstance(side_type, ct.ArrayType):
                code = f"{_RT}.ElemPtr({code}, 0)"
            pointers |= isinstance(side_type, (ct.PointerType, ct.ArrayType))
            sides.append(code)
        return sides[0], sides[1], pointers

    def _binary(self, node):
        op = node.op
        if op in ("&&", "||"):
            return self._short_circuit(node)
        if op in _NEGATED:
            return self._truth_value(node)
        left, right, pointers = self._operands(node)
        if not pointers:
            return self._int_binary(op, left, right, self.type_of(node))
        left_ptr = isinstance(
            self.type_of(node.left), (ct.PointerType, ct.ArrayType)
        )
        if op == "+":
            if left_ptr:
                return f"{_RT}.ptr_add({left}, {right})"
            return f"{_RT}.ptr_add({right}, {left})"
        if op == "-":
            if isinstance(
                self.type_of(node.right), (ct.PointerType, ct.ArrayType)
            ):
                return f"{_RT}.ptr_diff({left}, {right})"
            return f"{_RT}.ptr_add({left}, -({right}))"
        raise CompileError(f"unsupported pointer operation {op!r}")

    def _int_binary(self, op, left, right, result_type):
        if op in ("+", "-", "*", "&", "|", "^"):
            value = f"{_p(left)} {op} {_p(right)}"
        elif op == "<<":
            value = f"{_p(left)} << ({_p(right)} & 31)"
        elif op == "/":
            value = f"{_RT}.c_div({left}, {right})"
        elif op == "%":
            value = f"{_RT}.c_mod({left}, {right})"
        elif op == ">>":
            if not result_type.signed:
                left = f"{_p(left)} & 0xFFFFFFFF"
            value = f"{_p(left)} >> ({_p(right)} & 31)"
        else:
            raise CompileError(f"unknown binary {op!r}")
        return self.wrap(value, result_type)

    def _has_side_effects(self, node):
        for child in ast.walk(node):
            if isinstance(child, (ast.Assign, ast.IncDec, ast.Call)):
                return True
        return False

    def _short_circuit(self, node):
        if not self._has_side_effects(node.right):
            return self._truth_value(node)
        # Effectful right side: materialize with a conditional prelude.
        temp = self.temp()
        self.emit(f"{temp} = 1 if {self.cond(node.left)} else 0")
        self.emit(f"if {temp}:" if node.op == "&&" else f"if not {temp}:")
        self.depth += 1
        right = self.cond(node.right)
        self.emit(f"{temp} = 1 if {right} else 0")
        self.depth -= 1
        return _Code(temp, (0, 1))

    def _cond(self, node):
        effectful = self._has_side_effects(node.then) or self._has_side_effects(
            node.other
        )
        test = self.cond(node.cond)
        if not effectful:
            then = self.expr(node.then)
            other = self.expr(node.other)
            return f"({then} if {test} else {other})"
        temp = self.temp()
        self.emit(f"if {test}:")
        self.depth += 1
        then = self.expr(node.then)
        self.emit(f"{temp} = {then}")
        self.depth -= 1
        self.emit("else:")
        self.depth += 1
        other = self.expr(node.other)
        self.emit(f"{temp} = {other}")
        self.depth -= 1
        return temp

    def _call(self, node, used=True):
        ftype = self.module.typeinfo.func_types[node.name]
        # converted to the parameter types: a parameter read is in range
        args = [
            self.wrap(self.expr(arg), ptype)
            for arg, ptype in zip(node.args, ftype.params)
        ]
        if node.name in ("htonl", "ntohl"):
            # The abstract machine is big-endian: the byte swap is the
            # conversion to u_long the argument has already had.
            return args[0]
        if builtins.is_builtin(node.name):
            target = _BUILTIN_MAP[node.name]
        else:
            target = self.module.func_name(node.name)
        call = f"{target}({', '.join(args)})"
        if ftype.ret.is_void or not used:
            # Void calls in expression position still need a value.
            self.emit(call)
            return _Code("0", (0, 0))
        temp = self.temp()
        self.emit(f"{temp} = {call}")
        return self.typed(temp, ftype.ret)

    def _cast(self, node):
        value = self.expr(node.operand)
        target = node.ctype
        if not isinstance(target, ct.PointerType):
            return self.wrap(value, target)
        source = self.type_of(node.operand)
        if not (
            target.base.is_integer
            and isinstance(source, (ct.PointerType, ct.ArrayType))
        ):
            return value
        view = f"{target.base.size()}, {target.base.signed}"
        if (
            isinstance(source.base, ct.IntType)
            and source.base.width == target.base.width == 4
            and source.base.signed != target.base.signed
        ):
            # ``(long *)ulp``: stores through the view must still leave a
            # value of the object's own type behind.
            view += ", True"
        return f"{_RT}.cast_ptr({value}, {view})"

    # -- assignment ----------------------------------------------------------

    def _store(self, target, value):
        """Emit a store of ``value`` (converted to the target's type)
        into lvalue ``target``; return an expression that re-reads it."""
        ttype = self.type_of(target)
        wrapped = self.wrap(value, ttype)
        if isinstance(target, ast.Var):
            place = self.py_name(target.name)
            if place in self.boxed:
                place = f"{place}[0]"
        elif isinstance(target, ast.Member):
            place = f"{self.expr(target.obj)}.{target.field}"
        elif isinstance(target, ast.Index) and isinstance(
            self.type_of(target.obj), ct.ArrayType
        ):
            place = f"{self.expr(target.obj)}[{self.expr(target.index)}]"
        else:
            if isinstance(target, ast.Index):
                pointer = (
                    f"{_RT}.ptr_add({self.expr(target.obj)},"
                    f" {self.expr(target.index)})"
                )
            elif isinstance(target, ast.Unary) and target.op == "*":
                pointer = self.expr(target.operand)
            else:
                raise CompileError(f"cannot store to {target!r}")
            self.emit(f"{pointer}.set({wrapped})")
            return self.typed(f"{pointer}.get()", ttype)
        self.emit(f"{place} = {wrapped}")
        return self.typed(place, ttype)

    def _update(self, target, op, operand):
        """``target op= operand`` (``None``: the literal 1); returns
        (value before, re-read after)."""
        target_type = self.type_of(target)
        before = self.temp()
        self.emit(f"{before} = {self.expr(target)}")
        # C reads the target before evaluating the operand
        value = _Code("1", (1, 1)) if operand is None else self.expr(operand)
        if isinstance(target_type, ct.PointerType):
            if op not in ("+", "-"):
                raise CompileError(f"pointer {op}= unsupported")
            delta = value if op == "+" else f"-({value})"
            updated = f"{_RT}.ptr_add({before}, {delta})"
        else:
            before = self.typed(before, target_type)
            updated = self._int_binary(op, before, value, target_type)
        return before, self._store(target, updated)

    def _assign(self, node):
        if node.op is None:
            return self._store(node.target, self.expr(node.value))
        return self._update(node.target, node.op, node.value)[1]

    def _incdec(self, node):
        op = "+" if node.op == "++" else "-"
        before, after = self._update(node.target, op, None)
        return after if node.prefix else before

    # -- statements ------------------------------------------------------------

    def _effect(self, node):
        """Evaluate expression ``node`` for its side effects only."""
        if isinstance(node, ast.Call):
            self._call(node, used=False)
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
            self.depth += 1
            self.stmt(node.then)
            self._ensure_body()
            self.depth -= 1
            if node.other is not None:
                self.emit("else:")
                self.depth += 1
                self.stmt(node.other)
                self._ensure_body()
                self.depth -= 1
            return
        if isinstance(node, ast.While):
            self._while(node)
            return
        if isinstance(node, ast.For):
            self._for(node)
            return
        if isinstance(node, ast.Return):
            if node.value is None:
                self.emit("return None")
            else:
                value = self.wrap(self.expr(node.value), self.func.ret_type)
                self.emit(f"return {value}")
            return
        if isinstance(node, ast.Break):
            self._break()
            return
        if isinstance(node, ast.Continue):
            self._continue()
            return
        raise CompileError(f"cannot compile statement {node!r}")

    # -- cursor batching -------------------------------------------------
    #
    # Tempo residual code marshals through a byte cursor: runs of
    #     *(long *)X = <value>;  X = X + 4;
    # pairs (and the mirrored load form).  Translating each pair through
    # the general pointer runtime costs several object allocations per
    # element; recognizing whole runs and emitting one struct.pack_into /
    # unpack_from is the Python analogue of what ``gcc -O2`` does to the
    # residual straight-line C in the paper.  A run may be one word long:
    # through the pointer runtime a word costs two cursor objects and
    # ~105 bytecodes, through ``struct`` one object and ~40.

    def _stmts_with_batching(self, stmts, guards=True):
        index = 0
        total = len(stmts)
        while index < total:
            run = self._collect_cursor_run(stmts, index, guards)
            if run is not None:
                self._emit_cursor_run(run)
                index = run["end"]
                continue
            self.stmt(stmts[index])
            index += 1

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
        if self._var_uses is None:
            self._var_uses = collections.Counter(
                node.name
                for node in ast.walk(self.func)
                if isinstance(node, ast.Var)
            )
        # the init, the test, the index and the step (twice)
        if self._var_uses[counter] != 5:
            return None
        return counter, cond.right.value, rest[0], rest[1]

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
        """Whether ``stmt`` is ``if (COND) return LITERAL;`` with COND
        over literals and local variables other than the cursor: it has
        no effect and reads no memory, so not the cursor either — which
        a guarded run stores late."""
        if not (isinstance(stmt, ast.If) and stmt.other is None):
            return False
        then = stmt.then
        if isinstance(then, ast.Block) and len(then.stmts) == 1:
            then = then.stmts[0]
        if not (
            isinstance(then, ast.Return)
            and isinstance(then.value, ast.IntLit)
        ):
            return False
        for node in ast.walk(stmt.cond):
            if isinstance(node, ast.Var):
                if node.name == cursor_text or not any(
                    node.name in scope for scope in self.scopes
                ):
                    return False
            elif isinstance(node, ast.Unary):
                if node.op in ("*", "&"):
                    return False
            elif not isinstance(node, (ast.IntLit, ast.Cast, ast.Binary)):
                return False
        return True

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
        while index + 1 < len(stmts):
            step = self._cursor_step(stmts[index], stmts[index + 1], kind)
            if step is None:
                break
            if cursor is None:
                kind, cursor, _item = step
                cursor_text = pretty_expr(cursor)
            elif pretty_expr(step[1]) != cursor_text:
                break
            items.append(step[2])
            words += step[2].trips if isinstance(step[2], _LoopSpan) else 1
            index += 2
            if isinstance(step[2], _LoopSpan):
                guards = False
            while (
                guards
                and kind == "load"
                and index < len(stmts)
                and self._run_guard(stmts[index], cursor_text)
            ):
                items.append(stmts[index])
                index += 1
        while items and isinstance(items[-1], ast.If):
            # a test after the last word is not between two of them
            items.pop()
            index -= 1
        if not items:
            return None
        return {"kind": kind, "cursor": cursor, "items": items,
                "words": words, "end": index, "stmts": stmts[start:index]}

    def _emit_cursor_run(self, run):
        items = run["items"]
        count = run["words"]
        cursor = self.temp()
        self.emit(f"{cursor} = {self.expr(run['cursor'])}")
        where = f"{cursor}.buffer.data, {cursor}.offset"
        guarded = any(isinstance(item, ast.If) for item in items)
        if guarded:
            # One unpack would fault on a buffer that ends inside the
            # run, where word by word an earlier test may have returned:
            # batch only what is known to be there.
            self.emit(f"if {cursor}.offset + {4 * count}"
                      f" <= len({cursor}.buffer.data):")
            self.depth += 1
        if run["kind"] == "store":
            # Words pack unsigned (masked; constants at compile time); a
            # span of one int array packs signed straight from a slice —
            # in range by the invariant, refused by the pack otherwise.
            kinds, values, index = [], [], 0
            while index < len(items):
                span = self._index_span(items, index)
                if span is None:
                    kinds.append("I")
                    values.append(self.wrap(self.expr(items[index]), ct.U_LONG))
                    index += 1
                else:
                    base, first, length, used = span
                    kinds.extend("i" * length)
                    values.append(
                        f"*{self.expr(base)}[{first}:{first + length}]"
                    )
                    index += used
            fmt = "".join(
                f"{len(list(group))}{kind}"
                for kind, group in itertools.groupby(kinds)
            )
            packer = self.module.packer(">" + fmt)
            self.emit(f"{packer}.pack_into({where}, {', '.join(values)})")
        else:
            vals = self.temp()
            packer = self.module.packer(f">{count}i")
            self.emit(f"{vals} = {packer}.unpack_from({where})")
            index = position = 0
            while index < len(items):
                if isinstance(items[index], ast.If):
                    # leave as word by word would: the cursor past the
                    # words read so far
                    self.emit(f"if {self.cond(items[index].cond)}:")
                    self.depth += 1
                    self._store(run["cursor"],
                                f"{cursor}.add({4 * position})")
                    self.stmt(items[index].then)
                    self.depth -= 1
                    index += 1
                    continue
                span = self._index_span(items, index)
                if span is None:
                    self._store(
                        items[index], _Code(f"{vals}[{position}]", _I32)
                    )
                    index += 1
                    position += 1
                else:
                    base, first, length, used = span
                    words = vals if length == count else (
                        f"{vals}[{position}:{position + length}]"
                    )
                    self.emit(
                        f"{self.expr(base)}[{first}:{first + length}] = {words}"
                    )
                    index += used
                    position += length
        # One cursor update for the whole run.
        self._store(run["cursor"], f"{cursor}.add({4 * count})")
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

    def _ensure_body(self):
        """Guarantee the just-opened suite is non-empty."""
        last = self.lines[-1] if self.lines else ""
        if last.endswith(":"):
            self.emit("pass")

    def _decl(self, node):
        name = self.declare(node.name)
        boxed = node.name in self.address_taken and not isinstance(
            node.ctype, (ct.StructType, ct.ArrayType)
        )
        if node.init is not None:
            init = self.wrap(self.expr(node.init), node.ctype)
        else:
            init = self.module.default_value(node.ctype)
        if boxed:
            self.boxed.add(name)
            self.emit(f"{name} = [{init}]")
        else:
            if node.init is None:
                self._default_inits[name] = len(self.lines)
            self.emit(f"{name} = {init}")

    # -- loops -----------------------------------------------------------------

    def _while(self, node):
        if self._counted_loop(node):
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
        self.loop_stack.append("while")
        self.stmt(node.body)
        self._ensure_body()
        self.loop_stack.pop()
        self.depth -= 1

    def _is_counter(self, expr):
        """A function-local ``int`` variable that lives in a plain Python
        name (its address is never taken)."""
        return (
            isinstance(expr, ast.Var)
            and _int_range(self.type_of(expr)) == _I32
            and expr.name not in self.address_taken
            and any(expr.name in scope for scope in self.scopes)
        )

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
        """``(variable, field, ...)`` naming a variable, a ``.``-member
        of one or (with ``elements``) an element of such an array: two
        such objects overlap iff one path is a prefix of the other.
        None for anything reached through a pointer."""
        fields = []
        while not isinstance(expr, ast.Var):
            if isinstance(expr, ast.Member) and not expr.arrow:
                fields.append(expr.field)
            elif not (
                elements
                and isinstance(expr, ast.Index)
                and isinstance(self.type_of(expr.obj), ct.ArrayType)
            ):
                return None
            expr = expr.obj
        return (expr.name, *reversed(fields))

    def _counted_loop(self, node):
        """Emit ``while (i < BOUND) { body; i++; }`` as ``for i in
        range(i, BOUND)`` and return True — or return False, emitting
        nothing, unless BOUND is a literal, a variable or a ``.``-member
        chain of one, and nothing in the body can change it, ``i`` or
        the trip count (no call, jump, or store through a pointer)."""
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
            if isinstance(
                child, (ast.Call, ast.Return, ast.Break, ast.Continue)
            ):
                return False
            if isinstance(child, ast.Decl) and any(
                child.name == path[0] for path in frozen
            ):
                return False
            if isinstance(child, ast.Var) and child.name == old:
                return False
            if isinstance(child, (ast.Assign, ast.IncDec)):
                written = self._lvalue_path(child.target)
                if written is None or isinstance(
                    self.type_of(child.target), ct.StructType
                ):
                    return False
                for path in frozen:
                    shared = min(len(path), len(written))
                    if path[:shared] == written[:shared]:
                        return False
        limit = self.expr(bound)
        if not (isinstance(bound, ast.IntLit) or limit.isidentifier()):
            temp = self.temp()
            self.emit(f"{temp} = {limit}")
            limit = temp
        index = self.py_name(counter)
        self.emit(f"for {index} in range({index}, {limit}):")
        self.depth += 1
        self.scopes.append({})
        self._stmts_with_batching(rest)
        self._ensure_body()
        self.scopes.pop()
        self.depth -= 1
        # C leaves i == BOUND (and old == BOUND - 1) after at least one
        # trip; Python leaves i == BOUND - 1.  Zero trips touch neither.
        self.emit(f"if {index} < {limit}:")
        if old is not None:
            self.emit(f"    {self.py_name(old)} = {index}")
        self.emit(f"    {index} += 1")
        return True

    def _for(self, node):
        self.scopes.append({})
        if isinstance(node.init, ast.Decl):
            self._decl(node.init)
        elif isinstance(node.init, ast.ExprStmt):
            self._effect(node.init.expr)
        jumps = self._own_jumps(node.body)
        if not any(isinstance(jump, ast.Continue) for jump in jumps):
            # Without ``continue`` the loop *is*
            # ``while (cond) { body; step; }``.
            stmts = [node.body]
            if node.step is not None:
                stmts.append(ast.ExprStmt(node.step))
            self._while(
                ast.While(node.cond or ast.IntLit(1), ast.Block(stmts))
            )
            self.scopes.pop()
            return
        # ``continue`` must still run the step: the body becomes a
        # one-trip inner loop it can leave early.
        flag = None
        if any(isinstance(jump, ast.Break) for jump in jumps):
            flag = self.temp()
            self.emit(f"{flag} = False")
        self.emit("while True:")
        self.depth += 1
        if node.cond is not None:
            self.emit(f"if {self.cond(node.cond, negate=True)}:")
            self.emit("    break")
        self.emit("for _once in (0,):")
        self.depth += 1
        self.loop_stack.append(("for", flag))
        self.stmt(node.body)
        self._ensure_body()
        self.loop_stack.pop()
        self.depth -= 1
        if flag is not None:
            self.emit(f"if {flag}:")
            self.emit("    break")
        if node.step is not None:
            self._effect(node.step)
        self.depth -= 1
        self.scopes.pop()

    @staticmethod
    def _own_jumps(body):
        """Break/Continue nodes belonging to this loop (not nested ones)."""
        result = []
        stack = [body]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.While, ast.For)):
                continue
            if isinstance(node, (ast.Break, ast.Continue)):
                result.append(node)
            stack.extend(node.children())
        return result

    def _break(self):
        if not self.loop_stack:
            raise CompileError("break outside a loop")
        top = self.loop_stack[-1]
        if top != "while":
            self.emit(f"{top[1]} = True")
        self.emit("break")

    def _continue(self):
        if not self.loop_stack:
            raise CompileError("continue outside a loop")
        top = self.loop_stack[-1]
        if top == "while":
            self.emit("continue")
        else:
            self.emit("break")  # leaves the _once loop; step still runs


#: names a MiniC identifier may not take in the generated module
_RESERVED = frozenset(keyword.kwlist) | {"_rt", "_once", "_struct"}


class CompiledModule:
    """A MiniC program compiled to a live Python namespace."""

    def __init__(self, program, typeinfo=None, glue=""):
        self.program = program
        self.typeinfo = typeinfo or typecheck_program(program)
        self.global_names = {}
        #: run format -> name of its module-level ``struct.Struct``
        self.packers = {}
        #: ``glue``: Python source appended to the generated module, so
        #: that hand-staged code around the compiled functions (the
        #: pipeline's fused entries) is part of the one ``compile()``
        self.source = self._generate() + glue
        self.namespace = {}
        code = compile(self.source, "<minic-compiled>", "exec")
        exec(code, self.namespace)  # noqa: S102 - our own generated code

    def func_name(self, name):
        return f"mc_{name}"

    def packer(self, fmt):
        """The name of the ``struct.Struct`` for ``fmt``, compiled once at
        module build rather than looked up by format string per call."""
        return self.packers.setdefault(fmt, f"_S{len(self.packers) + 1}")

    def default_value(self, ctype):
        if isinstance(ctype, ct.StructType):
            return f"{_struct_class_name(ctype.name)}()"
        if isinstance(ctype, ct.ArrayType):
            if isinstance(ctype.base, ct.StructType):
                cls = _struct_class_name(ctype.base.name)
                return f"[{cls}() for _ in range({ctype.length})]"
            return f"[0] * {ctype.length}"
        if isinstance(ctype, ct.PointerType):
            return f"{_RT}.NULL"
        return "0"

    def _generate(self):
        lines = [
            "# Generated by repro.minic.compile_py — do not edit.",
            "import struct as _struct",
            "import repro.minic.pyruntime as _rt",
            "",
            "def _net_sendrecv(out_ptr, out_len, in_ptr, in_max):",
            "    raise _rt.InterpError('no network attached;"
            " use CompiledModule.attach_network')",
            "",
        ]
        for struct in self.program.structs:
            lines.extend(self._struct_class(struct))
            lines.append("")
        for glob in self.program.globals:
            name = f"g_{glob.name}"
            self.global_names[glob.name] = name
            lines.append(f"{name} = {self.default_value(glob.ctype)}")
        if self.program.globals:
            lines.append("")
        funcs = []
        for func in self.program.funcs:
            funcs.extend(_FuncCompiler(self, func).compile())
            funcs.append("")
        for fmt, name in self.packers.items():
            lines.append(f"{name} = _struct.Struct({fmt!r})")
        if self.packers:
            lines.append("")
        return "\n".join(lines + funcs) + "\n"

    def _struct_class(self, struct):
        cls = _struct_class_name(struct.name)
        field_names = ", ".join(repr(f.name) for f in struct.fields)
        lines = [
            f"class {cls}:",
            f"    __slots__ = ({field_names}{',' if struct.fields else ''})",
            "    def __init__(self):",
        ]
        for field in struct.fields:
            lines.append(
                f"        self.{field.name} = {self.default_value(field.ctype)}"
            )
        if not struct.fields:
            lines.append("        pass")
        return lines

    # -- public API ----------------------------------------------------------

    def func(self, name):
        """Return the compiled Python callable for MiniC function ``name``."""
        return self.namespace[self.func_name(name)]

    @property
    def entry(self):
        """The function the glue defines under the name ``entry``."""
        return self.namespace["entry"]

    def call(self, name, *args):
        return self.func(name)(*args)

    def new_struct(self, name):
        return self.namespace[_struct_class_name(name)]()

    def attach_network(self, network):
        """Install a loopback transport for ``net_sendrecv``.

        ``network`` is a callable taking request ``bytes`` and returning
        reply ``bytes`` (UDP request/response semantics).
        """

        def _net_sendrecv(out_ptr, out_len, in_ptr, in_max):
            request = bytes(
                out_ptr.buffer.data[out_ptr.offset:out_ptr.offset + out_len]
            )
            reply = network(request)[:in_max]
            in_ptr.buffer.data[in_ptr.offset:in_ptr.offset + len(reply)] = (
                reply
            )
            return len(reply)

        self.namespace["_net_sendrecv"] = _net_sendrecv

    @staticmethod
    def new_buffer(size):
        from repro.minic import pyruntime as rt

        return rt.PyBuffer(size)


def compile_program(program, typeinfo=None, glue=""):
    """Compile a MiniC program; returns a :class:`CompiledModule`."""
    return CompiledModule(program, typeinfo, glue)
