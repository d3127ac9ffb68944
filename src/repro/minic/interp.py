"""Reference interpreter for MiniC.

Two jobs:

1. Define the semantics of MiniC programs — the correctness oracle that
   the Tempo specializer must preserve (tests compare generic-program
   runs against residual-program runs over random inputs).
2. Optionally record an instruction/memory cost trace
   (:mod:`repro.minic.cost`) that the platform simulator replays to
   regenerate the paper's timing tables.

Interpretation is environment-based with explicit control-flow signals.
The memory model is defined in :mod:`repro.minic.values`.
"""

import functools

from repro.errors import InterpError
from repro.minic import ast
from repro.minic import builtins
from repro.minic import cost
from repro.minic import types as ct
from repro.minic import values as rv
from repro.minic.typecheck import typecheck_program

_MAX_STEPS_DEFAULT = 50_000_000


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class Frame:
    """One function activation: a chain of block scopes."""

    __slots__ = ("scopes",)

    def __init__(self):
        self.scopes = [{}]

    def push(self):
        self.scopes.append({})

    def pop(self):
        self.scopes.pop()

    def declare(self, name, cell):
        self.scopes[-1][name] = cell

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise InterpError(f"undefined variable {name!r}")


def _address_taken_names(func):
    """Names whose address is taken anywhere in ``func`` (need stack
    slots; other scalar locals are treated as register-resident)."""
    taken = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Unary) and node.op == "&":
            # Only a direct ``&var`` pins the variable itself; ``&p->f``
            # and ``&a[i]`` take the address of the pointee/element.
            if isinstance(node.operand, ast.Var):
                taken.add(node.operand.name)
    return taken


class Interpreter:
    """Executes functions of one MiniC program."""

    def __init__(self, program, typeinfo=None, max_steps=_MAX_STEPS_DEFAULT):
        self.program = program
        self.typeinfo = typeinfo or typecheck_program(program)
        self.space = rv.AddressSpace()
        self.max_steps = max_steps
        self.trace = None
        #: pluggable loopback network for ``net_sendrecv``; a callable
        #: taking request ``bytes`` and returning reply ``bytes``.
        self.network = None
        self._steps = 0
        self._globals = {}
        self._taken_cache = {}
        for glob in self.program.globals:
            value = rv.make_value(glob.ctype, self.space)
            cell = rv.Cell(value, glob.ctype, self.space.alloc_heap(4))
            self._globals[glob.name] = cell
        # Globals with initializers are evaluated in a pseudo-frame.
        frame = Frame()
        for glob in self.program.globals:
            if glob.init is not None:
                cell = self._globals[glob.name]
                cell.value = ct.wrap_int(
                    self.eval(glob.init, frame), glob.ctype
                )

    # -- public helpers ---------------------------------------------------

    def make_struct(self, name):
        """Allocate a struct instance by struct name."""
        stype = self._struct_type(name)
        return rv.StructVal(stype, space=self.space)

    def make_array(self, base_name, length):
        atype = ct.ArrayType(ct.base_type(base_name), length)
        return rv.ArrayVal(atype, space=self.space)

    def make_buffer(self, size, name="buf"):
        return rv.Buffer(size, space=self.space, name=name)

    @staticmethod
    def ptr_to(value, ctype=None):
        """Build a pointer to ``value`` usable as a call argument."""
        if isinstance(value, rv.StructVal):
            cell = rv.Cell(value, value.stype, value.addr)
            return rv.CellPtr(cell)
        if isinstance(value, rv.ArrayVal):
            return rv.CellPtr(value.elem(0), value, 0)
        cell = rv.Cell(value, ctype or ct.INT)
        return rv.CellPtr(cell)

    def _struct_type(self, name):
        struct = self.program.struct(name)
        return ct.StructType(
            name, tuple((f.name, f.ctype) for f in struct.fields)
        )

    def call(self, name, args, trace=None):
        """Call function ``name`` with already-constructed values."""
        previous_trace, self.trace = self.trace, trace
        self._steps = 0
        try:
            return self._call(name, list(args), node=None)
        finally:
            self.trace = previous_trace

    # -- tracing ------------------------------------------------------------

    @functools.cached_property
    def layout(self):
        """Code addresses of the AST nodes; only a trace reads them."""
        return cost.CodeLayout(self.program)

    def _emit(self, kind, node, mem_addr=0, size=0):
        self.trace.emit(kind, self.layout.addr(node), mem_addr, size)

    def _tick(self):
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpError(f"exceeded {self.max_steps} interpreter steps")

    # -- calls ---------------------------------------------------------------

    def _call(self, name, args, node):
        if builtins.is_builtin(name):
            return self._call_builtin(name, args, node)
        try:
            func = self.program.func(name)
        except KeyError:
            raise InterpError(f"call to undefined function {name!r}") from None
        if len(args) != len(func.params):
            raise InterpError(
                f"{name} expects {len(func.params)} args, got {len(args)}"
            )
        if self.trace is not None and node is not None:
            self._emit(cost.CALL, node)
        frame = Frame()
        if func.name not in self._taken_cache:
            self._taken_cache[func.name] = _address_taken_names(func)
        taken = self._taken_cache[func.name]
        for param, arg in zip(func.params, args):
            if isinstance(param.ctype, (ct.StructType, ct.ArrayType)):
                raise InterpError(
                    f"{name}: aggregates must be passed by pointer"
                )
            addr = self.space.alloc_stack(4) if param.name in taken else None
            value = arg
            if param.ctype.is_integer:
                value = ct.wrap_int(arg, param.ctype)
            frame.declare(param.name, rv.Cell(value, param.ctype, addr))
        try:
            self.exec_stmt(func.body, frame, taken)
        except _Return as signal:
            if self.trace is not None and node is not None:
                self._emit(cost.RET, node)
            return signal.value
        if self.trace is not None and node is not None:
            self._emit(cost.RET, node)
        if not func.ret_type.is_void:
            raise InterpError(f"{name}: fell off the end of a non-void function")
        return None

    def _call_builtin(self, name, args, node):
        trace = self.trace
        if name in ("htonl", "ntohl", "htons", "ntohs"):
            if trace is not None and node is not None:
                self._emit(cost.BYTESWAP, node)
            width = 4 if name.endswith("l") else 2
            mask = (1 << (8 * width)) - 1
            return args[0] & mask
        if name == "bzero":
            ptr, length = args
            length = int(length)
            if isinstance(ptr, rv.BufPtr):
                ptr.buffer.fill_zero(ptr.offset, length)
                if trace is not None and node is not None:
                    self._emit(cost.STORE, node, ptr.mem_addr(), length)
            elif isinstance(ptr, rv.CellPtr) and ptr.array is not None:
                elem_size = ptr.array.atype.base.size()
                for index in range(length // elem_size):
                    ptr.array.elem(ptr.index + index).value = 0
                if trace is not None and node is not None:
                    self._emit(cost.STORE, node, ptr.mem_addr(), length)
            else:
                raise InterpError("bzero needs a buffer or array pointer")
            return None
        if name == "memcpy":
            dst, src, length = args
            length = int(length)
            if isinstance(dst, rv.BufPtr) and isinstance(src, rv.BufPtr):
                dst.buffer.check(dst.offset, length)
                src.buffer.check(src.offset, length)
                dst.buffer.data[dst.offset:dst.offset + length] = (
                    src.buffer.data[src.offset:src.offset + length]
                )
                if trace is not None and node is not None:
                    self._emit(cost.LOAD, node, src.mem_addr(), length)
                    self._emit(cost.STORE, node, dst.mem_addr(), length)
                return None
            raise InterpError("memcpy supports buffer pointers only")
        if name == "net_sendrecv":
            return self._net_sendrecv(args, node)
        if name == "abort":
            raise InterpError("program called abort()")
        raise InterpError(f"unimplemented builtin {name!r}")

    def _net_sendrecv(self, args, node):
        out_ptr, out_len, in_ptr, in_max = args
        out_len = int(out_len)
        in_max = int(in_max)
        if self.network is None:
            raise InterpError("net_sendrecv called with no network attached")
        if not isinstance(out_ptr, rv.BufPtr) or not isinstance(
            in_ptr, rv.BufPtr
        ):
            raise InterpError("net_sendrecv needs buffer pointers")
        request = bytes(
            out_ptr.buffer.data[out_ptr.offset:out_ptr.offset + out_len]
        )
        if self.trace is not None and node is not None:
            self._emit(cost.NET_SEND, node, 0, out_len)
        reply = self.network(request)
        reply = reply[:in_max]
        in_ptr.buffer.check(in_ptr.offset, len(reply))
        in_ptr.buffer.data[in_ptr.offset:in_ptr.offset + len(reply)] = reply
        if self.trace is not None and node is not None:
            self._emit(cost.NET_RECV, node, in_ptr.mem_addr(), len(reply))
        return len(reply)

    # -- statements ------------------------------------------------------------

    def exec_stmt(self, node, frame, taken):
        self._tick()
        trace = self.trace
        if isinstance(node, ast.Block):
            frame.push()
            try:
                for stmt in node.stmts:
                    self.exec_stmt(stmt, frame, taken)
            finally:
                frame.pop()
        elif isinstance(node, ast.ExprStmt):
            self.eval(node.expr, frame)
        elif isinstance(node, ast.Decl):
            self._exec_decl(node, frame, taken)
        elif isinstance(node, ast.If):
            if trace is not None:
                self._emit(cost.BRANCH, node)
            if self._truthy(self.eval(node.cond, frame)):
                self.exec_stmt(node.then, frame, taken)
            elif node.other is not None:
                self.exec_stmt(node.other, frame, taken)
        elif isinstance(node, ast.While):
            while True:
                if trace is not None:
                    self._emit(cost.BRANCH, node)
                if not self._truthy(self.eval(node.cond, frame)):
                    break
                try:
                    self.exec_stmt(node.body, frame, taken)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(node, ast.For):
            frame.push()
            try:
                if isinstance(node.init, ast.Decl):
                    self._exec_decl(node.init, frame, taken)
                elif isinstance(node.init, ast.ExprStmt):
                    self.eval(node.init.expr, frame)
                while True:
                    if node.cond is not None:
                        if trace is not None:
                            self._emit(cost.BRANCH, node)
                        if not self._truthy(self.eval(node.cond, frame)):
                            break
                    try:
                        self.exec_stmt(node.body, frame, taken)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if node.step is not None:
                        self.eval(node.step, frame)
            finally:
                frame.pop()
        elif isinstance(node, ast.Return):
            value = None
            if node.value is not None:
                value = self.eval(node.value, frame)
            raise _Return(value)
        elif isinstance(node, ast.Break):
            raise _Break()
        elif isinstance(node, ast.Continue):
            raise _Continue()
        else:
            raise InterpError(f"unknown statement {node!r}")

    def _exec_decl(self, node, frame, taken):
        ctype = node.ctype
        if isinstance(ctype, (ct.StructType, ct.ArrayType)):
            value = rv.make_value(ctype, self.space)
            cell = rv.Cell(value, ctype, value.addr)
        else:
            addr = self.space.alloc_stack(4) if node.name in taken else None
            cell = rv.Cell(rv.make_value(ctype), ctype, addr)
        if node.init is not None:
            init = self.eval(node.init, frame)
            if ctype.is_integer:
                init = ct.wrap_int(init, ctype)
            cell.value = init
        frame.declare(node.name, cell)

    # -- expressions -------------------------------------------------------------

    def eval(self, node, frame):
        self._tick()
        trace = self.trace
        if trace is not None:
            self._emit(cost.IFETCH, node)
        if isinstance(node, ast.IntLit):
            return node.value
        if isinstance(node, ast.StrLit):
            return node.value
        if isinstance(node, ast.Var):
            cell = self._lookup(node.name, frame)
            if trace is not None and cell.addr is not None:
                self._emit(cost.LOAD, node, cell.addr, cell.size())
            return cell.value
        if isinstance(node, ast.Unary):
            return self._eval_unary(node, frame)
        if isinstance(node, ast.Binary):
            return self._eval_binary(node, frame)
        if isinstance(node, ast.Assign):
            return self._eval_assign(node, frame)
        if isinstance(node, ast.IncDec):
            return self._eval_incdec(node, frame)
        if isinstance(node, ast.Call):
            args = [self.eval(arg, frame) for arg in node.args]
            return self._call(node.name, args, node)
        if isinstance(node, ast.Member):
            cell = self._member_cell(node, frame)
            if trace is not None and cell.addr is not None:
                self._emit(cost.LOAD, node, cell.addr, cell.size())
            return cell.value
        if isinstance(node, ast.Index):
            location = self._index_loc(node, frame)
            return self._load_loc(location, node)
        if isinstance(node, ast.Cast):
            return self._eval_cast(node, frame)
        if isinstance(node, ast.Cond):
            if trace is not None:
                self._emit(cost.BRANCH, node)
            if self._truthy(self.eval(node.cond, frame)):
                return self.eval(node.then, frame)
            return self.eval(node.other, frame)
        if isinstance(node, ast.SizeOf):
            return node.ctype.size()
        raise InterpError(f"unknown expression {node!r}")

    def _lookup(self, name, frame):
        try:
            return frame.lookup(name)
        except InterpError:
            if name in self._globals:
                return self._globals[name]
            raise

    # -- lvalues --------------------------------------------------------------

    def eval_lvalue(self, node, frame):
        """Evaluate an lvalue to a location: a Cell or a BufPtr."""
        if isinstance(node, ast.Var):
            return self._lookup(node.name, frame)
        if isinstance(node, ast.Member):
            return self._member_cell(node, frame)
        if isinstance(node, ast.Index):
            return self._index_loc(node, frame)
        if isinstance(node, ast.Unary) and node.op == "*":
            pointer = self.eval(node.operand, frame)
            return self._deref_loc(pointer, node)
        raise InterpError(f"not an lvalue: {node!r}")

    def _member_cell(self, node, frame):
        if node.arrow:
            pointer = self.eval(node.obj, frame)
            struct = self._pointee_struct(pointer)
        else:
            struct = self._struct_of(self.eval_lvalue(node.obj, frame))
        return struct.field(node.field)

    @staticmethod
    def _struct_of(location):
        if isinstance(location, rv.Cell) and isinstance(
            location.value, rv.StructVal
        ):
            return location.value
        raise InterpError("member access on a non-struct value")

    @staticmethod
    def _pointee_struct(pointer):
        if isinstance(pointer, rv.CellPtr) and isinstance(
            pointer.cell.value, rv.StructVal
        ):
            return pointer.cell.value
        raise InterpError("-> through a non-struct pointer")

    def _index_loc(self, node, frame):
        index = self.eval(node.index, frame)
        base = node.obj
        base_loc = None
        if isinstance(base, (ast.Var, ast.Member)):
            base_loc = self.eval_lvalue(base, frame)
        if base_loc is not None and isinstance(base_loc.value, rv.ArrayVal):
            return base_loc.value.elem(int(index))
        pointer = self.eval(base, frame)
        return self._deref_loc(
            pointer.add(int(index))
            if isinstance(pointer, (rv.CellPtr, rv.BufPtr))
            else pointer,
            node,
        )

    def _deref_loc(self, pointer, node):
        if isinstance(pointer, rv.CellPtr):
            return pointer.cell
        if isinstance(pointer, rv.BufPtr):
            return pointer
        if isinstance(pointer, rv.NullPtr):
            raise InterpError("NULL pointer dereference")
        raise InterpError(f"dereference of non-pointer {pointer!r}")

    def _load_loc(self, location, node):
        trace = self.trace
        if isinstance(location, rv.Cell):
            if trace is not None and location.addr is not None:
                self._emit(cost.LOAD, node, location.addr, location.size())
            return location.value
        value = location.load()
        if trace is not None:
            self._emit(cost.LOAD, node, location.mem_addr(), location.elem_size)
        return value

    def _store_loc(self, location, value, node):
        trace = self.trace
        if isinstance(location, rv.Cell):
            if location.ctype.is_integer:
                value = ct.wrap_int(value, location.ctype)
            location.value = value
            if trace is not None and location.addr is not None:
                self._emit(cost.STORE, node, location.addr, location.size())
            return value
        location.store(int(value))
        if trace is not None:
            self._emit(cost.STORE, node, location.mem_addr(), location.elem_size)
        return value

    # -- operators ----------------------------------------------------------------

    def _eval_unary(self, node, frame):
        trace = self.trace
        if node.op == "&":
            location = self.eval_lvalue(node.operand, frame)
            if isinstance(location, rv.BufPtr):
                return location
            value = location.value
            if isinstance(value, rv.ArrayVal):
                return rv.CellPtr(value.elem(0), value, 0)
            # Pointer to the cell itself; remember the owning array when
            # the cell is an element so arithmetic stays legal.
            return rv.CellPtr(location)
        if node.op == "*":
            pointer = self.eval(node.operand, frame)
            location = self._deref_loc(pointer, node)
            return self._load_loc(location, node)
        operand = self.eval(node.operand, frame)
        if trace is not None:
            self._emit(cost.ALU, node)
        result_type = self.typeinfo.expr_types.get(node.uid, ct.INT)
        if node.op == "-":
            return ct.wrap_int(-operand, result_type)
        if node.op == "~":
            return ct.wrap_int(~operand, result_type)
        if node.op == "!":
            return 0 if self._truthy(operand) else 1
        raise InterpError(f"unknown unary {node.op!r}")

    @staticmethod
    def _truthy(value):
        if isinstance(value, rv.NullPtr):
            return False
        if isinstance(value, rv.Pointer):
            return True
        return value != 0

    def _eval_binary(self, node, frame):
        trace = self.trace
        op = node.op
        if op in ("&&", "||"):
            left = self.eval(node.left, frame)
            if trace is not None:
                self._emit(cost.BRANCH, node)
            if op == "&&":
                if not self._truthy(left):
                    return 0
                return 1 if self._truthy(self.eval(node.right, frame)) else 0
            if self._truthy(left):
                return 1
            return 1 if self._truthy(self.eval(node.right, frame)) else 0
        left = self.eval(node.left, frame)
        right = self.eval(node.right, frame)
        if trace is not None:
            if op in ("*",):
                self._emit(cost.MUL, node)
            elif op in ("/", "%"):
                self._emit(cost.DIV, node)
            else:
                self._emit(cost.ALU, node)
        left_ptr = isinstance(left, rv.Pointer)
        right_ptr = isinstance(right, rv.Pointer)
        if left_ptr or right_ptr:
            return self._pointer_binary(op, left, right)
        result_type = self.typeinfo.expr_types.get(node.uid, ct.INT)
        return self._int_binary(op, int(left), int(right), result_type)

    def _pointer_binary(self, op, left, right):
        if op == "+":
            if isinstance(left, rv.Pointer):
                return left.add(int(right))
            return right.add(int(left))
        if op == "-":
            if isinstance(right, rv.Pointer):
                return left.diff(right)
            return left.add(-int(right))
        if op in ("==", "!="):
            equal = left == right
            if equal is NotImplemented:
                equal = left is right
            return int(equal) if op == "==" else int(not equal)
        raise InterpError(f"unsupported pointer operation {op!r}")

    @staticmethod
    def _int_binary(op, left, right, result_type):
        if op == "+":
            value = left + right
        elif op == "-":
            value = left - right
        elif op == "*":
            value = left * right
        elif op == "/":
            if right == 0:
                raise InterpError("division by zero")
            value = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                value = -value
        elif op == "%":
            if right == 0:
                raise InterpError("modulo by zero")
            quotient = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                quotient = -quotient
            value = left - quotient * right
        elif op == "&":
            value = left & right
        elif op == "|":
            value = left | right
        elif op == "^":
            value = left ^ right
        elif op == "<<":
            value = left << (right & 31)
        elif op == ">>":
            if not result_type.signed:
                value = (left & 0xFFFFFFFF) >> (right & 31)
            else:
                value = left >> (right & 31)
        elif op == "==":
            return int(left == right)
        elif op == "!=":
            return int(left != right)
        elif op == "<":
            return int(left < right)
        elif op == "<=":
            return int(left <= right)
        elif op == ">":
            return int(left > right)
        elif op == ">=":
            return int(left >= right)
        else:
            raise InterpError(f"unknown binary {op!r}")
        return ct.wrap_int(value, result_type)

    def _eval_assign(self, node, frame):
        location = self.eval_lvalue(node.target, frame)
        value = self.eval(node.value, frame)
        if node.op is not None:
            current = self._load_loc(location, node)
            if self.trace is not None:
                kind = (
                    cost.MUL
                    if node.op == "*"
                    else cost.DIV if node.op in ("/", "%") else cost.ALU
                )
                self._emit(kind, node)
            if isinstance(current, rv.Pointer):
                value = self._pointer_binary(node.op, current, value)
            else:
                result_type = self.typeinfo.expr_types.get(node.uid, ct.INT)
                value = self._int_binary(
                    node.op, int(current), int(value), result_type
                )
        return self._store_loc(location, value, node)

    def _eval_incdec(self, node, frame):
        location = self.eval_lvalue(node.target, frame)
        current = self._load_loc(location, node)
        if self.trace is not None:
            self._emit(cost.ALU, node)
        if isinstance(current, rv.Pointer):
            updated = current.add(1 if node.op == "++" else -1)
        else:
            updated = current + (1 if node.op == "++" else -1)
        self._store_loc(location, updated, node)
        return updated if node.prefix else current

    def _eval_cast(self, node, frame):
        value = self.eval(node.operand, frame)
        ctype = node.ctype
        if isinstance(value, rv.BufPtr) and isinstance(ctype, ct.PointerType):
            return value.with_type(ctype)
        if isinstance(value, rv.Pointer):
            return value
        if ctype.is_integer:
            return ct.wrap_int(int(value), ctype)
        return value
