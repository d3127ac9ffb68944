"""Reference interpreter for MiniC.

Two jobs: define the semantics of MiniC programs — the oracle the Tempo
specializer must preserve — and optionally record the instruction and
memory cost trace (:mod:`repro.minic.cost`) that the platform simulator
replays for the paper's tables.

It is compiled, not walked.  The first call of a function turns its
body into Python closures, one per AST node, with what is static about
the node settled once: its kind, operator, result type and callee, and
the frame slot of every variable (an activation is a flat list of
cells).  Statements return ``_RETURN`` / ``_BREAK`` / ``_CONTINUE``
signals instead of raising.  A run ticks its steps, records its trace
events and allocates its addresses exactly where the node-by-node walk
it replaced did.  Compiled code is cached per program and value domain,
weakly: it lives as long as its program.

What an operator *means* on a run's values is the interpreter class's
value domain: ``truthy``, ``wrap``, ``binop``, ``unop``, ``cast``,
``incdec``, ``index`` and ``store_buf``.  Two ints always meet the
concrete C operator; :mod:`repro.analysis.symexec` overrides the rest.
The memory model is :mod:`repro.minic.values`.
"""

import functools
import operator
import weakref

from repro.errors import InterpError
from repro.minic import ast
from repro.minic import builtins
from repro.minic import cost
from repro.minic import types as ct
from repro.minic import values as rv
from repro.minic.typecheck import typecheck_program

_MAX_STEPS_DEFAULT = 50_000_000

#: how a statement ends other than by falling through (None); a
#: returned value waits in slot 0 of the activation
_RETURN, _BREAK, _CONTINUE = object(), object(), object()

_Cell, _CellPtr, _BufPtr = rv.Cell, rv.CellPtr, rv.BufPtr
_ArrayVal, _StructVal, _Pointer = rv.ArrayVal, rv.StructVal, rv.Pointer


def _pinned(unary):
    """The variable the unary expression ``unary`` pins to a stack slot,
    or None.  Only a direct ``&var`` pins the variable itself; ``&p->f``
    and ``&a[i]`` take the address of the pointee/element."""
    if unary.op == "&" and isinstance(unary.operand, ast.Var):
        return unary.operand.name
    return None


def _address_taken_names(func):
    """Names whose address is taken anywhere in ``func`` (need stack
    slots; other scalar locals are treated as register-resident)."""
    taken = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Unary):
            name = _pinned(node)
            if name is not None:
                taken.add(name)
    return taken


# -- C integer operators --------------------------------------------------


def c_div(left, right):
    """C's ``/``: truncates toward zero."""
    if right == 0:
        raise InterpError("division by zero")
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return quotient


def c_mod(left, right):
    """C's ``%``: the remainder of :func:`c_div`."""
    return left - c_div(left, right) * right


_ARITH = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": c_div, "%": c_mod,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": lambda left, right: left << (right & 31),
}

_COMPARE = {
    "==": lambda left, right: 1 if left == right else 0,
    "!=": lambda left, right: 1 if left != right else 0,
    "<": lambda left, right: 1 if left < right else 0,
    "<=": lambda left, right: 1 if left <= right else 0,
    ">": lambda left, right: 1 if left > right else 0,
    ">=": lambda left, right: 1 if left >= right else 0,
}

_KIND = {"*": cost.MUL, "/": cost.DIV, "%": cost.DIV}


def _wrapper(ctype, compute=None):
    """``compute(left, right)`` — or, with none, one value — wrapped to
    the C value range of ``ctype`` as :func:`ct.wrap_int` does."""
    if not isinstance(ctype, ct.IntType):
        return compute or (lambda value: value)
    mask = (1 << (8 * ctype.width)) - 1
    half, span = mask >> 1, mask + 1
    if compute is None:
        if ctype.signed:
            def wrap(value):
                value &= mask
                return value - span if value > half else value
            return wrap
        return lambda value: value & mask
    if ctype.signed:
        def binary(left, right):
            value = compute(left, right) & mask
            return value - span if value > half else value
        return binary
    return lambda left, right: compute(left, right) & mask


@functools.lru_cache(maxsize=None)
def int_op(op, result_type):
    """The C binary operator ``op`` on two ints, ``result_type`` its
    result type: wrapped, shifts masked, division truncating."""
    if op in _COMPARE:
        return _COMPARE[op]
    if op == ">>":
        if getattr(result_type, "signed", True):
            compute = lambda left, right: left >> (right & 31)  # noqa: E731
        else:
            compute = lambda left, right: (  # noqa: E731
                (left & 0xFFFFFFFF) >> (right & 31))
    elif op in _ARITH:
        compute = _ARITH[op]
    else:
        def unknown(_left, _right):
            raise InterpError(f"unknown binary {op!r}")
        return unknown
    return _wrapper(result_type, compute)


def _pointer_binary(op, left, right):
    if op == "+":
        if isinstance(left, _Pointer):
            return left.add(int(right))
        return right.add(int(left))
    if op == "-":
        if isinstance(right, _Pointer):
            return left.diff(right)
        return left.add(-int(right))
    if op in ("==", "!="):
        equal = left == right
        if equal is NotImplemented:
            equal = left is right
        return int(equal) if op == "==" else int(not equal)
    raise InterpError(f"unsupported pointer operation {op!r}")


def _deref(pointer):
    """The location a pointer value designates: a Cell or a BufPtr."""
    if pointer.__class__ is _CellPtr:
        return pointer.cell
    if pointer.__class__ is _BufPtr:
        return pointer
    if isinstance(pointer, rv.NullPtr):
        raise InterpError("NULL pointer dereference")
    raise InterpError(f"dereference of non-pointer {pointer!r}")


def _element(pointer, position):
    """The location ``position`` elements past ``pointer``."""
    if pointer.__class__ is _CellPtr or pointer.__class__ is _BufPtr:
        pointer = pointer.add(position)
    return _deref(pointer)


# -- the interpreter --------------------------------------------------------


class Interpreter:
    """Executes functions of one MiniC program.

    The program's compiled code is cached (:func:`_compiled`), so a
    program must not be changed after its first interpretation: later
    runs would execute the code compiled from it then.  Likewise the
    ``typeinfo`` of the first interpreter of a program is the one its
    code keeps."""

    def __init__(self, program, typeinfo=None, max_steps=_MAX_STEPS_DEFAULT):
        self.program = program
        self._code = _compiled(program, typeinfo, type(self))
        self.space = rv.AddressSpace()
        self.max_steps = max_steps
        self.trace = None
        #: pluggable loopback network for ``net_sendrecv``; a callable
        #: taking request ``bytes`` and returning reply ``bytes``.
        self.network = None
        self._globals = {}
        for glob in self.program.globals:
            value = rv.make_value(glob.ctype, self.space)
            cell = rv.Cell(value, glob.ctype, self.space.alloc_heap(4))
            self._globals[glob.name] = cell
        # Globals with initializers are evaluated before any call.
        self._counted(self._init_globals)

    def _init_globals(self):
        for glob in self.program.globals:
            if glob.init is not None:
                init = self._code.global_init(glob)
                cell = self._globals[glob.name]
                cell.value = ct.wrap_int(init(self, None), glob.ctype)

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
        if trace is not None:
            self._addrs = self._code.layout(self.program)
        try:
            return self._counted(self._code.function(name), self,
                                 list(args), None)
        finally:
            self.trace = previous_trace

    def _counted(self, run, *args):
        """``run(*args)`` on a fresh step budget: every compiled node
        calls ``self.tick()`` once, and the call past ``max_steps``
        raises.  ``_steps`` is what the run took.  A StopIteration that
        leaves the run with budget to spare is not the budget's (say,
        a ``network`` callable raised it) and passes through."""
        ticks = iter(range(self.max_steps))
        self.tick = ticks.__next__
        exhausted = False
        try:
            return run(*args)
        except StopIteration:
            if operator.length_hint(ticks):
                raise
            exhausted = True
            raise InterpError(
                f"exceeded {self.max_steps} interpreter steps") from None
        finally:
            self._steps = (self.max_steps - operator.length_hint(ticks)
                           + exhausted)

    def emit(self, kind, uid, mem_addr=0, size=0):
        """Record one trace event of the node ``uid``."""
        self.trace.emit(kind, self._addrs.get(uid, 0), mem_addr, size)

    # -- builtins -----------------------------------------------------------

    def _call_builtin(self, name, args, uid):
        """``uid`` is the call site's node, None for a call from outside
        the program (which records no events)."""
        traced = uid is not None and self.trace is not None
        if name in ("htonl", "ntohl", "htons", "ntohs"):
            if traced:
                self.emit(cost.BYTESWAP, uid)
            width = 4 if name.endswith("l") else 2
            mask = (1 << (8 * width)) - 1
            return args[0] & mask
        if name == "bzero":
            ptr, length = args
            length = int(length)
            if isinstance(ptr, rv.BufPtr):
                ptr.buffer.fill_zero(ptr.offset, length)
            elif isinstance(ptr, rv.CellPtr) and ptr.array is not None:
                elem_size = ptr.array.atype.base.size()
                for index in range(length // elem_size):
                    ptr.array.elem(ptr.index + index).value = 0
            else:
                raise InterpError("bzero needs a buffer or array pointer")
            if traced:
                self.emit(cost.STORE, uid, ptr.mem_addr(), length)
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
                if traced:
                    self.emit(cost.LOAD, uid, src.mem_addr(), length)
                    self.emit(cost.STORE, uid, dst.mem_addr(), length)
                return None
            raise InterpError("memcpy supports buffer pointers only")
        if name == "net_sendrecv":
            return self._net_sendrecv(args, traced, uid)
        if name == "abort":
            raise InterpError("program called abort()")
        raise InterpError(f"unimplemented builtin {name!r}")

    def _net_sendrecv(self, args, traced, uid):
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
        if traced:
            self.emit(cost.NET_SEND, uid, 0, out_len)
        reply = self.network(request)
        reply = reply[:in_max]
        in_ptr.buffer.check(in_ptr.offset, len(reply))
        in_ptr.buffer.data[in_ptr.offset:in_ptr.offset + len(reply)] = reply
        if traced:
            self.emit(cost.NET_RECV, uid, in_ptr.mem_addr(), len(reply))
        return len(reply)

    # -- the value domain ---------------------------------------------------
    #
    # The factories run at compile time, once per distinct argument
    # tuple; what they return runs on the values the compiled code does
    # not handle itself (two ints never reach ``binop``'s function, an
    # int never ``incdec``'s).

    @staticmethod
    def truthy(value):
        if isinstance(value, rv.NullPtr):
            return False
        if isinstance(value, _Pointer):
            return True
        return value != 0

    #: ``wrap(value, ctype)``: a value stored into, bound to or declared
    #: as an object of ``ctype``
    wrap = staticmethod(ct.wrap_int)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def binop(op, result_type, op_type):
        """``f(left, right)`` for the binary ``op`` on operands that are
        not both ints; ``op_type`` is the type it is computed in."""
        ints = int_op(op, result_type)

        def general(left, right):
            if isinstance(left, _Pointer) or isinstance(right, _Pointer):
                return _pointer_binary(op, left, right)
            return ints(int(left), int(right))
        return general

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def unop(op, result_type):
        """``f(operand)`` for the unary ``-`` or ``~``."""
        wrap = _wrapper(result_type)
        if op == "-":
            return lambda value: wrap(-value)
        return lambda value: wrap(~value)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def cast(ctype):
        """``f(value)`` for the C cast ``(ctype)value``."""
        wrap = _wrapper(ctype)
        to_pointer = isinstance(ctype, ct.PointerType)
        integer = ctype.is_integer

        def cast(value):
            if value.__class__ is int:
                return wrap(value) if integer else value
            if to_pointer and value.__class__ is _BufPtr:
                return value.with_type(ctype)
            if isinstance(value, _Pointer):
                return value
            return wrap(int(value)) if integer else value
        return cast

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def incdec(delta):
        """``f(current)``: ``++`` / ``--`` on a non-int."""
        def step(current):
            if isinstance(current, _Pointer):
                return current.add(delta)
            return current + delta
        return step

    #: ``index(value)``: an array subscript as a Python int
    index = staticmethod(int)

    @staticmethod
    def store_buf(location, value):
        """Store ``value`` through the buffer cursor ``location``."""
        location.store(int(value))


# -- the compiler -----------------------------------------------------------

#: program -> {interpreter class: CompiledProgram}; an entry lives as
#: long as its program
_CACHE = weakref.WeakKeyDictionary()


def _compiled(program, typeinfo, domain):
    """The compiled form of ``program`` for the value domain of the
    interpreter class ``domain``, compiled on first use.

    The entry is keyed on the program object and never revalidated: a
    program changed in place after this call keeps its old code, and a
    later call's ``typeinfo`` is ignored."""
    per_domain = _CACHE.get(program)
    if per_domain is None:
        per_domain = _CACHE.setdefault(program, {})
    code = per_domain.get(domain)
    if code is None:
        typeinfo = typeinfo or typecheck_program(program)
        code = per_domain.setdefault(
            domain, CompiledProgram(program, typeinfo, domain))
    return code


class CompiledProgram:
    """One program's functions as closures, each compiled on its first
    call.  It references the program's nodes but not the program, so
    the weak cache entry dies with it."""

    def __init__(self, program, typeinfo, domain):
        self.domain = domain
        self.types = typeinfo.expr_types
        self.defs = {func.name: func for func in program.funcs}
        self.store = _store(domain.wrap, domain.store_buf)
        self.funcs = {}
        self._global_inits = {}
        self._addrs = None

    def layout(self, program):
        """Node uid -> code address; only a trace reads them."""
        if self._addrs is None:
            self._addrs = cost.CodeLayout(program).addr_of_uid
        return self._addrs

    def function(self, name):
        """``run(rt, args, uid)`` calling ``name`` from the call site
        ``uid`` (None: from outside the program)."""
        compiled = self.funcs.get(name)
        if compiled is None:
            func = self.defs.get(name)
            if builtins.is_builtin(name):
                def compiled(rt, args, uid):
                    return rt._call_builtin(name, args, uid)
            elif func is None:
                raise InterpError(f"call to undefined function {name!r}")
            else:
                compiled = _FunctionCompiler(self, func).function()
            self.funcs[name] = compiled
        return compiled

    def global_init(self, glob):
        init = self._global_inits.get(glob.name)
        if init is None:
            init = _FunctionCompiler(self, None).expr(glob.init)
            self._global_inits[glob.name] = init
        return init


class _FunctionCompiler:
    """Compiles one function body: block scopes become slot numbers.

    A closure binds what it needs as default arguments — one tuple, not
    a cell per captured name — so a compile allocates little.  ``uid``
    is the node's, for the trace (:meth:`Interpreter.emit`)."""

    def __init__(self, code, func):
        self.code = code
        self.domain = code.domain
        self.func = func
        #: names whose address the function takes (``&name``): they get
        #: stack addresses.  Filled as the body compiles, by the rule
        #: :func:`_address_taken_names` applies (:func:`_pinned`), which
        #: spares each compile a walk of the function (≈ 5% of a
        #: verification's bytecodes); a declaration compiled before the
        #: ``&`` reads the set when it runs.
        self.taken = set()
        self.scopes = [{}]
        self.slots = 1  # slot 0 holds the returned value

    def type_of(self, node):
        return self.code.types.get(node.uid, ct.INT)

    def declare(self, name):
        slot = self.slots
        self.slots += 1
        self.scopes[-1][name] = slot
        return slot

    def resolve(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    @staticmethod
    def _fails(message):
        """A node the walk would reject when it reaches it, not before."""
        def fail(rt, env, message=message):
            raise InterpError(message)
        return fail

    def function(self):
        func = self.func
        slots = [self.declare(param.name) for param in func.params]
        body = self.stmt(func.body)
        binders = tuple(
            (slot, param.ctype,
             isinstance(param.ctype, (ct.StructType, ct.ArrayType)),
             param.ctype.is_integer, param.name in self.taken)
            for slot, param in zip(slots, func.params))

        def run(rt, args, uid, name=func.name, binders=binders, body=body,
                nslots=self.slots, returns_value=not func.ret_type.is_void,
                wrap=self.domain.wrap):
            if len(args) != len(binders):
                raise InterpError(
                    f"{name} expects {len(binders)} args, got {len(args)}")
            if uid is not None and rt.trace is not None:
                rt.emit(cost.CALL, uid)
            env = [None] * nslots
            for (slot, ctype, aggregate, integer, taken), arg in zip(
                    binders, args):
                if aggregate:
                    raise InterpError(
                        f"{name}: aggregates must be passed by pointer")
                env[slot] = _Cell(
                    wrap(arg, ctype) if integer else arg, ctype,
                    rt.space.alloc_stack(4) if taken else None)
            signal = body(rt, env)
            if uid is not None and rt.trace is not None:
                rt.emit(cost.RET, uid)
            if signal is _RETURN:
                return env[0]
            if returns_value:
                raise InterpError(
                    f"{name}: fell off the end of a non-void function")
            return None
        return run

    # -- statements ----------------------------------------------------------

    def stmt(self, node):
        compile_stmt = _STMTS.get(type(node))
        if compile_stmt is None:
            return self._fails(f"unknown statement {node!r}")
        return compile_stmt(self, node)

    def _block(self, node):
        self.scopes.append({})
        stmts = tuple(self.stmt(stmt) for stmt in node.stmts)
        self.scopes.pop()

        def block(rt, env, stmts=stmts):
            rt.tick()
            for stmt in stmts:
                signal = stmt(rt, env)
                if signal is not None:
                    return signal
            return None
        return block

    def _expr_stmt(self, node):
        def expr_stmt(rt, env, expr=self.expr(node.expr)):
            rt.tick()
            expr(rt, env)
        return expr_stmt

    def _decl_stmt(self, node):
        def decl_stmt(rt, env, decl=self.decl(node)):
            rt.tick()
            decl(rt, env)
        return decl_stmt

    def decl(self, node):
        """The declaration itself, without the statement's step."""
        ctype = node.ctype
        init = self.expr(node.init) if node.init is not None else None
        slot = self.declare(node.name)
        if isinstance(ctype, (ct.StructType, ct.ArrayType)):
            def new_cell(rt, ctype=ctype):
                value = rv.make_value(ctype, rt.space)
                return _Cell(value, ctype, value.addr)
        else:
            def new_cell(rt, zero=rv.make_value(ctype), ctype=ctype,
                         name=node.name, taken=self.taken):
                return _Cell(zero, ctype, rt.space.alloc_stack(4)
                             if name in taken else None)

        def decl(rt, env, new_cell=new_cell, init=init, slot=slot,
                 ctype=ctype, integer=ctype.is_integer,
                 wrap=self.domain.wrap):
            cell = new_cell(rt)
            if init is not None:
                value = init(rt, env)
                cell.value = wrap(value, ctype) if integer else value
            env[slot] = cell
        return decl

    def _if(self, node):
        def if_(rt, env, cond=self.expr(node.cond), then=self.stmt(node.then),
                other=(self.stmt(node.other) if node.other is not None
                       else None),
                truthy=self.domain.truthy, uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.BRANCH, uid)
            value = cond(rt, env)
            if value != 0 if value.__class__ is int else truthy(value):
                return then(rt, env)
            if other is not None:
                return other(rt, env)
            return None
        return if_

    def _while(self, node):
        return self._loop(node, None, node.cond, None, node.body)

    def _for(self, node):
        self.scopes.append({})
        init = None
        if type(node.init) is ast.Decl:
            init = self.decl(node.init)
        elif type(node.init) is ast.ExprStmt:
            init = self.expr(node.init.expr)
        loop = self._loop(node, init, node.cond, node.step, node.body)
        self.scopes.pop()
        return loop

    def _loop(self, node, init, cond, step, body):
        """``while`` and ``for``: a step, ``init``, then a branch event
        and ``cond`` before each trip and ``step`` after it."""
        def loop(rt, env, init=init,
                 cond=self.expr(cond) if cond is not None else None,
                 step=self.expr(step) if step is not None else None,
                 body=self.stmt(body), truthy=self.domain.truthy,
                 uid=node.uid):
            rt.tick()
            if init is not None:
                init(rt, env)
            while True:
                if cond is not None:
                    if rt.trace is not None:
                        rt.emit(cost.BRANCH, uid)
                    value = cond(rt, env)
                    if not (value != 0 if value.__class__ is int
                            else truthy(value)):
                        return None
                signal = body(rt, env)
                if signal is not None and signal is not _CONTINUE:
                    return None if signal is _BREAK else signal
                if step is not None:
                    step(rt, env)
        return loop

    def _return(self, node):
        def return_(rt, env, value=(self.expr(node.value)
                                    if node.value is not None else None)):
            rt.tick()
            env[0] = value(rt, env) if value is not None else None
            return _RETURN
        return return_

    def _jump(self, node):
        def jump(rt, env, signal=_BREAK if type(node) is ast.Break
                 else _CONTINUE):
            rt.tick()
            return signal
        return jump

    # -- expressions -----------------------------------------------------------

    def expr(self, node):
        compile_expr = _EXPRS.get(type(node))
        if compile_expr is None:
            return self._fails(f"unknown expression {node!r}")
        return compile_expr(self, node)

    def _literal(self, node):
        def literal(rt, env, value=node.value, uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
            return value
        return literal

    def _sizeof(self, node):
        def sizeof(rt, env, ctype=node.ctype, uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
            return ctype.size()
        return sizeof

    def _load(self, node):
        """An rvalue closure: a step, the fetch, the location's load."""
        def load(rt, env, location=self.lvalue(node), uid=node.uid):
            rt.tick()
            if rt.trace is None:
                cell = location(rt, env)
                if cell.__class__ is _Cell:
                    return cell.value
                return cell.load()
            rt.emit(cost.IFETCH, uid)
            return _load_from(rt, location(rt, env), uid)
        return load

    def _var(self, node):
        slot = self.resolve(node.name)
        if slot is None:
            return self._load(node)

        def var(rt, env, slot=slot, uid=node.uid):
            rt.tick()
            cell = env[slot]
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
                if cell.addr is not None:
                    rt.emit(cost.LOAD, uid, cell.addr, cell.size())
            return cell.value
        return var

    def _unary(self, node):
        op = node.op
        if op == "*":
            return self._load(node)
        if op == "&":
            pinned = _pinned(node)
            if pinned is not None:
                self.taken.add(pinned)

            def address_of(rt, env, location=self.lvalue(node.operand),
                           uid=node.uid):
                rt.tick()
                if rt.trace is not None:
                    rt.emit(cost.IFETCH, uid)
                cell = location(rt, env)
                if cell.__class__ is _BufPtr:
                    return cell
                value = cell.value
                if value.__class__ is _ArrayVal:
                    return _CellPtr(value.elem(0), value, 0)
                # Pointer to the cell itself; remember the owning array
                # when the cell is an element so arithmetic stays legal.
                return _CellPtr(cell)
            return address_of
        if op == "!":
            def compute(value, truthy=self.domain.truthy):
                return 0 if truthy(value) else 1
        elif op in ("-", "~"):
            compute = self.domain.unop(op, self.type_of(node))
        else:
            def compute(value, op=op):
                raise InterpError(f"unknown unary {op!r}")

        def unary(rt, env, operand=self.expr(node.operand), compute=compute,
                  uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
            value = operand(rt, env)
            if rt.trace is not None:
                rt.emit(cost.ALU, uid)
            return compute(value)
        return unary

    def _op_type(self, node):
        """The type a binary operator is computed in: its result type,
        except a comparison's, computed in its operands' common type."""
        result_type = self.type_of(node)
        if node.op not in _COMPARE:
            return result_type
        left, right = self.type_of(node.left), self.type_of(node.right)
        if isinstance(left, ct.IntType) and isinstance(right, ct.IntType):
            return ct.common_arith_type(left, right)
        return left

    def _binary(self, node):
        op = node.op
        left, right = self.expr(node.left), self.expr(node.right)
        if op in ("&&", "||"):
            def logical(rt, env, left=left, right=right, want=op == "||",
                        truthy=self.domain.truthy, uid=node.uid):
                rt.tick()
                if rt.trace is not None:
                    rt.emit(cost.IFETCH, uid)
                value = left(rt, env)
                if rt.trace is not None:
                    rt.emit(cost.BRANCH, uid)
                if truthy(value) == want:
                    return 1 if want else 0
                return 1 if truthy(right(rt, env)) else 0
            return logical
        result_type = self.type_of(node)

        def binary(rt, env, left=left, right=right,
                   ints=int_op(op, result_type),
                   general=self.domain.binop(op, result_type,
                                             self._op_type(node)),
                   kind=_KIND.get(op, cost.ALU), uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
            lhs = left(rt, env)
            rhs = right(rt, env)
            if rt.trace is not None:
                rt.emit(kind, uid)
            if lhs.__class__ is int and rhs.__class__ is int:
                return ints(lhs, rhs)
            return general(lhs, rhs)
        return binary

    def _assign(self, node):
        op = node.op
        if op is None:
            def assign(rt, env, target=self.lvalue(node.target),
                       source=self.expr(node.value), store=self.code.store,
                       uid=node.uid):
                rt.tick()
                if rt.trace is not None:
                    rt.emit(cost.IFETCH, uid)
                location = target(rt, env)
                return store(rt, location, source(rt, env), uid)
            return assign
        result_type = self.type_of(node)

        def compound(rt, env, target=self.lvalue(node.target),
                     source=self.expr(node.value), store=self.code.store,
                     ints=int_op(op, result_type),
                     general=self.domain.binop(op, result_type, result_type),
                     kind=_KIND.get(op, cost.ALU), uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
            location = target(rt, env)
            value = source(rt, env)
            current = _load_from(rt, location, uid)
            if rt.trace is not None:
                rt.emit(kind, uid)
            if current.__class__ is int and value.__class__ is int:
                value = ints(current, value)
            else:
                value = general(current, value)
            return store(rt, location, value, uid)
        return compound

    def _incdec(self, node):
        delta = 1 if node.op == "++" else -1

        def incdec(rt, env, target=self.lvalue(node.target),
                   store=self.code.store, delta=delta,
                   step=self.domain.incdec(delta), prefix=node.prefix,
                   uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
            location = target(rt, env)
            current = _load_from(rt, location, uid)
            if rt.trace is not None:
                rt.emit(cost.ALU, uid)
            if current.__class__ is int:
                updated = current + delta
            else:
                updated = step(current)
            store(rt, location, updated, uid)
            return updated if prefix else current
        return incdec

    def _call(self, node):
        # The callee resolves on the first call, then stays in the box.
        # It is found through ``rt``: a closure that held the compiled
        # program would make a cycle, and the program's code would then
        # outlive it until the collector's next full pass.
        def call(rt, env, name=node.name,
                 args=tuple(self.expr(arg) for arg in node.args),
                 callee=[None], uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
            values = [arg(rt, env) for arg in args]
            run = callee[0]
            if run is None:
                run = callee[0] = rt._code.function(name)
            return run(rt, values, uid)
        return call

    def _cast(self, node):
        def cast_(rt, env, operand=self.expr(node.operand),
                  cast=self.domain.cast(node.ctype), uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
            return cast(operand(rt, env))
        return cast_

    def _cond(self, node):
        def conditional(rt, env, cond=self.expr(node.cond),
                        then=self.expr(node.then), other=self.expr(node.other),
                        truthy=self.domain.truthy, uid=node.uid):
            rt.tick()
            if rt.trace is not None:
                rt.emit(cost.IFETCH, uid)
                rt.emit(cost.BRANCH, uid)
            if truthy(cond(rt, env)):
                return then(rt, env)
            return other(rt, env)
        return conditional

    # -- lvalues: a location (a Cell or a BufPtr), with no step of their own

    def lvalue(self, node):
        compile_lvalue = _LVALUES.get(type(node))
        if compile_lvalue is None or (type(node) is ast.Unary
                                      and node.op != "*"):
            return self._fails(f"not an lvalue: {node!r}")
        return compile_lvalue(self, node)

    def _var_location(self, node):
        slot = self.resolve(node.name)
        if slot is not None:
            def local(rt, env, slot=slot):
                return env[slot]
            return local

        def global_cell(rt, env, name=node.name):
            try:
                return rt._globals[name]
            except KeyError:
                raise InterpError(f"undefined variable {name!r}") from None
        return global_cell

    def _member_location(self, node):
        if node.arrow:
            def through_pointer(rt, env, obj=self.expr(node.obj),
                                field=node.field):
                pointer = obj(rt, env)
                if pointer.__class__ is _CellPtr:
                    struct = pointer.cell.value
                    if struct.__class__ is _StructVal:
                        return struct.fields.get(field) or struct.field(field)
                raise InterpError("-> through a non-struct pointer")
            return through_pointer

        def member(rt, env, obj=self.lvalue(node.obj), field=node.field):
            location = obj(rt, env)
            if location.__class__ is _Cell:
                struct = location.value
                if struct.__class__ is _StructVal:
                    return struct.fields.get(field) or struct.field(field)
            raise InterpError("member access on a non-struct value")
        return member

    def _index_location(self, node):
        index, to_int = self.expr(node.index), self.domain.index
        pointer = self.expr(node.obj)
        if type(node.obj) not in (ast.Var, ast.Member):
            def through(rt, env, index=index, to_int=to_int, pointer=pointer):
                position = to_int(index(rt, env))
                return _element(pointer(rt, env), position)
            return through

        def element(rt, env, index=index, to_int=to_int,
                    array=self.lvalue(node.obj), pointer=pointer):
            position = to_int(index(rt, env))
            value = array(rt, env).value
            if value.__class__ is _ArrayVal:
                return value.elem(position)
            return _element(pointer(rt, env), position)
        return element

    def _deref_location(self, node):
        def deref(rt, env, pointer=self.expr(node.operand)):
            return _deref(pointer(rt, env))
        return deref


_FC = _FunctionCompiler
_STMTS = {
    ast.Block: _FC._block, ast.ExprStmt: _FC._expr_stmt,
    ast.Decl: _FC._decl_stmt, ast.If: _FC._if, ast.While: _FC._while,
    ast.For: _FC._for, ast.Return: _FC._return,
    ast.Break: _FC._jump, ast.Continue: _FC._jump,
}
_EXPRS = {
    ast.IntLit: _FC._literal, ast.StrLit: _FC._literal, ast.Var: _FC._var,
    ast.Unary: _FC._unary, ast.Binary: _FC._binary,
    ast.Assign: _FC._assign, ast.IncDec: _FC._incdec,
    ast.Call: _FC._call, ast.Member: _FC._load, ast.Index: _FC._load,
    ast.Cast: _FC._cast, ast.Cond: _FC._cond, ast.SizeOf: _FC._sizeof,
}
_LVALUES = {
    ast.Var: _FC._var_location, ast.Member: _FC._member_location,
    ast.Index: _FC._index_location, ast.Unary: _FC._deref_location,
}


def _load_from(rt, location, uid):
    """The value at ``location``, recording the load when traced."""
    if location.__class__ is _Cell:
        if rt.trace is not None and location.addr is not None:
            rt.emit(cost.LOAD, uid, location.addr, location.size())
        return location.value
    value = location.load()
    if rt.trace is not None:
        rt.emit(cost.LOAD, uid, location.mem_addr(), location.elem_size)
    return value


def _store(wrap, store_buf):
    """``store(rt, location, value, uid)`` for a value domain's ``wrap``
    and ``store_buf``: returns the value as stored."""
    def store(rt, location, value, uid, wrap_int=ct.wrap_int):
        if location.__class__ is _Cell:
            ctype = location.ctype
            if ctype.__class__ is ct.IntType:
                value = (wrap_int(value, ctype) if value.__class__ is int
                         else wrap(value, ctype))
            location.value = value
            if rt.trace is not None and location.addr is not None:
                rt.emit(cost.STORE, uid, location.addr, location.size())
            return value
        store_buf(location, value)
        if rt.trace is not None:
            rt.emit(cost.STORE, uid, location.mem_addr(), location.elem_size)
        return value
    return store
