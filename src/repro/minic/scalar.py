"""Scalar replacement: what ``gcc -O2`` does to Tempo's residual C.

In the paper the residual C goes to ``gcc -O2``, whose inliner, scalar
replacement of aggregates and register promotion turn
``xdrs->x_private`` and ``&xid`` into registers.  :mod:`compile_py`
is this repository's ``gcc``; this module is that step, run over the
whole program before any Python is emitted (docs/SPECIALIZATION.md,
"Scalar replacement"):

* :func:`scalarize` rewrites MiniC to MiniC.  A function with exactly
  one call site, not recursive, is **inlined** there; then a struct
  local whose name only ever reaches ``.field`` becomes one local per
  field.  Inlining binds a pointer parameter to ``&v`` by substitution,
  so ``xdrs->f`` becomes ``v.f`` and ``*xidp`` becomes ``xid`` — the
  aggregates and boxes stop escaping and plain locals are left.
* :class:`Liveness` says which stores nothing reads afterwards, and
  which locals need no initial value.
* :func:`cursors` finds the ``char *`` locals that can be a plain
  ``int`` offset into the buffer a parameter points at, and the
  parameters that are only ever such a base (*buffer parameters*: the
  compiled function takes the bytes object itself).

Whatever does not qualify is left as it was, and :mod:`compile_py`
refuses a function that keeps it (docs/SPECIALIZATION.md, "The
residual subset").
"""

import collections

from repro.minic import ast
from repro.minic import types as ct


def _copy(node, rename, bound):
    """A fresh copy of ``node`` (new uids) with variables renamed by
    ``rename`` and each parameter in ``bound`` replaced by a copy of
    its argument; ``(&v)->f`` folds to ``v.f`` and ``*&v`` to ``v``."""
    if isinstance(node, ast.Var):
        if node.name in bound:
            return _copy(bound[node.name], {}, {})
        return ast.Var(rename.get(node.name, node.name), line=node.line)
    if isinstance(node, ast.Member) and node.arrow:
        target = _address_of(node.obj, bound)
        if target is not None:
            return ast.Member(ast.Var(target, line=node.line), node.field,
                              False, line=node.line)
    if isinstance(node, ast.Unary) and node.op == "*":
        target = _address_of(node.operand, bound)
        if target is not None:
            return ast.Var(target, line=node.line)
    if isinstance(node, ast.Decl):
        return ast.Decl(node.ctype, rename.get(node.name, node.name),
                        node.init and _copy(node.init, rename, bound),
                        line=node.line)
    values = []
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            value = _copy(value, rename, bound)
        elif isinstance(value, list):
            value = [_copy(item, rename, bound)
                     if isinstance(item, ast.Node) else item
                     for item in value]
        values.append(value)
    return type(node)(*values, line=node.line)


def _address_of(expr, bound):
    """The variable a parameter bound to ``&variable`` stands for."""
    if isinstance(expr, ast.Var):
        arg = bound.get(expr.name)
        if (isinstance(arg, ast.Unary) and arg.op == "&"
                and isinstance(arg.operand, ast.Var)):
            return arg.operand.name
    return None


def _declared(node):
    """Every name a Decl in ``node`` introduces, with repeats."""
    return [child.name for child in ast.walk(node)
            if isinstance(child, ast.Decl)]


def _unscoped(func):
    """The names ``func`` reads or writes where none of its own
    variables of that name is in scope: globals."""
    found = set()

    def visit(node, scope):
        if isinstance(node, ast.Var):
            if node.name not in scope:
                found.add(node.name)
        elif isinstance(node, ast.Decl):
            if node.init is not None:
                visit(node.init, scope)
            scope.add(node.name)
        else:
            if isinstance(node, (ast.Block, ast.For)):
                scope = set(scope)
            for child in node.children():
                visit(child, scope)

    visit(func.body, {param.name for param in func.params})
    return found


def _names(node):
    """In one walk of ``node``: (the names Decls introduce, with
    repeats; every name read; the names stored to or whose address is
    taken; the names whose address is taken)."""
    declared, read, written, taken = [], set(), set(), set()
    for child in ast.walk(node):
        if isinstance(child, ast.Decl):
            declared.append(child.name)
        elif isinstance(child, ast.Var):
            read.add(child.name)
        elif isinstance(child, (ast.Assign, ast.IncDec)):
            if isinstance(child.target, ast.Var):
                written.add(child.target.name)
        elif (isinstance(child, ast.Unary) and child.op == "&"
              and isinstance(child.operand, ast.Var)):
            written.add(child.operand.name)
            taken.add(child.operand.name)
    return declared, read, written, taken


def has_effects(node):
    """Whether evaluating ``node`` may store or call."""
    return any(isinstance(child, (ast.Assign, ast.IncDec, ast.Call))
               for child in ast.walk(node))


class _Inliner:
    """Expands every call of a single-call, non-recursive function that
    stands as a statement (``f(...);``, ``v = f(...);``, ``T v =
    f(...);``) into the caller's body."""

    def __init__(self, program):
        self.funcs = {func.name: func for func in program.funcs}
        self.globals = {glob.name for glob in program.globals}
        calls = collections.Counter()
        self.callees = {}
        for func in program.funcs:
            names = [node.name for node in ast.walk(func.body)
                     if isinstance(node, ast.Call)
                     and node.name in self.funcs]
            calls.update(names)
            self.callees[func.name] = set(names)
        self.inlinable = {
            name for name, count in calls.items()
            if count == 1 and not self._recursive(name)
            and not any(isinstance(p.ctype, (ct.StructType, ct.ArrayType))
                        for p in self.funcs[name].params)
        }
        self._expanded = {}
        #: the functions expanded at their one call site
        self.inlined = set()

    def _recursive(self, name):
        seen, stack = set(), list(self.callees[name])
        while stack:
            callee = stack.pop()
            if callee == name:
                return True
            if callee not in seen:
                seen.add(callee)
                stack.extend(self.callees[callee])
        return False

    def expand(self, func):
        """(``func``'s body, copied, with its inlinable calls expanded;
        the names declared in it; the names it reads but does not
        declare; the names it stores to or takes the address of)."""
        facts = self._expanded.get(func.name)
        if facts is None:
            body = _copy(func.body, {}, {})
            saved = self.__dict__.get("_caller")
            params = {param.name: param.ctype for param in func.params}
            types = dict(params)
            declared, _read, _written, taken = _names(body)
            counts = collections.Counter(declared)
            counts.update(list(params))
            for node in ast.walk(body):
                if isinstance(node, ast.Decl):
                    types[node.name] = (node.ctype if counts[node.name] == 1
                                        else None)
            #: the caller's names: every one in use, their one type
            #: (None: declared twice), those whose address is taken
            uses = collections.Counter(
                node.name for node in ast.walk(body)
                if isinstance(node, ast.Var))
            self._caller = set(counts) | self.globals, types, taken, uses
            self._block(body)
            self._caller = saved
            declared, read, written, _taken = _names(body)
            facts = body, declared, read - set(declared) - set(params), \
                written
            self._expanded[func.name] = facts
        return facts

    def _block(self, block):
        stmts, old, index = [], block.stmts, 0
        while index < len(old):
            following = old[index + 1] if index + 1 < len(old) else None
            expanded = self._stmt(old[index], following)
            index += 1
            if expanded and expanded[-1] is _TESTED:
                expanded.pop()
                index += 1  # the test is part of the expansion
            stmts.extend(expanded)
        block.stmts[:] = stmts

    def _tested(self, target, test):
        """For ``target = f(...);`` followed by ``test``: the literal
        the caller returns when ``test`` is ``if (!target) return L;``
        and nothing else reads ``target`` — then the inlined body can
        return it, or go on, itself — else None."""
        if not (isinstance(target, ast.Var) and isinstance(test, ast.If)
                and test.other is None
                and isinstance(test.cond, ast.Unary)
                and test.cond.op == "!"
                and isinstance(test.cond.operand, ast.Var)
                and test.cond.operand.name == target.name):
            return None
        then = test.then
        if isinstance(then, ast.Block) and len(then.stmts) == 1:
            then = then.stmts[0]
        if not (isinstance(then, ast.Return)
                and isinstance(then.value, ast.IntLit)):
            return None
        _names, types, taken, uses = self._caller
        ctype = types.get(target.name)
        if (target.name in taken or target.name in self.globals
                or not isinstance(ctype, ct.IntType)
                or uses[target.name] != 2):
            return None
        return then.value, ctype

    def _stmt(self, stmt, following=None):
        """The statements ``stmt`` becomes (its nested blocks expanded);
        ending in ``_TESTED`` when they took in ``following`` too."""
        for name in ("then", "other", "body"):
            child = getattr(stmt, name, None)
            if isinstance(child, ast.Block):
                self._block(child)
            elif isinstance(child, ast.Stmt):
                setattr(stmt, name, ast.Block(self._stmt(child)))
        if isinstance(stmt, ast.Block):
            self._block(stmt)
            return [stmt]
        call, target = None, None
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Call):
                call = expr
            elif (isinstance(expr, ast.Assign) and expr.op is None
                  and isinstance(expr.value, ast.Call)):
                call, target = expr.value, expr.target
        elif isinstance(stmt, ast.Decl) and isinstance(stmt.init, ast.Call):
            call, target = stmt.init, ast.Var(stmt.name)
        if call is None or call.name not in self.inlinable:
            return [stmt]
        callee = self.funcs[call.name]
        body, declared, free, written = self.expand(callee)
        if free - self.globals or free & set(self._caller[1]):
            return [stmt]  # a global the callee reads is shadowed here
        self.inlined.add(callee.name)
        tested = None
        if isinstance(stmt, ast.ExprStmt) and all(
                isinstance(node.value, ast.IntLit)
                for node in ast.walk(body) if isinstance(node, ast.Return)):
            tested = self._tested(target, following)
        if tested is not None:
            return [*self._inline(callee, body, declared, written, call,
                                  None, tested).stmts, _TESTED]
        lead = []
        if isinstance(stmt, ast.Decl):
            lead.append(ast.Decl(stmt.ctype, stmt.name, None,
                                 line=stmt.line))
        # its names are fresh in the caller: no block needed around it
        return lead + self._inline(callee, body, declared, written, call,
                                   target).stmts

    def _fresh(self, name):
        names = self._caller[0]
        candidate, suffix = name, 2
        while candidate in names:
            candidate = f"{name}__{suffix}"
            suffix += 1
        names.add(candidate)
        return candidate

    def _inline(self, callee, body, declared, written, call, target,
                tested=None):
        """The block that stands for ``target = callee(args)``: the
        parameters bound, the body with its returns turned into exits,
        and the result stored.  With ``tested`` — ``(L, type)`` of a
        result only tested by ``if (!target) return L;`` — a return of
        a literal that is 0 in that type is that ``return L``, any
        other is an exit, and nothing is stored."""
        rename = {name: self._fresh(name) for name in declared}
        pure = not any(has_effects(arg) for arg in call.args)
        bound, stmts = {}, []
        for param, arg in zip(callee.params, call.args):
            if (pure and param.name not in written
                    and param.name not in declared  # not shadowed
                    and self._stable(arg, param.ctype)):
                bound[param.name] = arg
                continue
            rename[param.name] = self._fresh(param.name)
            stmts.append(ast.Decl(param.ctype, rename[param.name], arg))
        body = _copy(body, rename, bound)
        ret = None
        if not callee.ret_type.is_void and target is not None:
            _names, types, taken, _uses = self._caller
            if (isinstance(target, ast.Var) and target.name not in taken
                    and types.get(target.name) == callee.ret_type):
                ret = target.name
            else:
                ret = self._fresh(f"{callee.name}_ret")
                stmts.append(ast.Decl(callee.ret_type, ret, None))
        exits = _Exits(ret, self._fresh(f"{callee.name}_done"), tested)
        lowered = exits.block(body, tail=True)
        straighten(lowered, self.globals)
        if exits.flagged:
            stmts.append(ast.Decl(ct.INT, exits.flag, ast.IntLit(0)))
        if exits.jumps:
            if (lowered.stmts and isinstance(lowered.stmts[-1], ast.Break)
                    and sum(isinstance(jump, ast.Break) for jump in
                            own_jumps(lowered)) == 1):
                lowered.stmts.pop()  # one exit, at the end: no loop
            else:
                if not _ends(lowered.stmts):
                    lowered.stmts.append(ast.Break())
                lowered = ast.While(ast.IntLit(1), lowered)
        stmts.extend(lowered.stmts if isinstance(lowered, ast.Block)
                     else [lowered])
        if ret is not None and not (isinstance(target, ast.Var)
                                    and target.name == ret):
            stmts.append(ast.ExprStmt(ast.Assign(None, target,
                                                 ast.Var(ret))))
        return ast.Block(stmts, line=call.line)

    def _stable(self, arg, ptype):
        """Whether ``arg`` may stand for the parameter at every use: a
        literal, the address of a caller variable, or a caller variable
        whose address is never taken (so nothing can change it while
        the callee runs) — of the parameter's own type, so that binding
        converts nothing."""
        if isinstance(arg, ast.IntLit):
            return (isinstance(ptype, ct.IntType)
                    and ct.wrap_int(arg.value, ptype) == arg.value)
        _names, types, taken, _uses = self._caller
        if isinstance(arg, ast.Unary) and arg.op == "&":
            var = arg.operand
            return (isinstance(var, ast.Var) and var.name in types
                    and types[var.name] is not None
                    and ct.PointerType(types[var.name]) == ptype)
        return (isinstance(arg, ast.Var) and arg.name not in taken
                and arg.name in types and types[arg.name] == ptype)


class _Exits:
    """Rewrites an inlined body's ``return e`` into ``ret = e`` and an
    exit from the one-trip loop the body is wrapped in: ``break``, or
    inside the callee's own loops a flag and a ``break`` out of each."""

    def __init__(self, ret, flag, tested=None):
        self.ret = ret
        self.flag = flag
        #: ``(L, type)``: see :meth:`_Inliner._inline`
        self.tested = tested
        self.jumps = False
        self.flagged = False

    def block(self, block, tail=False, loops=0):
        stmts = []
        for index, stmt in enumerate(block.stmts):
            last = tail and index == len(block.stmts) - 1
            stmts.extend(self.stmt(stmt, last, loops))
        return ast.Block(stmts, line=block.line)

    def stmt(self, stmt, tail, loops):
        if isinstance(stmt, ast.Return):
            out = []
            if self.tested is not None:
                declined, ctype = self.tested
                if not ct.wrap_int(stmt.value.value, ctype):
                    return [ast.Return(ast.IntLit(declined.value),
                                       line=stmt.line)]
            elif stmt.value is not None:
                if self.ret is not None:
                    out.append(ast.ExprStmt(ast.Assign(
                        None, ast.Var(self.ret), stmt.value)))
                elif has_effects(stmt.value):
                    out.append(ast.ExprStmt(stmt.value))
            if tail:
                return out
            if loops:
                self.flagged = True
                out.append(ast.ExprStmt(ast.Assign(
                    None, ast.Var(self.flag), ast.IntLit(1))))
            self.jumps = True
            return out + [ast.Break()]
        if isinstance(stmt, ast.Block):
            return [self.block(stmt, tail, loops)]
        if isinstance(stmt, ast.If):
            stmt.then = self.block(stmt.then, tail, loops)
            if stmt.other is not None:
                stmt.other = self.block(stmt.other, tail, loops)
            return [stmt]
        if isinstance(stmt, (ast.While, ast.For)):
            outer, self.flagged = self.flagged, False
            stmt.body = self.block(stmt.body, False, loops + 1)
            inner, self.flagged = self.flagged, outer or self.flagged
            if inner:
                return [stmt, ast.If(ast.Var(self.flag),
                                     ast.Block([ast.Break()]), None)]
        return [stmt]


#: the marker ending an expansion that took in the statement after it
_TESTED = object()


def _ends(stmts):
    """Whether the statement list ``stmts`` never completes normally:
    every path through it returns or jumps."""
    if not stmts:
        return False
    last = stmts[-1]
    if isinstance(last, (ast.Return, ast.Break, ast.Continue)):
        return True
    if isinstance(last, ast.Block):
        return _ends(last.stmts)
    if isinstance(last, ast.If):
        return last.other is not None and all(
            _ends(arm.stmts if isinstance(arm, ast.Block) else [arm])
            for arm in (last.then, last.other))
    return False


def own_jumps(block):
    """The ``break`` / ``continue`` nodes of the loop body ``block``
    that leave that loop (not a loop inside it)."""
    found, stack = [], [block]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Break, ast.Continue)):
            found.append(node)
        elif not isinstance(node, (ast.While, ast.For)):
            stack.extend(node.children())
    return found


def _stmts(node):
    return node.stmts if isinstance(node, ast.Block) else [node]


def _while_of(stmt):
    """``stmt`` as a statement list: a ``for`` with no ``continue`` of
    its own is ``init; while (cond) { body; step; }`` (a declared
    counter keeps its scope in a block of its own), anything else
    itself."""
    if not isinstance(stmt, ast.For) or any(
            isinstance(jump, ast.Continue) for jump in own_jumps(stmt.body)):
        return [stmt]
    body = stmt.body
    # the body's statements go into the loop's own block unless one of
    # them declares a name, which would then shadow the step's
    stmts = ([body] if not isinstance(body, ast.Block) or any(
        isinstance(inner, ast.Decl) for inner in body.stmts)
        else list(body.stmts))
    if stmt.step is not None:
        stmts.append(ast.ExprStmt(stmt.step, line=stmt.line))
    loop = ast.While(stmt.cond or ast.IntLit(1), ast.Block(stmts),
                     line=stmt.line)
    if isinstance(stmt.init, ast.Decl):
        return [ast.Block([stmt.init, loop])]
    return [loop] if stmt.init is None else [stmt.init, loop]


def lower_for_loops(node):
    """Rewrite every ``for`` in ``node`` by :func:`_while_of`, inner
    loops first, so that both spellings of a loop are lowered, and
    their dead stores found, by one path."""
    for parent in reversed(list(ast.walk(node))):
        if isinstance(parent, ast.Block):
            parent.stmts = [new for stmt in parent.stmts
                            for new in _while_of(stmt)]
        elif isinstance(parent, (ast.If, ast.While, ast.For)):
            for field in ("then", "other", "body"):
                child = getattr(parent, field, None)
                if isinstance(child, ast.For):
                    lowered = _while_of(child)
                    setattr(parent, field, lowered[0] if len(lowered) == 1
                            else ast.Block(lowered))


def _straighten(stmts, unique=frozenset()):
    """Put the list ``stmts`` in guard form, where what goes on is
    straight-line code (in place, through what it splices in):
    ``if (c) { T } return R;`` — ``T`` never completing — and ``if (c)
    { T } else return R;`` both become ``if (!c) return R; T``."""
    index = 0
    while index < len(stmts):
        stmt = stmts[index]
        if isinstance(stmt, ast.If):
            then, other = _stmts(stmt.then), stmt.other
            if (other is None and index == len(stmts) - 2
                    and isinstance(stmts[-1], ast.Return) and _ends(then)):
                exit_, rest = stmts[-1], []
            elif (other is not None and len(_stmts(other)) == 1
                  and isinstance(_stmts(other)[0], ast.Return)):
                exit_, rest = _stmts(other)[0], stmts[index + 1:]
            else:
                index += 1
                continue
            if any(isinstance(child, ast.Decl) and child.name not in unique
                   for child in then):
                then = [ast.Block(then, line=stmt.line)]  # keep its scope
            stmts[index:] = [
                ast.If(ast.Unary("!", stmt.cond, line=stmt.line),
                       ast.Block([exit_]), None, line=stmt.line),
                *then, *rest]
        index += 1


def straighten(node, outer=frozenset()):
    """:func:`_straighten` every statement list in ``node``, inner
    ones first.  A then-arm's local is spliced into the list around it
    only when no other declaration in ``node`` and none of the names of
    ``outer`` (the function's parameters and the globals) has its name:
    spliced, it would shadow that one in the statements after it."""
    blocks = [child for child in ast.walk(node)
              if isinstance(child, ast.Block)]
    counts = collections.Counter(_declared(node))
    unique = {name for name, count in counts.items()
              if count == 1 and name not in outer}
    for block in reversed(blocks):
        _straighten(block.stmts, unique)


def _replace_structs(func, global_names):
    """Scalar replacement of aggregates in ``func``'s (copied) body: a
    struct local declared once, with no initializer, whose name only
    ever reaches ``.field``, becomes one local per field it uses.
    Repeats until nothing changes (a struct field becomes a struct
    local, which may qualify in turn)."""
    while True:
        counts = collections.Counter()
        candidates = {}
        fields = collections.defaultdict(set)
        # the ``v`` of each ``v.f`` (a walk meets the Member first)
        members = set()
        escaped = set()
        for node in ast.walk(func.body):
            if isinstance(node, ast.Decl):
                counts[node.name] += 1
            elif isinstance(node, ast.Block):
                candidates.update(
                    (decl.name, decl) for decl in node.stmts
                    if isinstance(decl, ast.Decl) and decl.init is None
                    and isinstance(decl.ctype, ct.StructType))
            elif isinstance(node, ast.Member):
                if not node.arrow and isinstance(node.obj, ast.Var):
                    fields[node.obj.name].add(node.field)
                    members.add(node.obj.uid)
            elif isinstance(node, ast.Var) and node.uid not in members:
                escaped.add(node.name)
        promoted = {name: decl for name, decl in candidates.items()
                    if counts[name] == 1 and name not in escaped
                    and fields[name]}
        if not promoted:
            return
        names = set(counts) | global_names | {p.name for p in func.params}
        split = {}
        for name, decl in promoted.items():
            for field, ftype in decl.ctype.fields:
                if field in fields[name]:
                    local, suffix = f"{name}__{field}", 2
                    while local in names:
                        local = f"{name}__{field}_{suffix}"
                        suffix += 1
                    names.add(local)
                    split[name, field] = (local, ftype)
        _substitute(func.body, promoted, split)


def _substitute(node, promoted, split):
    """Replace ``v.f`` by its local and ``v``'s Decl by the locals' in
    the statements under ``node``, in place."""
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, list):
            items = []
            for item in value:
                if isinstance(item, ast.Decl) and item.name in promoted:
                    items.extend(
                        ast.Decl(ftype, local, None, line=item.line)
                        for (struct, _f), (local, ftype) in split.items()
                        if struct == item.name)
                    continue
                if isinstance(item, ast.Node):
                    item = _replaced(item, promoted, split)
                    _substitute(item, promoted, split)
                items.append(item)
            value[:] = items
        elif isinstance(value, ast.Node):
            value = _replaced(value, promoted, split)
            setattr(node, name, value)
            _substitute(value, promoted, split)


def _replaced(node, promoted, split):
    if (isinstance(node, ast.Member) and not node.arrow
            and isinstance(node.obj, ast.Var)
            and node.obj.name in promoted):
        return ast.Var(split[node.obj.name, node.field][0], line=node.line)
    return node


def split_params(func, names):
    """Scalar replacement at the interface: each struct-pointer
    parameter of ``func`` named in ``names`` whose every use is ``p->f``
    — ``f`` an integer, or an array of integers that is only indexed,
    and no address taken of either — becomes one local per field it
    uses, declared first in the body, and leaves the parameter list.
    ``func`` is changed in place; returns ``{parameter: {field:
    local}}`` for the parameters split (a parameter with no use splits
    into no locals)."""
    params = {param.name: param.ctype for param in func.params
              if param.name in names
              and isinstance(param.ctype, ct.PointerType)
              and isinstance(param.ctype.base, ct.StructType)}
    parents = {}
    for node in ast.walk(func.body):
        for child in node.children():
            parents[child.uid] = node
    fields = {name: {} for name in params}
    for node in ast.walk(func.body):
        if not (isinstance(node, ast.Var) and node.name in fields):
            continue
        member = parents.get(node.uid)
        ok = isinstance(member, ast.Member) and member.arrow
        if ok:
            ftype = params[node.name].base.field_type(member.field)
            holder = parents.get(member.uid)
            if isinstance(ftype, ct.ArrayType):
                ok = (isinstance(ftype.base, ct.IntType)
                      and isinstance(holder, ast.Index)
                      and holder.obj is member)
                holder = parents.get(holder.uid) if ok else holder
            else:
                ok = isinstance(ftype, ct.IntType)
            ok = ok and not (isinstance(holder, ast.Unary)
                             and holder.op == "&")
        if not ok:
            del fields[node.name]
            continue
        fields[node.name][member.field] = ftype
    taken = (set(_declared(func.body)) | {param.name for param in func.params}
             | _unscoped(func))
    split, decls = {}, []
    for name, used in fields.items():
        split[name] = {}
        for field, ftype in used.items():
            local, suffix = f"{name}__{field}", 2
            while local in taken:
                local = f"{name}__{field}_{suffix}"
                suffix += 1
            taken.add(local)
            split[name][field] = local
            decls.append(ast.Decl(ftype, local, None))

    def replace(node):
        if (isinstance(node, ast.Member) and node.arrow
                and isinstance(node.obj, ast.Var) and node.obj.name in split):
            return ast.Var(split[node.obj.name][node.field], line=node.line)
        for attr in node._fields:
            value = getattr(node, attr)
            if isinstance(value, ast.Node):
                setattr(node, attr, replace(value))
            elif isinstance(value, list):
                value[:] = [replace(item) if isinstance(item, ast.Node)
                            else item for item in value]
        return node

    replace(func.body)
    func.body.stmts[:0] = decls
    func.params = [param for param in func.params if param.name not in split]
    return split


def scalarize(program):
    """``program`` with single-call functions inlined and struct locals
    replaced by scalars: a new Program (the input is not touched) that
    means the same — less the functions inlined, which nothing calls
    any more; type-check it before lowering it."""
    inliner = _Inliner(program)
    funcs = [ast.FuncDef(func.ret_type, func.name, func.params,
                         inliner.expand(func)[0], line=func.line)
             for func in program.funcs]
    funcs = [func for func in funcs if func.name not in inliner.inlined]
    for func in funcs:
        lower_for_loops(func.body)
        straighten(func.body, {param.name for param in func.params}
                   | inliner.globals)
        _replace_structs(func, inliner.globals)
    return ast.Program(program.structs, program.enums, funcs,
                       program.globals)


# -- liveness -------------------------------------------------------------


def _scalar(ctype):
    return isinstance(ctype, (ct.IntType, ct.PointerType))


class Liveness:
    """Backward liveness of ``func``'s tracked variables — scalar locals
    and parameters declared once whose name denotes nothing else
    anywhere in ``func`` (a global it shadows) — over the structured
    statements of a function in the residual subset (no address-of, no
    ``for``, ``break`` or ``continue``).

    ``after(stmt)`` / ``before(stmt)`` are the tracked names live after
    / before a statement (None for a statement this analysis did not
    see: treat everything as live); ``dead`` holds the uids of the
    target ``Var`` of each statement-level store nothing reads.  The
    names in ``exits`` are read where ``func`` returns (a fused entry's
    result fields, which its answer reads)."""

    def __init__(self, func, exits=frozenset()):
        counts = collections.Counter(_declared(func.body))
        counts.update(param.name for param in func.params)
        scalars = {param.name for param in func.params
                   if _scalar(param.ctype)}
        scalars.update(node.name for node in ast.walk(func.body)
                       if isinstance(node, ast.Decl) and _scalar(node.ctype))
        # a name is the key: each one stands for one variable only
        shadowing = _unscoped(func)
        self.tracked = {name for name in scalars
                        if counts[name] == 1 and name not in shadowing}
        self.exits = frozenset(exits) & self.tracked
        self._after = {}
        self._before = {}
        #: store target uid -> nothing reads it (the last visit, made
        #: with the loops' live sets at their fixpoint, decides)
        self._stores = {}
        self._used = {}
        self._stmt(func.body, frozenset())
        self.dead = {uid for uid, dead in self._stores.items() if dead}

    def after(self, stmt):
        return self._after.get(stmt.uid)

    def before(self, stmt):
        return self._before.get(stmt.uid)

    def _uses(self, expr):
        if expr is None:
            return frozenset()
        used = self._used.get(expr.uid)
        if used is None:
            used = self._used[expr.uid] = frozenset(
                node.name for node in ast.walk(expr)
                if isinstance(node, ast.Var) and node.name in self.tracked)
        return used

    def _expr(self, expr, out, stmt=None):
        """Live before the statement-level expression ``expr``."""
        if (isinstance(expr, ast.Assign) and expr.op is None
                and isinstance(expr.target, ast.Var)
                and expr.target.name in self.tracked):
            name = expr.target.name
            if stmt is not None:
                self._stores[expr.target.uid] = name not in out
            return (out - {name}) | self._uses(expr.value)
        if (stmt is not None and isinstance(expr, (ast.Assign, ast.IncDec))
                and isinstance(expr.target, ast.Var)
                and expr.target.name in self.tracked):
            self._stores[expr.target.uid] = expr.target.name not in out
        return out | self._uses(expr)

    def _stmt(self, stmt, out):
        """Live before ``stmt`` given ``out`` after it."""
        self._after[stmt.uid] = out
        if isinstance(stmt, ast.Block):
            live = out
            for child in reversed(stmt.stmts):
                live = self._stmt(child, live)
        elif isinstance(stmt, ast.ExprStmt):
            live = self._expr(stmt.expr, out, stmt)
        elif isinstance(stmt, ast.Decl):
            live = out - {stmt.name}
            if stmt.init is not None:
                live = self._expr(ast.Assign(None, ast.Var(stmt.name),
                                             stmt.init), out)
        elif isinstance(stmt, ast.If):
            live = self._stmt(stmt.then, out)
            if stmt.other is not None:
                live = live | self._stmt(stmt.other, out)
            else:
                live = live | out
            live = live | self._uses(stmt.cond)
        elif isinstance(stmt, ast.While):
            head = _exits(stmt.cond, out) | self._uses(stmt.cond)
            while True:
                body = self._stmt(stmt.body, head)
                grown = head | body
                if grown == head:
                    break
                head = grown
            live = head
        elif isinstance(stmt, ast.Return):
            live = self._uses(stmt.value) | self.exits
        else:
            live = frozenset(self.tracked)
        self._before[stmt.uid] = live
        return live


def _exits(cond, out):
    """What is live where a loop with test ``cond`` ends by its test:
    ``out``, or nothing for ``while (1)`` (which nothing in the subset
    leaves)."""
    if cond is None or (isinstance(cond, ast.IntLit) and cond.value):
        return frozenset()
    return out


# -- cursors ----------------------------------------------------------------


def _is_char_pointer(ctype):
    return (isinstance(ctype, ct.PointerType)
            and isinstance(ctype.base, ct.IntType) and ctype.base.width == 1)


def cursors(func):
    """``(cursors, buffers)`` of ``func``: ``cursors`` maps each ``char
    *`` local that can be an ``int`` offset to its base parameter,
    ``buffers`` each base parameter to whether ``func`` stores through
    it.

    A cursor is declared once and is only ever assigned ``p = BASE``
    (``BASE`` a ``char *`` parameter) or ``p = p + c`` (``c`` a literal
    ``>= 0``); otherwise it is only loaded or stored through (``*(T
    *)p``, ``*p``) or subtracted from a cursor of the same base (``p -
    q``).  So an offset starts at 0 and only ever grows: it is ``>= 0``
    by construction, and an access past the end is the ``struct``
    call's fault.  A base is a parameter whose every use is such an
    assignment."""
    counts = collections.Counter(_declared(func.body))
    params = {param.name for param in func.params
              if _is_char_pointer(param.ctype)}
    parents, decls = {}, {}
    uses = collections.defaultdict(list)
    for node in ast.walk(func.body):
        for child in node.children():
            parents[child.uid] = node
        if isinstance(node, ast.Decl):
            decls[node.name] = node
        elif isinstance(node, ast.Var):
            uses[node.name].append(node)
    local = {name for name, decl in decls.items()
             if _is_char_pointer(decl.ctype) and counts[name] == 1
             and name not in params}
    while True:
        base = {name: set() for name in local}
        diffs, stores, bad = [], set(), set()
        for name in local:
            values = [decls[name].init] if decls[name].init else []
            for var in uses[name]:
                parent = parents.get(var.uid)
                if (isinstance(parent, ast.Assign) and parent.target is var
                        and parent.op is None):
                    values.append(parent.value)
                elif _steps(parent, var, parents):
                    continue  # ``p = p + c``: seen as the assigned value
                elif (isinstance(parent, ast.Binary) and parent.op == "-"
                      and isinstance(parent.left, ast.Var)
                      and isinstance(parent.right, ast.Var)):
                    diffs.append((parent.left.name, parent.right.name))
                else:
                    access = _access(var, parents)
                    if access is None:
                        bad.add(name)
                    elif access:
                        stores.add(name)
            for value in values:
                if isinstance(value, ast.Var) and value.name in params:
                    base[name].add(value.name)
                elif not _steps(value, None, parents, name):
                    bad.add(name)
        for name in params:
            for var in uses[name]:
                parent = parents.get(var.uid)
                if not ((isinstance(parent, ast.Assign)
                         and parent.value is var
                         and isinstance(parent.target, ast.Var)
                         and parent.target.name in local)
                        or (isinstance(parent, ast.Decl)
                            and parent.name in local)):
                    bad.add(name)
        bad.update(name for name in local if len(base[name]) != 1
                   or base[name] & bad)
        bad.update(name for pair in diffs for name in pair
                   if not set(pair) <= local or base[pair[0]] != base[pair[1]])
        if not bad & (local | params):
            break
        local -= bad
        params -= bad
    base = {name: found.pop() for name, found in base.items()}
    buffers = {name: False for name in base.values()}
    for name in stores:
        buffers[base[name]] = True
    return base, buffers


def _steps(value, var, parents, name=None):
    """Whether ``value`` is ``p + c`` (``c`` a literal ``>= 0``) assigned
    back to ``p`` — with ``var`` its ``p``, or ``name`` the cursor."""
    if not (isinstance(value, ast.Binary) and value.op == "+"
            and isinstance(value.left, ast.Var)
            and isinstance(value.right, ast.IntLit)
            and value.right.value >= 0):
        return False
    if var is not None:
        holder = parents.get(value.uid)
        return (value.left is var and isinstance(holder, ast.Assign)
                and holder.value is value
                and isinstance(holder.target, ast.Var)
                and holder.target.name == var.name)
    return value.left.name == name


def _access(var, parents):
    """For a cursor use ``var``: True when it is stored through
    (``*(T *)p = ...``, ``T`` an integer type), False when loaded
    through, None when it is neither."""
    parent = parents.get(var.uid)
    if isinstance(parent, ast.Cast):
        if not (isinstance(parent.ctype, ct.PointerType)
                and isinstance(parent.ctype.base, ct.IntType)):
            return None
        parent = parents.get(parent.uid)
    if not (isinstance(parent, ast.Unary) and parent.op == "*"):
        return None
    holder = parents.get(parent.uid)
    if isinstance(holder, ast.Unary) and holder.op == "&":
        return None  # ``&*p`` is ``p`` itself
    return (isinstance(holder, (ast.Assign, ast.IncDec))
            and holder.target is parent)
