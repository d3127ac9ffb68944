"""Residual-program clean-up passes.

The online engine occasionally leaves harmless debris: pure expression
statements (re-reads after stores), empty conditionals, unused hoisted
declarations, and outlined functions orphaned by rolled-back inline
trials.  These passes remove them; they are semantics-preserving by
construction.
"""

import collections
import re

from repro.minic import ast
from repro.minic import types as ct


def _has_side_effects(expr):
    for node in ast.walk(expr):
        if isinstance(node, (ast.Assign, ast.IncDec, ast.Call)):
            return True
    return False


def _clean_stmts(stmts):
    cleaned = []
    for stmt in stmts:
        stmt = _clean_stmt(stmt)
        if stmt is not None:
            cleaned.append(stmt)
    return cleaned


def _clean_stmt(stmt):
    if isinstance(stmt, ast.Block):
        stmts = _clean_stmts(stmt.stmts)
        stmt.stmts = stmts
        return stmt
    if isinstance(stmt, ast.ExprStmt):
        if not _has_side_effects(stmt.expr):
            return None
        return stmt
    if isinstance(stmt, ast.If):
        then = _clean_stmt(stmt.then)
        other = _clean_stmt(stmt.other) if stmt.other is not None else None
        then_empty = then is None or (
            isinstance(then, ast.Block) and not then.stmts
        )
        other_empty = other is None or (
            isinstance(other, ast.Block) and not other.stmts
        )
        if then_empty and other_empty:
            if _has_side_effects(stmt.cond):
                return ast.ExprStmt(stmt.cond)
            return None
        if then_empty:
            # Flip: if (!cond) <other>
            stmt.cond = ast.Unary("!", stmt.cond)
            stmt.then = other
            stmt.other = None
            return stmt
        stmt.then = then
        stmt.other = None if other_empty else other
        return stmt
    if isinstance(stmt, ast.While):
        stmt.body = _clean_stmt(stmt.body) or ast.Block([])
        return stmt
    if isinstance(stmt, ast.For):
        stmt.body = _clean_stmt(stmt.body) or ast.Block([])
        return stmt
    return stmt


def _used_names(func):
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Var):
            names.add(node.name)
    return names


def _drop_unused_decls(func):
    used = _used_names(func)
    body = func.body
    body.stmts = [
        stmt
        for stmt in body.stmts
        if not (
            isinstance(stmt, ast.Decl)
            and stmt.init is None
            and stmt.name not in used
        )
    ]


def _called_functions(func):
    return {
        node.name for node in ast.walk(func) if isinstance(node, ast.Call)
    }


def prune_unreachable_functions(program, entry_name):
    """Drop residual functions not reachable from the entry (orphans of
    rolled-back inline trials)."""
    by_name = {func.name: func for func in program.funcs}
    if entry_name not in by_name:
        return program
    reachable = set()
    worklist = [entry_name]
    while worklist:
        name = worklist.pop()
        if name in reachable or name not in by_name:
            continue
        reachable.add(name)
        worklist.extend(_called_functions(by_name[name]))
    program.funcs = [func for func in program.funcs if func.name in reachable]
    return program


def prune_unused_structs(program):
    """``program`` without the struct definitions nothing in its
    functions and globals names, directly or through another struct's
    fields (a new Program when any goes)."""
    from repro.minic.pretty import pretty_program, type_str

    def named(text):
        return set(re.findall(r"\bstruct (\w+)", text))

    used = named(pretty_program(ast.Program(
        [], program.enums, program.funcs, program.globals)))
    by_name = {struct.name: struct for struct in program.structs}
    pending = list(used)
    while pending:
        struct = by_name.get(pending.pop())
        for field in struct.fields if struct else ():
            more = named(type_str(field.ctype)) - used
            used |= more
            pending += more
    if set(by_name) <= used:
        return program
    return ast.Program([struct for struct in program.structs
                        if struct.name in used],
                       program.enums, program.funcs, program.globals)


def _function_fingerprint(func):
    from repro.minic.pretty import pretty_func, type_str

    params = ",".join(
        f"{type_str(p.ctype)} {p.name}" for p in func.params
    )
    header = f"{type_str(func.ret_type)}({params})"
    body = pretty_func(func)
    # Strip the name from the rendered header line.
    body = body.split("\n", 1)[1] if "\n" in body else ""
    return header + "\n" + body


def _rename_calls(program, renames):
    for func in program.funcs:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and node.name in renames:
                node.name = renames[node.name]


def merge_identical_functions(program, entry_name):
    """Polyvariant specialization can emit structurally identical
    residual functions from different binding-time contexts (e.g. the
    per-element and per-header decode of a long).  Collapse them."""
    while True:
        seen = {}
        renames = {}
        for func in program.funcs:
            if func.name == entry_name:
                continue
            fingerprint = _function_fingerprint(func)
            if fingerprint in seen:
                renames[func.name] = seen[fingerprint]
            else:
                seen[fingerprint] = func.name
        if not renames:
            return program
        program.funcs = [
            func for func in program.funcs if func.name not in renames
        ]
        _rename_calls(program, renames)


def postprocess_program(program, entry_name):
    """Run every clean-up pass over a residual program."""
    program = prune_unreachable_functions(program, entry_name)
    for func in program.funcs:
        func.body = _clean_stmt(func.body) or ast.Block([])
        _drop_unused_decls(func)
    # A second reachability pass: cleaning may have removed calls.
    program = prune_unreachable_functions(program, entry_name)
    program = merge_identical_functions(program, entry_name)
    return program


def _counted(loop):
    """``(k, N, body)`` of ``while (k < N) { body; k = k + 1; }`` (the
    step ``k++``, ``k = k + 1`` or ``old = k; k = old + 1``) when the
    body stores to neither ``k`` nor ``old``, else None."""
    if not (isinstance(loop, ast.While) and isinstance(loop.body, ast.Block)
            and isinstance(loop.cond, ast.Binary) and loop.cond.op == "<"
            and isinstance(loop.cond.left, ast.Var)
            and isinstance(loop.cond.right, ast.IntLit)):
        return None
    counter, stmts = loop.cond.left.name, loop.body.stmts
    names = {counter}
    step = stmts[-1].expr if stmts and isinstance(stmts[-1],
                                                  ast.ExprStmt) else None
    if isinstance(step, ast.IncDec) and step.op == "++":
        body = stmts[:-1]
    elif (isinstance(step, ast.Assign) and step.op is None
          and isinstance(step.value, ast.Binary) and step.value.op == "+"
          and isinstance(step.value.left, ast.Var)
          and isinstance(step.value.right, ast.IntLit)
          and step.value.right.value == 1):
        body = stmts[:-1]
        source = step.value.left.name
        if source != counter:
            copy = stmts[-2].expr if len(stmts) > 1 and isinstance(
                stmts[-2], ast.ExprStmt) else None
            if not (isinstance(copy, ast.Assign)
                    and isinstance(copy.target, ast.Var)
                    and copy.target.name == source
                    and isinstance(copy.value, ast.Var)
                    and copy.value.name == counter):
                return None
            body, names = stmts[:-2], {counter, source}
    else:
        return None
    if not (isinstance(getattr(step, "target", None), ast.Var)
            and step.target.name == counter):
        return None
    if any(isinstance(node, (ast.Assign, ast.IncDec))
           and isinstance(node.target, ast.Var) and node.target.name in names
           for stmt in body for node in ast.walk(stmt)):
        return None
    return counter, loop.cond.right.value, body


def local_extents(func):
    """``{the Decl of a local array: the length its accesses reach}``
    for the arrays whose every use is ``a[i]``, ``i`` a literal or the
    counter ``k`` of a loop ``while (k < N)`` (:func:`_counted`) around
    it — ``k`` only ever set to a literal ``>= 0`` or stepped by one."""
    decls = {node.name: node for node in ast.walk(func.body)
             if isinstance(node, ast.Decl)
             and isinstance(node.ctype, ct.ArrayType)}
    stepped = set()  # counters only set to literals >= 0 or stepped
    plain = collections.Counter()
    for node in ast.walk(func.body):
        if isinstance(node, (ast.Assign, ast.IncDec)) and isinstance(
                node.target, ast.Var):
            value = getattr(node, "value", None)
            plain[node.target.name] += 1
            if (isinstance(node, ast.Assign) and node.op is None and (
                    isinstance(value, ast.IntLit) and value.value >= 0
                    or isinstance(value, ast.Binary) and value.op == "+"
                    and isinstance(value.left, ast.Var)
                    and isinstance(value.right, ast.IntLit)
                    and value.right.value == 1)):
                stepped.add(node.target.name)
                plain[node.target.name] -= 1
    reach = {}
    for loop in ast.walk(func.body):
        found = _counted(loop)
        if found is None:
            continue
        counter, bound, body = found
        for stmt in body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Index)
                        and isinstance(node.index, ast.Var)
                        and node.index.name == counter):
                    reach[node.uid] = bound
    extents = dict.fromkeys(decls, 0)
    for node in ast.walk(func.body):
        for child in node.children():
            if not (isinstance(child, ast.Var) and child.name in extents):
                continue
            index = node.index if isinstance(node, ast.Index) and (
                child is node.obj) else None
            if isinstance(index, ast.IntLit) and index.value >= 0:
                length = index.value + 1
            elif (isinstance(index, ast.Var) and node.uid in reach
                  and index.name in stepped and not plain[index.name]):
                length = reach[node.uid]
            else:
                length = None  # decays to a pointer, or unknown index
            extents[child.name] = (None if extents[child.name] is None
                                   or length is None
                                   else max(extents[child.name], length))
    return {decls[name]: length for name, length in extents.items()
            if length is not None and length < decls[name].ctype.length}


def narrow_arrays(program, capacities):
    """``program`` with array fields re-declared at a smaller capacity:
    ``capacities`` maps a struct name to ``{array field: length}``; and
    each local array at the length its accesses reach
    (:func:`local_extents`: a result struct split into locals by the
    specializer keeps the array the IDL declares, of which only the
    assumed length is ever touched).

    A bounded array whose length the specialization assumes needs no
    more room than that in the residual program; an access past the
    narrowed capacity is a bounds fault — in the interpreter the
    verifier runs, and in compiled code — never a silent overrun.
    Returns a new :class:`~repro.minic.ast.Program` that shares every
    subtree the change does not reach (``program`` itself, and the
    generic program whose struct definitions it shares, are untouched).
    """
    locals_ = {}
    for func in program.funcs:
        locals_.update(local_extents(func))
    narrowed = {}
    structs = []
    for struct in program.structs:
        lengths = capacities.get(struct.name)
        if lengths:
            struct = ast.StructDef(struct.name, [
                ast.Field(ct.ArrayType(field.ctype.base, lengths[field.name]),
                          field.name, line=field.line)
                if field.name in lengths else field
                for field in struct.fields
            ], line=struct.line)
            narrowed[struct.name] = ct.StructType(struct.name, tuple(
                (field.name, field.ctype) for field in struct.fields))
        structs.append(struct)
    if not narrowed and not locals_:
        return program

    def retype(ctype):
        if isinstance(ctype, ct.StructType):
            return narrowed.get(ctype.name, ctype)
        if isinstance(ctype, (ct.PointerType, ct.ArrayType)):
            base = retype(ctype.base)
            if base is not ctype.base:
                return (ct.PointerType(base) if ctype.is_pointer
                        else ct.ArrayType(base, ctype.length))
        return ctype

    def rewrite(node):
        if node in locals_:
            return ast.Decl(ct.ArrayType(retype(node.ctype.base),
                                         locals_[node]),
                            node.name, node.init, line=node.line)
        values = []
        for name in node._fields:
            value = getattr(node, name)
            if isinstance(value, ast.Node):
                value = rewrite(value)
            elif isinstance(value, ct.CType):
                value = retype(value)
            elif isinstance(value, list):
                items = [rewrite(item) if isinstance(item, ast.Node)
                         else item for item in value]
                if any(new is not old for new, old in zip(items, value)):
                    value = items
            values.append(value)
        if all(new is getattr(node, name)
               for new, name in zip(values, node._fields)):
            return node
        return type(node)(*values, line=node.line)

    return ast.Program(
        structs=structs, enums=program.enums,
        funcs=[rewrite(func) for func in program.funcs],
        globals=[rewrite(glob) for glob in program.globals],
    )
