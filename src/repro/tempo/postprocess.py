"""Residual-program clean-up passes.

The online engine occasionally leaves harmless debris: pure expression
statements (re-reads after stores), empty conditionals, unused hoisted
declarations, and outlined functions orphaned by rolled-back inline
trials.  These passes remove them; they are semantics-preserving by
construction.
"""

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


def narrow_arrays(program, capacities):
    """``program`` with array fields re-declared at a smaller capacity:
    ``capacities`` maps a struct name to ``{array field: length}``.

    A bounded array whose length the specialization assumes needs no
    more room than that in the residual program; an access past the
    narrowed capacity is a bounds fault — in the interpreter the
    verifier runs, and in compiled code — never a silent overrun.
    Returns a new :class:`~repro.minic.ast.Program` that shares every
    subtree the change does not reach (``program`` itself, and the
    generic program whose struct definitions it shares, are untouched).
    """
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
    if not narrowed:
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
