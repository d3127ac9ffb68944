"""Pretty printer for MiniC ASTs.

Produces a canonical source rendering used for three purposes: debugging,
round-trip parser tests, and the paper's code-size measurements (Table 3
reports generic-versus-specialized binary sizes; we report the rendered
residual source size, `repro.bench.codesize`).
"""

from repro.minic import ast
from repro.minic import types as ct

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_UNARY_PRECEDENCE = 11
_POSTFIX_PRECEDENCE = 12


def type_str(ctype):
    """Render a CType as MiniC source (without a declarator name)."""
    if isinstance(ctype, ct.PointerType):
        return f"{type_str(ctype.base)} *"
    if isinstance(ctype, ct.StructType):
        return f"struct {ctype.name}"
    return str(ctype)


def declarator_str(ctype, name):
    """Render ``ctype name`` handling array suffixes."""
    if isinstance(ctype, ct.ArrayType):
        return f"{type_str(ctype.base)} {name}[{ctype.length}]"
    return f"{type_str(ctype)} {name}"


def pretty_expr(expr, parent_prec=0):
    text, prec = _expr(expr)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr(expr):
    """Return (text, precedence) for an expression node."""
    if isinstance(expr, ast.IntLit):
        return str(expr.value), _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.StrLit):
        escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"', _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.Var):
        return expr.name, _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.Unary):
        operand = pretty_expr(expr.operand, _UNARY_PRECEDENCE)
        return f"{expr.op}{operand}", _UNARY_PRECEDENCE
    if isinstance(expr, ast.Binary):
        prec = _PRECEDENCE[expr.op]
        left = pretty_expr(expr.left, prec)
        right = pretty_expr(expr.right, prec + 1)
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, ast.Assign):
        target = pretty_expr(expr.target, 1)
        value = pretty_expr(expr.value, 0)
        op = f"{expr.op}=" if expr.op else "="
        return f"{target} {op} {value}", 0
    if isinstance(expr, ast.IncDec):
        target = pretty_expr(expr.target, _POSTFIX_PRECEDENCE)
        if expr.prefix:
            return f"{expr.op}{target}", _UNARY_PRECEDENCE
        return f"{target}{expr.op}", _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.Call):
        args = ", ".join(pretty_expr(a, 0) for a in expr.args)
        return f"{expr.name}({args})", _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.Member):
        obj = pretty_expr(expr.obj, _POSTFIX_PRECEDENCE)
        sep = "->" if expr.arrow else "."
        return f"{obj}{sep}{expr.field}", _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.Index):
        obj = pretty_expr(expr.obj, _POSTFIX_PRECEDENCE)
        index = pretty_expr(expr.index, 0)
        return f"{obj}[{index}]", _POSTFIX_PRECEDENCE
    if isinstance(expr, ast.Cast):
        operand = pretty_expr(expr.operand, _UNARY_PRECEDENCE)
        return f"({type_str(expr.ctype)}){operand}", _UNARY_PRECEDENCE
    if isinstance(expr, ast.Cond):
        cond = pretty_expr(expr.cond, 1)
        then = pretty_expr(expr.then, 0)
        other = pretty_expr(expr.other, 0)
        return f"{cond} ? {then} : {other}", 0
    if isinstance(expr, ast.SizeOf):
        return f"sizeof({type_str(expr.ctype)})", _POSTFIX_PRECEDENCE
    raise TypeError(f"unknown expression node: {expr!r}")


class _Printer:
    def __init__(self, indent="    "):
        self.indent = indent
        self.lines = []
        self.depth = 0

    def emit(self, text):
        self.lines.append(f"{self.indent * self.depth}{text}")

    def stmt(self, node):
        if isinstance(node, ast.Block):
            self.emit("{")
            self.depth += 1
            for child in node.stmts:
                self.stmt(child)
            self.depth -= 1
            self.emit("}")
        elif isinstance(node, ast.ExprStmt):
            self.emit(f"{pretty_expr(node.expr)};")
        elif isinstance(node, ast.Decl):
            if node.init is not None:
                self.emit(
                    f"{declarator_str(node.ctype, node.name)} ="
                    f" {pretty_expr(node.init)};"
                )
            else:
                self.emit(f"{declarator_str(node.ctype, node.name)};")
        elif isinstance(node, ast.If):
            self.emit(f"if ({pretty_expr(node.cond)})")
            self._nested(node.then)
            if node.other is not None:
                self.emit("else")
                self._nested(node.other)
        elif isinstance(node, ast.While):
            self.emit(f"while ({pretty_expr(node.cond)})")
            self._nested(node.body)
        elif isinstance(node, ast.For):
            init = ""
            if isinstance(node.init, ast.Decl):
                init = (
                    f"{declarator_str(node.init.ctype, node.init.name)}"
                    f" = {pretty_expr(node.init.init)}"
                    if node.init.init is not None
                    else declarator_str(node.init.ctype, node.init.name)
                )
            elif isinstance(node.init, ast.ExprStmt):
                init = pretty_expr(node.init.expr)
            cond = pretty_expr(node.cond) if node.cond is not None else ""
            step = pretty_expr(node.step) if node.step is not None else ""
            self.emit(f"for ({init}; {cond}; {step})")
            self._nested(node.body)
        elif isinstance(node, ast.Return):
            if node.value is None:
                self.emit("return;")
            else:
                self.emit(f"return {pretty_expr(node.value)};")
        elif isinstance(node, ast.Break):
            self.emit("break;")
        elif isinstance(node, ast.Continue):
            self.emit("continue;")
        else:
            raise TypeError(f"unknown statement node: {node!r}")

    def _nested(self, node):
        if isinstance(node, ast.Block):
            self.stmt(node)
        else:
            self.depth += 1
            self.stmt(node)
            self.depth -= 1

    def struct_def(self, node):
        self.emit(f"struct {node.name} {{")
        self.depth += 1
        for field in node.fields:
            self.emit(f"{declarator_str(field.ctype, field.name)};")
        self.depth -= 1
        self.emit("};")

    def enum_def(self, node):
        name = f" {node.name}" if node.name else ""
        members = ", ".join(f"{m} = {v}" for m, v in node.members)
        self.emit(f"enum{name} {{ {members} }};")

    def func_def(self, node):
        params = ", ".join(
            declarator_str(p.ctype, p.name) for p in node.params
        )
        if not params:
            params = "void"
        self.emit(f"{type_str(node.ret_type)} {node.name}({params})")
        self.stmt(node.body)

    def program(self, node):
        for struct in node.structs:
            self.struct_def(struct)
            self.emit("")
        for enum in node.enums:
            self.enum_def(enum)
            self.emit("")
        for glob in node.globals:
            if glob.init is not None:
                self.emit(
                    f"{declarator_str(glob.ctype, glob.name)} ="
                    f" {pretty_expr(glob.init)};"
                )
            else:
                self.emit(f"{declarator_str(glob.ctype, glob.name)};")
        if node.globals:
            self.emit("")
        for func in node.funcs:
            self.func_def(func)
            self.emit("")


def pretty_func(node, indent="    "):
    printer = _Printer(indent)
    printer.func_def(node)
    return "\n".join(printer.lines)


def pretty_program(program, indent="    "):
    printer = _Printer(indent)
    printer.program(program)
    return "\n".join(printer.lines).rstrip() + "\n"


def source_size(program):
    """Byte size of the canonical rendering (Table 3 proxy)."""
    return len(pretty_program(program).encode("utf-8"))
