"""Public entry point of the Tempo specializer.

:func:`specialize` translates user binding-time assumptions into the
initial PE state, runs the engine, post-processes the residual program,
and returns a :class:`SpecializationResult`.
"""

from repro.errors import SpecializationError
from repro.minic import ast
from repro.minic import types as ctypes
from repro.minic.pretty import pretty_program, source_size
from repro.minic.typecheck import typecheck_program
from repro.tempo import pe_values as pv
from repro.tempo.assumptions import ArrayOf, Dyn, DynPtr, Known, PtrTo, StructOf
from repro.tempo.postprocess import postprocess_program
from repro.tempo.signals import FieldSplit
from repro.tempo.specializer import Specializer


class SpecializationResult:
    """The output of :func:`specialize`."""

    def __init__(self, program, entry_name, residual_params, specializer):
        #: the residual MiniC Program (type checks stand-alone)
        self.program = program
        #: name of the residual entry function
        self.entry_name = entry_name
        #: ordered (ctype, name) of the residual entry's parameters
        self.residual_params = residual_params
        #: the engine, exposing bt_marks and cache statistics
        self.specializer = specializer

    @property
    def typeinfo(self):
        return typecheck_program(self.program)

    def pretty(self):
        return pretty_program(self.program)

    def source_size(self):
        """Byte size of the residual source (the paper's Table 3 axis)."""
        return source_size(self.program)

    def report(self):
        original = self.specializer.program
        return {
            "entry": self.entry_name,
            "residual_functions": [f.name for f in self.program.funcs],
            "original_size_bytes": source_size(original),
            "residual_size_bytes": self.source_size(),
            "outlined_specializations": len(self.specializer.spec_cache),
        }


def _bind_param(engine, func, param, spec):
    """Translate one assumption into (PEVal, keep_in_signature)."""
    store = engine.store
    if isinstance(spec, Known):
        return pv.Static(spec.value), False
    if isinstance(spec, (Dyn, DynPtr)):
        return pv.Dynamic(ast.Var(param.name)), True
    if isinstance(spec, PtrTo):
        pointee = spec.pointee
        if isinstance(pointee, StructOf):
            if not (
                isinstance(param.ctype, ctypes.PointerType)
                and isinstance(param.ctype.base, ctypes.StructType)
            ):
                raise SpecializationError(
                    f"{func.name}.{param.name}: PtrTo(StructOf) needs a"
                    f" struct pointer parameter, got {param.ctype}"
                )
            stype = param.ctype.base
            obj = store.add(
                pv.PEStruct(stype, pv.ParamPtrRoot(param.name))
            )
            _fill_struct(engine, obj, pointee)
            return pv.Static(pv.StructPtr(obj.oid)), True
        if isinstance(pointee, ArrayOf):
            if not isinstance(param.ctype, ctypes.PointerType):
                raise SpecializationError(
                    f"{func.name}.{param.name}: PtrTo(ArrayOf) needs a"
                    f" pointer parameter"
                )
            atype = ctypes.ArrayType(param.ctype.base, pointee.length)
            obj = store.add(pv.PEArray(atype, pv.ParamPtrRoot(param.name)))
            if isinstance(pointee.elem, Known):
                for index in range(pointee.length):
                    obj.set_elem(index, pv.Static(pointee.elem.value))
            return pv.Static(pv.ElemPtr(obj.oid, 0)), True
        if isinstance(pointee, Known):
            local = store.add(
                pv.PELocal(
                    param.ctype.base, pv.Static(pointee.value), param.name
                )
            )
            return pv.Static(pv.LocalPtr(local.oid)), False
        if isinstance(pointee, Dyn):
            local = store.add(
                pv.PELocal(
                    param.ctype.base,
                    None,
                    param.name,
                    pv.ParamPtrRoot(param.name),
                )
            )
            return pv.Static(pv.LocalPtr(local.oid)), True
        raise SpecializationError(f"unsupported pointee spec {pointee!r}")
    raise SpecializationError(f"unsupported assumption {spec!r}")


def _fill_struct(engine, obj, struct_spec):
    store = engine.store
    for fname, ftype in obj.stype.fields:
        fspec = struct_spec.spec_for(fname)
        if isinstance(fspec, Known):
            obj.fields[fname] = pv.Static(
                ctypes.wrap_int(fspec.value, ftype)
                if ftype.is_integer
                else fspec.value
            )
        elif isinstance(fspec, (Dyn, DynPtr)):
            # Left unset: lazily read as the canonical dynamic path.
            continue
        elif isinstance(fspec, StructOf):
            if not isinstance(ftype, ctypes.StructType):
                raise SpecializationError(
                    f"field {fname} is not a struct"
                )
            nested = store.add(
                pv.PEStruct(ftype, pv.SubRoot(obj.oid, field=fname))
            )
            _fill_struct(engine, nested, fspec)
            obj.fields[fname] = pv.Static(pv.StructPtr(nested.oid))
        elif isinstance(fspec, ArrayOf):
            if not isinstance(ftype, ctypes.ArrayType):
                raise SpecializationError(f"field {fname} is not an array")
            nested = store.add(
                pv.PEArray(ftype, pv.SubRoot(obj.oid, field=fname))
            )
            if isinstance(fspec.elem, Known):
                for index in range(min(fspec.length, ftype.length)):
                    nested.set_elem(index, pv.Static(fspec.elem.value))
            obj.fields[fname] = pv.Static(pv.ElemPtr(nested.oid, 0))
        else:
            raise SpecializationError(
                f"unsupported field spec {fspec!r} for {fname}"
            )


def specialize(
    program,
    entry,
    assumptions,
    options=None,
    residual_name=None,
    typeinfo=None,
):
    """Specialize ``entry`` of ``program`` under ``assumptions``.

    :param program: a type-correct MiniC :class:`~repro.minic.ast.Program`.
    :param entry: name of the entry function.
    :param assumptions: mapping of parameter name to an assumption spec
        (:mod:`repro.tempo.assumptions`); omitted parameters default to
        ``Dyn()``.
    :param options: engine :class:`~repro.tempo.specializer.Options`.
    :param residual_name: name for the residual entry function
        (default ``<entry>_spec``).
    :returns: a :class:`SpecializationResult`.
    """
    typeinfo = typeinfo or typecheck_program(program)
    try:
        return _specialize(program, entry, assumptions, options,
                           residual_name, typeinfo, root_fields=False)
    except FieldSplit:
        return _specialize(program, entry, assumptions, options,
                           residual_name, typeinfo, root_fields=True)


def _specialize(program, entry, assumptions, options, residual_name,
                typeinfo, root_fields):
    engine = Specializer(program, typeinfo, options, root_fields)
    func = program.func(entry)
    known_params = {param.name for param in func.params}
    for name in assumptions:
        if name not in known_params:
            raise SpecializationError(
                f"assumption for unknown parameter {name!r} of {entry}"
            )
    params_plan = []
    residual_params = []
    for param in func.params:
        spec = assumptions.get(param.name, Dyn())
        value, keep = _bind_param(engine, func, param, spec)
        params_plan.append((param, value, keep))
        if keep:
            residual_params.append((param.ctype, param.name))
    residual_name = residual_name or f"{entry}_spec"
    engine.specialize_entry(entry, residual_name, params_plan)
    residual_program = engine.residual.build()
    residual_program = postprocess_program(residual_program, residual_name)
    return SpecializationResult(
        residual_program, residual_name, residual_params, engine
    )
