"""End-to-end specialization pipeline.

Chains the stages of the paper's experiment: a ``.x`` interface is
compiled to MiniC stubs (:mod:`repro.rpcgen.codegen_minic`), specialized
by Tempo (:mod:`repro.tempo`) against the declared invariants (program
number, procedure, operation, buffer sizes, array lengths), and the
residual program is compiled to Python (:mod:`repro.minic.compile_py`).
The resulting marshalers plug into the live RPC stack
(:mod:`repro.rpc`), replacing the generic XDR micro-layers.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "cache": "SpecializationCache content_key",
    "online": "DispatchProfiler OnlineClientCodec OnlinePolicy"
              " OnlineSpecializer ResidualRoute",
    "pipeline": "ClientSpecialization ResidualCodec ServerSpecialization"
                " SpecializationPipeline",
})

__all__ = [
    "ClientSpecialization",
    "content_key",
    "DispatchProfiler",
    "OnlineClientCodec",
    "OnlinePolicy",
    "OnlineSpecializer",
    "ResidualCodec",
    "ResidualRoute",
    "ServerSpecialization",
    "SpecializationCache",
    "SpecializationPipeline",
]
