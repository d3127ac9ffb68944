"""The IDL -> MiniC -> Tempo -> Python marshaler pipeline.

This ties the whole experiment together for live use:

1. ``rpcgen`` compiles the ``.x`` interface to MiniC stubs built on the
   Sun RPC micro-layers;
2. Tempo specializes the client marshal/receive paths (and optionally
   the server dispatch path) to the declared invariants — program and
   procedure numbers, buffer sizes, the XDR operation, and the assumed
   bounded-array lengths (the paper's ``expected_inlen`` rewrite);
3. each residual entry function is compiled to Python *as* its fused
   entry (:mod:`repro.specialized.runtime` binds its parameters): those
   entries are the codecs that plug into :class:`repro.rpc.client.
   RpcClient` / :class:`repro.rpc.svc_udp.UdpServer`, and a residual
   outside the subset ``compile_py`` lowers raises ``CompileError``.

Replies that do not match the expected shape (wrong length, stale xid,
error status) fall back to the generic decode path, mirroring the
residual ``else`` branches of the paper's §6.2 rewrite.

Every residual codec passes through the equivalence verifier
(:mod:`repro.analysis.verify`) before it installs — symbolic execution
against the generic codec over the declared size-guard domain.  The
gate is on by default; ``verify=False`` (or ``REPRO_SPEC_VERIFY=off``,
which wins over the code knob) disables it.  A codec that fails
verification raises :class:`~repro.errors.VerificationError` when
freshly built, and is rebuilt from Tempo when revived from the disk
cache.
"""

import os

from repro import obs as _obs
from repro.errors import IdlError
from repro.minic.compile_py import compile_program
from repro.minic.parser import parse_program
from repro.minic.typecheck import typecheck_program
from repro.rpcgen.codegen_minic import MiniCGenerator
from repro.rpcgen.codegen_py import load_python
from repro.specialized import runtime as sr
from repro.specialized.cache import SpecializationCache, content_key
from repro.tempo import Dyn, DynPtr, Known, PtrTo, StructOf, specialize
from repro.tempo.postprocess import narrow_arrays, prune_unused_structs
from repro.tempo.specializer import Options


class ResidualCodec:
    """Slim, picklable stand-in for a
    :class:`~repro.tempo.driver.SpecializationResult` — just the pieces
    the runtime wrappers consume.  This is what the disk tier of the
    specialization cache stores."""

    __slots__ = ("program", "entry_name", "residual_params")

    def __init__(self, program, entry_name, residual_params):
        self.program = program
        self.entry_name = entry_name
        self.residual_params = residual_params

    @classmethod
    def from_result(cls, result):
        if isinstance(result, cls):
            return result
        return cls(result.program, result.entry_name,
                   result.residual_params)


class ClientSpecialization:
    """Compiled specialized client codecs for one procedure.

    ``marshal_result`` / ``recv_result`` are the residual programs as
    Tempo wrote them; what runs is ``_marshal_module`` / ``_recv_module``:
    their entry functions, arrays narrowed to the assumed lengths,
    compiled as fused entries (docs/SPECIALIZATION.md, "Fused entries")."""

    def __init__(self, pipeline, proc, arg_struct, ret_struct, arg_lens,
                 res_lens, bufsize, marshal_result, recv_result):
        self.pipeline = pipeline
        self.proc = proc
        self.arg_struct = arg_struct
        self.ret_struct = ret_struct
        self.bufsize = bufsize
        self.expected_request = proc.request_size(arg_lens)
        self.expected_reply = proc.reply_size(res_lens)
        self.marshal_result = marshal_result
        self.recv_result = recv_result
        self._marshal_module = compile_program(
            narrow_arrays(marshal_result.program,
                          {arg_struct.name: arg_lens}),
            fused=sr.marshal_entry(
                proc, marshal_result, arg_lens, pipeline.prog_number,
                pipeline.vers_number, self.expected_request))
        self._recv_module = compile_program(
            narrow_arrays(recv_result.program, {ret_struct.name: res_lens}),
            fused=sr.recv_entry(proc, recv_result, res_lens,
                                self.expected_reply))
        self._arg_lens = arg_lens
        self._res_lens = res_lens

    # -- codec entry points ---------------------------------------------

    @property
    def build_request(self):
        """The fused marshal entry ``(xid, args)``: the complete call
        message, or None when it declines — ``args`` is not of the
        assumed lengths, or holds a value the residual cannot send."""
        return self._marshal_module.entry

    def decode_reply(self, data, xid):
        """The fused receive entry: the decoded result of the expected
        success reply to ``xid``, or None when it declines."""
        return self._recv_module.entry(data, xid, self.pipeline.stubs)

    def install(self, client):
        """Pin these codecs into ``client``'s one codec table for the
        procedure (a :class:`~repro.specialized.online.ClientCodec`,
        which an online specializer adopts too); what the fused entries
        decline is coded as with no codec.  The fused marshal entry
        writes its own exact-size message (the paper's §6 exact-size
        buffers): nothing else on the client changes."""
        from repro.specialized.online import ClientCodec

        ClientCodec.of(client, self.pipeline, self.proc).pin(
            sum(self._arg_lens.values()), self)
        return client


class ServerSpecialization:
    """A verified, compiled residual dispatcher for one request size.

    With a ``fallback`` :class:`~repro.rpc.server.SvcRegistry` its size
    is *pinned* into the registry's one residual route for the
    procedure (a :class:`~repro.specialized.online.ResidualRoute`, which
    an online specializer adopts too); anything it declines is answered
    by the generic body under the same DRC claim (the residual ``else``
    branch of the paper's §6.2).  The handle then serves as the
    registry: ``dispatch_bytes`` *is* its spine and every other
    attribute (``drc``, ``begin_drain``, ``handlers_invoked``, ...)
    forwards to it.  Without a fallback it is the verified residual
    only.
    """

    def __init__(self, pipeline, handle_result, bufsize, proc,
                 expected_request, module, fallback=None):
        self.bufsize = bufsize
        #: the one request size the residual was specialized to and the
        #: verifier proved it on; its entry serves nothing else
        self.expected_request = expected_request
        self.result = handle_result
        #: the compiled form the verifier's gate passed: the narrowed
        #: residual program, its entry function the fused entry
        self._module = module
        if fallback is not None:
            from repro.specialized.online import ResidualRoute

            ResidualRoute.of(fallback, pipeline, proc).pin(
                expected_request, self)
            self.registry = fallback
            self.dispatch_bytes = fallback.dispatch_bytes  # no per-call hop

    def __getattr__(self, name):
        # only reached for attributes this handle lacks
        registry = self.__dict__.get("registry")
        if registry is None:
            raise AttributeError(name)
        return getattr(registry, name)

    @property
    def residual_reply(self):
        """The fused dispatch entry ``(data)``: the reply bytes, or
        None when it declines (another size, bytes that fault the
        residual program, a reply that does not fit).

        This is the whole variant a residual route runs; the registry's
        dispatch spine owns every protocol decision around it."""
        return self._module.entry


def assumptions(sig, proc, prog, vers, arg_lens, res_lens, bufsize,
                **lengths):
    """The static/dynamic split of the emitted entry ``sig``, stated
    once by parameter role: the program and version numbers, the
    buffer capacities and the assumed array lengths are known, the
    xid, the buffers and the data are not.  ``lengths`` gives the
    binding time of the ``inlen`` / ``expected_inlen`` roles, which
    depends on the entry."""
    return sig.bind({
        "client": PtrTo(StructOf(cl_prog=Known(prog), cl_vers=Known(vers))),
        "xid": Dyn(),
        "args": PtrTo(StructOf(
            {f"{f}_len": Known(n) for f, n in arg_lens.items()})),
        "result": PtrTo(StructOf()),
        "outbuf": DynPtr(), "outsize": Known(bufsize),
        "inbuf": DynPtr(), "insize": Known(bufsize),
        **lengths,
    }, proc.lens(arg_lens, res_lens), Known)


class SpecializationPipeline:
    """Front door: one pipeline per interface (and program version)."""

    def __init__(self, idl_source, impl_sources=None, options=None,
                 program=None, version=None, cache=None, cache_dir=None,
                 verify=None):
        from repro.rpcgen.idl_parser import parse_idl

        self.interface = parse_idl(idl_source)
        self.impl_sources = impl_sources
        #: live residuals roll their array loops (docs/SPECIALIZATION.md,
        #: "Loops by induction"); explicit options are taken as given
        self.options = Options(roll=True) if options is None else options
        #: the generator holds the stub contract: which procedures are
        #: inside the MiniC subset, their wire layouts, the signature
        #: of every entry specialized below
        self._gen = MiniCGenerator(self.interface, decline=True)
        self.minic_source = self._gen.generate(impl_sources)
        self.program_ast = parse_program(self.minic_source)
        self.typeinfo = typecheck_program(self.program_ast)
        self.stubs = load_python(self.interface, "pipeline_stubs")
        self.idl_program = self._select_program(program)
        self.idl_version = self._select_version(version)
        self._version = self._gen.contract.version(self.idl_program,
                                                   self.idl_version)
        #: memoized specializations.  The fingerprint covers everything
        #: the residual code is derived from, so editing the IDL (or the
        #: impls, or the specializer options) invalidates by keying.
        if cache is None:
            if cache_dir is None:
                cache_dir = os.environ.get("REPRO_SPEC_CACHE_DIR")
            cache = SpecializationCache(cache_dir=cache_dir)
        self.cache = cache
        #: verification knob: None = default on; the REPRO_SPEC_VERIFY
        #: environment kill switch overrides the code knob either way.
        self.verify = verify
        self._fingerprint = content_key(
            idl=idl_source,
            impls=list(impl_sources or []),
            options=repr(self.options),
            program=program,
            version=version,
        )

    def _select_program(self, name):
        programs = self.interface.programs
        if not programs:
            raise IdlError("interface declares no program")
        if name is None:
            return programs[0]
        for program in programs:
            if program.name == name:
                return program
        raise IdlError(f"no program named {name!r}")

    def _select_version(self, number):
        versions = self.idl_program.versions
        if number is None:
            return versions[0]
        for version in versions:
            if version.number == number:
                return version
        raise IdlError(f"no version {number!r}")

    @property
    def prog_number(self):
        return self.idl_program.number

    @property
    def vers_number(self):
        return self.idl_version.number

    @property
    def procs(self):
        """Every procedure of the version, as its
        :class:`~repro.rpcgen.contract.ProcContract`."""
        return self._version.procs

    def find_proc(self, name):
        for proc in self.procs:
            if proc.name == name:
                return proc
        raise IdlError(f"no procedure named {name!r}")

    # -- the verification gate ---------------------------------------------

    def verify_enabled(self):
        """Whether residual codecs are verified before installing.

        ``REPRO_SPEC_VERIFY`` wins over the constructor knob (so an
        operator can force verification on — or kill it — without a
        code change); otherwise ``verify=None`` means on.
        """
        raw = os.environ.get("REPRO_SPEC_VERIFY", "").strip().lower()
        if raw:
            return raw not in ("0", "no", "off", "false")
        return True if self.verify is None else bool(self.verify)

    def _gate(self, kind, what, findings_of):
        """The install gate of a build, for the cache's ``check=``, or
        None when verification is off: ``findings_of(verify, built)``
        runs :mod:`repro.analysis.verify` on it; the verdict is counted
        and any finding refuses the build."""
        if not self.verify_enabled():
            return None

        def check(built):
            from repro.analysis import verify

            findings = findings_of(verify, built)
            if _obs.enabled:
                if findings:
                    _obs.registry.counter(
                        "rpc.spec.verify.fail", kind=kind,
                        reason=findings[0].rule).inc()
                else:
                    _obs.registry.counter(
                        "rpc.spec.verify.pass", kind=kind).inc()
            verify.ensure_verified(findings, what)
        return check

    def _invariants(self, kind, proc_name, arg_lens, res_lens, bufsize):
        """``(procedure, arg_lens, res_lens, cache key)`` of one
        request to specialize: the lengths validated, a procedure
        outside the stub subset refused with the recorded reason."""
        proc = self.find_proc(proc_name)
        if proc.refusal is not None:
            raise IdlError(proc.refusal)
        arg_lens = proc.arg.assumed(arg_lens)
        res_lens = proc.ret.assumed(res_lens)
        return proc, arg_lens, res_lens, content_key(
            kind=kind,
            fingerprint=self._fingerprint,
            proc=proc_name,
            arg_lens=sorted(arg_lens.items()),
            res_lens=sorted(res_lens.items()),
            bufsize=bufsize,
        )

    def _specialize(self, sig, proc, arg_lens, res_lens, bufsize, **lengths):
        result = specialize(
            self.program_ast,
            sig.name,
            assumptions(sig, proc, self.prog_number, self.vers_number,
                        arg_lens, res_lens, bufsize, **lengths),
            options=self.options,
            typeinfo=self.typeinfo,
        )
        # what serves keeps only the types its code names
        result.program = prune_unused_structs(result.program)
        return result

    # -- client ------------------------------------------------------------

    def specialize_client(self, proc_name, arg_lens=None, res_lens=None,
                          bufsize=8800):
        """Specialize the marshal and receive paths of one procedure.

        ``arg_lens``/``res_lens`` map bounded-array field names to the
        assumed element counts (the invariants of the workload).

        Results are memoized: a repeat call with identical invariants
        is served from the in-memory cache in O(1), and — when a disk
        tier is configured — a fresh process revives the residual
        programs from disk instead of re-running Tempo."""
        proc, arg_lens, res_lens, key = self._invariants(
            "client", proc_name, arg_lens, res_lens, bufsize)

        def built(marshal_result, recv_result):
            return ClientSpecialization(
                self, proc, proc.arg, proc.ret, arg_lens, res_lens, bufsize,
                marshal_result, recv_result)

        return self.cache.get(
            key,
            build=lambda: built(
                self._specialize(proc.marshal, proc, arg_lens, res_lens,
                                 bufsize),
                self._specialize(proc.recv, proc, arg_lens, res_lens, bufsize,
                                 inlen=Known(proc.reply_size(res_lens)))),
            dump=lambda spec: (
                ResidualCodec.from_result(spec.marshal_result),
                ResidualCodec.from_result(spec.recv_result),
            ),
            load=lambda payload: built(*payload),
            check=self._gate(
                "client", f"client codec {proc.name}",
                lambda verify, spec: verify.verify_client_spec(self, spec)),
        )

    # -- server -------------------------------------------------------------

    def compile_server(self, result, proc, arg_lens, res_lens):
        """The compiled form of a residual dispatcher: ``result``'s
        program with its arrays narrowed to the assumed lengths, its
        entry function compiled as the fused entry.  The one recipe —
        for a build, a disk revival and a verifier handed only the
        residual."""
        # one array per struct field: where the argument and the result
        # share a type, the longer of the two assumed lengths
        capacities = {proc.arg.name: arg_lens, proc.ret.name: res_lens}
        if proc.arg is proc.ret:
            capacities[proc.arg.name] = {
                field: max(length, res_lens[field])
                for field, length in arg_lens.items()}
        request, reply = proc.request_size(arg_lens), proc.reply_size(res_lens)
        return compile_program(
            narrow_arrays(result.program, capacities),
            fused=sr.dispatch_entry(self._version.process, result, request,
                                    reply))

    def specialize_server(self, hot_proc, arg_lens=None, res_lens=None,
                          bufsize=8800, fallback=None):
        """Specialize the server dispatch path for the expected workload
        (``hot_proc`` with the given array lengths) and pin it into the
        optional ``fallback`` registry's residual route; other requests
        are answered by that registry's generic body."""
        if self.impl_sources is None:
            raise IdlError(
                "server specialization needs MiniC impl_sources for the"
                " procedure bodies"
            )
        proc, arg_lens, res_lens, key = self._invariants(
            "server", hot_proc, arg_lens, res_lens, bufsize)
        expected_request = proc.request_size(arg_lens)

        def compiled(result):
            # compiled once: the module the gate passes is the one
            # that serves
            return result, self.compile_server(result, proc, arg_lens,
                                               res_lens)

        # The residual program and its compiled module are cached; the
        # wrapper is rebuilt per call because it pins into the live
        # ``fallback`` registry.
        handle_result, module = self.cache.get(
            key,
            # ``svc_process`` with the request size known: the residual
            # is the expected branch of the paper's ``inlen ==
            # expected_inlen`` rewrite alone — the other branch belongs
            # to the generic body, which the fused entry's size guard
            # leaves every other size to
            build=lambda: compiled(self._specialize(
                self._version.process, proc, arg_lens, res_lens, bufsize,
                inlen=Known(expected_request))),
            dump=lambda built: ResidualCodec.from_result(built[0]),
            load=compiled,
            check=self._gate(
                "server", f"server dispatcher for {proc.name}",
                lambda verify, built: verify.verify_server_residual(
                    self, built[0], proc, arg_lens, res_lens, bufsize,
                    module=built[1])),
        )
        return ServerSpecialization(
            self, handle_result, bufsize, proc, expected_request, module,
            fallback=fallback)
