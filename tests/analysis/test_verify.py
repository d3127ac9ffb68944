"""The equivalence verifier: clean accepts, guard/unroll findings, and
the install gate in the pipeline/cache."""

import copy

import pytest

from repro.analysis.verify import (ensure_verified, verify_client_spec,
                                   verify_server_residual)
from repro.errors import VerificationError
from repro.specialized import SpecializationPipeline
from repro.specialized.pipeline import ClientSpecialization

from tests.analysis.conftest import XFER_IDL, XFER_IMPL


def respec(pipeline, spec, marshal_result=None, recv_result=None):
    """A ClientSpecialization clone with substituted residual results."""
    return ClientSpecialization(
        pipeline, spec.proc, spec.arg_struct, spec.ret_struct,
        spec._arg_lens, spec._res_lens, spec.bufsize,
        marshal_result or spec.marshal_result,
        recv_result or spec.recv_result,
    )


class TestCleanAccept:
    def test_client_spec_verifies_clean(self, xfer_pipeline, xfer_client):
        assert verify_client_spec(xfer_pipeline, xfer_client) == []

    def test_two_field_result_verifies_clean(self, rmin_pipeline,
                                             rmin_client):
        assert verify_client_spec(rmin_pipeline, rmin_client) == []

    def test_server_residual_verifies_clean(self, xfer_pipeline,
                                            xfer_server):
        proc = xfer_pipeline.find_proc("SENDRECV")
        findings = verify_server_residual(
            xfer_pipeline, xfer_server.result, proc,
            {"vals": 8}, {"vals": 8}, xfer_server.bufsize)
        assert findings == []


class TestGuards:
    def test_widened_request_guard_rejected(self, xfer_pipeline,
                                            xfer_client):
        spec = respec(xfer_pipeline, xfer_client)
        spec.expected_request += 4
        rules = [f.rule for f in verify_client_spec(xfer_pipeline, spec)]
        assert rules == ["guard-domain"]

    def test_widened_reply_guard_rejected(self, xfer_pipeline, xfer_client):
        spec = respec(xfer_pipeline, xfer_client)
        spec.expected_reply += 4
        rules = [f.rule for f in verify_client_spec(xfer_pipeline, spec)]
        assert rules == ["guard-domain"]

    def test_a_request_larger_than_its_buffer_is_a_domain_reject(
            self, xfer_pipeline):
        # the generic marshal declines a request that does not fit
        # ``outsize``, and so does the residual: the finding is the
        # residual's declined domain, not a broken oracle
        spec = xfer_pipeline.specialize_client(
            "SENDRECV", arg_lens={"vals": 8}, res_lens={"vals": 8},
            bufsize=40)
        rules = [f.rule for f in verify_client_spec(xfer_pipeline, spec)]
        assert rules == ["residual-domain-reject"]

    def test_no_length_cap_a_thousand_elements_verify(self):
        # there is no unroll cap to conform to: the rolled residual at
        # n=1000 is the n=8 residual up to literals, and verifies clean
        pipeline = SpecializationPipeline(
            XFER_IDL.replace("MAXN = 64", "MAXN = 1000"),
            impl_sources=[XFER_IMPL], verify=False)
        lens = {"arg_lens": {"vals": 1000}, "res_lens": {"vals": 1000}}
        client = pipeline.specialize_client("SENDRECV", **lens)
        server = pipeline.specialize_server("SENDRECV", **lens)
        assert verify_client_spec(pipeline, client) == []
        assert verify_server_residual(
            pipeline, server.result, pipeline.find_proc("SENDRECV"),
            lens["arg_lens"], lens["res_lens"], server.bufsize,
            module=server._module) == []
        assert client.marshal_result.source_size() < 4096
        assert server.result.source_size() < 16384


class TestWrongLayout:
    """The templates and the declared sizes both come from the stub
    contract's layout; what checks them is the generic MiniC program
    run on the template.  So a wrong layout cannot verify a codec."""

    @pytest.fixture()
    def one_word_short(self, monkeypatch):
        from repro.rpcgen.contract import DataWord, StructShape

        real = StructShape.layout

        def layout(self, lens, prefix=""):
            words = real(self, lens, prefix)
            drop = next(index for index, word in enumerate(words)
                        if isinstance(word, DataWord))
            return words[:drop] + words[drop + 1:]

        monkeypatch.setattr(StructShape, "layout", layout)

    LENS = {"arg_lens": {"vals": 8}, "res_lens": {"vals": 8}}

    def _rules(self, pipeline, client, server):
        proc = pipeline.find_proc("SENDRECV")
        return ([f.rule for f in verify_client_spec(pipeline, client)],
                [f.rule for f in verify_server_residual(
                    pipeline, server.result, proc, {"vals": 8}, {"vals": 8},
                    server.bufsize, module=server._module)])

    def test_specs_built_on_the_right_layout(self, xfer_pipeline,
                                             xfer_client, xfer_server,
                                             one_word_short):
        client, server = self._rules(xfer_pipeline, xfer_client, xfer_server)
        assert client == ["guard-domain", "guard-domain"]  # both sizes
        assert server == ["verify-internal"]

    def test_specs_built_on_the_wrong_layout(self, one_word_short):
        # sizes, templates and glue all agree with each other — only
        # the generic program disagrees
        pipeline = SpecializationPipeline(XFER_IDL, impl_sources=[XFER_IMPL],
                                          verify=False)
        client, server = self._rules(
            pipeline, pipeline.specialize_client("SENDRECV", **self.LENS),
            pipeline.specialize_server("SENDRECV", **self.LENS))
        assert client and set(client) <= {"residual-divergence",
                                          "verify-internal"}
        assert server == ["verify-internal"]


class TestEnsureVerified:
    def test_raises_with_finding_summary(self, xfer_pipeline, xfer_client):
        spec = respec(xfer_pipeline, xfer_client)
        spec.expected_reply += 4
        findings = verify_client_spec(xfer_pipeline, spec)
        with pytest.raises(VerificationError) as excinfo:
            ensure_verified(findings, "sendrecv client")
        assert "guard-domain" in str(excinfo.value)

    def test_empty_findings_pass(self):
        ensure_verified([], "anything")


class TestPipelineGate:
    """The wire-up: unverified residual code must never install."""

    def test_verify_on_by_default(self):
        pipeline = SpecializationPipeline(XFER_IDL)
        assert pipeline.verify_enabled()

    def test_env_kill_switch(self, monkeypatch):
        pipeline = SpecializationPipeline(XFER_IDL)
        monkeypatch.setenv("REPRO_SPEC_VERIFY", "0")
        assert not pipeline.verify_enabled()
        monkeypatch.setenv("REPRO_SPEC_VERIFY", "on")
        assert pipeline.verify_enabled()

    def test_env_wins_over_code_knob(self, monkeypatch):
        pipeline = SpecializationPipeline(XFER_IDL, verify=False)
        assert not pipeline.verify_enabled()
        monkeypatch.setenv("REPRO_SPEC_VERIFY", "1")
        assert pipeline.verify_enabled()

    def test_gated_build_installs_verified_codecs(self):
        pipeline = SpecializationPipeline(XFER_IDL,
                                          impl_sources=[XFER_IMPL],
                                          verify=True)
        spec = pipeline.specialize_client("SENDRECV", {"vals": 4},
                                          {"vals": 4})
        assert spec is not None
        server = pipeline.specialize_server("SENDRECV", {"vals": 4},
                                            {"vals": 4})
        assert server is not None

    def test_verification_counters(self):
        from repro import obs

        pipeline = SpecializationPipeline(XFER_IDL, verify=True)
        prev = obs.enabled
        obs.registry.reset()
        obs.enabled = True
        try:
            pipeline.specialize_client("SENDRECV", {"vals": 3}, {"vals": 3})
        finally:
            obs.enabled = prev
        counters = obs.collect()["counters"]
        passes = sum(v for k, v in counters.items()
                     if k.startswith("rpc.spec.verify.pass"))
        fails = sum(v for k, v in counters.items()
                    if k.startswith("rpc.spec.verify.fail"))
        assert passes > 0
        assert fails == 0
