"""Thrash-freedom of the online policy, as properties.

The coverage rule of :mod:`repro.specialized.online` must keep what
works (a table answering ``stable_fraction`` of its guarded calls is
never touched), chase what shifted (a missed size holding more than the
rest earns a variant) and stay bounded (``max_sizes`` variants, one
build per ``window`` guarded calls) whatever the size sequence does.
Every test drives client codec and server route in one process through
``poll_once()`` with an injected clock: no sleeps, no threads.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.rpc import SvcRegistry
from repro.rpc.client import RpcClient
from repro.specialized import (
    OnlinePolicy,
    OnlineSpecializer,
    SpecializationPipeline,
)

IDL = """
const MAXN = 128;

struct intarr {
    int vals<MAXN>;
};

program POL_PROG {
    version POL_VERS {
        intarr SENDRECV(intarr) = 1;
    } = 1;
} = 0x20008888;
"""

IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""

PROG, VERS, PROC = 0x20008888, 1, 1
#: the mix the ledger's ``size_shift`` workload sends, re-stated: two
#: hot lengths and a uniform tail over every length the IDL allows
HOT, SHIFTED, TAIL_MAX, TAIL_SHARE = 64, 16, 128, 0.05
PHASE = 1000


@pytest.fixture(scope="module")
def pipeline():
    return SpecializationPipeline(IDL, impl_sources=[IMPL])


class Loop:
    """Client codec -> registry -> client codec, both ends under one
    specializer; with ``shadow`` every request and reply is compared
    with a generic client's and a generic registry's bytes."""

    def __init__(self, pipeline, policy=None, shadow=False):
        self.stubs = stubs = pipeline.stubs
        self.now = 0.0
        self.registry = self._registry()
        self.shadow = self._registry() if shadow else None
        self.spec = OnlineSpecializer(pipeline, policy=policy,
                                      clock=lambda: self.now, enabled=True)
        self.spec.attach_server(self.registry)
        self.client = RpcClient(PROG, VERS)
        self.codec = self.spec.attach_client(self.client, "SENDRECV")
        self.oracle = RpcClient(PROG, VERS)
        self.calls = 0
        self._xdr = stubs.xdr_intarr

    def _registry(self):
        stubs = self.stubs
        registry = SvcRegistry()

        class Impl:
            def SENDRECV(self, args):
                return stubs.intarr(vals=[v + 1 for v in args.vals])

        stubs.register_POL_PROG_1(registry, Impl())
        return registry

    def call(self, n):
        self.calls += 1
        xid = self.calls
        args = self.stubs.intarr(vals=list(range(n)))
        data = bytes(self.client.build_call(xid, PROC, args, self._xdr))
        reply = self.registry.dispatch_bytes(data)
        if self.shadow is not None:
            assert data == bytes(
                self.oracle.build_call(xid, PROC, args, self._xdr))
            assert bytes(reply) == bytes(self.shadow.dispatch_bytes(data))
        matched, value = self.client.parse_reply(reply, xid, PROC,
                                                 self._xdr)
        assert matched and value.vals == [v + 1 for v in range(n)]

    def route(self):
        entry = self.registry.route_for(PROG, VERS, PROC)
        return entry.body if entry is not None else None

    def tables(self):
        """``{side: explain() entry}`` (the server's appears once its
        procedure has been profiled)."""
        return {entry["side"]: entry for entry in self.spec.explain()}

    def guarded(self):
        """(hits, violations) summed over both tables."""
        tables = self.tables().values()
        return (sum(t["hits"] for t in tables),
                sum(t["violations"] for t in tables))


def hit_share(loop, before):
    hits, violations = (now - then for now, then
                        in zip(loop.guarded(), before))
    return hits / (hits + violations)


def tail_mix(rng, hot):
    """One call's length: ``hot`` with a TAIL_SHARE uniform tail."""
    if rng.random() < TAIL_SHARE:
        return rng.randint(1, TAIL_MAX)
    return hot


# -- (a) adversarial sequences ---------------------------------------------

#: small lengths (fast builds), a policy that reviews often
ALPHABET = (2, 3, 5, 7, 11, 13)
FAST = dict(min_calls=16, window=16, violation_threshold=4, max_sizes=2,
            stable_fraction=0.9, cooldown_s=0.0)

#: lengths none of which can hold 10% of a window when cycled through
SPREAD = tuple(range(20, 44))

#: runs of ``length`` calls cycling through a pattern: two hot lengths
#: (one, when equal) or the spread
RUNS = st.lists(
    st.tuples(
        st.one_of(st.tuples(st.sampled_from(ALPHABET),
                            st.sampled_from(ALPHABET)),
                  st.just(SPREAD)),
        st.integers(1, 24)),
    min_size=1, max_size=16)


def assert_evictions_justified(decisions, resident, policy):
    """Every eviction of one poll follows from the rule, given the
    variants ``resident`` per side before it."""
    for index, decision in enumerate(decisions):
        if decision.action != "evict":
            continue
        counts = dict(decision.sizes)
        bar = (1.0 - policy.stable_fraction) * decision.calls
        assert decision.hit_share < policy.stable_fraction
        assert decision.size in resident[decision.side]
        later = decisions[index + 1:]
        newcomer = next((d for d in later if d.side == decision.side
                         and d.action == "widen"), None)
        if newcomer is not None:
            # displaced: the table was full and the newcomer missed
            # more often than the victim hit
            assert len(resident[decision.side]) == policy.max_sizes
            assert counts[newcomer.size] > bar
            assert counts[decision.size] < counts[newcomer.size]
            assert counts[decision.size] == min(
                counts[size] for size in resident[decision.side])
        else:
            # idle: under the bar itself, and nothing missed is over it
            assert counts[decision.size] <= bar
            assert all(count <= bar for size, count in counts.items()
                       if size not in resident[decision.side])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(RUNS)
def test_adversarial_sequences_stay_bounded_and_justified(pipeline, runs):
    policy = OnlinePolicy(**FAST)
    loop = Loop(pipeline, policy, shadow=True)
    spec = loop.spec
    for pattern, length in runs:
        for n in itertools.islice(itertools.cycle(pattern), length):
            loop.call(n)
            resident = {side: set(table["variants"])
                        for side, table in loop.tables().items()}
            spec.decisions.clear()
            spec.poll_once()
            assert_evictions_justified(list(spec.decisions), resident,
                                       policy)
            for table in loop.tables().values():
                assert len(table["variants"]) <= policy.max_sizes
            # each side builds at most once per window of its calls
            assert spec.builds * policy.window <= 2 * loop.calls
    assert spec.skips == 0


# -- (b) a stationary mix ----------------------------------------------------

def test_stationary_tail_never_demotes(pipeline):
    loop = Loop(pipeline)   # the default policy
    rng = random.Random(1405)
    settled = None
    for index in range(20_000):
        loop.call(tail_mix(rng, HOT))
        if index % 50 == 49:
            loop.spec.poll_once()
            if settled is None and loop.spec.promotions == 2:
                settled = loop.guarded()
    spec = loop.spec
    assert (spec.promotions, spec.builds) == (2, 2)   # one per side
    assert (spec.respecializations, spec.evictions, spec.demotions,
            spec.skips) == (0, 0, 0, 0)
    assert hit_share(loop, settled) >= 0.9
    assert loop.route().sizes == [len(loop.client.build_call(
        0, PROC, loop.stubs.intarr(vals=[0] * HOT), loop.stubs.xdr_intarr))]
    assert loop.codec.lens == [HOT]


# -- (c) the shifting cycle --------------------------------------------------

def cycle_lengths(rng):
    """One 2:1:1 cycle: HOT for two phases, SHIFTED for one, the two
    alternating for one, each call with the uniform tail."""
    for index in range(4 * PHASE):
        phase = index // PHASE
        hot = (HOT, HOT, SHIFTED, (HOT, SHIFTED)[index % 2])[phase]
        yield tail_mix(rng, hot)


def test_shifting_cycle_converges_and_stays(pipeline):
    loop = Loop(pipeline)   # the default policy
    rng = random.Random(2026)
    spec = loop.spec

    def run_cycle():
        for index, n in enumerate(cycle_lengths(rng)):
            loop.call(n)
            if index % 50 == 49:
                spec.poll_once()

    run_cycle()
    assert loop.codec.lens == [SHIFTED, HOT]
    assert len(loop.route().sizes) == 2
    assert (spec.promotions, spec.respecializations) == (2, 2)
    before = loop.guarded()
    run_cycle()
    assert hit_share(loop, before) >= 0.9
    assert (spec.promotions, spec.respecializations, spec.builds) == (
        2, 2, 4)
    assert (spec.evictions, spec.demotions, spec.skips) == (0, 0, 0)
    actions = [decision.action for decision in spec.decisions]
    assert sorted(actions) == ["promote", "promote", "widen", "widen"]


# -- (d) spread traffic, and the ledger's contract ---------------------------

def test_all_spread_distribution_ends_generic(pipeline):
    loop = Loop(pipeline)   # the default policy
    rng = random.Random(7)
    spec = loop.spec
    # from cold: no length ever holds 10% of the window
    for index in range(1500):
        loop.call(rng.randint(1, TAIL_MAX))
        if index % 50 == 49:
            spec.poll_once()
    assert spec.builds == 0 and loop.route() is None
    # from specialized: the traffic settles on one length, then spreads
    for _ in range(spec.policy.min_calls):
        loop.call(HOT)
    spec.poll_once()
    assert loop.route() is not None and loop.codec.lens == [HOT]
    for index in range(1500):
        loop.call(rng.randint(1, TAIL_MAX))
        if index % 50 == 49:
            spec.poll_once()
    assert loop.route() is None and loop.codec.lens == []
    assert (spec.promotions, spec.evictions, spec.demotions) == (2, 2, 2)
    assert spec.builds == 2


def test_min_calls_then_one_poll_installs_the_route(pipeline):
    # what benchmarks/ledger/layers.py does to get its online registry
    loop = Loop(pipeline)
    for _ in range(loop.spec.policy.min_calls):
        loop.call(HOT)
    assert loop.route() is None
    loop.spec.poll_once()
    assert loop.route() is not None
    table = loop.tables()["server"]
    assert table["last_decision"].action == "promote"
    assert list(table["variants"].values()) == [0]
