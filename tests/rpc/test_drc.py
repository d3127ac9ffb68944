"""Duplicate-request reply cache tests: the LRU itself and its wiring
into the dispatcher (generic, fastpath, and specialized paths)."""

import pytest

from repro.rpc import DuplicateRequestCache, SvcRegistry
from repro.rpc.client import RpcClient
from repro.xdr import xdr_array, xdr_int

PROG, VERS = 0x20004444, 1
CALLER = ("10.0.0.1", 40000)
OTHER_CALLER = ("10.0.0.2", 40000)


def xdr_iarr(xdrs, value):
    return xdr_array(xdrs, value, 512, xdr_int)


def make_registry(fastpath=False, drc=True):
    registry = SvcRegistry(fastpath=fastpath, drc=drc)
    calls = []
    registry.register(
        PROG, VERS, 1,
        lambda a: calls.append(a) or sum(a), xdr_iarr, xdr_int,
    )
    registry.calls_log = calls
    return registry


def build(xid, values, proc=1):
    return RpcClient(PROG, VERS).build_call(xid, proc, values, xdr_iarr)


class TestCacheUnit:
    def test_put_get_roundtrip(self):
        cache = DuplicateRequestCache(capacity=4)
        key = cache.key(7, CALLER, PROG, VERS, 1)
        assert cache.get(key) is None
        cache.put(key, b"reply-bytes")
        assert cache.get(key) == b"reply-bytes"
        assert cache.summary() == {
            "capacity": 4, "entries": 1, "hits": 1, "misses": 1,
            "stores": 1, "evictions": 0, "in_progress_drops": 0,
            "absorbed": 0,
        }

    def test_lru_eviction_order(self):
        cache = DuplicateRequestCache(capacity=2)
        keys = [cache.key(x, CALLER, PROG, VERS, 1) for x in range(3)]
        cache.put(keys[0], b"a")
        cache.put(keys[1], b"b")
        assert cache.get(keys[0]) == b"a"  # refresh 0 -> 1 is oldest
        cache.put(keys[2], b"c")
        assert cache.get(keys[1]) is None  # evicted
        assert cache.get(keys[0]) == b"a"
        assert cache.get(keys[2]) == b"c"
        assert cache.evictions == 1

    def test_distinct_key_components(self):
        cache = DuplicateRequestCache()
        base = cache.key(1, CALLER, PROG, VERS, 1)
        cache.put(base, b"x")
        assert cache.get(cache.key(2, CALLER, PROG, VERS, 1)) is None
        assert cache.get(cache.key(1, OTHER_CALLER, PROG, VERS, 1)) is None
        assert cache.get(cache.key(1, CALLER, PROG + 1, VERS, 1)) is None
        assert cache.get(cache.key(1, CALLER, PROG, VERS + 1, 1)) is None
        assert cache.get(cache.key(1, CALLER, PROG, VERS, 2)) is None

    def test_put_copies_mutable_reply(self):
        cache = DuplicateRequestCache()
        key = cache.key(1, CALLER, PROG, VERS, 1)
        buffer = bytearray(b"pooled-reply")
        cache.put(key, buffer)
        buffer[:] = b"overwritten!"  # the pool reused the buffer
        assert cache.get(key) == b"pooled-reply"
        assert isinstance(cache.get(key), bytes)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DuplicateRequestCache(capacity=0)


class TestDispatchIntegration:
    def test_duplicate_replayed_without_reexecution(self):
        registry = make_registry()
        request = build(xid=5, values=[1, 2, 3])
        first = registry.dispatch_bytes(request, caller=CALLER)
        again = registry.dispatch_bytes(request, caller=CALLER)
        assert again == first
        assert registry.handlers_invoked == 1
        assert len(registry.calls_log) == 1
        assert registry.drc.hits == 1

    def test_different_caller_reexecutes(self):
        registry = make_registry()
        request = build(xid=5, values=[1, 2, 3])
        first = registry.dispatch_bytes(request, caller=CALLER)
        other = registry.dispatch_bytes(request, caller=OTHER_CALLER)
        assert other == first  # same bytes, separately computed
        assert registry.handlers_invoked == 2
        assert registry.drc.hits == 0

    def test_no_caller_bypasses_cache(self):
        registry = make_registry()
        request = build(xid=5, values=[1, 2])
        registry.dispatch_bytes(request)
        registry.dispatch_bytes(request)
        assert registry.handlers_invoked == 2
        assert registry.drc.summary()["stores"] == 0

    def test_drc_disabled_reexecutes(self):
        registry = make_registry(drc=False)
        request = build(xid=5, values=[1, 2])
        registry.dispatch_bytes(request, caller=CALLER)
        registry.dispatch_bytes(request, caller=CALLER)
        assert registry.drc is None
        assert registry.handlers_invoked == 2

    def test_error_paths_not_cached(self):
        """Requests that never reach a handler (unknown prog/proc,
        garbage args) are recomputed, not cached."""
        registry = make_registry()
        unknown_prog = RpcClient(PROG + 9, VERS).build_call(3, 1, [1],
                                                            xdr_iarr)
        registry.dispatch_bytes(unknown_prog, caller=CALLER)
        registry.dispatch_bytes(unknown_prog, caller=CALLER)
        assert registry.drc.summary()["stores"] == 0

    def test_handler_exception_reply_cached(self):
        """SYSTEM_ERR replies for crashed handlers are cached too: the
        handler ran once; a retransmission must not run it again."""
        registry = SvcRegistry(drc=True)
        attempts = []
        registry.register(
            PROG, VERS, 1,
            lambda a: attempts.append(a) or 1 // 0, xdr_iarr, xdr_int,
        )
        request = build(xid=9, values=[1])
        first = registry.dispatch_bytes(request, caller=CALLER)
        again = registry.dispatch_bytes(request, caller=CALLER)
        assert again == first
        assert len(attempts) == 1

    def test_fastpath_pool_reuse_cannot_corrupt_cache(self):
        """The cached reply must be a copy: later dispatches that reuse
        the pooled reply buffer must not mutate previously cached
        bytes."""
        registry = make_registry(fastpath=True)
        first_request = build(xid=1, values=[10, 20])
        other_request = build(xid=2, values=[999, 999, 999])
        first = registry.dispatch_bytes(first_request, caller=CALLER)
        # Hammer the pooled buffer with different contents.
        for _ in range(8):
            registry.dispatch_bytes(other_request, caller=OTHER_CALLER)
        replay = registry.dispatch_bytes(first_request, caller=CALLER)
        assert replay == first
        assert registry.drc.hits >= 1

    def test_fastpath_and_generic_replays_byte_equal(self):
        generic = make_registry(fastpath=False)
        fast = make_registry(fastpath=True)
        request = build(xid=4, values=[5, 6, 7])
        assert (generic.dispatch_bytes(request, caller=CALLER)
                == fast.dispatch_bytes(request, caller=CALLER))
        assert (generic.dispatch_bytes(request, caller=CALLER)
                == fast.dispatch_bytes(request, caller=CALLER))
        assert generic.drc.hits == fast.drc.hits == 1

    def test_lru_bound_holds_under_load(self):
        registry = SvcRegistry()
        registry.enable_drc(capacity=16)
        registry.register(PROG, VERS, 1, sum, xdr_iarr, xdr_int)
        for xid in range(100):
            registry.dispatch_bytes(build(xid, [xid]), caller=CALLER)
        assert len(registry.drc) == 16
        summary = registry.drc.summary()
        assert summary["evictions"] == 84
        assert summary["stores"] == 100


class TestSpecializedDispatchIntegration:
    IDL = """
    const MAXN = 64;
    struct intarr { int vals<MAXN>; };
    program DRC_PROG {
        version DRC_VERS { intarr SENDRECV(intarr) = 1; } = 1;
    } = 0x20005556;
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

    def test_residual_dispatcher_uses_fallback_drc(self):
        """The compiled specialized server consults (and fills) the
        fallback registry's DRC, so duplicates skip the residual
        dispatcher too — the execution count stays put on a replay."""
        from repro.specialized import SpecializationPipeline

        n = 8
        pipeline = SpecializationPipeline(self.IDL,
                                          impl_sources=[self.IMPL])
        fallback = SvcRegistry(drc=True)
        spec = pipeline.specialize_server(
            "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n},
            fallback=fallback,
        )
        client_spec = pipeline.specialize_client(
            "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n}
        )
        request = client_spec.build_request(77, {"vals": list(range(n))})
        first = spec.dispatch_bytes(request, caller=CALLER)
        assert fallback.handlers_invoked == 1
        again = spec.dispatch_bytes(request, caller=CALLER)
        assert again == first
        assert fallback.handlers_invoked == 1  # replayed, not re-executed
        assert fallback.drc.hits == 1
        matched, result = client_spec.parse_reply(again, 77)
        assert matched
        assert result.vals == [v + 1 for v in range(n)]
