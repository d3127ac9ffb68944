"""Specialization cache: hit/miss accounting, the >=10x repeat-call
speedup, the on-disk tier, and content-keyed invalidation."""

import time

import pytest

from repro.specialized import SpecializationCache, SpecializationPipeline
from repro.specialized.cache import content_key
from repro.tempo.specializer import Options

IDL = """
const MAXN = 64;

struct smallarr {
    int vals<MAXN>;
};

program CACHE_PROG {
    version CACHE_VERS {
        smallarr BOUNCE(smallarr) = 1;
    } = 1;
} = 0x20009999;
"""

IMPL = """
void bounce_impl(struct smallarr *args, struct smallarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i];
}
"""

LENS = {"vals": 4}


def make_pipeline(cache_dir=None, idl=IDL):
    return SpecializationPipeline(idl, impl_sources=[IMPL],
                                  cache_dir=cache_dir)


class TestContentKey:
    def test_stable_and_order_insensitive(self):
        assert content_key(a=1, b="x") == content_key(b="x", a=1)

    def test_sensitive_to_values(self):
        assert content_key(a=1) != content_key(a=2)
        assert content_key(a=1) != content_key(b=1)


class TestOptionsInTheKey:
    """The key folds the specializer options in by ``repr``: it must
    say what the options are, not where the object lives."""

    def test_equal_options_share_a_key_across_objects(self):
        # the default repr carries an address: never equal in a second
        # process, so nothing built with explicit options ever revived
        assert Options(max_unroll=3) == Options(max_unroll=3)
        assert repr(Options(max_unroll=3)) == repr(Options(max_unroll=3))
        assert "0x" not in repr(Options())
        first = SpecializationPipeline(IDL, options=Options(max_unroll=3))
        second = SpecializationPipeline(IDL, options=Options(max_unroll=3))
        assert first._fingerprint == second._fingerprint

    def test_different_options_never_share_a_key(self):
        # ... and is reused: two short-lived option objects built one
        # after the other used to hash to the same key
        keys = {
            SpecializationPipeline(IDL, options=options)._fingerprint
            for options in (Options(max_unroll=3), Options(max_unroll=5),
                            Options(), Options(roll=True))
        }
        assert len(keys) == 4

    def test_the_default_is_keyed_as_the_options_it_stands_for(self):
        assert (SpecializationPipeline(IDL)._fingerprint
                == SpecializationPipeline(
                    IDL, options=Options(roll=True))._fingerprint)

    def test_explicit_options_revive_from_disk(self, tmp_path):
        def build():
            pipeline = SpecializationPipeline(
                IDL, impl_sources=[IMPL], cache_dir=str(tmp_path),
                options=Options(roll=True, max_unroll=3))
            pipeline.specialize_client("BOUNCE", arg_lens=LENS,
                                       res_lens=LENS)
            return pipeline.cache

        assert build().disk_hits == 0
        assert build().disk_hits == 1


class TestMemoryTier:
    def test_repeat_client_specialization_is_cached(self):
        pipeline = make_pipeline()
        first = pipeline.specialize_client("BOUNCE", arg_lens=LENS,
                                           res_lens=LENS)
        second = pipeline.specialize_client("BOUNCE", arg_lens=LENS,
                                            res_lens=LENS)
        assert first is second
        assert pipeline.cache.hits == 1
        assert pipeline.cache.misses == 1

    def test_second_call_at_least_10x_faster(self):
        pipeline = make_pipeline()
        started = time.perf_counter()
        pipeline.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        cold = time.perf_counter() - started
        started = time.perf_counter()
        pipeline.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        warm = time.perf_counter() - started
        assert cold >= 10 * warm, (cold, warm)

    def test_different_invariants_are_different_entries(self):
        pipeline = make_pipeline()
        a = pipeline.specialize_client("BOUNCE", arg_lens={"vals": 2},
                                       res_lens={"vals": 2})
        b = pipeline.specialize_client("BOUNCE", arg_lens={"vals": 3},
                                       res_lens={"vals": 3})
        assert a is not b
        assert pipeline.cache.misses == 2

    def test_server_residual_is_cached(self):
        pipeline = make_pipeline()
        first = pipeline.specialize_server("BOUNCE", arg_lens=LENS,
                                           res_lens=LENS)
        second = pipeline.specialize_server("BOUNCE", arg_lens=LENS,
                                            res_lens=LENS)
        # Wrappers are fresh (they carry per-instance counters) but the
        # residual program behind them came from the cache.
        assert first is not second
        assert pipeline.cache.hits == 1
        request = make_pipeline().specialize_client(
            "BOUNCE", arg_lens=LENS, res_lens=LENS
        ).build_request(7, {"vals": [1, 2, 3, 4]})
        assert first.residual_reply(request) == second.residual_reply(
            request
        )

    def test_lru_eviction(self):
        cache = SpecializationCache(capacity=2)
        cache.get("a", build=lambda: 1)
        cache.get("b", build=lambda: 2)
        cache.get("c", build=lambda: 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache


class TestDiskTier:
    def test_roundtrip_through_disk(self, tmp_path):
        cache_dir = str(tmp_path)
        first = make_pipeline(cache_dir).specialize_client(
            "BOUNCE", arg_lens=LENS, res_lens=LENS
        )
        revived_pipeline = make_pipeline(cache_dir)
        revived = revived_pipeline.specialize_client(
            "BOUNCE", arg_lens=LENS, res_lens=LENS
        )
        assert revived_pipeline.cache.disk_hits == 1
        assert revived_pipeline.cache.misses == 0
        args = {"vals": [9, 8, 7, 6]}
        assert revived.build_request(5, args) == first.build_request(5, args)
        value = revived.decode_reply(
            make_pipeline(cache_dir).specialize_server(
                "BOUNCE", arg_lens=LENS, res_lens=LENS
            ).residual_reply(first.build_request(5, args)),
            5,
        )
        assert value.vals == [9, 8, 7, 6]

    def test_server_roundtrip_through_disk(self, tmp_path):
        cache_dir = str(tmp_path)
        make_pipeline(cache_dir).specialize_server(
            "BOUNCE", arg_lens=LENS, res_lens=LENS
        )
        revived_pipeline = make_pipeline(cache_dir)
        server = revived_pipeline.specialize_server(
            "BOUNCE", arg_lens=LENS, res_lens=LENS
        )
        assert revived_pipeline.cache.disk_hits == 1
        client = revived_pipeline.specialize_client(
            "BOUNCE", arg_lens=LENS, res_lens=LENS
        )
        request = client.build_request(3, {"vals": [1, 2, 3, 4]})
        value = client.decode_reply(server.residual_reply(request), 3)
        assert value.vals == [1, 2, 3, 4]

    def test_idl_change_invalidates(self, tmp_path):
        cache_dir = str(tmp_path)
        make_pipeline(cache_dir).specialize_client(
            "BOUNCE", arg_lens=LENS, res_lens=LENS
        )
        edited = IDL.replace("MAXN = 64", "MAXN = 65")
        pipeline = make_pipeline(cache_dir, idl=edited)
        pipeline.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        assert pipeline.cache.disk_hits == 0
        assert pipeline.cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path)
        pipeline = make_pipeline(cache_dir)
        pipeline.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        for path in tmp_path.iterdir():
            path.write_bytes(b"not a pickle")
        fresh = make_pipeline(cache_dir)
        fresh.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        assert fresh.cache.disk_hits == 0
        assert fresh.cache.misses == 1

    def test_memory_only_cache_writes_nothing(self, tmp_path):
        pipeline = make_pipeline(cache_dir=None)
        pipeline.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        assert list(tmp_path.iterdir()) == []


class TestFormatStamp:
    """Entries carry a schema stamp; any disagreement is a miss."""

    def test_entries_are_stamped_with_the_format(self, tmp_path):
        import pickle

        from repro.specialized.cache import CACHE_FORMAT

        pipeline = make_pipeline(str(tmp_path))
        pipeline.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        paths = list(tmp_path.iterdir())
        assert paths and all(f"-v{CACHE_FORMAT}-" in p.name
                             for p in paths)
        entry = pickle.loads(paths[0].read_bytes())
        assert entry["format"] == CACHE_FORMAT
        assert "payload" in entry

    def test_mismatched_stamp_is_a_miss(self, tmp_path):
        import pickle

        pipeline = make_pipeline(str(tmp_path))
        pipeline.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        for path in tmp_path.iterdir():
            entry = pickle.loads(path.read_bytes())
            entry["format"] = 999  # a future (or corrupted) generation
            path.write_bytes(pickle.dumps(entry))
        fresh = make_pipeline(str(tmp_path))
        fresh.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        assert fresh.cache.disk_hits == 0
        assert fresh.cache.misses == 1

    def test_unstamped_payload_is_a_miss(self, tmp_path):
        """A pre-stamp raw payload under the current file name (e.g.
        copied across cache generations) must not be revived."""
        import pickle

        pipeline = make_pipeline(str(tmp_path))
        pipeline.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        for path in tmp_path.iterdir():
            entry = pickle.loads(path.read_bytes())
            path.write_bytes(pickle.dumps(entry["payload"]))
        fresh = make_pipeline(str(tmp_path))
        fresh.specialize_client("BOUNCE", arg_lens=LENS, res_lens=LENS)
        assert fresh.cache.disk_hits == 0
        assert fresh.cache.misses == 1
