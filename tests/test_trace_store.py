"""Tests for repro.trace.store and the store-layered MissTraceCache."""

import dataclasses
import json

import numpy as np
import pytest

from repro.caches.cache import CacheConfig, MissEventKind, MissTrace
from repro.core.config import StreamConfig
from repro.core.prefetcher import StreamPrefetcher
from repro.sim.results import L1Summary
from repro.sim.runner import MissTraceCache, simulate_l1
from repro.trace.store import (
    TraceStore,
    result_digest,
    stats_from_dict,
    stats_to_dict,
    trace_digest,
)
from repro.workloads import get_workload


def make_miss_trace(n=64, with_pcs=False, with_writebacks=True):
    rng = np.random.default_rng(7)
    addrs = (rng.integers(0, 1 << 30, size=n) & ~np.int64(63)).astype(np.int64)
    kinds = np.full(n, int(MissEventKind.READ_MISS), dtype=np.uint8)
    if with_writebacks:
        kinds[::7] = int(MissEventKind.WRITEBACK)
    pcs = rng.integers(0, 1 << 20, size=n).astype(np.int64) if with_pcs else None
    return MissTrace(addrs, kinds, 6, pcs)


def make_summary():
    return L1Summary(
        accesses=1000,
        misses=64,
        writebacks=9,
        ifetch_misses=0,
        miss_rate=0.064,
        trace_length=1000,
        data_set_bytes=4096,
    )


class TestDigests:
    def test_stable_and_sensitive(self):
        l1 = CacheConfig.paper_l1()
        d = trace_digest("mgrid", 1.0, 0, l1)
        assert d == trace_digest("mgrid", 1.0, 0, l1)
        assert d != trace_digest("mgrid", 1.0, 1, l1)
        assert d != trace_digest("mgrid", 2.0, 0, l1)
        assert d != trace_digest("cgm", 1.0, 0, l1)
        assert d != trace_digest("mgrid", 1.0, 0, l1, keep_pcs=True)
        tiny = CacheConfig(capacity=4096, assoc=2, block_size=64)
        assert d != trace_digest("mgrid", 1.0, 0, tiny)

    def test_result_digest_depends_on_config(self):
        a = result_digest("t", StreamConfig.jouppi(n_streams=2))
        b = result_digest("t", StreamConfig.jouppi(n_streams=3))
        assert a != b
        assert a == result_digest("t", StreamConfig.jouppi(n_streams=2))


class TestTraceRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        mt, summary = make_miss_trace(), make_summary()
        store.put("trace", "abc", (mt, summary))
        loaded = store.get("trace", "abc")
        assert loaded is not None
        got_mt, got_summary = loaded
        assert np.array_equal(got_mt.addrs, mt.addrs)
        assert np.array_equal(got_mt.kinds, mt.kinds)
        assert got_mt.block_bits == mt.block_bits
        assert got_mt.pcs is None
        assert got_summary == summary

    def test_pcs_preserved(self, tmp_path):
        store = TraceStore(tmp_path)
        mt = make_miss_trace(with_pcs=True)
        store.put("trace", "abc", (mt, make_summary()))
        got_mt, _ = store.get("trace", "abc")
        assert np.array_equal(got_mt.pcs, mt.pcs)

    def test_missing_entry_is_none(self, tmp_path):
        assert TraceStore(tmp_path).get("trace", "nonesuch") is None

    def test_corrupted_file_is_none(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("trace", "abc", (make_miss_trace(), make_summary()))
        path = store.path("trace", "abc")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.get("trace", "abc") is None

    def test_garbage_file_is_none(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.path("trace", "abc")
        path.parent.mkdir(parents=True)
        path.write_text("not an npz archive")
        assert store.get("trace", "abc") is None

    def test_stale_version_is_none(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        store.put("trace", "abc", (make_miss_trace(), make_summary()))
        import repro.trace.store as store_mod

        monkeypatch.setattr(
            "repro.trace.store.STORE_FORMAT_VERSION", store_mod.STORE_FORMAT_VERSION + 1
        )
        assert store.get("trace", "abc") is None
        assert store.prune() == 1
        assert store.count("trace") == 0


class TestResultRoundTrip:
    def run_stats(self):
        return StreamPrefetcher(StreamConfig.filtered(n_streams=4)).run(
            make_miss_trace(n=256)
        )

    def test_stats_dict_round_trip(self):
        stats = self.run_stats()
        assert stats_from_dict(json.loads(json.dumps(stats_to_dict(stats)))) == stats

    def test_store_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        stats = self.run_stats()
        store.put("result", "r1", stats)
        assert store.get("result", "r1") == stats
        assert store.count("result") == 1

    def test_corrupted_result_is_none(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("result", "r1", self.run_stats())
        store.path("result", "r1").write_text("{ not json")
        assert store.get("result", "r1") is None

    def test_stale_result_version_is_none(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        store.put("result", "r1", self.run_stats())
        monkeypatch.setattr("repro.trace.store.RESULT_FORMAT_VERSION", 99)
        assert store.get("result", "r1") is None
        assert store.prune() == 1

    def test_clear(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("trace", "t", (make_miss_trace(), make_summary()))
        store.put("result", "r", self.run_stats())
        store.clear()
        assert store.count("trace") == 0
        assert store.count("result") == 0


class TestProfileRoundTrip:
    def make_profiles(self):
        from repro.analytic import profile_miss_trace

        return profile_miss_trace(make_miss_trace(n=256))

    def test_exact_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        profiles = self.make_profiles()
        store.put("profile", "abc", profiles)
        loaded = store.get("profile", "abc")
        assert loaded is not None
        assert set(loaded) == set(profiles)
        for bs, profile in profiles.items():
            got = loaded[bs]
            assert np.array_equal(got.read_hist, profile.read_hist)
            assert np.array_equal(got.write_hist, profile.write_hist)
            assert got.cold_reads == profile.cold_reads
            assert got.cold_writes == profile.cold_writes
            assert got.writebacks == profile.writebacks
            assert got.unique_blocks == profile.unique_blocks
        assert store.count("profile") == 1

    def test_missing_entry_is_none(self, tmp_path):
        assert TraceStore(tmp_path).get("profile", "nonesuch") is None

    def test_corrupted_file_is_none(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("profile", "abc", self.make_profiles())
        store.path("profile", "abc").write_text("not an npz archive")
        assert store.get("profile", "abc") is None

    def test_stale_version_is_none_and_pruned(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        store.put("profile", "abc", self.make_profiles())
        monkeypatch.setattr("repro.trace.store.PROFILE_FORMAT_VERSION", 99)
        assert store.get("profile", "abc") is None
        assert store.prune() == 1
        assert store.count("profile") == 0

    def test_clear_covers_profiles(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("profile", "abc", self.make_profiles())
        store.clear()
        assert store.count("profile") == 0

    def test_hook_events(self, tmp_path):
        events = []
        store = TraceStore(tmp_path, hooks=events.append)
        assert store.get("profile", "abc") is None
        store.put("profile", "abc", self.make_profiles())
        assert store.get("profile", "abc") is not None
        assert events == ["profile_miss", "profile_saved", "profile_hit"]

    def test_no_temp_debris(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("profile", "abc", self.make_profiles())
        assert not list((tmp_path / "profiles").glob("*.tmp"))


class TestStoreBackedCache:
    def test_second_process_equivalent_cache_hits_store(self, tmp_path):
        store = TraceStore(tmp_path)
        first = MissTraceCache(store=store)
        mt1, s1 = first.get("sweep", scale=0.25)
        assert store.count("trace") == 1
        # A fresh cache (a new process, conceptually) loads, not recomputes.
        second = MissTraceCache(store=store)
        mt2, s2 = second.get("sweep", scale=0.25)
        assert second.store_hits == 1
        assert np.array_equal(mt1.addrs, mt2.addrs)
        assert np.array_equal(mt1.kinds, mt2.kinds)
        assert s1 == s2

    def test_stored_trace_equals_direct_simulation(self, tmp_path):
        store = TraceStore(tmp_path)
        MissTraceCache(store=store).get("stride", scale=0.25)
        loaded_mt, loaded_summary = MissTraceCache(store=store).get("stride", scale=0.25)
        direct_mt, direct_summary = simulate_l1(get_workload("stride", scale=0.25))
        assert np.array_equal(loaded_mt.addrs, direct_mt.addrs)
        assert np.array_equal(loaded_mt.kinds, direct_mt.kinds)
        assert loaded_summary == direct_summary

    def test_corrupt_store_falls_back_to_recompute(self, tmp_path):
        store = TraceStore(tmp_path)
        warm = MissTraceCache(store=store)
        mt1, _ = warm.get("sweep", scale=0.25)
        digest = warm.trace_key("sweep", 0.25, 0)
        path = store.path("trace", digest)
        path.write_bytes(b"corrupt")
        cold = MissTraceCache(store=store)
        mt2, _ = cold.get("sweep", scale=0.25)
        assert cold.store_hits == 0
        assert np.array_equal(mt1.addrs, mt2.addrs)
        # The recompute healed the store entry.
        assert store.get("trace", digest) is not None


class TestConcurrentWriterHardening:
    def test_temp_files_invisible_to_lookups(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("trace", "abc", (make_miss_trace(), make_summary()))
        (store.path("trace", "zzz").parent / "zzz.npz.12345.tmp").write_bytes(b"partial")
        (tmp_path / "results").mkdir(exist_ok=True)
        (tmp_path / "results" / "rrr.json.99.tmp").write_text("{ torn")
        assert store.count("trace") == 1  # only the real archive counts
        assert store.count("result") == 0
        assert store.get("trace", "zzz") is None

    def test_clean_orphans_reaps_stale_temps(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("trace", "abc", (make_miss_trace(), make_summary()))
        stale = store.path("trace", "x").parent / "x.npz.1.tmp"
        stale.write_bytes(b"orphan")
        import os

        old = 1e9  # well past any TTL
        os.utime(stale, (old, old))
        fresh = store.path("trace", "y").parent / "y.npz.2.tmp"
        fresh.write_bytes(b"in progress")
        assert store.clean_orphans(60.0) == 1
        assert not stale.exists()
        assert fresh.exists()  # a live writer's temp survives
        assert store.get("trace", "abc") is not None

    def test_open_reaps_old_orphans(self, tmp_path):
        import os

        traces = tmp_path / "traces"
        traces.mkdir(parents=True)
        orphan = traces / "dead.npz.7.tmp"
        orphan.write_bytes(b"left by a crashed writer")
        os.utime(orphan, (1e9, 1e9))
        TraceStore(tmp_path)  # opening the store sweeps it out
        assert not orphan.exists()

    def test_losing_rename_race_is_benign(self, tmp_path, monkeypatch):
        import os

        store = TraceStore(tmp_path)
        stats = TestResultRoundTrip().run_stats()
        store.put("result", "r1", stats)  # the "winner" is already in place

        real_replace = os.replace

        def losing_replace(src, dst):
            # Windows-style loss: the target exists and the rename fails.
            if str(dst).endswith("r1.json"):
                raise FileExistsError(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", losing_replace)
        store.put("result", "r1", stats)  # must not raise: winner's bytes are ours
        assert store.get("result", "r1") == stats
        # No staging debris left behind either.
        assert not list((tmp_path / "results").glob("*.tmp"))

    def test_failed_rename_without_winner_raises(self, tmp_path, monkeypatch):
        import os

        store = TraceStore(tmp_path)
        stats = TestResultRoundTrip().run_stats()

        def broken_replace(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(PermissionError):
            store.put("result", "r2", stats)  # no winner: the failure is real
        assert not list((tmp_path / "results").glob("*.tmp"))

    def test_parallel_saves_same_digest(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        store = TraceStore(tmp_path)
        mt, summary = make_miss_trace(), make_summary()
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: store.put("trace", "same", (mt, summary)), range(16)))
        assert store.count("trace") == 1
        loaded = store.get("trace", "same")
        assert loaded is not None
        assert np.array_equal(loaded[0].addrs, mt.addrs)
        assert not list((tmp_path / "traces").glob("*.tmp"))


class TestStoreHooks:
    def test_events_fire_per_layer(self, tmp_path):
        events = []
        store = TraceStore(tmp_path, hooks=events.append)
        assert store.get("trace", "abc") is None
        store.put("trace", "abc", (make_miss_trace(), make_summary()))
        assert store.get("trace", "abc") is not None
        assert store.get("result", "r") is None
        store.put("result", "r", TestResultRoundTrip().run_stats())
        assert store.get("result", "r") is not None
        assert events == [
            "trace_miss", "trace_saved", "trace_hit",
            "result_miss", "result_saved", "result_hit",
        ]


class TestCacheLruBound:
    def test_eviction_keeps_recent_entries(self):
        cache = MissTraceCache(max_entries=2)
        cache.get("sweep", scale=0.125)
        cache.get("sweep", scale=0.25)
        cache.get("sweep", scale=0.5)  # evicts scale=0.125
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_get_refreshes_lru_position(self):
        cache = MissTraceCache(max_entries=2)
        a = cache.get("sweep", scale=0.125)
        cache.get("sweep", scale=0.25)
        assert cache.get("sweep", scale=0.125)[0] is a[0]  # touch: now MRU
        cache.get("sweep", scale=0.5)  # evicts scale=0.25, not 0.125
        assert cache.get("sweep", scale=0.125)[0] is a[0]
        assert cache.evictions == 1

    def test_unbounded_when_none(self):
        cache = MissTraceCache(max_entries=None)
        for scale in (0.125, 0.25, 0.5):
            cache.get("sweep", scale=scale)
        assert len(cache) == 3
        assert cache.evictions == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            MissTraceCache(max_entries=0)


class TestOrphanClockSteps:
    """`clean_orphans` ages temp files against the *filesystem* clock, so
    a wall-clock step cannot make a freshly-staged file look ancient."""

    def test_wall_clock_step_does_not_reap_fresh_temp(self, tmp_path, monkeypatch):
        import time

        store = TraceStore(tmp_path)
        fresh = store.path("trace", "w").parent / "w.npz.9.tmp"
        fresh.parent.mkdir(parents=True, exist_ok=True)
        fresh.write_bytes(b"in progress")
        real_time = time.time
        # a huge backward step: under time.time() aging, `fresh` would
        # look ~1e6 seconds old and be reaped out from under its writer
        monkeypatch.setattr(time, "time", lambda: real_time() - 1e6)
        assert store.clean_orphans(60.0) == 0
        assert fresh.exists()

    def test_genuinely_old_temp_still_reaped_under_step(self, tmp_path, monkeypatch):
        import os
        import time

        store = TraceStore(tmp_path)
        stale = store.path("trace", "x").parent / "x.npz.1.tmp"
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_bytes(b"orphan")
        os.utime(stale, (1e9, 1e9))
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 1e6)
        assert store.clean_orphans(60.0) == 1
        assert not stale.exists()


# -- one contract, every kind ---------------------------------------------------


def _stream_stats():
    return StreamPrefetcher(StreamConfig.filtered(n_streams=4)).run(make_miss_trace(n=256))


def _mech_stats():
    from repro.mechanisms import parse_mechanism_spec
    from repro.sim.vector import replay_secondary

    return replay_secondary(parse_mechanism_spec("victim:4"), make_miss_trace(n=256))


def _profiles():
    from repro.analytic import profile_miss_trace

    return profile_miss_trace(make_miss_trace(n=256))


def _spectrum():
    from repro.trace.spectrum import extract_spectrum

    return extract_spectrum(make_miss_trace(n=256))


#: case -> (store kind, value factory, format-version constant)
CASES = {
    "trace": (
        "trace", lambda: (make_miss_trace(with_pcs=True), make_summary()), "STORE_FORMAT_VERSION"
    ),
    "stream-result": ("result", _stream_stats, "RESULT_FORMAT_VERSION"),
    "mech-result": ("result", _mech_stats, "MECH_RESULT_FORMAT_VERSION"),
    "profile": ("profile", _profiles, "PROFILE_FORMAT_VERSION"),
    "spectrum": ("spectrum", _spectrum, "SPECTRUM_FORMAT_VERSION"),
}


def _same(a, b) -> bool:
    """Deep equality that also compares array dtypes."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.fixture(params=sorted(CASES))
def case(request):
    kind, make, version_name = CASES[request.param]
    return kind, make(), version_name


class TestStoreContract:
    """Every kind goes through the one put/get path, so every kind keeps
    the same promises."""

    def test_round_trip(self, tmp_path, case):
        kind, value, _ = case
        store = TraceStore(tmp_path)
        store.put(kind, "d1", value)
        assert _same(store.get(kind, "d1"), value)
        assert store.count(kind) == 1

    def test_missing_entry(self, tmp_path, case):
        kind, _, _ = case
        assert TraceStore(tmp_path).get(kind, "nonesuch") is None

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "empty"])
    def test_damaged_entry_misses_and_is_pruned(self, tmp_path, case, damage):
        kind, value, _ = case
        store = TraceStore(tmp_path)
        path = store.put(kind, "d1", value)
        data = path.read_bytes()
        path.write_bytes(
            {"garbage": b"not an entry", "truncated": data[: len(data) // 2], "empty": b""}[damage]
        )
        assert store.get(kind, "d1") is None
        assert store.prune() == 1
        assert store.count(kind) == 0

    def test_stale_version_misses_and_is_pruned(self, tmp_path, case, monkeypatch):
        kind, value, version_name = case
        store = TraceStore(tmp_path)
        store.put(kind, "d1", value)
        monkeypatch.setattr(f"repro.trace.store.{version_name}", 99)
        assert store.get(kind, "d1") is None
        assert store.prune() == 1
        assert store.count(kind) == 0

    def test_hook_events_in_order(self, tmp_path, case):
        kind, value, _ = case
        events = []
        store = TraceStore(tmp_path, hooks=events.append)
        assert store.get(kind, "d1") is None
        path = store.put(kind, "d1", value)
        assert store.get(kind, "d1") is not None
        assert events == [f"{kind}_miss", f"{kind}_saved", f"{kind}_hit"]
        size = path.stat().st_size
        assert [e.nbytes for e in events] == [0, size, size]
        assert all(e.digest == "d1" for e in events)

    def test_one_span_per_load_and_save(self, tmp_path, case):
        from repro.obs.spans import get_tracer, set_tracing

        kind, value, _ = case
        store = TraceStore(tmp_path)
        tracer = get_tracer()
        tracer.clear()
        set_tracing(True)
        try:
            store.get(kind, "d1")
            store.put(kind, "d1", value)
            store.get(kind, "d1")
            names = [e["name"] for e in tracer.events()]
        finally:
            set_tracing(False)
            tracer.clear()
        assert names == [f"store.load_{kind}", f"store.save_{kind}", f"store.load_{kind}"]

    def test_no_temp_debris(self, tmp_path, case, monkeypatch):
        import os

        kind, value, _ = case
        store = TraceStore(tmp_path)
        path = store.put(kind, "d1", value)
        store.put(kind, "d1", value)  # a rewrite renames over the entry

        def broken_replace(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(PermissionError):
            store.put(kind, "d2", value)  # a failed write cleans up too
        assert sorted(path.parent.iterdir()) == [path]

    def test_ingest_checks_the_codec(self, tmp_path, case):
        from repro.trace.store import BlobRejected

        kind, value, _ = case
        source = TraceStore(tmp_path / "source")
        source.put(kind, "d1", value)
        store = TraceStore(tmp_path / "store")
        with pytest.raises(BlobRejected):
            store.ingest_blob(kind, "d1", b"\x00garbage")
        assert not store.has_blob(kind, "d1")
        store.ingest_blob(kind, "d1", source.read_blob(kind, "d1"))
        assert _same(store.get(kind, "d1"), value)


class TestForeignResultFiles:
    """A result file that is JSON but not a result payload falls under the
    one defect rule: ``get`` misses it, ``prune`` deletes it (rather than
    raising) and ``ingest_blob`` refuses it."""

    @pytest.mark.parametrize(
        "body",
        [
            "[1]",
            "1",
            "null",
            '"result_version"',
            '{"result_version": 1}',
            '{"result_version": 1, "stats": []}',
            '{"mech_result_version": 1, "stats": {"counters": 5}}',
        ],
    )
    def test_get_misses_and_prune_removes(self, tmp_path, body):
        from repro.trace.store import BlobRejected

        store = TraceStore(tmp_path)
        path = store.path("result", "r1")
        path.parent.mkdir(parents=True)
        path.write_text(body)
        assert store.get("result", "r1") is None
        assert store.prune() == 1
        assert not path.exists()
        with pytest.raises(BlobRejected):
            store.ingest_blob("result", "r1", body.encode())


class TestFormatCompatibility:
    """Digests, file bytes and archive layouts are pinned to what earlier
    versions of the store wrote, so existing stores stay warm and fleet
    peers running other code versions still replicate."""

    def test_digests(self):
        from repro.mechanisms import MechanismConfig, parse_mechanism_spec

        l1 = CacheConfig.paper_l1()
        t = trace_digest("mgrid", 1.0, 0, l1)
        assert t == "18148c254462d73f8da1854175f046b6deb136ef25b236db5c23ee50b5b517e4"
        assert trace_digest("stride", 0.25, 3, l1, keep_pcs=True) == (
            "29c1e3b1550562987963474da6a0b9542f6aee9b1cfe29dc57bb656027fb37c0"
        )
        jouppi4 = "afb8dad806386edfc5162c9370d5d651f040a3b2bc590605716e4c966e49f85b"
        assert result_digest(t, StreamConfig.jouppi(n_streams=4)) == jouppi4
        streams = MechanismConfig.for_streams(StreamConfig.jouppi(n_streams=4))
        assert result_digest(t, streams) == jouppi4
        assert result_digest(t, StreamConfig.filtered(n_streams=10)) == (
            "8ac97859696a95ef8d1aed4e18dffea16b58385b3f88b48ddb3bca7dde4a47d2"
        )
        assert result_digest(t, parse_mechanism_spec("victim:4")) == (
            "86fa02627e31cead79174291a9c28c1bd8405f00d61d806eeae06bd25362b225"
        )
        assert result_digest(t, parse_mechanism_spec("misscache:16+streams")) == (
            "a5d1188f8d01809a56b643bc0cb980aff411d24bd24ea7e8ce836254f32d82f4"
        )

    def test_result_json_bytes(self, tmp_path):
        from repro.trace.store import mech_stats_to_dict

        store = TraceStore(tmp_path)
        stream, mech = _stream_stats(), _mech_stats()
        assert store.put("result", "r", stream).read_bytes() == json.dumps(
            {"result_version": 1, "stats": stats_to_dict(stream)}, sort_keys=True
        ).encode()
        assert store.put("result", "m", mech).read_bytes() == json.dumps(
            {"mech_result_version": 1, "stats": mech_stats_to_dict(mech)}, sort_keys=True
        ).encode()

    @staticmethod
    def _layout(path):
        with np.load(path) as archive:
            return (
                {name: str(archive[name].dtype) for name in archive.files},
                list(archive.files),
                bytes(archive["meta"]).decode(),
            )

    def test_trace_archive_layout(self, tmp_path):
        store = TraceStore(tmp_path)
        dtypes, order, meta = self._layout(
            store.put("trace", "t", (make_miss_trace(with_pcs=True), make_summary()))
        )
        assert order == ["meta", "addrs", "kinds", "pcs"]
        assert dtypes == {"meta": "uint8", "addrs": "int64", "kinds": "uint8", "pcs": "int64"}
        assert meta == (
            '{"block_bits":6,"store_version":2,"summary":{"accesses":1000,'
            '"data_set_bytes":4096,"ifetch_misses":0,"miss_rate":0.064,'
            '"misses":64,"trace_length":1000,"writebacks":9}}'
        )
        _, order, _ = self._layout(store.put("trace", "u", (make_miss_trace(), make_summary())))
        assert order == ["meta", "addrs", "kinds"]

    def test_profile_archive_layout(self, tmp_path):
        dtypes, order, meta = self._layout(TraceStore(tmp_path).put("profile", "p", _profiles()))
        assert order == ["meta"] + [
            f"{name}_{block}"
            for block in (64, 128)
            for name in ("read_hist", "write_hist", "bucket_footprint", "bucket_demand")
        ]
        assert set(dtypes.values()) == {"uint8", "int64"} and dtypes["meta"] == "uint8"
        assert meta == (
            '{"blocks":{"128":{"cold_reads":219,"cold_writes":0,"unique_blocks":256,'
            '"writebacks":37},"64":{"cold_reads":219,"cold_writes":0,'
            '"unique_blocks":256,"writebacks":37}},"profile_version":2}'
        )

    def test_spectrum_archive_layout(self, tmp_path):
        dtypes, order, meta = self._layout(TraceStore(tmp_path).put("spectrum", "s", _spectrum()))
        assert order == [
            "meta", "run_start_addr", "run_stride_bytes", "run_length", "run_wb_next",
            "run_wb_window", "run_primer_age", "run_kind", "run_byte_uniform",
            "run_gaps_ge", "run_conc_ge",
        ]
        assert {name for name, dtype in dtypes.items() if dtype == "uint8"} == {
            "meta", "run_kind", "run_byte_uniform",
        }
        assert meta == (
            '{"scalars":{"alloc_events":219,"block_bits":6,"demand_misses":219,'
            '"ifetch_misses":0,"lone_misses":219,"n_events":256,"seed_events":0,'
            '"window":64,"writebacks":37,"zone_bits":21},"spectrum_version":1}'
        )
