"""Vectorized batch replay engine (repro.sim.vector) tests.

Support predicates against what each engine serves, batch-boundary edge
cases (empty/single-event traces, runs crossing set boundaries),
bit-identity against the scalar engines, and the cached trace kind flags.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.caches.cache import Cache, CacheConfig, MissEventKind, MissTrace
from repro.caches.sampling import SamplingPlan, lru_results
from repro.caches.secondary import simulate_secondary
from repro.check import differ
from repro.check import invariants as _inv
from repro.core.config import StreamConfig, StrideDetector
from repro.core.prefetcher import StreamPrefetcher
from repro.sim import vector
from repro.trace.events import AccessKind, Trace


def _trace(addrs, kinds=None):
    addrs = np.asarray(addrs, dtype=np.int64)
    if kinds is None:
        kinds = np.zeros(len(addrs), dtype=np.uint8)
    return Trace(addrs, np.asarray(kinds, dtype=np.uint8))


def _miss_trace(addrs, kinds=None, block_bits=6):
    addrs = np.asarray(addrs, dtype=np.int64)
    if kinds is None:
        kinds = np.zeros(len(addrs), dtype=np.uint8)
    return MissTrace(addrs, np.asarray(kinds, dtype=np.uint8), block_bits)


def _wb_config(**overrides):
    base = dict(
        capacity=4 * 1024,
        assoc=2,
        block_size=32,
        policy="lru",
        write_back=True,
        write_allocate=True,
        seed=7,
    )
    base.update(overrides)
    return CacheConfig(**base)


def _assert_l1_identical(config, trace):
    vectorized = vector.vector_simulate_cache(config, trace)
    assert vectorized is not None
    vec_trace, vec_stats = vectorized
    scalar = Cache(config)
    ref_trace = scalar.simulate(trace)
    assert np.array_equal(vec_trace.addrs, ref_trace.addrs)
    assert np.array_equal(vec_trace.kinds, ref_trace.kinds)
    assert vec_stats == scalar.stats


class TestSupportPredicates:
    """Each batch engine serves exactly the inputs its dispatcher's
    support predicate accepts, and returns None everywhere else."""

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize(
        "overrides,pcs",
        [
            (dict(policy="lru"), False),
            (dict(policy="fifo"), False),
            (dict(policy="random"), False),
            (dict(write_back=False), False),
            (dict(write_allocate=False), False),
            (dict(), True),
        ],
        ids=["lru", "fifo", "random", "write-through", "no-write-allocate", "pc-trace"],
    )
    def test_cache_engines(self, monkeypatch, overrides, pcs, armed):
        monkeypatch.setattr(_inv, "ENABLED", armed)
        config = _wb_config(**overrides)
        addrs = np.asarray([0, 32, 4096], dtype=np.int64)
        trace = Trace(addrs, np.zeros(3, dtype=np.uint8), pcs=addrs + 4 if pcs else None)
        l1 = vector.vector_simulate_cache(config, trace)
        assert vector.cache_vector_supported(config, trace) == (l1 is not None)
        # Outside REPRO_CHECK the predicate marks the engine's envelope.
        in_envelope = config.write_back and config.write_allocate
        assert (l1 is not None) == (in_envelope and not pcs and not armed)

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(stride_detector=StrideDetector.CZONE),
            dict(stride_detector=StrideDetector.MIN_DELTA),
            dict(partitioned=True, i_streams=2),
            dict(lookup_depth=2),
            dict(min_lead=1),
        ],
    )
    def test_stream_engine(self, monkeypatch, overrides, armed):
        monkeypatch.setattr(_inv, "ENABLED", armed)
        config = replace(StreamConfig.filtered(n_streams=4), **overrides)
        stats = vector.vector_replay_streams(config, _miss_trace([0, 64, 128]))
        assert vector.streams_vector_supported(config) == (stats is not None)


class TestL1Gating:
    def test_write_through_falls_back(self):
        config = _wb_config(write_back=False)
        assert vector.vector_simulate_cache(config, _trace([0, 32])) is None
        assert not vector.cache_vector_supported(config, _trace([0]))

    def test_no_write_allocate_falls_back(self):
        config = _wb_config(write_allocate=False)
        assert vector.vector_simulate_cache(config, _trace([0, 32])) is None

    def test_pc_carrying_trace_falls_back(self):
        addrs = np.asarray([0, 32], dtype=np.int64)
        trace = Trace(
            addrs,
            np.zeros(2, dtype=np.uint8),
            pcs=np.asarray([4, 8], dtype=np.int64),
        )
        assert vector.vector_simulate_cache(_wb_config(), trace) is None

    def test_repro_check_stand_down(self, monkeypatch):
        monkeypatch.setattr(_inv, "ENABLED", True)
        config = _wb_config()
        trace = _trace([0, 32, 64])
        assert vector.vector_simulate_cache(config, trace) is None
        assert not vector.cache_vector_supported(config, trace)
        # force=True (the differ's escape hatch) keeps the engine live.
        assert vector.vector_simulate_cache(config, trace, force=True) is not None


class TestL1EdgeCases:
    def test_empty_trace(self):
        vectorized = vector.vector_simulate_cache(_wb_config(), _trace([]))
        assert vectorized is not None
        miss_trace, stats = vectorized
        assert len(miss_trace) == 0
        assert stats.accesses == 0
        assert stats.misses == 0

    def test_single_access(self):
        config = _wb_config()
        _assert_l1_identical(config, _trace([0x1234]))
        vec_trace, stats = vector.vector_simulate_cache(config, _trace([0x1234]))
        assert stats.accesses == 1 and stats.misses == 1 and stats.hits == 0
        assert vec_trace.kinds.tolist() == [int(MissEventKind.READ_MISS)]

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_run_crossing_set_boundary(self, policy):
        # A unit-stride walk whose same-set runs are length one but whose
        # block runs wrap across the set index boundary; consecutive
        # same-block accesses must still collapse, block transitions not.
        config = _wb_config(policy=policy, capacity=1024, assoc=1, block_size=32)
        step = 8
        addrs = [i * step for i in range(600)]  # crosses every set repeatedly
        kinds = [int(AccessKind.WRITE) if i % 5 == 0 else 0 for i in range(600)]
        _assert_l1_identical(config, _trace(addrs, kinds))

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_dirty_run_collapse(self, policy):
        # Reads then a write inside one same-block run: the run's install
        # must be dirty and produce exactly one eventual write-back.
        config = _wb_config(policy=policy, capacity=64, assoc=1, block_size=32)
        addrs = [0, 4, 8, 12, 64, 0]  # write at 8; 64 evicts set 0... (1 set? no)
        kinds = [0, 0, int(AccessKind.WRITE), 0, 0, 0]
        _assert_l1_identical(config, _trace(addrs, kinds))

    def test_ifetch_treated_as_read(self):
        config = _wb_config()
        addrs = [i * 32 for i in range(40)] * 2
        kinds = [int(AccessKind.IFETCH) if i % 3 == 0 else 0 for i in range(80)]
        _assert_l1_identical(config, _trace(addrs, kinds))

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_random_traces_identical(self, policy):
        rng = random.Random(1234)
        for seed in range(3):
            config = replace(
                differ.random_cache_config(random.Random(seed)),
                policy=policy,
                write_back=True,
                write_allocate=True,
            )
            trace = differ.random_trace(rng, 1500)
            _assert_l1_identical(config, trace)

    def test_seed_reproducibility(self):
        # Two invocations of the vector engine consume fresh, identical
        # RNG streams — bit-equal outputs, no hidden state.
        config = _wb_config(policy="random", seed=99)
        trace = differ.random_trace(random.Random(5), 2000)
        a_trace, a_stats = vector.vector_simulate_cache(config, trace)
        b_trace, b_stats = vector.vector_simulate_cache(config, trace)
        assert np.array_equal(a_trace.addrs, b_trace.addrs)
        assert np.array_equal(a_trace.kinds, b_trace.kinds)
        assert a_stats == b_stats


class TestStreamReplay:
    def _flat_config(self, **overrides):
        base = StreamConfig.filtered(n_streams=4)
        return replace(base, **overrides) if overrides else base

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(partitioned=True, i_streams=2),
            dict(lookup_depth=2),
            dict(min_lead=1),
        ],
    )
    def test_unsupported_configs_fall_back(self, overrides):
        config = self._flat_config(**overrides)
        assert vector.vector_replay_streams(config, _miss_trace([0])) is None
        assert not vector.streams_vector_supported(config)
        # The dispatcher still answers, through the scalar prefetcher.
        stats = vector.replay_streams(config, _miss_trace([0, 64, 128]))
        assert stats == StreamPrefetcher(config).run(_miss_trace([0, 64, 128]))

    @pytest.mark.parametrize("detector", [StrideDetector.CZONE, StrideDetector.MIN_DELTA])
    def test_detector_configs_served(self, detector):
        config = self._flat_config(stride_detector=detector)
        assert vector.streams_vector_supported(config)
        # A 3-block stride the unit filter rejects and the detector verifies.
        mt = _miss_trace([i * 3 * 64 for i in range(8)])
        vec = vector.vector_replay_streams(config, mt)
        assert vec is not None
        assert vec == StreamPrefetcher(config).run(mt)
        assert vec.detector_hits > 0 and vec.stream_hits > 0

    def test_block_bits_mismatch_raises(self):
        config = self._flat_config()
        with pytest.raises(ValueError, match="block_bits"):
            vector.vector_replay_streams(config, _miss_trace([0], block_bits=7))

    def test_empty_and_single_event(self):
        config = self._flat_config()
        for mt in (_miss_trace([]), _miss_trace([0x1000])):
            vec = vector.vector_replay_streams(config, mt)
            ref = StreamPrefetcher(config).run(mt)
            assert vec == ref

    def test_mixed_writeback_ifetch_stream(self):
        # Sequential run, an ifetch miss inside it, then a write-back
        # invalidating a prefetched block mid-window.
        config = self._flat_config()
        block = 64
        addrs = [i * block for i in range(8)]
        kinds = [int(MissEventKind.READ_MISS)] * 8
        kinds[3] = int(MissEventKind.IFETCH_MISS)
        addrs.append(5 * block)  # invalidate an in-window block
        kinds.append(int(MissEventKind.WRITEBACK))
        addrs += [i * block for i in range(8, 14)]
        kinds += [int(MissEventKind.READ_MISS)] * 6
        mt = _miss_trace(addrs, kinds)
        vec = vector.vector_replay_streams(config, mt)
        ref = StreamPrefetcher(config).run(mt)
        assert vec == ref
        assert vec.writebacks == 1 and vec.ifetch_misses == 1

    @pytest.mark.parametrize("n_streams,depth", [(1, 1), (4, 4), (10, 2)])
    def test_random_miss_traces_identical(self, n_streams, depth):
        config = StreamConfig.jouppi(n_streams=n_streams, depth=depth)
        for seed in range(3):
            mt = differ.random_miss_trace(random.Random(seed), 1200)
            vec = vector.vector_replay_streams(config, mt)
            ref = StreamPrefetcher(config).run(mt)
            assert vec == ref

    def test_repro_check_stand_down(self, monkeypatch):
        monkeypatch.setattr(_inv, "ENABLED", True)
        config = self._flat_config()
        mt = _miss_trace([0, 64])
        assert vector.vector_replay_streams(config, mt) is None
        assert vector.vector_replay_streams(config, mt, force=True) is not None


_READ = int(MissEventKind.READ_MISS)
_WRITEBACK = int(MissEventKind.WRITEBACK)

#: Base of the strided walks: block 1536, mid-way through one 64 KB czone
#: (blocks 1024-2047), so walks in either direction stay inside it.
_BASE = 1536


def _czone(**overrides):
    return replace(StreamConfig.non_unit(n_streams=2, czone_bits=16), **overrides)


def _strided_trace(stride, tail=()):
    """Three misses ``stride`` blocks apart (the czone FSM verifies the
    stride on the third and allocates a stream at ``_BASE + 3*stride``),
    then ``tail``: ``(block, kind)`` events."""
    events = [(_BASE + k * stride, _READ) for k in range(3)] + list(tail)
    return _miss_trace(
        [block * 64 for block, _ in events], [kind for _, kind in events]
    )


def _replay_both(config, mt):
    vec = vector.vector_replay_streams(config, mt)
    assert vec is not None
    assert vec == StreamPrefetcher(config).run(mt)
    return vec


class TestStridedStreams:
    """The flat engine's strided windows against the scalar prefetcher.

    Every case asserts bit-identity, plus the counters that show the
    case reached the window state it is named after."""

    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("stride", [3, -3])
    def test_walk_hits_every_step(self, stride, depth):
        start = _BASE + 3 * stride
        tail = [(start + k * stride, _READ) for k in range(6)]
        stats = _replay_both(_czone(depth=depth), _strided_trace(stride, tail))
        assert stats.detector_hits == 1 and stats.allocations == 1
        assert stats.stream_hits == 6
        assert stats.prefetches_issued == depth + 6

    def test_negative_strides_disallowed(self):
        stats = _replay_both(
            _czone(allow_negative_strides=False),
            _strided_trace(-3, [(_BASE - 9, _READ), (_BASE - 12, _READ)]),
        )
        assert stats.detector_hits == 0 and stats.allocations == 0

    @pytest.mark.parametrize("stride", [3, -3])
    def test_writeback_invalidates_head(self, stride):
        head = _BASE + 3 * stride
        stats = _replay_both(
            _czone(), _strided_trace(stride, [(head, _WRITEBACK), (head, _READ)])
        )
        assert stats.invalidations == 1 and stats.stream_hits == 0

    @pytest.mark.parametrize("stride", [3, -3])
    def test_writeback_invalidates_non_head_entry(self, stride):
        head = _BASE + 3 * stride
        tail = [
            (head + stride, _WRITEBACK),
            (head, _READ),  # hit; the invalid entry becomes the head
            (head + stride, _READ),  # so this misses
        ]
        stats = _replay_both(_czone(), _strided_trace(stride, tail))
        assert stats.invalidations == 1 and stats.stream_hits == 1

    @pytest.mark.parametrize("stride", [3, -3])
    def test_writeback_between_stride_steps_invalidates_nothing(self, stride):
        head = _BASE + 3 * stride
        tail = [(head + 1, _WRITEBACK), (head + 2, _WRITEBACK), (head, _READ)]
        stats = _replay_both(_czone(), _strided_trace(stride, tail))
        assert stats.invalidations == 0 and stats.stream_hits == 1

    def test_sub_block_stride_does_not_allocate(self):
        # Byte stride 16 inside one 64-byte block: verified by the FSM,
        # rounded to a zero block stride, rejected.
        mt = _miss_trace([_BASE * 64 + 16 * k for k in range(4)])
        stats = _replay_both(_czone(), mt)
        assert stats.allocations == 0 and stats.detector_hits == 0

    @pytest.mark.parametrize("detector", [StrideDetector.CZONE, StrideDetector.MIN_DELTA])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_random_miss_traces_identical(self, detector, depth):
        for seed in range(4):
            rng = random.Random(seed)
            config = replace(
                differ.random_stream_config(rng),
                stride_detector=detector,
                unit_filter_entries=16,
                depth=depth,
                lookup_depth=1,
                min_lead=0,
                partitioned=False,
            )
            mt = differ.random_miss_trace(rng, 1500)
            for trace in (mt, mt.misses_only()):
                _replay_both(config, trace)

    def test_hybrid_stream_member_on_vector_engine(self):
        from repro.mechanisms import (
            build_mechanism,
            combine_member_stats,
            mech_stats_from_streams,
            parse_mechanism_spec,
        )

        mechanism = parse_mechanism_spec("misscache:4+streams")
        assert mechanism.members[-1].streams.stride_detector == StrideDetector.CZONE
        assert vector.streams_vector_supported(mechanism.members[-1].streams)
        for seed in range(3):
            mt = differ.random_miss_trace(random.Random(seed), 1500)
            front = build_mechanism(mechanism.members[0])
            front_stats, residual = front.run_filter(mt)
            stream_member = mechanism.members[-1]
            scalar = combine_member_stats(mechanism, [
                front_stats,
                mech_stats_from_streams(
                    stream_member, StreamPrefetcher(stream_member.streams).run(residual)
                ),
            ])
            assert vector.replay_secondary(mechanism, mt) == scalar

    def test_czone_replay_builds_no_scalar_prefetcher(self, monkeypatch):
        built = []

        class Spy(StreamPrefetcher):
            def __init__(self, config):
                built.append(config)
                super().__init__(config)

        monkeypatch.setattr(vector, "StreamPrefetcher", Spy)
        mt = differ.random_miss_trace(random.Random(0), 500)
        czone = StreamConfig.non_unit(czone_bits=19)
        vector.replay_streams(czone, mt)
        assert built == []
        # The spy does see the configs that still need the scalar bank.
        vector.replay_streams(czone.with_(min_lead=1), mt)
        assert len(built) == 1


class TestSecondaryProbe:
    """The Table 4 L2 probes run as one stack-distance ladder
    (:func:`repro.caches.sampling.lru_results`), bit-identical to the
    scalar simulator on write-allocate LRU."""

    def test_bad_sample_every_raises(self):
        with pytest.raises(ValueError, match="sample_every"):
            SamplingPlan(sample_every=0)

    @pytest.mark.parametrize("policy", ["lru"])
    @pytest.mark.parametrize("sample_every", [1, 4])
    def test_identical_to_scalar(self, policy, sample_every):
        config = _wb_config(policy=policy, capacity=16 * 1024, assoc=2, block_size=64)
        plan = SamplingPlan(sample_every)
        for seed in range(3):
            mt = differ.random_miss_trace(random.Random(seed), 1500)
            ladder = lru_results(mt, [config], plan)[config]
            ref = simulate_secondary(mt, config, sample_every=sample_every)
            assert ladder == ref

    def test_empty_miss_trace(self):
        config = _wb_config(policy="lru")
        ladder = lru_results(_miss_trace([]), [config], SamplingPlan(1))[config]
        ref = simulate_secondary(_miss_trace([]), config)
        assert ladder == ref


class TestCachedKindFlags:
    def test_trace_has_ifetch(self):
        assert not _trace([0, 4]).has_ifetch
        assert _trace([0, 4], [0, int(AccessKind.IFETCH)]).has_ifetch

    def test_miss_trace_flags(self):
        mt = _miss_trace(
            [0, 64, 128],
            [
                int(MissEventKind.READ_MISS),
                int(MissEventKind.WRITEBACK),
                int(MissEventKind.IFETCH_MISS),
            ],
        )
        assert mt.has_writebacks and mt.has_ifetch_misses
        plain = _miss_trace([0, 64])
        assert not plain.has_writebacks and not plain.has_ifetch_misses

    def test_flags_cached_per_instance(self):
        mt = _miss_trace([0, 64])
        assert mt.has_writebacks is mt.has_writebacks  # cached bool, no rescan
        assert "_kind_flags" in mt.__dict__
