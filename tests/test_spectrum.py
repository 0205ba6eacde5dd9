"""Miss-spectrum extraction and closed-form stream-model tests.

Three contracts from the analytic-streams layer:

- the one-pass extractor is bit-identical to the naive O(n^2)
  reference on randomized traces (the differ checks 200 seeds; here a
  tier-1-sized slice plus constructed shapes with known spectra);
- :func:`repro.analytic.streams.predict_streams` stays within its own
  declared error bound of the golden ``RefStreamPrefetcher`` on every
  seed of a corpus slice;
- spectra round-trip exactly through the persistent store, including
  the per-gap concurrency histograms.
"""

import random

import numpy as np
import pytest

from repro.analytic import streams
from repro.analytic.streams import (
    BOUND_BASE,
    _czone_training_cost,
    _gaps_at_least,
    ensure_spectrum,
    in_envelope,
    predict_streams,
    stream_envelope_config,
)
from repro.caches.cache import MissTrace
from repro.check import differ, oracle
from repro.core.config import StreamConfig
from repro.trace.spectrum import (
    GAP_PRESSURE_BINS,
    RUN_KIND_UNIT,
    extract_spectrum,
    naive_spectrum,
)
from repro.trace.store import TraceStore

BLOCK = 64


def miss_trace(addrs, kinds=None, block_bits=6):
    if kinds is None:
        kinds = [oracle.EV_READ_MISS] * len(addrs)
    return MissTrace(
        addrs=np.asarray(addrs, dtype=np.int64),
        kinds=np.asarray(kinds, dtype=np.uint8),
        block_bits=block_bits,
    )


def ascending_run(start, length, stride=BLOCK):
    return [start + i * stride for i in range(length)]


class TestSpectrumExtraction:
    @pytest.mark.parametrize("seed", range(20))
    def test_fast_matches_naive(self, seed):
        rng = random.Random(seed)
        trace = differ.random_miss_trace(rng, 500)
        assert extract_spectrum(trace) == naive_spectrum(trace)

    def test_deterministic(self):
        trace = differ.random_miss_trace(random.Random(7), 600)
        assert extract_spectrum(trace) == extract_spectrum(trace)

    def test_empty_trace(self):
        spectrum = extract_spectrum(miss_trace([]))
        assert spectrum.n_events == 0
        assert spectrum.demand_misses == 0
        assert len(spectrum.run_length) == 0

    def test_single_ascending_run(self):
        spectrum = extract_spectrum(miss_trace(ascending_run(0x10000, 10)))
        assert spectrum.demand_misses == 10
        assert spectrum.run_length.tolist() == [10]
        assert spectrum.run_kind.tolist() == [RUN_KIND_UNIT]
        assert spectrum.run_stride_bytes.tolist() == [BLOCK]
        # nothing interleaves, so no gap sees any slot-claim pressure
        assert spectrum.run_conc_ge[0].sum() == 0
        assert spectrum.run_gaps_ge[0].sum() == 0

    def test_interleaved_runs_pressure_one(self):
        # A0 B0 A1 B1 ...: every tracked gap of each run contains exactly
        # one element of exactly one other run.
        a = ascending_run(0x20000, 8)
        b = ascending_run(0x90000, 8)
        trace = miss_trace([x for pair in zip(a, b) for x in pair])
        spectrum = extract_spectrum(trace)
        assert spectrum.run_length.tolist() == [8, 8]
        gap_count = 8 - 2  # unit runs track gaps between elements 1..L-1
        for row in spectrum.run_conc_ge:
            assert row[0] == gap_count  # pressure >= 1 in every gap
            assert row[1] == 0  # never two concurrent runs
        assert spectrum == naive_spectrum(trace)

    def test_lone_misses_raise_unfiltered_pressure_only(self):
        # Random singles inside a run's gaps claim slots in unfiltered
        # mode (gaps_ge) but are invisible to the filter path (conc_ge).
        run = ascending_run(0x40000, 6)
        events = []
        for i, addr in enumerate(run):
            events.append(addr)
            if 0 < i < 5:
                # each in its own 2MB spectrum zone, non-constant deltas,
                # so the singles can never pair into a detected run
                events.append((i + 8) * (3 << 22) + i * 0x777)
        trace = miss_trace(events)
        spectrum = extract_spectrum(trace)
        (idx,) = np.where(spectrum.run_length == 6)[0]
        assert spectrum.run_gaps_ge[idx][0] == 4
        assert spectrum.run_conc_ge[idx][0] == 0
        assert spectrum == naive_spectrum(trace)


class TestSpectrumStore:
    def test_round_trip_exact(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = differ.random_miss_trace(random.Random(11), 800)
        spectrum = extract_spectrum(trace)
        store.put("spectrum", "deadbeef", spectrum)
        loaded = store.get("spectrum", "deadbeef")
        assert loaded == spectrum
        assert np.array_equal(loaded.run_conc_ge, spectrum.run_conc_ge)

    def test_missing_is_none(self, tmp_path):
        assert TraceStore(tmp_path).get("spectrum", "nope") is None

    def test_stale_version_is_none(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        spectrum = extract_spectrum(differ.random_miss_trace(random.Random(2), 300))
        store.put("spectrum", "abc", spectrum)
        import repro.trace.store as store_mod

        monkeypatch.setattr(
            "repro.trace.store.SPECTRUM_FORMAT_VERSION",
            store_mod.SPECTRUM_FORMAT_VERSION + 1,
        )
        assert store.get("spectrum", "abc") is None

    def test_ensure_spectrum_uses_store(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        trace = differ.random_miss_trace(random.Random(3), 400)
        first = ensure_spectrum(trace, store=store, digest="d1")
        assert store.get("spectrum", "d1") == first

        def boom(_):
            raise AssertionError("should have loaded from the store")

        monkeypatch.setattr(streams, "extract_spectrum", boom)
        assert ensure_spectrum(trace, store=store, digest="d1") == first
        # no store/digest: extraction is the only path
        with pytest.raises(AssertionError):
            ensure_spectrum(trace)


class TestEnvelope:
    def test_coercion_lands_in_envelope(self):
        rng = random.Random(5)
        for _ in range(40):
            config = differ.random_stream_config(rng)
            assert in_envelope(stream_envelope_config(config))

    def test_coercion_idempotent(self):
        config = stream_envelope_config(StreamConfig(partitioned=True, min_lead=2))
        assert stream_envelope_config(config) == config

    def test_predict_rejects_out_of_envelope(self):
        spectrum = extract_spectrum(miss_trace(ascending_run(0, 5)))
        with pytest.raises(ValueError):
            predict_streams(spectrum, StreamConfig(partitioned=True))

    def test_predict_rejects_block_bits_mismatch(self):
        spectrum = extract_spectrum(miss_trace(ascending_run(0, 5), block_bits=6))
        with pytest.raises(ValueError):
            predict_streams(spectrum, StreamConfig.jouppi().with_(block_bits=7))


class TestModelInternals:
    def test_czone_training_cost_detects_on_third(self):
        assert _czone_training_cost(0, BLOCK, 10, 16) == 3

    def test_czone_training_cost_wide_stride_never_trains(self):
        assert _czone_training_cost(0, 1 << 15, 10, 16) is None

    def test_czone_training_cost_short_run(self):
        assert _czone_training_cost(0, BLOCK, 2, 16) is None

    def test_gaps_at_least_edges(self):
        hist = [5, 2, 0] + [0] * (GAP_PRESSURE_BINS - 3)
        assert _gaps_at_least(hist, 0, 7) == 7  # zero pressure: every gap
        assert _gaps_at_least(hist, 1, 7) == 5
        assert _gaps_at_least(hist, GAP_PRESSURE_BINS + 1, 7) == 0


class TestStreamModel:
    def test_empty_trace_prediction(self):
        prediction = predict_streams(
            extract_spectrum(miss_trace([])), StreamConfig.jouppi()
        )
        assert prediction.hit_rate == 0.0
        assert prediction.bound == BOUND_BASE

    def test_single_run_unfiltered_exact(self):
        # One allocation miss, then the tail streams: hits = L - 1, and
        # with no interference the bound stays at the base term.
        addrs = ascending_run(0x10000, 10)
        config = StreamConfig.jouppi(n_streams=4)
        prediction = predict_streams(extract_spectrum(miss_trace(addrs)), config)
        ref = oracle.RefStreamPrefetcher(config).run(addrs, [oracle.EV_READ_MISS] * 10)
        assert prediction.predicted_hits == ref["stream_hits"] == 9
        assert prediction.bound == BOUND_BASE

    def test_single_run_filtered_matches_oracle(self):
        addrs = ascending_run(0x10000, 12)
        config = StreamConfig.filtered(n_streams=4)
        prediction = predict_streams(extract_spectrum(miss_trace(addrs)), config)
        ref = oracle.RefStreamPrefetcher(config).run(addrs, [oracle.EV_READ_MISS] * 12)
        assert prediction.predicted_hits == ref["stream_hits"]

    @pytest.mark.parametrize("seed", range(30))
    def test_within_declared_bound(self, seed):
        # Same contract the analytic-streams differ stage enforces over
        # 200 seeds; a tier-1-sized slice keeps the gate fast.
        rng = random.Random(seed * 3266489917 % (1 << 31))
        config = stream_envelope_config(differ.random_stream_config(rng))
        trace = differ.random_miss_trace(rng, 1200, block_bits=config.block_bits)
        spectrum = extract_spectrum(trace)
        prediction = predict_streams(spectrum, config)
        ref = oracle.RefStreamPrefetcher(config).run(
            trace.addrs.tolist(), trace.kinds.tolist()
        )
        demand = ref["demand_misses"]
        truth = ref["stream_hits"] / demand if demand else 0.0
        assert spectrum.demand_misses == demand
        assert abs(prediction.hit_rate - truth) <= prediction.bound
        assert 0.0 <= prediction.hit_rate <= 1.0
        assert prediction.bound <= 1.0
