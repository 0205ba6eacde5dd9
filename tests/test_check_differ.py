"""Differ tests: corpus smoke, determinism, and detection power
(an injected bug must produce a divergence with a replayable seed)."""

import numpy as np
import pytest

from repro.check import differ, oracle


class TestGenerators:
    def test_trace_generation_deterministic(self):
        import random

        a = differ.random_trace(random.Random(42), 500)
        b = differ.random_trace(random.Random(42), 500)
        assert np.array_equal(a.addrs, b.addrs)
        assert np.array_equal(a.kinds, b.kinds)

    def test_cache_config_valid(self):
        import random

        rng = random.Random(1)
        for _ in range(50):
            differ.random_cache_config(rng)  # __post_init__ validates

    def test_stream_config_valid(self):
        import random

        rng = random.Random(1)
        for _ in range(50):
            differ.random_stream_config(rng)  # __post_init__ validates

    def test_miss_trace_mixes_kinds(self):
        import random

        trace = differ.random_miss_trace(random.Random(3), 1500)
        kinds = set(trace.kinds.tolist())
        assert oracle.EV_READ_MISS in kinds
        assert oracle.EV_WRITEBACK in kinds


class TestCorpus:
    def test_small_corpus_clean(self):
        report = differ.run_corpus(seeds=6, n_events=800, registry=False)
        assert report.ok, "\n".join(str(d) for d in report.divergences)
        assert report.seeds_checked == 6

    def test_seed_replay_is_deterministic(self):
        assert differ.diff_l1(9, n_events=600) == differ.diff_l1(9, n_events=600)
        assert differ.diff_streams(9, n_events=600) == differ.diff_streams(9, n_events=600)
        assert differ.diff_analytic(9, n_events=600) == differ.diff_analytic(9, n_events=600)

    def test_analytic_stage_clean_across_seeds(self):
        for seed in range(6):
            divergence = differ.diff_analytic(seed, n_events=800)
            assert divergence is None, str(divergence)

    def test_registry_workload_clean(self):
        assert differ.diff_registry_workload("cgm", scale=0.03) is None


class TestDetectionPower:
    """The differ must actually catch bugs, not just agree with itself."""

    def test_detects_oracle_side_mutation(self, monkeypatch):
        real = oracle._RefLane._unit_observe

        def broken(self, block):
            result = real(self, block)
            if len(self.unit_table) > 2:
                self.unit_table.pop()
            return result

        monkeypatch.setattr(oracle._RefLane, "_unit_observe", broken)
        found = [s for s in range(8) if differ.diff_streams(s, n_events=1200)]
        assert found, "corrupted unit filter went undetected across 8 seeds"

    def test_detects_optimized_side_mutation(self, monkeypatch):
        from repro.caches.cache import Cache

        real = Cache._install_ex

        def broken(self, set_index, block, dirty):
            return real(self, set_index, block, True)  # every fill dirty

        monkeypatch.setattr(Cache, "_install_ex", broken)
        divergence = differ.diff_l1(0, n_events=1500)
        assert divergence is not None
        assert divergence.stage == "l1"
        assert divergence.seed == 0
        assert "replay" in str(divergence)

    def test_detects_profiler_mutation(self, monkeypatch):
        # A profiler that ignores write-back recency updates is exactly
        # the kind of semantic drift the analytic stage must catch.
        import repro.analytic.model as model

        real = model.fa_hit_count

        def broken(profile, capacity_bytes):
            count = real(profile, capacity_bytes)
            return count + 1 if count else count  # off-by-one on any hits

        monkeypatch.setattr(model, "fa_hit_count", broken)
        divergence = differ.diff_analytic(0, n_events=1200)
        assert divergence is not None
        assert divergence.stage == "analytic"
        assert "fa_hit_count" in divergence.what
        assert "repro check --replay analytic:0" in str(divergence)

    def test_detects_two_phase_composition_fault(self, monkeypatch):
        # A residual that drops the write-backs it must pass to the back
        # member.  With a per-event online stack and replay_secondary on
        # both engines beside the two-phase runner, the hybrid stage
        # caught it on all 50 seeds at this budget; its one runner left
        # must not catch fewer.
        from repro.caches.cache import MissEventKind, MissTrace
        from repro.mechanisms.base import SecondaryMechanism

        real = SecondaryMechanism.run_filter

        def broken(self, miss_trace):
            stats, residual = real(self, miss_trace)
            keep = residual.kinds != int(MissEventKind.WRITEBACK)
            return stats, MissTrace(
                residual.addrs[keep], residual.kinds[keep], residual.block_bits
            )

        monkeypatch.setattr(SecondaryMechanism, "run_filter", broken)
        caught = [seed for seed in range(50) if differ.diff_hybrid(seed, n_events=600)]
        assert len(caught) == 50


class TestDivergenceRendering:
    def test_str_carries_replay_command(self):
        d = differ.Divergence(
            stage="streams", seed=7, what="outcome[3]", optimized="hit", expected="miss"
        )
        text = str(d)
        assert "seed=7" in text
        assert "repro check --replay streams:7" in text


class TestAnalyticStreamsStage:
    def test_registered_and_on_by_default(self):
        assert "analytic-streams" in differ.STAGE_FUNCTIONS
        assert "analytic-streams" in differ.DEFAULT_STAGES

    def test_clean_across_seeds(self):
        for seed in range(6):
            divergence = differ.diff_analytic_streams(seed, n_events=900)
            assert divergence is None, str(divergence)

    def test_seed_replay_is_deterministic(self):
        assert differ.diff_analytic_streams(4, n_events=700) == differ.diff_analytic_streams(
            4, n_events=700
        )

    def test_detects_spectrum_mutation(self, monkeypatch):
        # A miscounted concurrency histogram must trip the fast-vs-naive
        # bit-exactness check.
        from repro.trace import spectrum as spectrum_mod

        real = spectrum_mod.extract_spectrum

        def broken(miss_trace):
            result = real(miss_trace)
            if len(result.run_conc_ge):
                result.run_conc_ge[0, 0] += 1
            return result

        monkeypatch.setattr(spectrum_mod, "extract_spectrum", broken)
        found = [
            s for s in range(8) if differ.diff_analytic_streams(s, n_events=900)
        ]
        assert found, "corrupted conc histogram went undetected across 8 seeds"

    def test_detects_model_mutation(self, monkeypatch):
        # An over-confident bound must surface as out-of-bound seeds.
        from repro.analytic import streams as streams_mod

        real = streams_mod.predict_streams

        def overconfident(spectrum, config):
            prediction = real(spectrum, config)
            object.__setattr__(prediction, "bound", 0.0)
            return prediction

        monkeypatch.setattr(streams_mod, "predict_streams", overconfident)
        found = [
            s for s in range(8) if differ.diff_analytic_streams(s, n_events=900)
        ]
        assert found, "zeroed error bound went undetected across 8 seeds"


class TestFieldWalk:
    """The stages compare every field of the result dataclasses, so a
    counter production reports and the oracle does not fails its stage."""

    @pytest.mark.parametrize(
        "module, name, stage",
        [
            ("repro.core.prefetcher", "StreamStats", "streams"),
            ("repro.mechanisms.base", "MechStats", "victim"),
            ("repro.sim.runner", "L1Summary", "l1"),
        ],
    )
    def test_unreported_field_fails_its_stage(self, monkeypatch, module, name, stage):
        import dataclasses
        import importlib

        home = importlib.import_module(module)
        base = getattr(home, name)
        extended = dataclasses.make_dataclass(
            f"Extended{name}",
            [("late_prefetches", int, dataclasses.field(default=0))],
            bases=(base,),
            frozen=base.__dataclass_params__.frozen,
        )
        monkeypatch.setattr(home, name, extended)
        divergence = differ.STAGE_FUNCTIONS[stage](0, n_events=400)
        assert divergence is not None
        assert divergence.what.endswith(".late_prefetches")
        assert divergence.expected == "<not reported>"

    def test_hybrid_stage_compares_embedded_stream_stats(self, monkeypatch):
        # Corrupt only the StreamStats a hybrid's replay_secondary result
        # carries (what the store writes and the wire's "mech" payload
        # holds); the ten top-level counters and member_hits stay right.
        import random
        from dataclasses import replace

        real = differ.replay_secondary

        def corrupted(config, miss_trace):
            stats = real(config, miss_trace)
            if config.kind == "hybrid" and stats.streams is not None:
                streams = stats.streams
                stats.streams = replace(
                    streams,
                    unit_filter_hits=streams.unit_filter_hits + 1,
                    detector_hits=streams.detector_hits + 1,
                    in_flight_matches=streams.in_flight_matches + 1,
                    lengths=replace(
                        streams.lengths,
                        zero_length_streams=streams.lengths.zero_length_streams + 1,
                    ),
                )
            return stats

        monkeypatch.setattr(differ, "replay_secondary", corrupted)
        with_streams = caught = 0
        for seed in range(10):
            rng = random.Random(seed * differ.diff_hybrid.salt % (1 << 31))
            config = differ.random_hybrid_config(rng)
            if not any(member.kind == "streams" for member in config.members):
                continue
            with_streams += 1
            divergence = differ.diff_hybrid(seed, n_events=600)
            if divergence is not None:
                assert "replay_secondary" in divergence.what
                assert ".streams." in divergence.what
                caught += 1
        assert with_streams >= 5
        assert caught == with_streams

    def test_vector_stage_covers_stride_detectors(self, monkeypatch):
        # The vector stage draws czone and min-delta stream configs, so a
        # flat engine that is wrong only behind a stride detector fails it.
        import random
        from dataclasses import replace

        from repro.core.config import StrideDetector

        real = differ.vector_replay_streams

        def skewed(config, miss_trace, force=False):
            stats = real(config, miss_trace, force=force)
            if config.stride_detector != StrideDetector.NONE:
                stats = replace(stats, stream_hits=stats.stream_hits + 1)
            return stats

        monkeypatch.setattr(differ, "vector_replay_streams", skewed)
        stage = differ.diff_vector
        with_detector = 0
        for seed in range(50):
            case = stage.case(random.Random(seed * stage.salt % (1 << 31)), 200)
            if case["stream_config"].stride_detector == StrideDetector.NONE:
                continue
            with_detector += 1
            divergence = stage(seed, n_events=200)
            assert divergence is not None, f"seed {seed} missed"
            assert divergence.what == "vector: streams.stream_hits"
            # Found unarmed, so the replay line carries no settings.
            assert f"replay:    repro check --replay vector:{seed}" in str(divergence)
        assert with_detector >= 10

    def test_hybrid_stage_runs_both_engines(self):
        # One runner, replay_secondary, whose stream member runs the flat
        # engine or the scalar prefetcher as the drawn config selects:
        # the corpus must draw members on both sides.
        import random

        from repro.sim.vector import streams_vector_supported

        assert [label for label, _ in differ.diff_hybrid.runners] == ["replay_secondary"]
        flat = []
        for seed in range(50):
            rng = random.Random(seed * differ.diff_hybrid.salt % (1 << 31))
            last = differ.random_hybrid_config(rng).members[-1]
            if last.kind == "streams":
                flat.append(streams_vector_supported(last.streams))
        assert 5 <= sum(flat) < len(flat) - 5


class TestReplay:
    def test_registry_divergence_replays_from_its_printed_line(self, monkeypatch, capsys):
        # Armed invariants (REPRO_CHECK=1, as in `make check-diff-long`)
        # route the paper L1 through Cache's checked path, which the
        # every-fill-dirty bug reaches.
        from repro.caches.cache import Cache
        from repro.check import invariants
        from repro.cli import main

        real = Cache._install_ex
        monkeypatch.setattr(
            Cache, "_install_ex",
            lambda self, set_index, block, dirty: real(self, set_index, block, True),
        )
        monkeypatch.setattr(invariants, "ENABLED", True)
        divergence = differ.diff_registry_workload("stride", scale=0.05)
        assert divergence is not None
        assert divergence.stage == "registry:stride@0.05"
        replay_line = str(divergence).splitlines()[-1]
        # The line sets the armed invariants again, as a shell prefix.
        assert replay_line.split()[:3] == ["replay:", "REPRO_CHECK=1", "repro"]
        command = replay_line.split("repro ", 1)[1].split()
        assert command == ["check", "--replay", "registry:stride@0.05:0"]
        assert main(command) == 1
        assert str(divergence) in capsys.readouterr().out

    def test_replay_line_names_non_default_settings(self, monkeypatch):
        from repro.check import invariants
        from repro.cli import build_parser

        def replay_words(**kwargs):
            divergence = differ.Divergence(
                stage="streams", seed=7, what="w", optimized="1", expected="2", **kwargs
            )
            return str(divergence).splitlines()[-1].split()[1:]

        monkeypatch.setattr(invariants, "ENABLED", False)
        command = ["repro", "check", "--replay", "streams:7"]
        assert replay_words() == command
        # The line omits exactly the budget `repro check` defaults to.
        assert build_parser().parse_args(["check"]).events == differ.DEFAULT_EVENTS
        assert replay_words(n_events=differ.DEFAULT_EVENTS) == command
        # A row called directly builds its own budget (diff_l1: 3,000).
        assert replay_words(n_events=3000) == command + ["--events", "3000"]
        monkeypatch.setattr(invariants, "ENABLED", True)
        assert replay_words() == ["REPRO_CHECK=1"] + command

    def test_replay_line_rebuilds_a_non_default_budget(self, monkeypatch, capsys):
        # The vector stage draws its stream and L2 configs after its L1
        # trace, so a case built at another budget has other configs.
        from dataclasses import replace

        from repro.cli import main

        real = differ.vector_replay_streams

        def skewed(config, miss_trace, force=False):
            stats = real(config, miss_trace, force=force)
            return replace(stats, stream_hits=stats.stream_hits + 1)

        monkeypatch.setattr(differ, "vector_replay_streams", skewed)
        divergence = differ.diff_vector(1, n_events=4000)
        assert divergence is not None and divergence.n_events == 4000
        replay_line = str(divergence).splitlines()[-1]
        command = replay_line.split("repro ", 1)[1].split()
        assert command == ["check", "--replay", "vector:1", "--events", "4000"]
        assert differ.replay("vector:1", n_events=4000).context == divergence.context
        assert differ.replay("vector:1").context != divergence.context
        assert main(command) == 1
        assert str(divergence) in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key", ["streams", "streams:x", "nosuch:3", "registry:nosuch@0.05:0", "registry:cgm:0"]
    )
    def test_bad_keys_are_rejected(self, key, capsys):
        from repro.cli import main

        with pytest.raises(ValueError):
            differ.replay(key)
        assert main(["check", "--replay", key]) == 2
        assert "replay" in capsys.readouterr().err
