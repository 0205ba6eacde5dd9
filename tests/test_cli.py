"""Tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "sweep"])
        assert args.workload == "sweep"
        assert args.streams == 10
        assert args.depth == 2

    def test_exhibit_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exhibit", "table99"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workloads == ["embar", "mgrid", "cgm", "buk"]
        assert args.n_streams == list(range(1, 11))
        assert args.jobs == 1
        assert args.trace_store is None

    def test_engine_flags_on_sweep_and_exhibit(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "4", "--trace-store", "/tmp/ts"]
        )
        assert args.jobs == 4
        assert args.trace_store == "/tmp/ts"
        args = build_parser().parse_args(
            ["exhibit", "figure3", "--jobs", "2", "--trace-store", "/tmp/ts"]
        )
        assert args.jobs == 2
        assert args.trace_store == "/tmp/ts"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "embar" in out
        assert "PERFECT" in out

    def test_run_sweep(self, capsys):
        assert main(["run", "sweep", "--streams", "2", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "stream hit rate" in out
        assert "100.0%" in out

    def test_run_with_filter(self, capsys):
        assert main(["run", "sweep", "--scale", "0.25", "--filter", "16"]) == 0
        assert "stream hit rate" in capsys.readouterr().out

    def test_run_with_stride_detector_auto_enables_filter(self, capsys):
        assert main(
            ["run", "stride", "--scale", "0.25", "--stride-detector", "czone"]
        ) == 0
        out = capsys.readouterr().out
        # The czone detector catches the 1KB-stride walk.
        hit_line = [l for l in out.splitlines() if "stream hit rate" in l][0]
        hit = float(hit_line.split(":")[1].strip().rstrip("%"))
        assert hit > 90

    def test_profile(self, capsys):
        assert main(["profile", "sweep", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "unit-stride pairs" in out

    def test_exhibit_with_benchmark_subset(self, capsys):
        assert main(["exhibit", "table2", "--benchmarks", "buk"]) == 0
        out = capsys.readouterr().out
        assert "buk" in out
        assert "embar" not in out

    def test_unknown_workload_errors(self):
        with pytest.raises(KeyError):
            main(["run", "nonesuch"])

    def test_compare(self, capsys):
        assert main(["compare", "stride", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "RPT" in out
        assert "OBL" in out
        assert "streams" in out

    def test_profile_locality(self, capsys):
        assert main(["profile", "sweep", "--scale", "0.25", "--locality"]) == 0
        out = capsys.readouterr().out
        assert "stack-distance" in out
        assert "FA LRU" in out
        assert "64 KB" in out

    def test_compare_mechanism_prints_the_ladder(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        args = ["compare", "sweep", "--scale", "0.25", "--mechanism", "streams",
                "--trace-store", store_dir]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "min matching L2 : >4 MB" in out
        assert "evaluated       : 42 candidate configs" in out
        for size in ("64 KB", "512 KB", "4 MB"):
            assert size in out
        from repro.trace.store import TraceStore

        store = TraceStore(store_dir)
        assert store.count("trace") == 1 and store.count("profile") == 0
        assert main(args) == 0  # the second run loads the stored trace
        assert capsys.readouterr().out == out

    def test_compare_has_no_analytic_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "sweep", "--analytic"])

    def test_check_replay_analytic(self, capsys):
        assert main(["check", "--replay", "analytic:3"]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_timing(self, capsys):
        assert main(["timing", "sweep", "--scale", "0.25", "--bandwidth", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "AMAT" in out

    def test_timing_l2_size_flag(self, capsys):
        assert main(["timing", "sweep", "--scale", "0.25", "--l2-kb", "256"]) == 0
        assert "256KB L2" in capsys.readouterr().out


class TestSweepCommand:
    ARGS = [
        "sweep",
        "--workloads", "sweep", "stride",
        "--n-streams", "1", "2",
        "--scale", "0.25",
    ]

    def test_sweep_renders_matrix(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "hit% @1" in out
        assert "hit% @2" in out
        assert "stride" in out
        assert "cells/s" in out

    def test_sweep_populates_trace_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(self.ARGS + ["--trace-store", str(store_dir)]) == 0
        from repro.trace.store import TraceStore

        store = TraceStore(store_dir)
        assert store.count("trace") == 2  # one trace per workload
        assert store.count("result") == 4  # one per grid cell
        # Second invocation is served from the store.
        assert main(self.ARGS + ["--trace-store", str(store_dir)]) == 0
        assert "store" in capsys.readouterr().out

    def test_sweep_reports_failed_cells(self, capsys):
        assert main(["sweep", "--workloads", "nonesuch", "--n-streams", "1"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "nonesuch" in captured.err
