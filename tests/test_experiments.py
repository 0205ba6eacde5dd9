"""Tests for repro.reporting.experiments (exhibit drivers).

The full paper exhibits run in the benchmark harness; here the drivers
are exercised on a cheap subset so tests stay fast.
"""

import pytest

from repro.reporting import experiments
from repro.sim.runner import MissTraceCache


@pytest.fixture(scope="module")
def cache():
    return MissTraceCache()


SMALL = ("buk",)  # the cheapest paper benchmark


class TestTable1:
    def test_rows_and_render(self, cache):
        rows = experiments.table1(names=SMALL, cache=cache)
        assert rows[0].name == "buk"
        assert rows[0].model_miss_rate_pct > 0
        out = experiments.render_table1(rows)
        assert "buk" in out
        assert "Table 1" in out


class TestFigure3:
    def test_sweep_and_render(self, cache):
        data = experiments.figure3(names=SMALL, n_values=(1, 4), cache=cache)
        assert set(data["buk"]) == {1, 4}
        assert data["buk"][4] >= data["buk"][1]
        out = experiments.render_figure3(data)
        assert "Figure 3" in out
        assert "legend" in out


class TestTable2:
    def test_eb_row(self, cache):
        rows = experiments.table2(names=SMALL, cache=cache)
        row = rows[0]
        assert row.eb_measured_pct > 0
        assert row.paper_eb_pct == 48
        assert "buk" in experiments.render_table2(rows)


class TestTable3:
    def test_distribution_sums_to_100(self, cache):
        data = experiments.table3(names=SMALL, cache=cache)
        assert sum(data["buk"]) == pytest.approx(100.0, abs=0.5)
        out = experiments.render_table3(data)
        assert ">20" in out


class TestFigure5:
    def test_filter_reduces_eb(self, cache):
        rows = experiments.figure5(names=SMALL, cache=cache)
        row = rows[0]
        assert row.eb_with_filter < row.eb_no_filter
        assert "filter" in experiments.render_figure5(rows)


class TestFigure8:
    def test_stride_detection_at_least_matches_unit(self, cache):
        rows = experiments.figure8(names=("buk",), cache=cache)
        row = rows[0]
        assert row.hit_constant_stride >= row.hit_unit_only - 1.0
        assert "Figure 8" in experiments.render_figure8(rows)


class TestWarmStoreExhibits:
    def test_second_figure8_replays_nothing(self, tmp_path):
        from repro.obs.metrics import engine_registry
        from repro.trace.store import TraceStore

        store = TraceStore(tmp_path)

        def figure8_and_counts():
            rows = experiments.figure8(
                names=SMALL, cache=MissTraceCache(store=store), store=store
            )
            return rows, engine_registry().snapshot()["counters"]

        first, before = figure8_and_counts()
        second, after = figure8_and_counts()
        delta = {
            name: after.get(name, 0) - before.get(name, 0)
            for name in ("engine_cells_replayed_total", "engine_cells_store_total")
        }
        assert delta == {"engine_cells_replayed_total": 0, "engine_cells_store_total": 2}
        assert second == first


class TestFigure9:
    def test_sweep_shape(self, cache):
        data = experiments.figure9(
            names=("stride",), czone_bits_values=(8, 14), cache=cache
        )
        assert data["stride"][14] > data["stride"][8]
        assert "czone" in experiments.render_figure9(data)


class TestSweepFiguresBuildOneGrid:
    def test_figure3_and_figure9_are_one_grid_each(self, cache, monkeypatch):
        # One grid (so one process pool under jobs > 1) per exhibit, with
        # the data the per-benchmark sweeps give.
        from repro.sim.sweep import sweep_czone_bits, sweep_n_streams

        real = experiments.grid_stats
        grids = []

        def counting(tasks, **kwargs):
            grids.append(len(tasks))
            return real(tasks, **kwargs)

        monkeypatch.setattr(experiments, "grid_stats", counting)
        names = ("stride", "sweep")
        figure3 = experiments.figure3(names=names, n_values=(1, 4), cache=cache)
        figure9 = experiments.figure9(names=names, czone_bits_values=(8, 14), cache=cache)
        assert grids == [4, 4]
        for name in names:
            for data, sweep in (
                (figure3, sweep_n_streams(name, (1, 4), cache=cache)),
                (figure9, sweep_czone_bits(name, (8, 14), cache=cache)),
            ):
                assert data[name] == {key: s.hit_rate_percent for key, s in sweep.items()}

class TestTable4:
    def test_scaling_rows(self, cache):
        rows = experiments.table4(scales={"buk": (0.25, 0.5)}, cache=cache)
        assert len(rows) == 2
        assert rows[0].scale == 0.25
        out = experiments.render_table4(rows)
        assert "Table 4" in out
        assert "min L2" in out
