"""Repository-quality meta-tests: docs coverage, data consistency,
and golden regression pins for headline numbers."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.reporting import paper_data
from repro.workloads import PAPER_BENCHMARKS


def iter_public_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


class TestDocstringCoverage:
    def test_every_module_documented(self):
        undocumented = [
            module.__name__ for module in iter_public_modules() if not module.__doc__
        ]
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_every_public_class_and_function_documented(self):
        missing = []
        for module in iter_public_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at home
                if not inspect.getdoc(obj):
                    missing.append(f"{module.__name__}.{name}")
        assert not missing, f"undocumented public items: {missing}"

    def test_all_exports_resolve(self):
        for module in iter_public_modules():
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


class TestPaperDataConsistency:
    def test_every_benchmark_in_every_reference_table(self):
        for table in (
            paper_data.TABLE1,
            paper_data.FIGURE3_HIT_AT_10,
            paper_data.TABLE2_EB,
            paper_data.TABLE3_SHORT_LONG,
        ):
            assert set(table) == set(PAPER_BENCHMARKS)

    def test_table4_benchmarks_registered(self):
        assert set(paper_data.TABLE4) <= set(PAPER_BENCHMARKS)

    def test_figure8_gains_are_the_non_unit_stride_set(self):
        from repro.workloads import NON_UNIT_STRIDE_BENCHMARKS

        assert set(paper_data.FIGURE8_GAINS) == set(NON_UNIT_STRIDE_BENCHMARKS)

    def test_reference_values_sane(self):
        for name, (short, long_) in paper_data.TABLE3_SHORT_LONG.items():
            assert 0 <= short <= 100 and 0 <= long_ <= 100, name
        for name, eb in paper_data.TABLE2_EB.items():
            assert 0 < eb < 250, name


class TestHarnessIntegrity:
    def test_benchmark_files_collect(self):
        """Every bench module must import cleanly (a broken bench would
        otherwise only surface in the slow harness run)."""
        import pathlib
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks/", "--collect-only", "-q"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "error" not in result.stdout.lower()

    def test_examples_compile(self):
        """Every example script must at least compile."""
        import pathlib
        import py_compile

        root = pathlib.Path(__file__).resolve().parent.parent
        for script in sorted((root / "examples").glob("*.py")):
            py_compile.compile(str(script), doraise=True)


class TestGoldenNumbers:
    """Headline numbers pinned at fixed seeds: catches silent model or
    simulator drift without waiting for the benchmark harness.  If a
    deliberate change moves one, recalibrate against the paper band and
    update the pin *and* EXPERIMENTS.md together."""

    PINS = {
        # name: (hit % at 10 unfiltered streams, abs tolerance)
        "buk": (68.5, 2.5),
        "appbt": (76.3, 2.5),
        "trfd": (49.3, 2.5),
        "mdg": (44.9, 2.5),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_pinned_hit_rate(self, name):
        from repro.core import StreamConfig
        from repro.sim import run_result

        expected, tolerance = self.PINS[name]
        stats = run_result(name, StreamConfig.jouppi(n_streams=10)).streams
        assert stats.hit_rate_percent == pytest.approx(expected, abs=tolerance)
