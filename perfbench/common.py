"""Measurement helpers shared by every workload.

Everything here is independent of the program under test: percentiles
and the tail rule, the per-run outcome record, the metric catalogue and
the provenance row appended to ``results/runs.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Metric and workload names: a letter or digit, then up to 63 of [A-Za-z0-9_.-].
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: The tail metric is the highest percentile with this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: End-to-end metrics, printed with ``--trace 0`` on every workload.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, printed with ``--trace 1`` on every workload.  A
#: layer a workload does not reach reports 0.  Times and counts are per
#: pass: one whole grid (sweeps), one round of all searches (table4), or
#: the whole traced window (serve-zipf).
PER_LAYER = {
    "workloads.build_s": "s",
    "workloads.accesses": "count",
    "l1.simulate_s": "s",
    "l1.accesses_per_s": "1/s",
    "l1.misses": "count",
    "secondary.replay_s": "s",
    "secondary.events_per_s": "1/s",
    "secondary.replays": "count",
    "secondary.scalar_frac": "ratio",
    "l2.probe_s": "s",
    "l2.configs_simulated": "count",
    "l2.ms_per_config": "ms",
    "analytic.profile_s": "s",
    "analytic.sizes_pruned": "count",
    "analytic.configs_simulated": "count",
    "store.save_s": "s",
    "store.bytes_written": "bytes",
    "store.load_s": "s",
    "store.bytes_read": "bytes",
    "store.hit_ratio": "ratio",
    "grid.self_s": "s",
    "service.self_s": "s",
    "service.admission_wait_p50_ms": "ms",
    "service.admission_wait_p99_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.result_cache_hit_ratio": "ratio",
    "service.coalesce_hit_ratio": "ratio",
    "service.batch_cells_mean": "count",
    "service.cells_executed": "count",
    "fleet.self_s": "s",
    "fleet.chunk_p50_ms": "ms",
    "fleet.chunk_p99_ms": "ms",
    "fleet.dispatch_cells": "count",
    "fleet.retries": "count",
    "fleet.local_fallback_cells": "count",
    "obs.overhead_frac": "ratio",
    "unattributed_frac": "ratio",
    "model.fig3_hit_err_pp": "pp",
}


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_rank(n: int) -> int:
    """0-based rank in the sorted sample that the tail metric reports.

    The highest percentile with at least 10 samples beyond it is the
    11th largest sample.  Below 21 samples that would sit under the
    median, so the median stands in.
    """
    if n < 2 * TAIL_MIN_BEYOND + 1:
        return (n - 1) // 2
    return n - TAIL_MIN_BEYOND - 1


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process (``getrusage``), MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


@dataclass
class OpLog:
    """What one timed window did: op latencies, failures, wall time."""

    latencies_s: List[float] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0
    passes: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)

    def ops_per_s(self) -> float:
        return self.attempted / self.wall_s if self.wall_s > 0 else 0.0


def latency_metrics(log: OpLog) -> Tuple[Dict[str, float], dict]:
    """Median and tail latency of a window, plus the tail's provenance."""
    values_ms = sorted(1e3 * s for s in log.latencies_s)
    n = len(values_ms)
    rank = tail_rank(n)
    metrics = {
        "latency_p50_ms": percentile(values_ms, 50.0),
        "latency_tail_ms": values_ms[rank],
    }
    info = {
        "tail_percentile": round(100.0 * (rank + 1) / n, 3) if n > 2 * TAIL_MIN_BEYOND else 50.0,
        "samples": n,
        "samples_beyond": n - rank - 1,
    }
    return metrics, info


@dataclass
class Outcome:
    """Everything one benchmark invocation reports."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def absorb(self, log: OpLog) -> None:
        self.attempted += log.attempted
        self.failed += log.failed
        self.failures.extend(log.failures)

    def result_line(self, trace: bool) -> dict:
        """The final JSON object: exactly the contract's four keys."""
        catalogue = PER_LAYER if trace else END_TO_END
        source = self.per_layer if trace else self.end_to_end
        missing = sorted(set(catalogue) - set(source))
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(source[name]), "unit": unit}
                for name, unit in catalogue.items()
            },
        }


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def timed(fn) -> Tuple[float, object]:
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


# -- provenance -------------------------------------------------------------


def _git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def src_digest(root: Path) -> str:
    """Content digest of every Python file under ``src/`` (path + bytes).

    Identifies the code measured even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(root),
        "src_digest": src_digest(root),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def append_row(path: Path, row: dict) -> None:
    """Append one run row to the benchmark's JSON-lines history."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def log(message: str) -> None:
    """Progress for humans; the result line alone goes last on stdout."""
    print(message, flush=True)
    sys.stdout.flush()
