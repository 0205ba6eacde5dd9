"""Simulation drivers: runners, sweeps and the L2 comparison."""

from repro.sim.compare import MatchResult, format_size, min_matching_l2_size
from repro.sim.parallel import (
    SweepExecutionError,
    SweepTask,
    TaskError,
    grid_stats,
    run_grid,
)
from repro.sim.replication import MetricSummary, replicate, summarize
from repro.sim.results import L1Summary, RunResult
from repro.sim.runner import (
    MissTraceCache,
    default_cache,
    resolve_workload_ref,
    run_result,
    simulate_l1,
)
from repro.sim.sweep import (
    compare_configs,
    sweep_czone_bits,
    sweep_depth,
    sweep_n_streams,
)
from repro.sim.vector import (
    replay_streams,
    vector_replay_streams,
    vector_simulate_cache,
    vector_simulate_secondary,
)
from repro.sim.system import MemorySystem, ServiceLevel, SystemStats

__all__ = [
    "L1Summary",
    "MatchResult",
    "MemorySystem",
    "MetricSummary",
    "MissTraceCache",
    "RunResult",
    "ServiceLevel",
    "SweepExecutionError",
    "SweepTask",
    "SystemStats",
    "TaskError",
    "compare_configs",
    "default_cache",
    "format_size",
    "grid_stats",
    "min_matching_l2_size",
    "replay_streams",
    "replicate",
    "resolve_workload_ref",
    "run_grid",
    "run_result",
    "summarize",
    "simulate_l1",
    "sweep_czone_bits",
    "sweep_depth",
    "sweep_n_streams",
    "vector_replay_streams",
    "vector_simulate_cache",
    "vector_simulate_secondary",
]
