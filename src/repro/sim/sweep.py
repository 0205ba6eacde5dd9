"""Parameter sweeps over cached miss traces.

Each sweep replays the same miss trace under a family of stream
configurations — the paper's Figure 3 (stream count), Figure 5 (filter
on/off), Figure 8 (stride detector on/off) and Figure 9 (czone size) are
all instances — or, through :func:`compare_configs`, under any named
set of stream or mechanism configurations.

All sweeps execute through :mod:`repro.sim.parallel`: pass ``jobs=N`` to
fan the grid out over worker processes and ``store=`` a
:class:`~repro.trace.store.TraceStore` to reuse L1 simulations and
replay results across processes and sessions.  Serial (``jobs=1``) and
parallel execution produce bit-identical statistics.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.core.config import StreamConfig, StrideDetector
from repro.core.prefetcher import StreamStats
from repro.mechanisms import MechanismConfig, MechStats
from repro.sim.parallel import SweepTask, grid_stats
from repro.sim.runner import MissTraceCache, default_cache
from repro.trace.store import TraceStore
from repro.workloads.base import Workload

__all__ = [
    "sweep_n_streams",
    "sweep_czone_bits",
    "sweep_depth",
    "compare_configs",
]

WorkloadRef = Union[str, Workload]


def sweep_n_streams(
    workload: WorkloadRef,
    n_streams_values: Sequence[int] = tuple(range(1, 11)),
    base: Optional[StreamConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional[TraceStore] = None,
) -> Dict[int, StreamStats]:
    """Hit rate vs number of streams (Figure 3's x-axis)."""
    base = base if base is not None else StreamConfig.jouppi()
    cache = cache if cache is not None else default_cache()
    tasks = [
        SweepTask(key=n, workload=workload, config=base.with_(n_streams=n),
                  scale=scale, seed=seed)
        for n in n_streams_values
    ]
    return grid_stats(tasks, jobs=jobs, cache=cache, store=store)


def sweep_czone_bits(
    workload: WorkloadRef,
    czone_bits_values: Sequence[int] = tuple(range(10, 27, 2)),
    base: Optional[StreamConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional[TraceStore] = None,
) -> Dict[int, StreamStats]:
    """Hit rate vs concentration-zone size (Figure 9)."""
    base = base if base is not None else StreamConfig.non_unit()
    if base.stride_detector != StrideDetector.CZONE:
        raise ValueError("sweep_czone_bits requires a czone-detector base config")
    cache = cache if cache is not None else default_cache()
    tasks = [
        SweepTask(key=bits, workload=workload, config=base.with_(czone_bits=bits),
                  scale=scale, seed=seed)
        for bits in czone_bits_values
    ]
    return grid_stats(tasks, jobs=jobs, cache=cache, store=store)


def sweep_depth(
    workload: WorkloadRef,
    depth_values: Sequence[int] = (1, 2, 3, 4, 6, 8),
    base: Optional[StreamConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional[TraceStore] = None,
) -> Dict[int, StreamStats]:
    """Hit rate / EB vs stream depth (the paper fixes depth=2; ablation)."""
    base = base if base is not None else StreamConfig.jouppi()
    cache = cache if cache is not None else default_cache()
    tasks = [
        SweepTask(key=depth, workload=workload, config=base.with_(depth=depth),
                  scale=scale, seed=seed)
        for depth in depth_values
    ]
    return grid_stats(tasks, jobs=jobs, cache=cache, store=store)


def compare_configs(
    workload: WorkloadRef,
    configs: Dict[str, Union[StreamConfig, MechanismConfig]],
    scale: float = 1.0,
    seed: int = 0,
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional[TraceStore] = None,
) -> Dict[str, Union[StreamStats, MechStats]]:
    """Run several named configurations over one miss trace.

    Each cell replays the same cached miss trace through a
    :class:`StreamConfig` (reported as :class:`StreamStats`) or any
    :class:`~repro.mechanisms.MechanismConfig` — streams, victim cache,
    miss cache or a hybrid stack (reported as :class:`MechStats`) —
    through the store-memoised grid engine.
    """
    cache = cache if cache is not None else default_cache()
    tasks = [
        SweepTask(key=label, workload=workload, config=config, scale=scale, seed=seed)
        for label, config in configs.items()
    ]
    return grid_stats(tasks, jobs=jobs, cache=cache, store=store)
