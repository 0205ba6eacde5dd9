"""One driver per table and figure of the paper's evaluation.

Each ``table*``/``figure*`` function runs the experiment and returns
structured data; the matching ``render_*`` function produces the
plain-text exhibit with the paper's published value beside every measured
one.  The benchmark harness under ``benchmarks/`` calls these and prints
the rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.config import StreamConfig
from repro.core.lengths import LENGTH_BUCKETS, bucket_label
from repro.core.prefetcher import StreamStats
from repro.mechanisms import MechanismConfig, mechanism_label
from repro.reporting import paper_data
from repro.reporting.figures import render_series
from repro.reporting.tables import render_table
from repro.sim.compare import MatchResult, format_size, min_matching_l2_size
from repro.sim.parallel import SweepTask, grid_stats
from repro.sim.runner import MissTraceCache, default_cache
from repro.trace.store import TraceStore
from repro.workloads import (
    NON_UNIT_STRIDE_BENCHMARKS,
    PAPER_BENCHMARKS,
    TABLE4_SCALES,
)

__all__ = [
    "table1",
    "render_table1",
    "figure3",
    "render_figure3",
    "table2",
    "render_table2",
    "table3",
    "render_table3",
    "figure5",
    "render_figure5",
    "figure8",
    "render_figure8",
    "figure9",
    "render_figure9",
    "table4",
    "render_table4",
    "analytic4",
    "render_analytic4",
    "default_zoo",
    "mechzoo",
    "render_mechzoo",
]

#: The czone size used wherever the paper's non-unit stride filter is on
#: but Figure 9 is not being swept (a value inside every benchmark's
#: effective band).
DEFAULT_CZONE_BITS = 19


def _replay_grid(
    names: Sequence[str],
    configs: Dict[Hashable, StreamConfig],
    cache: Optional[MissTraceCache],
    jobs: int,
    store: Optional[TraceStore],
) -> Dict[Tuple[str, Hashable], StreamStats]:
    """Every benchmark under every labelled config, as one sweep grid.

    Keyed by ``(benchmark, config label)``.  Going through the parallel
    engine lets ``jobs`` fan the cells out and a warm ``store`` serve
    each one without a replay.
    """
    cache = cache if cache is not None else default_cache()
    tasks = [
        SweepTask(key=(name, label), workload=name, config=config)
        for name in names
        for label, config in configs.items()
    ]
    return grid_stats(tasks, jobs=jobs, cache=cache, store=store)


# -- Table 1 ----------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    """Benchmark characteristics, measured vs paper."""

    name: str
    suite: str
    model_data_mb: float
    model_miss_rate_pct: float
    paper_data_mb: float
    paper_miss_rate_pct: float


def table1(
    names: Sequence[str] = PAPER_BENCHMARKS,
    cache: Optional[MissTraceCache] = None,
) -> List[Table1Row]:
    """Benchmark characteristics (model vs paper Table 1)."""
    cache = cache if cache is not None else default_cache()
    rows = []
    for name in names:
        _, summary = cache.get(name)
        suite, _input, data_mb, miss_pct, _mpi = paper_data.TABLE1[name]
        rows.append(
            Table1Row(
                name=name,
                suite=suite,
                model_data_mb=summary.data_set_bytes / (1 << 20),
                model_miss_rate_pct=100.0 * summary.miss_rate,
                paper_data_mb=data_mb,
                paper_miss_rate_pct=miss_pct,
            )
        )
    return rows


def render_table1(rows: List[Table1Row]) -> str:
    """Render Table 1 with paper values beside measured ones."""
    return render_table(
        ["bench", "suite", "data MB", "paper MB", "miss %", "paper miss %"],
        [
            [
                r.name,
                r.suite,
                r.model_data_mb,
                r.paper_data_mb,
                r.model_miss_rate_pct,
                r.paper_miss_rate_pct,
            ]
            for r in rows
        ],
        title="Table 1: benchmark characteristics (model vs paper)",
        precision=2,
    )


# -- Figure 3 ---------------------------------------------------------------


def figure3(
    names: Sequence[str] = PAPER_BENCHMARKS,
    n_values: Sequence[int] = tuple(range(1, 11)),
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional["TraceStore"] = None,
) -> Dict[str, Dict[int, float]]:
    """Hit rate vs number of streams (unfiltered, depth 2).

    ``jobs``/``store`` fan the whole grid out through the parallel engine
    and its persistent trace store (see repro.sim.parallel).
    """
    configs = {n: StreamConfig.jouppi().with_(n_streams=n) for n in n_values}
    grid = _replay_grid(names, configs, cache, jobs, store)
    return {name: {n: grid[(name, n)].hit_rate_percent for n in n_values} for name in names}


def render_figure3(data: Dict[str, Dict[int, float]]) -> str:
    """Render Figure 3 as an ASCII chart plus an endpoint table."""
    chart = render_series(
        {name: {float(n): hit for n, hit in series.items()} for name, series in data.items()},
        y_label="stream hit rate %",
        x_label="number of streams",
        y_max=100.0,
        title="Figure 3: hit rate vs number of streams",
    )
    rows = []
    for name, series in data.items():
        final = series[max(series)]
        rows.append([name, final, paper_data.FIGURE3_HIT_AT_10.get(name)])
    table = render_table(
        ["bench", "hit % @ max streams", "paper ~%"],
        rows,
        title="Figure 3 endpoints (ten streams)",
    )
    return chart + "\n\n" + table


# -- Table 2 ----------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    name: str
    eb_measured_pct: float
    eb_estimate_pct: float
    paper_eb_pct: Optional[int]


def table2(
    names: Sequence[str] = PAPER_BENCHMARKS,
    n_streams: int = 10,
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional["TraceStore"] = None,
) -> List[Table2Row]:
    """Extra bandwidth of ordinary (unfiltered) streams."""
    grid = _replay_grid(
        names, {"jouppi": StreamConfig.jouppi(n_streams=n_streams)}, cache, jobs, store
    )
    rows = []
    for name in names:
        stats = grid[name, "jouppi"]
        rows.append(
            Table2Row(
                name=name,
                eb_measured_pct=stats.bandwidth.eb_measured,
                eb_estimate_pct=stats.bandwidth.eb_estimate,
                paper_eb_pct=paper_data.TABLE2_EB.get(name),
            )
        )
    return rows


def render_table2(rows: List[Table2Row]) -> str:
    """Render Table 2 (measured and closed-form EB vs paper)."""
    return render_table(
        ["bench", "EB % (measured)", "EB % (S*D/M)", "paper EB %"],
        [[r.name, r.eb_measured_pct, r.eb_estimate_pct, r.paper_eb_pct] for r in rows],
        title="Table 2: extra bandwidth of ordinary streams",
    )


# -- Table 3 ----------------------------------------------------------------


def table3(
    names: Sequence[str] = PAPER_BENCHMARKS,
    n_streams: int = 10,
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional["TraceStore"] = None,
) -> Dict[str, List[float]]:
    """Stream length distribution (% hits per bucket), ten streams."""
    grid = _replay_grid(
        names, {"jouppi": StreamConfig.jouppi(n_streams=n_streams)}, cache, jobs, store
    )
    return {name: grid[name, "jouppi"].lengths.as_row() for name in names}


def render_table3(data: Dict[str, List[float]]) -> str:
    """Render Table 3 with the paper's 1-5 / >20 endpoints."""
    headers = ["bench"] + [bucket_label(b) for b in LENGTH_BUCKETS] + [
        "paper 1-5",
        "paper >20",
    ]
    rows = []
    for name, buckets in data.items():
        short, long_ = paper_data.TABLE3_SHORT_LONG.get(name, (None, None))
        rows.append([name] + [round(v) for v in buckets] + [short, long_])
    return render_table(
        headers, rows, title="Table 3: distribution of stream lengths (% of hits)"
    )


# -- Figure 5 ---------------------------------------------------------------


@dataclass(frozen=True)
class Figure5Row:
    name: str
    hit_no_filter: float
    hit_with_filter: float
    eb_no_filter: float
    eb_with_filter: float


def figure5(
    names: Sequence[str] = PAPER_BENCHMARKS,
    n_streams: int = 10,
    filter_entries: int = 16,
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional["TraceStore"] = None,
) -> List[Figure5Row]:
    """Hit rate and EB with vs without the unit-stride filter."""
    configs = {
        "plain": StreamConfig.jouppi(n_streams=n_streams),
        "filtered": StreamConfig.filtered(n_streams=n_streams, entries=filter_entries),
    }
    grid = _replay_grid(names, configs, cache, jobs, store)
    rows = []
    for name in names:
        plain, filtered = grid[name, "plain"], grid[name, "filtered"]
        rows.append(
            Figure5Row(
                name=name,
                hit_no_filter=plain.hit_rate_percent,
                hit_with_filter=filtered.hit_rate_percent,
                eb_no_filter=plain.bandwidth.eb_measured,
                eb_with_filter=filtered.bandwidth.eb_measured,
            )
        )
    return rows


def render_figure5(rows: List[Figure5Row]) -> str:
    """Render the Figure 5 filter-effect table."""
    return render_table(
        ["bench", "hit %", "hit % w/ filter", "EB %", "EB % w/ filter"],
        [
            [r.name, r.hit_no_filter, r.hit_with_filter, r.eb_no_filter, r.eb_with_filter]
            for r in rows
        ],
        title="Figure 5: effect of the unit-stride filter (16 entries, 10 streams)",
    )


# -- Figure 8 ---------------------------------------------------------------


@dataclass(frozen=True)
class Figure8Row:
    name: str
    hit_unit_only: float
    hit_constant_stride: float
    paper_unit: Optional[float]
    paper_stride: Optional[float]


def figure8(
    names: Sequence[str] = PAPER_BENCHMARKS,
    n_streams: int = 10,
    czone_bits: int = DEFAULT_CZONE_BITS,
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional["TraceStore"] = None,
) -> List[Figure8Row]:
    """Unit-stride-only vs constant-stride-detecting streams (filtered)."""
    configs = {
        "unit": StreamConfig.filtered(n_streams=n_streams),
        "stride": StreamConfig.non_unit(n_streams=n_streams, czone_bits=czone_bits),
    }
    grid = _replay_grid(names, configs, cache, jobs, store)
    rows = []
    for name in names:
        unit, stride = grid[name, "unit"], grid[name, "stride"]
        paper = paper_data.FIGURE8_GAINS.get(name)
        rows.append(
            Figure8Row(
                name=name,
                hit_unit_only=unit.hit_rate_percent,
                hit_constant_stride=stride.hit_rate_percent,
                paper_unit=paper[0] if paper else None,
                paper_stride=paper[1] if paper else None,
            )
        )
    return rows


def render_figure8(rows: List[Figure8Row]) -> str:
    """Render the Figure 8 stride-detection table."""
    return render_table(
        ["bench", "unit-only %", "const-stride %", "paper unit", "paper stride"],
        [
            [r.name, r.hit_unit_only, r.hit_constant_stride, r.paper_unit, r.paper_stride]
            for r in rows
        ],
        title="Figure 8: non-unit stride detection (10 streams, 16-entry filters)",
    )


# -- Figure 9 ---------------------------------------------------------------


def figure9(
    names: Sequence[str] = NON_UNIT_STRIDE_BENCHMARKS,
    czone_bits_values: Sequence[int] = tuple(range(10, 27, 2)),
    cache: Optional[MissTraceCache] = None,
    jobs: int = 1,
    store: Optional["TraceStore"] = None,
) -> Dict[str, Dict[int, float]]:
    """Hit rate vs czone size for the non-unit stride benchmarks.

    ``jobs``/``store`` fan the whole grid out through the parallel engine
    and its persistent trace store (see repro.sim.parallel).
    """
    configs = {bits: StreamConfig.non_unit().with_(czone_bits=bits) for bits in czone_bits_values}
    grid = _replay_grid(names, configs, cache, jobs, store)
    return {
        name: {bits: grid[(name, bits)].hit_rate_percent for bits in czone_bits_values}
        for name in names
    }


def render_figure9(data: Dict[str, Dict[int, float]]) -> str:
    """Render Figure 9 as an ASCII chart plus a band summary."""
    chart = render_series(
        {name: {float(b): h for b, h in series.items()} for name, series in data.items()},
        y_label="stream hit rate %",
        x_label="czone bits",
        y_max=100.0,
        title="Figure 9: hit-rate sensitivity to czone size",
    )
    rows = []
    for name, series in data.items():
        best_bits = max(series, key=series.get)
        rows.append([name, best_bits, series[best_bits], min(series.values())])
    table = render_table(
        ["bench", "best czone bits", "best hit %", "worst hit %"],
        rows,
        title="Figure 9 summary",
    )
    return chart + "\n\n" + table


# -- Table 4 ----------------------------------------------------------------


@dataclass(frozen=True)
class Table4Row:
    name: str
    scale: float
    stream_hit_pct: float
    min_l2: str
    paper_input: Optional[str]
    paper_hit_pct: Optional[int]
    paper_min_l2: Optional[str]
    match: MatchResult


def table4(
    scales: Optional[Dict[str, Tuple[float, float]]] = None,
    cache: Optional[MissTraceCache] = None,
) -> List[Table4Row]:
    """Streams vs secondary caches across input scales."""
    scales = scales if scales is not None else TABLE4_SCALES
    cache = cache if cache is not None else default_cache()
    rows = []
    for name, pair in scales.items():
        paper_pair = paper_data.TABLE4.get(name)
        for index, scale in enumerate(pair):
            match = min_matching_l2_size(name, scale=scale, cache=cache)
            paper_cell = paper_pair[index] if paper_pair else None
            rows.append(
                Table4Row(
                    name=name,
                    scale=scale,
                    stream_hit_pct=match.stream_hit_rate_percent,
                    min_l2=format_size(match.matched_size),
                    paper_input=paper_cell[0] if paper_cell else None,
                    paper_hit_pct=paper_cell[1] if paper_cell else None,
                    paper_min_l2=paper_cell[2] if paper_cell else None,
                    match=match,
                )
            )
    return rows


def render_table4(rows: List[Table4Row]) -> str:
    """Render Table 4 (stream hit and min matching L2 vs paper)."""
    return render_table(
        ["bench", "scale", "stream hit %", "min L2", "paper hit %", "paper min L2"],
        [
            [r.name, r.scale, r.stream_hit_pct, r.min_l2, r.paper_hit_pct, r.paper_min_l2]
            for r in rows
        ],
        title="Table 4: stream buffers versus secondary cache across input scales",
        precision=2,
    )


# -- analytic Table 4 screen ------------------------------------------------


@dataclass(frozen=True)
class AnalyticScreenRow:
    """One (workload, scale) cell of the analytic-vs-simulated screen.

    Attributes:
        name / scale: the Table 4 cell.
        stream_hit_pct: stream hit rate being matched.
        min_l2_analytic: matched size from the analytic screen.
        min_l2_simulated: matched size from the pure binary search
            (``"-"`` when verification was skipped).
        configs_analytic / configs_simulated: L2 configurations each
            path simulated (out of ``grid_configs``).
        grid_configs: size of the full candidate grid.
        agree: both paths returned the same matched size.
    """

    name: str
    scale: float
    stream_hit_pct: float
    min_l2_analytic: str
    min_l2_simulated: str
    configs_analytic: int
    configs_simulated: int
    grid_configs: int
    agree: bool


def analytic4(
    names: Optional[Sequence[str]] = None,
    scales: Optional[Dict[str, Tuple[float, float]]] = None,
    cache: Optional[MissTraceCache] = None,
    verify: bool = True,
) -> List[AnalyticScreenRow]:
    """Table 4 via the analytic screen, cross-checked against simulation.

    Runs :func:`repro.analytic.screen.min_matching_l2_size_analytic` on
    every Table 4 cell and (by default) the pure-simulation search too,
    recording whether the matched sizes agree and how many of the
    candidate configurations each path actually simulated.
    """
    from repro.analytic import min_matching_l2_size_analytic
    from repro.caches.secondary import PAPER_L2_ASSOCS, PAPER_L2_BLOCKS, PAPER_L2_SIZES

    scales = scales if scales is not None else TABLE4_SCALES
    if names is not None:
        scales = {k: v for k, v in scales.items() if k in names}
    cache = cache if cache is not None else default_cache()
    grid = len(PAPER_L2_SIZES) * len(PAPER_L2_ASSOCS) * len(PAPER_L2_BLOCKS)
    rows = []
    for name, pair in scales.items():
        for scale in pair:
            analytic = min_matching_l2_size_analytic(name, scale=scale, cache=cache)
            if verify:
                simulated = min_matching_l2_size(name, scale=scale, cache=cache)
                min_l2_simulated = format_size(simulated.matched_size)
                configs_simulated = simulated.configs_simulated
                agree = simulated.matched_size == analytic.matched_size
            else:
                min_l2_simulated = "-"
                configs_simulated = 0
                agree = True
            rows.append(
                AnalyticScreenRow(
                    name=name,
                    scale=scale,
                    stream_hit_pct=analytic.stream_hit_rate_percent,
                    min_l2_analytic=format_size(analytic.matched_size),
                    min_l2_simulated=min_l2_simulated,
                    configs_analytic=analytic.configs_simulated,
                    configs_simulated=configs_simulated,
                    grid_configs=grid,
                    agree=agree,
                )
            )
    return rows


def render_analytic4(rows: List[AnalyticScreenRow]) -> str:
    """Render the analytic-screen exhibit with its simulation budget."""
    table = render_table(
        ["bench", "scale", "stream hit %", "analytic L2", "simulated L2", "cfgs", "brute cfgs"],
        [
            [
                r.name,
                r.scale,
                r.stream_hit_pct,
                r.min_l2_analytic,
                r.min_l2_simulated,
                f"{r.configs_analytic}/{r.grid_configs}",
                f"{r.configs_simulated}/{r.grid_configs}",
            ]
            for r in rows
        ],
        title="Analytic Table 4 screen: stack-distance search vs brute force",
        precision=2,
    )
    disagreements = [r for r in rows if not r.agree]
    if disagreements:
        cells = ", ".join(f"{r.name}@{r.scale:g}" for r in disagreements)
        return table + f"\n\nDISAGREEMENTS: {cells}"
    return table + "\n\nall matched sizes agree with brute-force simulation"


# -- mechanism zoo ----------------------------------------------------------


def default_zoo() -> Dict[str, MechanismConfig]:
    """The headline mechanism set: streams, VC, MC, and both hybrids.

    The victim/miss caches use Jouppi's canonical fully-associative
    sizes (16 entries); the victim cache's shadow tag array defaults to
    the paper L1 geometry (256 sets, 4-way).  Labels come from
    :func:`~repro.mechanisms.mechanism_label` so they match CLI specs.
    """
    zoo = (
        MechanismConfig.for_streams(),
        MechanismConfig.victim(16),
        MechanismConfig.misscache(16),
        MechanismConfig.hybrid(
            MechanismConfig.victim(16), MechanismConfig.for_streams()
        ),
        MechanismConfig.hybrid(
            MechanismConfig.misscache(16), MechanismConfig.for_streams()
        ),
    )
    return {mechanism_label(mech): mech for mech in zoo}


@dataclass(frozen=True)
class MechZooRow:
    """One (workload, scale, mechanism) cell of the mechanism zoo."""

    name: str
    scale: float
    mechanism: str
    hit_pct: float
    min_l2: str
    configs_simulated: int
    sizes_pruned: int
    match: MatchResult


def mechzoo(
    names: Optional[Sequence[str]] = None,
    scales: Optional[Dict[str, Tuple[float, float]]] = None,
    cache: Optional[MissTraceCache] = None,
    mechanisms: Optional[Dict[str, MechanismConfig]] = None,
    analytic: bool = True,
) -> List[MechZooRow]:
    """Minimum matching L2 per secondary mechanism (the headline zoo).

    For every benchmark (at its Table 4 scales where defined, else 1.0)
    and every mechanism in the zoo, find the smallest secondary cache
    whose hit rate matches the mechanism's — Table 4 generalised from
    streams to the whole mechanism family.  The default path goes
    through the analytic screen (mechanism-agnostic pruning; see
    docs/analytic.md), so every reported match is still witnessed by
    real sampled simulation; ``analytic=False`` forces the brute-force
    search instead.
    """
    names = names if names is not None else PAPER_BENCHMARKS
    scales = scales if scales is not None else TABLE4_SCALES
    cache = cache if cache is not None else default_cache()
    mechanisms = mechanisms if mechanisms is not None else default_zoo()
    rows = []
    for name in names:
        for scale in scales.get(name, (1.0,)):
            for mech in mechanisms.values():
                if analytic:
                    from repro.analytic import min_matching_l2_size_analytic

                    match = min_matching_l2_size_analytic(
                        name, scale=scale, cache=cache, mechanism=mech
                    )
                else:
                    match = min_matching_l2_size(
                        name, scale=scale, cache=cache, mechanism=mech
                    )
                rows.append(
                    MechZooRow(
                        name=name,
                        scale=scale,
                        mechanism=match.mechanism,
                        hit_pct=match.stream_hit_rate_percent,
                        min_l2=format_size(match.matched_size),
                        configs_simulated=match.configs_simulated,
                        sizes_pruned=match.sizes_pruned,
                        match=match,
                    )
                )
    return rows


def render_mechzoo(rows: List[MechZooRow]) -> str:
    """Render the zoo as a (bench, scale) x mechanism pivot table."""
    order: List[str] = []
    cells: Dict[Tuple[str, float, str], str] = {}
    keys: List[Tuple[str, float]] = []
    for r in rows:
        if r.mechanism not in order:
            order.append(r.mechanism)
        if (r.name, r.scale) not in keys:
            keys.append((r.name, r.scale))
        cells[(r.name, r.scale, r.mechanism)] = f"{r.min_l2} @{r.hit_pct:.1f}%"
    table = render_table(
        ["bench", "scale"] + order,
        [
            [name, scale] + [cells.get((name, scale, mech), "-") for mech in order]
            for name, scale in keys
        ],
        title="Mechanism zoo: min matching L2 (hit % matched) per mechanism",
        precision=2,
    )
    simulated = sum(r.configs_simulated for r in rows)
    pruned = sum(r.sizes_pruned for r in rows)
    return table + (
        f"\n\ncells: {len(rows)}; L2 configurations simulated: {simulated}; "
        f"ladder sizes pruned analytically: {pruned}; "
        "every reported match witnessed by sampled simulation"
    )


# -- exhibit registry -------------------------------------------------------

#: Canonical (driver, renderer) registry of every exhibit, shared by the
#: CLI (``repro exhibit``) and the service (``POST /v1/exhibit``).
EXHIBITS = {
    "table1": (table1, render_table1),
    "figure3": (figure3, render_figure3),
    "table2": (table2, render_table2),
    "table3": (table3, render_table3),
    "figure5": (figure5, render_figure5),
    "figure8": (figure8, render_figure8),
    "figure9": (figure9, render_figure9),
    "table4": (table4, render_table4),
    "analytic4": (analytic4, render_analytic4),
    "mechzoo": (mechzoo, render_mechzoo),
}

#: Exhibits whose drivers fan out through the parallel sweep engine and
#: therefore accept ``jobs``/``store`` arguments.
SWEEP_EXHIBITS = ("figure3", "table2", "table3", "figure5", "figure8", "figure9")

__all__ += ["EXHIBITS", "SWEEP_EXHIBITS"]
