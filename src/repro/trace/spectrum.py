"""Run-length/stride spectrum extraction from L1 miss traces.

The paper's Sections 5-8 argue that a stream buffer's hit rate is a
function of the miss stream's *structure*: how long the sequential and
strided runs are, how runs interleave, and how often write-backs land on
a run's prefetch window.  This module extracts exactly that structure in
one pass so :mod:`repro.analytic.streams` can evaluate every
``n_streams``/filter/czone configuration in closed form, without replay.

The decomposition is **configuration-free** and deterministic; it is the
contract the analytic model consumes and the differ's naive reference
(:func:`naive_spectrum`) re-implements independently:

* Each demand miss (read/write/ifetch alike — the model handles lane
  partitioning) either **continues** an open run, **seeds** a new run, or
  is a **lone** miss.
* A run is continued when the miss's block equals the run's expected
  next block; the expectation then advances by the run's stride.  If the
  advanced expectation collides with another open run's, the run closes.
* An ascending (descending) unit run is seeded when the previous block
  ``b-1`` (next block ``b+1``) sits in a :data:`SPECTRUM_WINDOW`-entry
  recency window of lone-miss blocks — the idealized analogue of the
  Section 6 unit-stride filter, generous enough to cover every filter
  capacity the sweeps use.  The matching window entry is consumed; the
  run opens with length 2 (primer + seeder) and records the primer's
  *age* (allocation events since the primer was inserted) so the model
  can tell whether a real, finite filter would still hold the primer.
* A non-unit run is seeded exactly like the Section 7 czone FSM, but
  over generous :data:`SPECTRUM_ZONE_BITS` partitions: two equal,
  block-advancing deltas within one partition open a run of length 3.
  The run records its true start address and byte stride, so the model
  can replay the *config's* czone training walk arithmetically.
* Anything else is a lone miss: it enters the recency window and the
  partition table, and bumps the global **allocation-pressure** counter
  (lone misses and run seeds are the events that displace filter and
  stream state).
* Per run, per gap between consecutive tracked elements, two pressure
  statistics are folded into small histograms.  ``conc_ge[k]`` counts
  gaps with at least ``k+1`` *distinct other runs* interleaving a
  tracked element into the gap — each such run claims one stream slot
  (by allocation or LRU refresh), so this is what evicts a filtered
  config's streams.  ``gaps_ge[k]`` counts gaps whose *combined*
  pressure — interleaved-run count plus lone misses in the gap — is at
  least ``k+1``; lone misses additionally claim slots when every miss
  allocates (unfiltered configs).  Both bound survival under a finite
  ``n_streams``.
* A write-back whose block lands on an open run's next expected block
  increments the run's ``wb_next`` (a stream-entry invalidation the
  model charges a retrain for); within the next
  :data:`WB_WINDOW_STRIDES` strides it increments ``wb_window`` (a
  possible deeper-entry invalidation the model folds into its error
  bound).

:func:`extract_spectrum` is the O(n) production pass (dict-based);
:func:`naive_spectrum` is a deliberately simple O(n^2) re-derivation
(linear scans, gap statistics recounted from a flat per-event log) used
by the ``analytic-streams`` differ stage, which demands the two be
bit-identical.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.caches.cache import MissEventKind, MissTrace

__all__ = [
    "SPECTRUM_WINDOW",
    "SPECTRUM_ZONE_BITS",
    "GAP_PRESSURE_BINS",
    "WB_WINDOW_STRIDES",
    "RUN_KIND_UNIT",
    "RUN_KIND_ZONE",
    "MissSpectrum",
    "extract_spectrum",
    "naive_spectrum",
    "block_stride",
]

#: Lone-miss recency window for unit-pair seeding.  Must comfortably
#: exceed every swept unit-filter capacity (4/16); a primer older than
#: the *config's* capacity is flagged via ``run_primer_age`` instead of
#: being dropped here.
SPECTRUM_WINDOW = 64

#: Concentration-zone bits of the extraction's stride FSM.  Generous
#: (2 MB zones) so the extraction sees strided runs that any swept
#: ``czone_bits`` could catch; the model narrows per config.
SPECTRUM_ZONE_BITS = 21

#: ``gaps_ge`` histogram depth: enough to cover every swept n_streams.
GAP_PRESSURE_BINS = 16

#: Write-backs within this many strides of a run's expectation count as
#: potential deeper-entry invalidations (``wb_window``).
WB_WINDOW_STRIDES = 4

RUN_KIND_UNIT = 0
RUN_KIND_ZONE = 1


def block_stride(delta_bytes: int, block_bits: int) -> int:
    """Byte stride -> block stride, rounding toward zero (czone rule)."""
    if delta_bytes >= 0:
        return delta_bytes >> block_bits
    return -((-delta_bytes) >> block_bits)


@dataclass(frozen=True)
class MissSpectrum:
    """The run-length/stride spectrum of one miss trace.

    Parallel per-run arrays (run creation order) plus global counters.
    All arrays are int64 except ``run_kind`` (uint8); ``run_gaps_ge`` is
    ``(n_runs, GAP_PRESSURE_BINS)``.
    """

    block_bits: int
    n_events: int
    demand_misses: int
    writebacks: int
    ifetch_misses: int
    lone_misses: int
    seed_events: int
    alloc_events: int
    run_start_addr: np.ndarray
    run_stride_bytes: np.ndarray
    run_length: np.ndarray
    run_wb_next: np.ndarray
    run_wb_window: np.ndarray
    run_primer_age: np.ndarray
    run_kind: np.ndarray
    run_byte_uniform: np.ndarray
    run_gaps_ge: np.ndarray
    run_conc_ge: np.ndarray
    window: int = SPECTRUM_WINDOW
    zone_bits: int = SPECTRUM_ZONE_BITS

    @property
    def n_runs(self) -> int:
        return int(len(self.run_length))

    @property
    def run_stride_blocks(self) -> np.ndarray:
        """Per-run stride in blocks (czone rounding toward zero)."""
        down = -((-self.run_stride_bytes) >> self.block_bits)
        up = self.run_stride_bytes >> self.block_bits
        return np.where(self.run_stride_bytes >= 0, up, down)

    @property
    def run_misses(self) -> int:
        """Demand misses covered by some run (primers included)."""
        return int(self.run_length.sum())

    def stride_histogram(self) -> Dict[int, int]:
        """Block-stride -> total run misses, for display/exhibits."""
        out: Dict[int, int] = {}
        for stride, length in zip(
            self.run_stride_blocks.tolist(), self.run_length.tolist()
        ):
            out[stride] = out.get(stride, 0) + length
        return out

    def __eq__(self, other: object) -> bool:  # array fields need np comparison
        if not isinstance(other, MissSpectrum):
            return NotImplemented
        scalars = (
            "block_bits",
            "n_events",
            "demand_misses",
            "writebacks",
            "ifetch_misses",
            "lone_misses",
            "seed_events",
            "alloc_events",
            "window",
            "zone_bits",
        )
        if any(getattr(self, name) != getattr(other, name) for name in scalars):
            return False
        arrays = (
            "run_start_addr",
            "run_stride_bytes",
            "run_length",
            "run_wb_next",
            "run_wb_window",
            "run_primer_age",
            "run_kind",
            "run_byte_uniform",
            "run_gaps_ge",
            "run_conc_ge",
        )
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in arrays
        )


@dataclass
class _Run:
    """Mutable per-run state while a pass is walking the trace."""

    start_addr: int
    stride_bytes: int
    stride_blocks: int
    length: int
    kind: int
    primer_age: int
    expected_block: int
    lone_mark: int
    last_addr: int = 0
    last_elem_pos: int = -1
    byte_uniform: bool = True
    open: bool = True
    wb_next: int = 0
    wb_window: int = 0
    gaps_ge: List[int] = field(default_factory=lambda: [0] * GAP_PRESSURE_BINS)
    conc_ge: List[int] = field(default_factory=lambda: [0] * GAP_PRESSURE_BINS)


def _finish(
    miss_trace: MissTrace,
    runs: List[_Run],
    demand_misses: int,
    writebacks: int,
    ifetch_misses: int,
    lone_misses: int,
    seed_events: int,
    alloc_events: int,
) -> MissSpectrum:
    n = len(runs)
    gaps = np.zeros((n, GAP_PRESSURE_BINS), dtype=np.int64)
    conc = np.zeros((n, GAP_PRESSURE_BINS), dtype=np.int64)
    for i, run in enumerate(runs):
        gaps[i, :] = run.gaps_ge
        conc[i, :] = run.conc_ge
    return MissSpectrum(
        block_bits=miss_trace.block_bits,
        n_events=int(len(miss_trace.addrs)),
        demand_misses=demand_misses,
        writebacks=writebacks,
        ifetch_misses=ifetch_misses,
        lone_misses=lone_misses,
        seed_events=seed_events,
        alloc_events=alloc_events,
        run_start_addr=np.array([r.start_addr for r in runs], dtype=np.int64),
        run_stride_bytes=np.array([r.stride_bytes for r in runs], dtype=np.int64),
        run_length=np.array([r.length for r in runs], dtype=np.int64),
        run_wb_next=np.array([r.wb_next for r in runs], dtype=np.int64),
        run_wb_window=np.array([r.wb_window for r in runs], dtype=np.int64),
        run_primer_age=np.array([r.primer_age for r in runs], dtype=np.int64),
        run_kind=np.array([r.kind for r in runs], dtype=np.uint8),
        run_byte_uniform=np.array(
            [1 if r.byte_uniform else 0 for r in runs], dtype=np.uint8
        ),
        run_gaps_ge=gaps,
        run_conc_ge=conc,
    )


def extract_spectrum(miss_trace: MissTrace) -> MissSpectrum:
    """One-pass run-length/stride spectrum of a miss trace.

    The decomposition rules are the module docstring's; the differ stage
    holds this implementation bit-identical to :func:`naive_spectrum`.
    """
    bb = miss_trace.block_bits
    block_bytes = 1 << bb
    wb_kind = int(MissEventKind.WRITEBACK)
    ifetch_kind = int(MissEventKind.IFETCH_MISS)

    expect: Dict[int, _Run] = {}
    # stride (blocks) -> runs of that stride in ``expect``: a write-back
    # probes only the strides some open run has, not every open run.
    open_strides: Dict[int, int] = {}
    # lone-miss block -> (addr, alloc mark at insertion), newest last.
    recent: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
    # partition tag -> (last addr, last delta or None).
    zones: Dict[int, Tuple[int, Optional[int]]] = {}
    # run id -> event position of its most recent tracked element; the
    # insertion order is the position order, so a reverse walk yields
    # the runs most recently active first (concurrency counting).
    active: "OrderedDict[int, int]" = OrderedDict()
    runs: List[_Run] = []

    demand_misses = writebacks = ifetch_misses = 0
    lone_misses = seed_events = alloc_events = 0

    def open_run(
        start_addr: int,
        stride_bytes: int,
        stride_blocks: int,
        length: int,
        kind: int,
        primer_age: int,
        next_block: int,
        seed_addr: int,
        byte_uniform: bool,
        pos: int,
    ) -> None:
        nonlocal seed_events, alloc_events
        seed_events += 1
        alloc_events += 1
        run = _Run(
            start_addr=start_addr,
            stride_bytes=stride_bytes,
            stride_blocks=stride_blocks,
            length=length,
            kind=kind,
            primer_age=primer_age,
            expected_block=next_block,
            lone_mark=lone_misses,
            last_addr=seed_addr,
            last_elem_pos=pos,
            byte_uniform=byte_uniform,
        )
        runs.append(run)
        active[id(run)] = pos
        if next_block in expect:
            run.open = False  # expectation collision: the incumbent keeps it
        else:
            expect[next_block] = run
            open_strides[stride_blocks] = open_strides.get(stride_blocks, 0) + 1

    for pos, (addr, kind) in enumerate(
        zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist())
    ):
        block = addr >> bb
        if kind == wb_kind:
            writebacks += 1
            run = expect.get(block)
            if run is not None:
                run.wb_next += 1
                run.wb_window += 1
            # The runs expecting ``block - k*stride``, 0 < k < window.
            for stride in open_strides:
                if stride:
                    for steps in range(1, WB_WINDOW_STRIDES):
                        run = expect.get(block - steps * stride)
                        if run is not None and run.stride_blocks == stride:
                            run.wb_window += 1
            continue

        demand_misses += 1
        if kind == ifetch_kind:
            ifetch_misses += 1

        run = expect.pop(block, None)
        if run is not None:
            if open_strides[run.stride_blocks] == 1:
                del open_strides[run.stride_blocks]
            else:
                open_strides[run.stride_blocks] -= 1
            # Distinct other runs with a tracked element inside the gap:
            # the suffix of ``active`` later than this run's previous
            # element (the walk stops at the run's own entry).
            conc = 0
            for last_pos in reversed(active.values()):
                if last_pos <= run.last_elem_pos:
                    break
                conc += 1
                if conc > GAP_PRESSURE_BINS:
                    break
            lone_gap = lone_misses - run.lone_mark
            for k in range(min(conc, GAP_PRESSURE_BINS)):
                run.conc_ge[k] += 1
            for k in range(min(lone_gap + conc, GAP_PRESSURE_BINS)):
                run.gaps_ge[k] += 1
            run.length += 1
            if addr - run.last_addr != run.stride_bytes:
                run.byte_uniform = False
            run.last_addr = addr
            run.lone_mark = lone_misses
            run.last_elem_pos = pos
            active.pop(id(run), None)
            active[id(run)] = pos
            next_block = block + run.stride_blocks
            if next_block in expect:
                run.open = False
            else:
                run.expected_block = next_block
                expect[next_block] = run
                open_strides[run.stride_blocks] = open_strides.get(run.stride_blocks, 0) + 1
            continue

        if (block - 1) in recent:
            primer_addr, mark = recent.pop(block - 1)
            open_run(
                start_addr=primer_addr,
                stride_bytes=block_bytes,
                stride_blocks=1,
                length=2,
                kind=RUN_KIND_UNIT,
                primer_age=alloc_events - mark,
                next_block=block + 1,
                seed_addr=addr,
                byte_uniform=addr - primer_addr == block_bytes,
                pos=pos,
            )
            continue
        if (block + 1) in recent:
            primer_addr, mark = recent.pop(block + 1)
            open_run(
                start_addr=primer_addr,
                stride_bytes=-block_bytes,
                stride_blocks=-1,
                length=2,
                kind=RUN_KIND_UNIT,
                primer_age=alloc_events - mark,
                next_block=block - 1,
                seed_addr=addr,
                byte_uniform=addr - primer_addr == -block_bytes,
                pos=pos,
            )
            continue

        tag = addr >> SPECTRUM_ZONE_BITS
        entry = zones.get(tag)
        if entry is not None:
            last_addr, last_delta = entry
            delta = addr - last_addr
            stride_blocks = block_stride(delta, bb)
            if last_delta is not None and delta == last_delta and stride_blocks != 0:
                del zones[tag]
                open_run(
                    start_addr=addr - 2 * delta,
                    stride_bytes=delta,
                    stride_blocks=stride_blocks,
                    length=3,
                    kind=RUN_KIND_ZONE,
                    primer_age=0,
                    next_block=block + stride_blocks,
                    seed_addr=addr,
                    byte_uniform=True,
                    pos=pos,
                )
                continue
            zones[tag] = (addr, delta)
        else:
            zones[tag] = (addr, None)

        # Lone miss: pressure, then into the recency window (refreshed).
        lone_misses += 1
        alloc_events += 1
        recent.pop(block, None)
        recent[block] = (addr, alloc_events)
        while len(recent) > SPECTRUM_WINDOW:
            recent.popitem(last=False)

    return _finish(
        miss_trace,
        runs,
        demand_misses,
        writebacks,
        ifetch_misses,
        lone_misses,
        seed_events,
        alloc_events,
    )


def naive_spectrum(miss_trace: MissTrace) -> MissSpectrum:
    """O(n^2) reference extraction with the same declared semantics.

    Shares no state-keeping tricks with :func:`extract_spectrum`: open
    runs, the recency window and the partition table are flat lists
    searched linearly, and the gap/primer pressure statistics are
    recounted after the walk from a per-event allocation log rather than
    carried incrementally.  The ``analytic-streams`` differ stage holds
    the two bit-identical on every corpus seed.
    """
    bb = miss_trace.block_bits
    block_bytes = 1 << bb
    wb_kind = int(MissEventKind.WRITEBACK)
    ifetch_kind = int(MissEventKind.IFETCH_MISS)

    addrs = miss_trace.addrs.tolist()
    kinds = miss_trace.kinds.tolist()
    n = len(addrs)
    alloc_flag = [False] * n  # event positions that allocate (lone or seed)
    lone_flag = [False] * n  # event positions that are lone misses

    class NaiveRun:
        def __init__(self, start_addr, stride_bytes, kind, primer_pos, positions):
            self.start_addr = start_addr
            self.stride_bytes = stride_bytes
            self.stride_blocks = block_stride(stride_bytes, bb)
            self.kind = kind
            self.primer_pos = primer_pos  # window primer position, or None
            self.positions = positions  # demand-event indices, in order
            self.seed_extra = 0  # training elements before the seed (zone: 2)
            self.open = True
            self.wb_next = 0
            self.wb_window = 0
            self._expected = 0  # next expected block while open

    runs: List[NaiveRun] = []
    window: List[Tuple[int, int, int]] = []  # (block, addr, position), oldest first
    zone_rows: List[List[object]] = []  # [tag, last_addr, last_delta]

    demand_misses = writebacks = ifetch_misses = 0
    lone_misses = seed_events = 0

    def find_open(block: int) -> Optional[NaiveRun]:
        for run in runs:
            if run.open and run._expected == block:
                return run
        return None

    for pos in range(n):
        addr, kind = addrs[pos], kinds[pos]
        block = addr >> bb
        if kind == wb_kind:
            writebacks += 1
            for run in runs:
                if not run.open:
                    continue
                offset = block - run._expected
                stride = run.stride_blocks
                if offset == 0:
                    run.wb_next += 1
                    run.wb_window += 1
                elif stride != 0 and offset % stride == 0:
                    steps = offset // stride
                    if 0 < steps < WB_WINDOW_STRIDES:
                        run.wb_window += 1
            continue

        demand_misses += 1
        if kind == ifetch_kind:
            ifetch_misses += 1

        run = find_open(block)
        if run is not None:
            run.positions.append(pos)
            next_block = block + run.stride_blocks
            if find_open(next_block) is not None:
                run.open = False
            else:
                run._expected = next_block
            continue

        primer = None
        stride_sign = 0
        for i in range(len(window) - 1, -1, -1):
            if window[i][0] == block - 1:
                primer, stride_sign = window[i], 1
                break
        if primer is None:
            for i in range(len(window) - 1, -1, -1):
                if window[i][0] == block + 1:
                    primer, stride_sign = window[i], -1
                    break
        if primer is not None:
            window.remove(primer)
            seed_events += 1
            alloc_flag[pos] = True
            new = NaiveRun(
                start_addr=primer[1],
                stride_bytes=stride_sign * block_bytes,
                kind=RUN_KIND_UNIT,
                primer_pos=primer[2],
                positions=[primer[2], pos],
            )
            new._expected = block + stride_sign
            if find_open(new._expected) is not None:
                new.open = False  # incumbent keeps the expectation
            runs.append(new)
            continue

        tag = addr >> SPECTRUM_ZONE_BITS
        row = None
        for candidate in zone_rows:
            if candidate[0] == tag:
                row = candidate
                break
        seeded = False
        if row is not None:
            last_addr, last_delta = row[1], row[2]
            delta = addr - last_addr
            stride_blocks = block_stride(delta, bb)
            if last_delta is not None and delta == last_delta and stride_blocks != 0:
                zone_rows.remove(row)
                seed_events += 1
                alloc_flag[pos] = True
                # The two training elements before the seed count toward
                # length but not toward gap statistics (gaps start at the
                # seeding element), so only the seed position is tracked.
                new = NaiveRun(
                    start_addr=addr - 2 * delta,
                    stride_bytes=delta,
                    kind=RUN_KIND_ZONE,
                    primer_pos=None,
                    positions=[pos],
                )
                new.seed_extra = 2
                new._expected = block + stride_blocks
                if find_open(new._expected) is not None:
                    new.open = False  # incumbent keeps the expectation
                runs.append(new)
                seeded = True
            else:
                row[1], row[2] = addr, delta
        else:
            zone_rows.append([tag, addr, None])
        if seeded:
            continue

        lone_misses += 1
        alloc_flag[pos] = True
        lone_flag[pos] = True
        for i, (wblock, _, _) in enumerate(window):
            if wblock == block:
                del window[i]
                break
        window.append((block, addr, pos))
        if len(window) > SPECTRUM_WINDOW:
            del window[0]

    alloc_events = sum(1 for flag in alloc_flag if flag)

    def tracked_positions(run: NaiveRun) -> List[int]:
        """Element positions that count for gap/concurrency statistics:
        the seeding element onward (a unit run's primer was a lone miss
        when it happened; a zone run's two training elements likewise)."""
        if run.kind == RUN_KIND_UNIT:
            return run.positions[1:]
        return run.positions

    # Recount gap pressure, concurrency and primer age from flat logs.
    out_runs: List[_Run] = []
    for run in runs:
        if run.kind == RUN_KIND_UNIT:
            length = len(run.positions)
            tracked = run.positions[1:]  # gaps start at the seeding element
            seed_pos = run.positions[1]
            primer_age = sum(
                1 for p in range(run.primer_pos + 1, seed_pos) if alloc_flag[p]
            )
            element_positions = run.positions  # primer included
        else:
            length = run.seed_extra + len(run.positions)
            tracked = run.positions  # first tracked element is the seeder
            primer_age = 0
            # The two pre-seed training deltas are equal by construction.
            element_positions = run.positions
        byte_uniform = all(
            addrs[right] - addrs[left] == run.stride_bytes
            for left, right in zip(element_positions, element_positions[1:])
        )
        gaps_ge = [0] * GAP_PRESSURE_BINS
        conc_ge = [0] * GAP_PRESSURE_BINS
        for left, right in zip(tracked, tracked[1:]):
            lone_gap = sum(1 for p in range(left + 1, right) if lone_flag[p])
            conc = sum(
                1
                for other in runs
                if other is not run
                and any(left < p < right for p in tracked_positions(other))
            )
            for k in range(min(conc, GAP_PRESSURE_BINS)):
                conc_ge[k] += 1
            for k in range(min(lone_gap + conc, GAP_PRESSURE_BINS)):
                gaps_ge[k] += 1
        record = _Run(
            start_addr=run.start_addr,
            stride_bytes=run.stride_bytes,
            stride_blocks=run.stride_blocks,
            length=length,
            kind=run.kind,
            primer_age=primer_age,
            expected_block=0,
            lone_mark=0,
            byte_uniform=byte_uniform,
        )
        record.wb_next = run.wb_next
        record.wb_window = run.wb_window
        record.gaps_ge = gaps_ge
        record.conc_ge = conc_ge
        out_runs.append(record)

    # alloc_events counted seeds + lones, same as the fast pass.
    return _finish(
        miss_trace,
        out_runs,
        demand_misses,
        writebacks,
        ifetch_misses,
        lone_misses,
        seed_events,
        alloc_events,
    )
