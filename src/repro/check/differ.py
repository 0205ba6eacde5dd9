"""Differential testing: optimized simulators vs the golden oracles.

Every check is driven by one integer seed: the seed generates a random
trace and a random configuration, both sides simulate it, and any
mismatch is reported as a :class:`Divergence` carrying the first
diverging quantity and the key that replays it
(``repro check --replay STAGE:SEED``).

Each stage is one :class:`Stage` row: a name and seed salt, a case
generator that also coerces the random configuration into the engine's
support envelope, the production runners, and the reference they must
all match — a golden model of :mod:`repro.check.oracle` /
:mod:`repro.check.mech_oracle`, or for ``vector`` the scalar engines.
One comparator walks every field of the result dataclasses against the
reference's dict (or its dataclass), descending into nested results, so
a counter added to ``StreamStats``/``MechStats``/``CacheStats``/... is
compared without touching this module, and a field or oracle key the
other side lacks is itself a divergence.  A row names the result fields
that are its inputs rather than its outputs (``config``) and maps the
oracle keys that are derived properties in production (the bandwidth
numbers).

The rows, in corpus order:

* ``l1`` — a random access trace through a random cache geometry via the
  production :func:`~repro.sim.runner.simulate_l1` dispatch and its
  scalar fallback :func:`~repro.sim.runner.scalar_simulate_l1`
  (compression, split I+D included) vs
  :func:`~repro.check.oracle.ref_simulate_l1`;
* ``streams`` — a synthetic miss-event stream through a random
  :class:`~repro.core.config.StreamConfig`, per event (first diverging
  outcome) and via the bulk ``run()`` path, vs
  :class:`~repro.check.oracle.RefStreamPrefetcher`;
* ``victim`` / ``misscache`` — the production buffers of
  :mod:`repro.mechanisms`, per event and via
  :func:`~repro.sim.vector.replay_secondary`, vs the golden models;
* ``hybrid`` — :func:`~repro.sim.vector.replay_secondary`'s two-phase
  residual composition (its stream member on whichever engine the drawn
  config selects) vs the oracle's online composition;
* ``analytic`` — the stack-distance kernel, both ways it is used: the
  profiler's fully-associative LRU hit counts
  (:mod:`repro.analytic.profile`) vs a one-set
  :class:`~repro.check.oracle.RefCache` with L2 semantics over the same
  trace (Mattson's theorem), and every result of a random small set-
  sampled L2 ladder (:func:`~repro.caches.sampling.l2_ladder`) vs a
  set-sampled ``RefCache`` per configuration, bit-for-bit;
* ``analytic-streams`` — the miss-spectrum extraction
  (:mod:`repro.trace.spectrum`) vs its naive O(n^2) reference,
  bit-for-bit, then the closed-form stream-buffer model
  (:mod:`repro.analytic.streams`) vs the golden stream oracle, within
  each prediction's declared error bound;
* ``vector`` — the batch engines of :mod:`repro.sim.vector` (L1, stream
  replay) and the stack-distance L2 (:func:`~repro.caches.sampling.lru_results`)
  vs their scalar counterparts on configurations coerced into each
  engine's support envelope.

:func:`diff_registry_workload` runs a real registry workload at small
scale through the full L1 + streams pipeline vs both oracles; its
divergences replay as ``registry:<name>@<scale>:<seed>``.

A divergence prints the ``repro check`` line that rebuilds its case: the
replay key, the event budget when it is not :data:`DEFAULT_EVENTS`, and
``REPRO_CHECK=1`` when the invariants were armed.
"""

from __future__ import annotations

import random
import reprlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.caches.cache import Cache, CacheConfig, MissEventKind, MissTrace
from repro.caches.sampling import SamplingPlan, l2_ladder, lru_results, sampled_hit_rate
from repro.caches.secondary import candidate_configs
from repro.check import invariants as _inv
from repro.check import mech_oracle, oracle
from repro.core.bank import Lookup
from repro.core.config import StreamConfig, StrideDetector
from repro.core.prefetcher import StreamPrefetcher
from repro.mechanisms import MechanismConfig, build_mechanism
from repro.sim.runner import scalar_simulate_l1, simulate_l1
from repro.sim.vector import (
    replay_secondary,
    replay_streams,
    vector_replay_streams,
    vector_simulate_cache,
)
from repro.trace.events import Trace
from repro.workloads.base import BenchmarkInfo, Workload, get_workload, workload_class

__all__ = [
    "Divergence",
    "CheckReport",
    "Stage",
    "random_trace",
    "random_cache_config",
    "random_stream_config",
    "random_miss_trace",
    "random_victim_config",
    "random_misscache_config",
    "random_hybrid_config",
    "diff_l1",
    "diff_streams",
    "diff_victim",
    "diff_misscache",
    "diff_hybrid",
    "diff_analytic",
    "diff_analytic_streams",
    "diff_vector",
    "diff_registry_workload",
    "check_seed",
    "replay",
    "run_corpus",
    "DEFAULT_EVENTS",
    "DEFAULT_REGISTRY_WORKLOADS",
    "DEFAULT_STAGES",
    "STAGE_FUNCTIONS",
]


#: Events per generated trace in a ``repro check`` corpus run.
DEFAULT_EVENTS = 2500


def _check_settings() -> str:
    """``"REPRO_CHECK=1"`` when this process armed the invariants, else
    empty: armed invariants route every input to the scalar paths, so a
    divergence replays only under the setting it was found with."""
    return "REPRO_CHECK=1" if _inv.ENABLED else ""


@dataclass(frozen=True)
class Divergence:
    """One optimized-vs-oracle mismatch, pinned to a replayable seed.

    Attributes:
        stage: ``"l1"`` / ``"streams"`` / ``"registry:<name>@<scale>"``.
        seed: the seed that regenerates trace + config.
        what: which runner and quantity diverged
            (e.g. ``"per-event: outcomes[17]"``).
        optimized: the optimized simulator's value, rendered.
        expected: the oracle's value, rendered.
        context: extra detail (configs of the case).
        settings: ``REPRO_CHECK=1`` when the divergence was found with
            the invariants armed; the replay line sets it again.
        n_events: the event budget the case was built with (None for a
            registry workload, whose input has no budget); the replay
            line passes it when it is not :data:`DEFAULT_EVENTS`.
    """

    stage: str
    seed: int
    what: str
    optimized: str
    expected: str
    context: str = ""
    settings: str = field(default_factory=_check_settings)
    n_events: Optional[int] = None

    def __str__(self) -> str:
        lines = [
            f"DIVERGENCE [{self.stage}] seed={self.seed}: {self.what}",
            f"  optimized: {self.optimized}",
            f"  oracle:    {self.expected}",
        ]
        if self.context:
            lines.append(f"  context:   {self.context}")
        command = f"repro check --replay {self.stage}:{self.seed}"
        if self.n_events is not None and self.n_events != DEFAULT_EVENTS:
            command += f" --events {self.n_events}"
        if self.settings:
            command = f"{self.settings} {command}"
        lines.append(f"  replay:    {command}")
        return "\n".join(lines)


@dataclass
class CheckReport:
    """Outcome of a corpus run."""

    seeds_checked: int = 0
    stages_run: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


# -- generators -------------------------------------------------------------


def random_trace(rng: random.Random, n_events: int, with_ifetch: bool = True) -> Trace:
    """A seeded access trace mixing the patterns the simulators care about.

    Segments of unit-stride walks (same-block runs for the compression
    path), constant non-unit strides (ascending and descending), tight
    same-block read/write bursts, and uniform random jumps; reads, writes
    and (optionally) instruction fetches interleaved.
    """
    addrs: List[int] = []
    kinds: List[int] = []
    base_span = 1 << 22  # 4 MB address playground
    while len(addrs) < n_events:
        pattern = rng.randrange(5)
        length = rng.randrange(4, 40)
        start = rng.randrange(base_span)
        if pattern == 0:  # word-granular unit walk (compressible runs)
            step = rng.choice([4, 8])
            for i in range(length):
                addrs.append(start + i * step)
                kinds.append(oracle.ACCESS_WRITE if rng.random() < 0.2 else oracle.ACCESS_READ)
        elif pattern == 1:  # constant non-unit stride, either direction
            stride = rng.choice([3, 5, 68, 132, 260, 516, 1028]) * rng.choice([1, -1])
            start = max(start, abs(stride) * length + 1)
            for i in range(length):
                addrs.append(start + i * stride)
                kinds.append(oracle.ACCESS_READ)
        elif pattern == 2:  # same-block burst with a write in the middle
            for i in range(length):
                addrs.append(start + (i % 8) * 4)
                kinds.append(
                    oracle.ACCESS_WRITE if i == length // 2 else oracle.ACCESS_READ
                )
        elif pattern == 3:  # random jumps
            for _ in range(length):
                addrs.append(rng.randrange(base_span))
                kinds.append(oracle.ACCESS_WRITE if rng.random() < 0.3 else oracle.ACCESS_READ)
        else:  # instruction-fetch walk (exercises the split L1)
            if not with_ifetch:
                continue
            for i in range(length):
                addrs.append(start + i * 4)
                kinds.append(oracle.ACCESS_IFETCH)
    del addrs[n_events:], kinds[n_events:]
    return Trace(
        np.asarray(addrs, dtype=np.int64), np.asarray(kinds, dtype=np.uint8)
    )


def random_cache_config(rng: random.Random) -> CacheConfig:
    """A random valid cache geometry/policy point."""
    block_size = rng.choice([16, 32, 64, 128])
    assoc = rng.choice([1, 2, 4, 8])
    n_sets = 1 << rng.randrange(2, 7)
    write_back = rng.random() < 0.7
    return CacheConfig(
        capacity=n_sets * assoc * block_size,
        assoc=assoc,
        block_size=block_size,
        policy=rng.choice(["lru", "fifo", "random"]),
        write_back=write_back,
        write_allocate=rng.random() < 0.7,
        seed=rng.randrange(1 << 16),
    )


def random_stream_config(rng: random.Random, block_bits: int = 6) -> StreamConfig:
    """A random valid stream-system configuration point."""
    depth = rng.randrange(1, 5)
    unit_entries = rng.choice([0, 4, 16])
    detector = StrideDetector.NONE
    if unit_entries:
        detector = rng.choice(StrideDetector.ALL)
    return StreamConfig(
        n_streams=rng.randrange(1, 11),
        depth=depth,
        block_bits=block_bits,
        unit_filter_entries=unit_entries,
        stride_detector=detector,
        czone_filter_entries=rng.choice([2, 8, 16]),
        czone_bits=rng.randrange(block_bits, block_bits + 14),
        min_delta_entries=rng.choice([2, 8, 16]),
        allow_negative_strides=rng.random() < 0.5,
        min_lead=rng.choice([0, 0, 1, 2, 4]),
        partitioned=rng.random() < 0.3,
        i_streams=rng.randrange(1, 4),
        lookup_depth=rng.randrange(1, depth + 1),
    )


def random_miss_trace(
    rng: random.Random, n_events: int, block_bits: int = 6
) -> MissTrace:
    """A synthetic L1 miss-event stream for the stream-buffer differ.

    Mixes block-sequential runs (both directions), strided runs, random
    misses, write misses, instruction-fetch misses, and write-backs
    aimed near recent addresses so stream-entry invalidation triggers.
    """
    block = 1 << block_bits
    addrs: List[int] = []
    kinds: List[int] = []
    base_span = 1 << 24
    while len(addrs) < n_events:
        pattern = rng.randrange(6)
        length = rng.randrange(3, 30)
        start = rng.randrange(base_span)
        if pattern == 0:  # ascending unit-stride miss run
            for i in range(length):
                addrs.append(start + i * block)
                kinds.append(oracle.EV_READ_MISS)
        elif pattern == 1:  # descending unit-stride run
            start = max(start, length * block)
            for i in range(length):
                addrs.append(start - i * block)
                kinds.append(oracle.EV_READ_MISS)
        elif pattern == 2:  # constant non-unit stride (czone fodder)
            stride = rng.choice([2, 3, 5, 9]) * block * rng.choice([1, -1])
            start = max(start, abs(stride) * length + 1)
            for i in range(length):
                addrs.append(start + i * stride)
                kinds.append(oracle.EV_READ_MISS)
        elif pattern == 3:  # random misses, some writes
            for _ in range(length):
                addrs.append(rng.randrange(base_span))
                kinds.append(
                    oracle.EV_WRITE_MISS if rng.random() < 0.3 else oracle.EV_READ_MISS
                )
        elif pattern == 4:  # ifetch miss run (partitioned-lane fodder)
            for i in range(length):
                addrs.append(start + i * block)
                kinds.append(oracle.EV_IFETCH_MISS)
        else:  # write-backs near recent addresses (invalidation fodder)
            for _ in range(min(length, 6)):
                if addrs and rng.random() < 0.8:
                    victim = addrs[rng.randrange(max(0, len(addrs) - 20), len(addrs))]
                    victim += rng.choice([0, block, 2 * block])
                else:
                    victim = rng.randrange(base_span)
                addrs.append((victim >> block_bits) << block_bits)
                kinds.append(oracle.EV_WRITEBACK)
    del addrs[n_events:], kinds[n_events:]
    return MissTrace(
        np.asarray(addrs, dtype=np.int64),
        np.asarray(kinds, dtype=np.uint8),
        block_bits,
    )


def random_victim_config(rng: random.Random, block_bits: int = 6) -> MechanismConfig:
    """A random valid victim-cache configuration point.

    Small shadow geometries are deliberately over-represented so the
    shadow tag array actually overflows and produces victims within a
    2000-event trace.
    """
    return MechanismConfig.victim(
        entries=rng.randrange(1, 33),
        shadow_sets=rng.choice([4, 16, 64, 256]),
        shadow_assoc=rng.randrange(1, 5),
        block_bits=block_bits,
    )


def random_misscache_config(rng: random.Random, block_bits: int = 6) -> MechanismConfig:
    """A random valid miss-cache configuration point."""
    return MechanismConfig.misscache(entries=rng.randrange(1, 33), block_bits=block_bits)


def random_hybrid_config(rng: random.Random, block_bits: int = 6) -> MechanismConfig:
    """A random valid hybrid stack: 1-2 buffer members, usually + streams."""
    members = []
    for _ in range(rng.randrange(1, 3)):
        if rng.random() < 0.5:
            members.append(random_victim_config(rng, block_bits))
        else:
            members.append(random_misscache_config(rng, block_bits))
    if rng.random() < 0.7 or len(members) < 2:
        members.append(
            MechanismConfig.for_streams(random_stream_config(rng, block_bits))
        )
    return MechanismConfig.hybrid(*members)


class _FixedWorkload(Workload):
    """Adapter presenting a pre-built trace through the Workload API."""

    info = BenchmarkInfo(name="differ-fixed", suite="micro", description="differ input")

    def __init__(self, trace: Trace, seed: int = 0):
        super().__init__(scale=1.0, seed=seed)
        self._fixed = trace

    def build(self) -> Trace:
        return self._fixed


# -- the comparator -----------------------------------------------------------


class _Absent:
    """Stands in for a field or key one side does not report."""

    def __repr__(self) -> str:
        return "<not reported>"


_ABSENT = _Absent()

_REPR = reprlib.Repr()
_REPR.maxstring = _REPR.maxother = 160


def _render(value: object) -> str:
    if isinstance(value, np.ndarray):
        return np.array2string(value, threshold=24)
    return _REPR.repr(value)


def _attribute(value: object, path: str) -> object:
    for name in path.split("."):
        value = getattr(value, name)
    return value


def _first_mismatch(
    produced: object,
    expected: object,
    inputs: Sequence[str],
    derived: Mapping[str, str],
    path: str,
) -> Optional[Tuple[str, object, object]]:
    """``(path, produced, expected)`` of the first difference, or None.

    A dataclass is walked field by field against the reference's dict
    (or dataclass): every field but the ``inputs`` must be reported and
    equal, and every reported key must be a field, an input, or an entry
    of ``derived`` (oracle key -> dotted production attribute).  Mappings
    must have equal keys; sequences are equal element by element.
    """
    if is_dataclass(produced):
        names = [f.name for f in fields(produced) if f.name not in inputs]
        if is_dataclass(expected):
            expected = {f.name: getattr(expected, f.name) for f in fields(expected)}
        elif not isinstance(expected, Mapping):
            return path, produced, expected
        for name in names:
            found = _first_mismatch(
                getattr(produced, name), expected.get(name, _ABSENT),
                inputs, derived, f"{path}.{name}",
            )
            if found is not None:
                return found
        for key, value in expected.items():
            if key in names or key in inputs:
                continue
            mine = _attribute(produced, derived[key]) if key in derived else _ABSENT
            found = _first_mismatch(mine, value, inputs, derived, f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(produced, Mapping) and isinstance(expected, Mapping):
        for key in list(produced) + [key for key in expected if key not in produced]:
            found = _first_mismatch(
                produced.get(key, _ABSENT), expected.get(key, _ABSENT),
                inputs, derived, f"{path}[{key!r}]",
            )
            if found is not None:
                return found
        return None
    if isinstance(produced, (list, tuple)) and isinstance(expected, (list, tuple)):
        if list(produced) == list(expected):
            return None
        for i, (mine, theirs) in enumerate(zip(produced, expected)):
            if is_dataclass(mine) or isinstance(mine, Mapping):
                found = _first_mismatch(mine, theirs, inputs, derived, f"{path}[{i}]")
            else:
                found = None if mine == theirs else (f"{path}[{i}]", mine, theirs)
            if found is not None:
                return found
        if len(produced) != len(expected):
            return f"len({path})", len(produced), len(expected)
        return None
    if isinstance(produced, np.ndarray) or isinstance(expected, np.ndarray):
        same = np.array_equal(produced, expected)
    else:
        same = produced == expected
    return None if same else (path, produced, expected)


#: Case -> named parts of a result (``{"events": ..., "stats": ...}``).
Runner = Callable[[Dict[str, object]], Dict[str, object]]

#: Oracle keys that are properties of the production stream statistics.
_BANDWIDTH = {
    "useless_prefetches": "bandwidth.useless_prefetches",
    "eb_measured": "bandwidth.eb_measured",
    "eb_estimate": "bandwidth.eb_estimate",
}


@dataclass(frozen=True)
class Stage:
    """One differ stage: the row ``run_corpus``, ``--stages`` and
    ``--replay`` dispatch through.

    ``case`` turns the RNG seeded through ``salt`` and an event budget
    (``events`` by default) into the stage's named inputs, already
    coerced into the production engine's support envelope.  Every runner
    reports some of the reference's parts, and each part it reports is
    walked against the reference's (see :func:`_first_mismatch`).
    ``check``, where set, is one more test on the case that is not an
    equality, returning ``(what, optimized, expected)`` texts on
    failure.  Calling a row with a seed runs it.
    """

    name: str
    runners: Tuple[Tuple[str, Runner], ...]
    reference: Runner
    salt: int = 0
    events: int = DEFAULT_EVENTS
    case: Optional[Callable[[random.Random, int], Dict[str, object]]] = None
    inputs: Tuple[str, ...] = ("config",)
    derived: Mapping[str, str] = field(default_factory=dict)
    check: Optional[Callable[[Dict[str, object]], Optional[Tuple[str, str, str]]]] = None

    def __call__(self, seed: int, n_events: Optional[int] = None) -> Optional[Divergence]:
        n_events = self.events if n_events is None else n_events
        case = self.case(random.Random(seed * self.salt % (1 << 31)), n_events)
        return self.diff(case, seed, self.name, n_events)

    def diff(
        self,
        case: Dict[str, object],
        seed: int,
        label: str,
        n_events: Optional[int] = None,
    ) -> Optional[Divergence]:
        """The first divergence of any runner from the reference on
        ``case`` (built with ``n_events`` events), reported under the
        stage ``label``."""
        context = "; ".join(
            f"{key}={value}" for key, value in case.items()
            if not isinstance(value, (Trace, MissTrace))
        )
        expected = self.reference(case)
        for runner, run in self.runners:
            for part, value in run(case).items():
                found = _first_mismatch(
                    value, expected.get(part, _ABSENT), self.inputs, self.derived, part
                )
                if found is not None:
                    path, mine, theirs = found
                    return Divergence(
                        label, seed, f"{runner}: {path}", _render(mine), _render(theirs),
                        context, n_events=n_events,
                    )
        failed = self.check(case) if self.check is not None else None
        if failed is not None:
            return Divergence(label, seed, *failed, context=context, n_events=n_events)
        return None


# -- runners ------------------------------------------------------------------

_WRITEBACK = int(MissEventKind.WRITEBACK)
_IFETCH = int(MissEventKind.IFETCH_MISS)

_OUTCOME_BY_LOOKUP = {
    Lookup.HIT: "hit",
    Lookup.MISS: "miss",
    Lookup.IN_FLIGHT: "in_flight",
}


def _events(miss_trace: MissTrace) -> List[Tuple[int, int]]:
    return list(zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist()))


def _drive(
    miss_trace: MissTrace,
    on_miss: Callable[[int, int], str],
    on_writeback: Callable[[int], object],
) -> List[Tuple[int, int, str]]:
    """Feed a miss trace event by event; ``(addr, kind, outcome)`` each."""
    outcomes = []
    for addr, kind in _events(miss_trace):
        if kind == _WRITEBACK:
            on_writeback(addr)
            outcomes.append((addr, kind, "writeback"))
        else:
            outcomes.append((addr, kind, on_miss(addr, kind)))
    return outcomes


def _reference_run(model, miss_trace: MissTrace) -> Dict[str, object]:
    """A golden model's per-event outcomes and final statistics."""
    addrs, kinds = miss_trace.addrs.tolist(), miss_trace.kinds.tolist()
    stats = model.run(addrs, kinds)
    outcomes = stats.pop("outcomes")
    return {"outcomes": list(zip(addrs, kinds, outcomes)), "stats": stats}


def _ref_l1(trace: Trace, config: CacheConfig) -> Dict[str, object]:
    events, summary = oracle.ref_simulate_l1(
        trace.addrs.tolist(),
        trace.kinds.tolist(),
        capacity=config.capacity,
        assoc=config.assoc,
        block_size=config.block_size,
        policy=config.policy,
        write_back=config.write_back,
        write_allocate=config.write_allocate,
        seed=config.seed,
    )
    return {"events": events, "summary": summary}


def _config_and_misses(make_config):
    """Case generator: a random config, then a miss trace in its blocks."""

    def case(rng: random.Random, n_events: int) -> Dict[str, object]:
        config = make_config(rng)
        return {
            "config": config,
            "miss_trace": random_miss_trace(rng, n_events, block_bits=config.block_bits),
        }

    return case


def _l1_case(rng: random.Random, n_events: int) -> Dict[str, object]:
    return {"config": random_cache_config(rng), "trace": random_trace(rng, n_events)}


def _l1_runner(simulate) -> Runner:
    def run(case):
        miss_trace, summary = simulate(_FixedWorkload(case["trace"]), case["config"])
        return {"events": _events(miss_trace), "summary": summary}

    return run


def _streams_per_event(case) -> Dict[str, object]:
    prefetcher = StreamPrefetcher(case["config"])
    outcomes = _drive(
        case["miss_trace"],
        lambda addr, kind: _OUTCOME_BY_LOOKUP[
            prefetcher.handle_miss(addr, is_ifetch=kind == _IFETCH)
        ],
        prefetcher.handle_writeback,
    )
    prefetcher.finalize()
    return {"outcomes": outcomes, "stats": prefetcher.stats}


def _mechanism_per_event(case) -> Dict[str, object]:
    mechanism = build_mechanism(case["config"])
    outcomes = _drive(
        case["miss_trace"],
        lambda addr, kind: "hit" if mechanism.handle_miss(addr, kind) else "miss",
        mechanism.handle_writeback,
    )
    return {"outcomes": outcomes, "stats": mechanism.finalize()}


def _replay_secondary(case) -> Dict[str, object]:
    # The store/sweep dispatcher: the bulk run() loop for a victim or
    # miss cache, the two-phase residual composition for a hybrid.
    return {"stats": replay_secondary(case["config"], case["miss_trace"])}


def _reference_mechanism(case) -> Dict[str, object]:
    model = mech_oracle.build_ref_mechanism(case["config"])
    return _reference_run(model, case["miss_trace"])


#: Fully-associative capacities (in blocks) the analytic differ checks.
#: Small enough that the oracle's O(assoc) scans stay cheap, spread wide
#: enough to cover empty-, partial- and full-histogram prefixes.
_ANALYTIC_CAPACITIES = (1, 2, 4, 16, 64, 256)
_ANALYTIC_BLOCKS = (64, 128)


def _profile_hits(case) -> Dict[str, object]:
    from repro.analytic import model
    from repro.analytic.profile import profile_miss_trace

    profiles = profile_miss_trace(case["miss_trace"], _ANALYTIC_BLOCKS)
    return {
        "fa": {
            (block_size, blocks): {
                "demand_accesses": profile.demand_accesses,
                "fa_hit_count": model.fa_hit_count(profile, blocks * block_size),
            }
            for block_size, profile in profiles.items()
            for blocks in _ANALYTIC_CAPACITIES
        }
    }


def _reference_fa_hits(case) -> Dict[str, object]:
    """Demand and hit counts of a one-set LRU RefCache with L2 semantics:
    write-backs install but do not count."""
    addrs = case["miss_trace"].addrs.tolist()
    kinds = case["miss_trace"].kinds.tolist()
    counts = {}
    for block_size in _ANALYTIC_BLOCKS:
        for blocks in _ANALYTIC_CAPACITIES:
            ref = oracle.RefCache(
                capacity=blocks * block_size,
                assoc=blocks,
                block_size=block_size,
                policy="lru",
                write_back=True,
                write_allocate=True,
                seed=0,
            )
            sink: List[Tuple[int, int]] = []
            demand = hits = 0
            for addr, kind in zip(addrs, kinds):
                if kind == oracle.EV_WRITEBACK:
                    ref.access(addr, oracle.ACCESS_WRITE, sink)
                    continue
                demand += 1
                is_write = kind == oracle.EV_WRITE_MISS
                if ref.access(
                    addr, oracle.ACCESS_WRITE if is_write else oracle.ACCESS_READ, sink
                ):
                    hits += 1
            counts[(block_size, blocks)] = {"demand_accesses": demand, "fa_hit_count": hits}
    return {"fa": counts}


#: L2 sizes the ladder check draws from: 512 B (one 4-way set of 128 B
#: blocks) to 32 KB, small enough for the folded trace to fill them.
_LADDER_SIZES = tuple(512 << i for i in range(7))


def _analytic_case(rng: random.Random, n_events: int) -> Dict[str, object]:
    miss_trace = random_miss_trace(rng, n_events)
    # The ladder replays the trace folded into a small footprint, so its
    # sets see reuse at every distance.
    footprint = 1 << rng.randrange(12, 17)
    return {
        "miss_trace": miss_trace,
        "sizes": tuple(sorted(rng.sample(_LADDER_SIZES, 2))),
        "sample_every": rng.choice([1, 2, 4, 8]),
        "footprint": footprint,
        "ladder_trace": MissTrace(
            miss_trace.addrs % footprint, miss_trace.kinds, miss_trace.block_bits
        ),
    }


def _ladder_results(case) -> Dict[str, object]:
    # force=True keeps the stack pass under REPRO_CHECK=1, where the
    # ladder otherwise runs the scalar cache per configuration.
    return {"ladder": l2_ladder(
        case["ladder_trace"], case["sizes"], SamplingPlan(case["sample_every"]), force=True
    )}


def _reference_ladder(case) -> Dict[str, object]:
    """Every ladder configuration on a set-sampled LRU RefCache: only
    sets whose index is a multiple of the factor are driven (the factor
    halved until at least 4 sets stay), write-backs install but do not
    count."""
    addrs = case["ladder_trace"].addrs.tolist()
    kinds = case["ladder_trace"].kinds.tolist()
    results = {}
    for size in case["sizes"]:
        for config in candidate_configs(size):
            every = case["sample_every"]
            while every > 1 and config.n_sets // every < 4:
                every //= 2
            ref = oracle.RefCache(
                capacity=config.capacity,
                assoc=config.assoc,
                block_size=config.block_size,
                policy="lru",
                write_back=True,
                write_allocate=True,
                seed=0,
            )
            sink: List[Tuple[int, int]] = []
            demand = hits = writebacks = 0
            for addr, kind in zip(addrs, kinds):
                if (addr >> ref.block_bits) % ref.n_sets % every:
                    continue
                if kind == oracle.EV_WRITEBACK:
                    writebacks += 1
                    ref.access(addr, oracle.ACCESS_WRITE, sink)
                    continue
                demand += 1
                is_write = kind == oracle.EV_WRITE_MISS
                hits += ref.access(
                    addr, oracle.ACCESS_WRITE if is_write else oracle.ACCESS_READ, sink
                )
            results[config] = {
                "demand_accesses": demand,
                "demand_hits": hits,
                "writebacks_received": writebacks,
                "sampled_sets": -(-ref.n_sets // every),
            }
    return {"ladder": results}


#: Events of the prefix the naive O(n^2) spectrum reference runs on.
_SPECTRUM_PREFIX = 400


def _analytic_streams_case(rng: random.Random, n_events: int) -> Dict[str, object]:
    from repro.analytic.streams import stream_envelope_config

    config = stream_envelope_config(random_stream_config(rng))
    miss_trace = random_miss_trace(rng, n_events, block_bits=config.block_bits)
    prefix_len = min(_SPECTRUM_PREFIX, len(miss_trace.addrs))
    prefix = MissTrace(
        addrs=miss_trace.addrs[:prefix_len],
        kinds=miss_trace.kinds[:prefix_len],
        block_bits=miss_trace.block_bits,
    )
    return {"config": config, "prefix_len": prefix_len, "miss_trace": miss_trace,
            "prefix": prefix}


def _spectrum_of_prefix(extractor: str) -> Runner:
    def run(case):
        from repro.trace import spectrum

        return {"spectrum": getattr(spectrum, extractor)(case["prefix"])}

    return run


def _stream_model_within_bound(case) -> Optional[Tuple[str, str, str]]:
    """The closed-form prediction must sit within its declared error bound
    of the golden oracle — the contract the analytic sweep path relies on
    when it prunes cells without replaying them."""
    from repro.analytic import streams
    from repro.trace import spectrum as spectrum_mod

    config, miss_trace = case["config"], case["miss_trace"]
    spectrum = spectrum_mod.extract_spectrum(miss_trace)
    prediction = streams.predict_streams(spectrum, config)
    ref = oracle.RefStreamPrefetcher(config).run(
        miss_trace.addrs.tolist(), miss_trace.kinds.tolist()
    )
    demand = ref["demand_misses"]
    truth = ref["stream_hits"] / demand if demand else 0.0
    error = abs(prediction.hit_rate - truth)
    if error > prediction.bound:
        return (
            "hit_rate out of declared bound",
            f"{prediction.hit_rate:.6f} (bound {prediction.bound:.6f})",
            f"{truth:.6f} (|error| {error:.6f})",
        )
    if spectrum.demand_misses != demand:
        return "spectrum.demand_misses", str(spectrum.demand_misses), str(demand)
    return None


def _vector_case(rng: random.Random, n_events: int) -> Dict[str, object]:
    # Write-back/write-allocate L1, a unified head-only zero-latency
    # stream config (any stride detector) and a write-allocate LRU L2:
    # the batch engines' support envelope.  Anything outside it falls
    # back to scalar in production.
    config = replace(random_cache_config(rng), write_back=True, write_allocate=True)
    trace = random_trace(rng, n_events)
    stream_config = replace(
        random_stream_config(rng), partitioned=False, lookup_depth=1, min_lead=0
    )
    miss_trace = random_miss_trace(rng, n_events, block_bits=stream_config.block_bits)
    l2_config = replace(
        random_cache_config(rng), policy="lru", write_back=True, write_allocate=True
    )
    return {
        "config": config,
        "trace": trace,
        "stream_config": stream_config,
        "miss_trace": miss_trace,
        "l2_config": l2_config,
        "sample_every": rng.choice([1, 2, 4, 8]),
    }


def _vector_engines(case) -> Dict[str, object]:
    # force=True keeps the engines live under REPRO_CHECK=1, where they
    # normally stand down for the instrumented scalar paths; a None is an
    # engine refusing a supported configuration.
    l1 = vector_simulate_cache(case["config"], case["trace"], force=True)
    return {
        "l1": None if l1 is None else {"events": _events(l1[0]), "stats": l1[1]},
        "streams": vector_replay_streams(case["stream_config"], case["miss_trace"], force=True),
        "l2": lru_results(
            case["miss_trace"], [case["l2_config"]], SamplingPlan(case["sample_every"]),
            force=True,
        )[case["l2_config"]],
    }


def _scalar_engines(case) -> Dict[str, object]:
    cache = Cache(case["config"])
    events = _events(cache.simulate(case["trace"]))
    return {
        "l1": {"events": events, "stats": cache.stats},
        "streams": StreamPrefetcher(case["stream_config"]).run(case["miss_trace"]),
        "l2": sampled_hit_rate(
            case["miss_trace"], case["l2_config"], SamplingPlan(case["sample_every"])
        ),
    }


# -- the stage table ----------------------------------------------------------

diff_l1 = Stage(
    name="l1",
    salt=2654435761,
    events=3000,
    case=_l1_case,
    runners=(
        ("scalar", _l1_runner(scalar_simulate_l1)),
        ("simulate_l1", _l1_runner(simulate_l1)),
    ),
    reference=lambda case: _ref_l1(case["trace"], case["config"]),
    inputs=("data_set_bytes",),
)

diff_streams = Stage(
    name="streams",
    salt=2246822519,
    events=2000,
    case=_config_and_misses(random_stream_config),
    runners=(
        ("per-event", _streams_per_event),
        # The bulk path, demand-only fast path included.
        ("run()", lambda case: {
            "stats": StreamPrefetcher(case["config"]).run(case["miss_trace"])
        }),
    ),
    reference=lambda case: _reference_run(
        oracle.RefStreamPrefetcher(case["config"]), case["miss_trace"]
    ),
    derived=_BANDWIDTH,
)

diff_victim = Stage(
    name="victim",
    salt=3266489917,
    events=2000,
    case=_config_and_misses(random_victim_config),
    runners=(("per-event", _mechanism_per_event), ("replay_secondary", _replay_secondary)),
    reference=_reference_mechanism,
    derived=_BANDWIDTH,
)

diff_misscache = replace(
    diff_victim, name="misscache", salt=668265263,
    case=_config_and_misses(random_misscache_config),
)

diff_hybrid = replace(
    diff_victim, name="hybrid", salt=374761393,
    case=_config_and_misses(random_hybrid_config),
    runners=(("replay_secondary", _replay_secondary),),
)

diff_analytic = Stage(
    name="analytic",
    salt=3266489917,
    events=2500,
    case=_analytic_case,
    runners=(("profile", _profile_hits), ("l2_ladder", _ladder_results)),
    reference=lambda case: {**_reference_fa_hits(case), **_reference_ladder(case)},
)

diff_analytic_streams = Stage(
    name="analytic-streams",
    salt=3266489917,
    events=2000,
    case=_analytic_streams_case,
    runners=(("extract_spectrum", _spectrum_of_prefix("extract_spectrum")),),
    reference=_spectrum_of_prefix("naive_spectrum"),
    check=_stream_model_within_bound,
)

diff_vector = Stage(
    name="vector",
    salt=2246822507,
    events=2500,
    case=_vector_case,
    runners=(("vector", _vector_engines),),
    reference=_scalar_engines,
)


#: Per-seed stage registry: name -> row.  ``--replay``, ``--stages`` and
#: :func:`run_corpus` all dispatch through this table.
STAGE_FUNCTIONS: Dict[str, Stage] = {
    stage.name: stage
    for stage in (
        diff_l1,
        diff_streams,
        diff_victim,
        diff_misscache,
        diff_hybrid,
        diff_analytic,
        diff_analytic_streams,
        diff_vector,
    )
}

#: Stages a default corpus run exercises per seed, in order.
DEFAULT_STAGES = tuple(STAGE_FUNCTIONS)


# -- registry workloads ---------------------------------------------------------

#: Small, structurally diverse slice of the registry for corpus runs.
DEFAULT_REGISTRY_WORKLOADS = ("cgm", "mgrid", "trfd")

#: Streams over the real miss trace: one filtered and one czone config.
_REGISTRY_STREAMS = (
    ("filtered", StreamConfig.filtered(n_streams=8)),
    ("czone", StreamConfig.non_unit(n_streams=8, czone_bits=16)),
)


def _registry_pipeline(case) -> Dict[str, object]:
    # The production dispatch: the batch engines where a config allows
    # them, scalar otherwise (and everywhere under REPRO_CHECK=1).
    miss_trace, summary = simulate_l1(case["workload"], case["config"])
    parts = {"l1": {"events": _events(miss_trace), "summary": summary}}
    for label, config in _REGISTRY_STREAMS:
        parts[label] = replay_streams(config, miss_trace)
    return parts


def _reference_registry(case) -> Dict[str, object]:
    parts = _ref_l1(case["workload"].trace(), case["config"])
    addrs = [addr for addr, _ in parts["events"]]
    kinds = [kind for _, kind in parts["events"]]
    result = {"l1": parts}
    for label, config in _REGISTRY_STREAMS:
        stats = oracle.RefStreamPrefetcher(config).run(addrs, kinds)
        del stats["outcomes"]
        result[label] = stats
    return result


_REGISTRY = Stage(
    name="registry",
    runners=(("pipeline", _registry_pipeline),),
    reference=_reference_registry,
    inputs=("config", "data_set_bytes"),
    derived=_BANDWIDTH,
)


def diff_registry_workload(
    name: str, scale: float = 0.05, seed: int = 0
) -> Optional[Divergence]:
    """Full-pipeline check of one real workload model at small scale."""
    case = {
        "workload": get_workload(name, scale=scale, seed=seed),
        "config": CacheConfig.paper_l1(),
    }
    return _REGISTRY.diff(case, seed, f"registry:{name}@{scale}")


# -- corpus driver ----------------------------------------------------------


def replay(key: str, n_events: Optional[int] = None) -> Optional[Divergence]:
    """Re-run what a divergence's replay key names: ``STAGE:SEED`` for a
    seeded stage, ``registry:<name>@<scale>:<seed>`` for a registry one.

    Raises:
        ValueError: for a malformed key, an unknown stage or an unknown
            registry workload.
    """
    stage, _, seed_text = key.rpartition(":")
    try:
        seed = int(seed_text)
    except ValueError:
        raise ValueError(f"bad replay key {key!r}; expected STAGE:SEED") from None
    if stage.startswith("registry:"):
        name, _, scale_text = stage[len("registry:"):].partition("@")
        try:
            workload_class(name)
            scale = float(scale_text)
        except (KeyError, ValueError):
            raise ValueError(
                f"bad replay key {key!r}; expected registry:<workload>@<scale>:<seed>"
            ) from None
        return diff_registry_workload(name, scale=scale, seed=seed)
    if stage not in STAGE_FUNCTIONS:
        raise ValueError(
            f"unknown replay stage {stage!r}; use one of "
            + ", ".join(sorted(STAGE_FUNCTIONS))
            + ", registry:<name>@<scale>"
        )
    return STAGE_FUNCTIONS[stage](seed, n_events=n_events)


def check_seed(
    seed: int, n_events: int = DEFAULT_EVENTS, stages: Sequence[str] = DEFAULT_STAGES
) -> List[Divergence]:
    """Run the random-trace stages for one seed."""
    found = []
    for stage in stages:
        divergence = STAGE_FUNCTIONS[stage](seed, n_events=n_events)
        if divergence is not None:
            found.append(divergence)
    return found


def run_corpus(
    seeds: int = 50,
    seed_start: int = 0,
    n_events: int = DEFAULT_EVENTS,
    registry: bool = True,
    registry_scale: float = 0.05,
    registry_workloads: Sequence[str] = DEFAULT_REGISTRY_WORKLOADS,
    stages: Sequence[str] = DEFAULT_STAGES,
    progress=None,
) -> CheckReport:
    """Run the full differential corpus; collect every divergence."""
    unknown = [stage for stage in stages if stage not in STAGE_FUNCTIONS]
    if unknown:
        raise ValueError(
            f"unknown stages {unknown}; choose from {sorted(STAGE_FUNCTIONS)}"
        )
    report = CheckReport()
    for seed in range(seed_start, seed_start + seeds):
        report.divergences.extend(check_seed(seed, n_events=n_events, stages=stages))
        report.seeds_checked += 1
        report.stages_run += len(stages)
        if progress is not None and (seed - seed_start + 1) % 25 == 0:
            progress(f"  {seed - seed_start + 1}/{seeds} seeds checked")
    if registry:
        for name in registry_workloads:
            divergence = diff_registry_workload(name, scale=registry_scale)
            report.stages_run += 1
            if divergence is not None:
                report.divergences.append(divergence)
    return report
