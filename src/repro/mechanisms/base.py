"""Common protocol for secondary mechanisms (paper Section 1, Jouppi '90).

The paper evaluates stream buffers as *the* secondary mechanism between a
small L1 and main memory, but Jouppi's original proposal positioned them
next to two siblings: the **miss cache** (a tiny fully-associative cache
that duplicates recently-missed blocks) and the **victim cache** (the same
buffer holding L1 *evictions* instead, so it is exclusive of L1).  This
module defines the shared vocabulary so all three — plus serial hybrid
stacks such as VC+SB — can be swept, screened, stored, and differ-checked
as peers of :class:`~repro.core.prefetcher.StreamPrefetcher`.

A mechanism consumes the same L1 miss trace a stream prefetcher does:
demand-miss events (read / write / ifetch) it may service on-chip, and
write-back events that travel past it toward memory.  Its figure of merit
is the same as the paper's: the fraction of demand misses serviced without
going to main memory (``hit_rate``), plus bandwidth/allocation accounting
compatible with :class:`~repro.caches.cache.CacheStats` and
:class:`~repro.core.bandwidth.BandwidthReport`.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.caches.cache import MissEventKind, MissTrace
from repro.core.bandwidth import BandwidthReport
from repro.core.config import StreamConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.prefetcher import StreamStats

__all__ = [
    "MechanismConfig",
    "MechStats",
    "SecondaryMechanism",
    "combine_member_stats",
    "mech_stats_from_streams",
    "mechanism_label",
    "mechanism_to_dict",
    "mechanism_from_dict",
    "parse_mechanism_spec",
    "MECHANISM_KINDS",
]

#: Recognised mechanism kinds (the tagged-union discriminator).
MECHANISM_KINDS = ("streams", "victim", "misscache", "hybrid")


@dataclass(frozen=True)
class MechanismConfig:
    """Tagged-union description of one secondary mechanism.

    ``kind`` selects the variant; only the fields relevant to that variant
    are meaningful (the rest keep their defaults so configs hash and
    serialise canonically):

    * ``"streams"`` — ``streams`` holds the :class:`StreamConfig`.
    * ``"victim"`` — ``entries`` victim-buffer blocks; ``shadow_sets`` ×
      ``shadow_assoc`` is the shadow L1 tag geometry used to reconstruct
      evictions from the miss trace (defaults match ``CacheConfig.paper_l1``).
    * ``"misscache"`` — ``entries`` miss-cache blocks.
    * ``"hybrid"`` — ``members`` is the front-to-back serial stack
      (no nested hybrids; at most one stream member, which must be last).
    """

    kind: str
    entries: int = 0
    shadow_sets: int = 256
    shadow_assoc: int = 4
    block_bits: int = 6
    streams: Optional[StreamConfig] = None
    members: Tuple["MechanismConfig", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "streams":
            if self.streams is None:
                raise ValueError("streams mechanism requires a StreamConfig")
            if self.streams.block_bits != self.block_bits:
                raise ValueError(
                    f"stream config block_bits {self.streams.block_bits} != "
                    f"mechanism block_bits {self.block_bits}"
                )
        elif self.kind in ("victim", "misscache"):
            if self.entries <= 0:
                raise ValueError(f"{self.kind} mechanism requires entries > 0")
            if self.kind == "victim":
                if self.shadow_sets <= 0 or self.shadow_sets & (self.shadow_sets - 1):
                    raise ValueError("shadow_sets must be a positive power of two")
                if self.shadow_assoc <= 0:
                    raise ValueError("shadow_assoc must be positive")
        else:  # hybrid
            if len(self.members) < 2:
                raise ValueError("hybrid stack needs at least two members")
            if any(m.kind == "hybrid" for m in self.members):
                raise ValueError("hybrid stacks do not nest")
            stream_positions = [i for i, m in enumerate(self.members) if m.kind == "streams"]
            if len(stream_positions) > 1:
                raise ValueError("hybrid stack may hold at most one stream member")
            if stream_positions and stream_positions[0] != len(self.members) - 1:
                raise ValueError("a stream member must be last in the stack")
            if any(m.block_bits != self.block_bits for m in self.members):
                raise ValueError("hybrid members must share the stack's block_bits")

    # -- constructors --------------------------------------------------------

    @classmethod
    def for_streams(cls, config: Optional[StreamConfig] = None) -> "MechanismConfig":
        """A stream-buffer mechanism (defaults to the paper's best config)."""
        config = config if config is not None else StreamConfig.non_unit()
        return cls(kind="streams", streams=config, block_bits=config.block_bits)

    @classmethod
    def victim(
        cls,
        entries: int = 16,
        *,
        shadow_sets: int = 256,
        shadow_assoc: int = 4,
        block_bits: int = 6,
    ) -> "MechanismConfig":
        return cls(
            kind="victim",
            entries=entries,
            shadow_sets=shadow_sets,
            shadow_assoc=shadow_assoc,
            block_bits=block_bits,
        )

    @classmethod
    def misscache(cls, entries: int = 16, *, block_bits: int = 6) -> "MechanismConfig":
        return cls(kind="misscache", entries=entries, block_bits=block_bits)

    @classmethod
    def hybrid(cls, *members: "MechanismConfig") -> "MechanismConfig":
        if not members:
            raise ValueError("hybrid stack needs members")
        return cls(kind="hybrid", members=tuple(members), block_bits=members[0].block_bits)

    @property
    def label(self) -> str:
        return mechanism_label(self)


@dataclass
class MechStats:
    """Counters produced by one mechanism run.

    The hit-rate contract mirrors :class:`StreamStats`: ``demand_misses``
    is the paper's denominator (every L1 miss presented), ``hits`` the
    subset serviced on-chip.  ``writebacks_out`` counts dirty victim
    blocks the mechanism itself pushed to memory (extra write traffic);
    ``prefetches_issued``/``prefetches_used`` are non-zero only when the
    mechanism speculates (streams).
    """

    config: MechanismConfig
    demand_misses: int = 0
    hits: int = 0
    ifetch_misses: int = 0
    writebacks: int = 0
    invalidations: int = 0
    allocations: int = 0
    evictions: int = 0
    writebacks_out: int = 0
    prefetches_issued: int = 0
    prefetches_used: int = 0
    member_hits: Tuple[int, ...] = ()
    streams: Optional["StreamStats"] = None

    @property
    def misses(self) -> int:
        """Demand misses that escaped to the next level."""
        return self.demand_misses - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of demand misses serviced by the mechanism (0..1)."""
        if not self.demand_misses:
            return 0.0
        return self.hits / self.demand_misses

    @property
    def hit_rate_percent(self) -> float:
        return 100.0 * self.hit_rate

    @property
    def stream_hits(self) -> int:
        """Alias so :class:`MechStats` slots into ``RunResult`` reporting."""
        return self.hits

    @property
    def bandwidth(self) -> BandwidthReport:
        """Extra-bandwidth accounting (speculative traffic only)."""
        depth = self.streams.config.depth if self.streams is not None else 1
        return BandwidthReport(
            prefetches_issued=self.prefetches_issued,
            prefetches_used=self.prefetches_used,
            l1_misses=self.demand_misses,
            allocations=self.allocations,
            depth=depth,
        )


def mech_stats_from_streams(config: MechanismConfig, stream_stats: "StreamStats") -> MechStats:
    """Wrap a finished :class:`StreamStats` as mechanism statistics.

    The paper's hit rate: only :data:`~repro.core.bank.Lookup.HIT`
    services a miss (``in_flight_matches`` stay inside the embedded
    stream statistics), and the full stream statistics survive on
    ``MechStats.streams`` so bandwidth/EB reporting keeps its depth-aware
    accounting.  Replays and store reads both wrap through here, so
    store round-trips are bit-exact.
    """
    return MechStats(
        config=config,
        demand_misses=stream_stats.demand_misses,
        hits=stream_stats.stream_hits,
        ifetch_misses=stream_stats.ifetch_misses,
        writebacks=stream_stats.writebacks,
        invalidations=stream_stats.invalidations,
        allocations=stream_stats.allocations,
        prefetches_issued=stream_stats.prefetches_issued,
        prefetches_used=stream_stats.prefetches_used,
        streams=stream_stats,
    )


def combine_member_stats(
    config: MechanismConfig, member_stats: Sequence[MechStats]
) -> MechStats:
    """Fold a hybrid stack's per-member statistics into the stack's view.

    The front member saw every event, so it owns the trace-level counters;
    hits and resource counters sum across members.
    """
    front = member_stats[0]
    streams = next((ms.streams for ms in member_stats if ms.streams is not None), None)
    return MechStats(
        config=config,
        demand_misses=front.demand_misses,
        hits=sum(ms.hits for ms in member_stats),
        ifetch_misses=front.ifetch_misses,
        writebacks=front.writebacks,
        invalidations=sum(ms.invalidations for ms in member_stats),
        allocations=sum(ms.allocations for ms in member_stats),
        evictions=sum(ms.evictions for ms in member_stats),
        writebacks_out=sum(ms.writebacks_out for ms in member_stats),
        prefetches_issued=sum(ms.prefetches_issued for ms in member_stats),
        prefetches_used=sum(ms.prefetches_used for ms in member_stats),
        member_hits=tuple(ms.hits for ms in member_stats),
        streams=streams,
    )


class SecondaryMechanism(abc.ABC):
    """Event-driven protocol of the victim and miss caches (a hybrid's
    front members included; streams replay through the stream engines).

    Subclasses implement ``_probe`` (one demand miss; return True when
    serviced on-chip) and ``_writeback`` (a dirty block passing by).  The
    base class owns the shared counters so the per-event and bulk paths
    count identically — the differ relies on that.
    """

    def __init__(self, config: MechanismConfig):
        self.config = config
        self.stats = MechStats(config=config)

    # -- event API -----------------------------------------------------------

    def handle_miss(self, addr: int, kind: int = int(MissEventKind.READ_MISS)) -> bool:
        """Present one demand miss; True when the mechanism serviced it."""
        stats = self.stats
        stats.demand_misses += 1
        if kind == int(MissEventKind.IFETCH_MISS):
            stats.ifetch_misses += 1
        serviced = self._probe(addr, addr >> self.config.block_bits, kind)
        if serviced:
            stats.hits += 1
        return serviced

    def handle_writeback(self, addr: int) -> None:
        """A dirty block travelling to memory passes the mechanism."""
        self.stats.writebacks += 1
        self._writeback(addr >> self.config.block_bits)

    def reset(self) -> None:
        """Discard all state and counters (fresh run)."""
        self.__init__(self.config)  # type: ignore[misc]

    # -- bulk API ------------------------------------------------------------

    def run(self, miss_trace: MissTrace) -> MechStats:
        """Consume a whole miss trace and return the final statistics."""
        self._check_geometry(miss_trace)
        wb_kind = int(MissEventKind.WRITEBACK)
        handle_miss = self.handle_miss
        handle_writeback = self.handle_writeback
        for addr, kind in zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist()):
            if kind == wb_kind:
                handle_writeback(addr)
            else:
                handle_miss(addr, kind)
        return self.finalize()

    def run_filter(self, miss_trace: MissTrace) -> Tuple[MechStats, MissTrace]:
        """Consume a trace; also return the residual trace for the next
        stack member: unserviced demand misses plus *all* write-backs, in
        original order.  (Residuals drop PCs — no mechanism consumes them.)
        """
        self._check_geometry(miss_trace)
        wb_kind = int(MissEventKind.WRITEBACK)
        handle_miss = self.handle_miss
        handle_writeback = self.handle_writeback
        keep: List[int] = []
        for i, (addr, kind) in enumerate(
            zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist())
        ):
            if kind == wb_kind:
                handle_writeback(addr)
                keep.append(i)
            elif not handle_miss(addr, kind):
                keep.append(i)
        idx = np.asarray(keep, dtype=np.int64)
        residual = MissTrace(
            addrs=miss_trace.addrs[idx],
            kinds=miss_trace.kinds[idx],
            block_bits=miss_trace.block_bits,
        )
        return self.finalize(), residual

    def finalize(self) -> MechStats:
        """Close out the run; subclasses fold component counters here."""
        return self.stats

    # -- subclass surface ----------------------------------------------------

    @abc.abstractmethod
    def _probe(self, addr: int, block: int, kind: int) -> bool:
        """Service one demand miss for ``block``; True when hit on-chip."""

    @abc.abstractmethod
    def _writeback(self, block: int) -> None:
        """Observe a dirty ``block`` travelling to memory."""

    def _check_geometry(self, miss_trace: MissTrace) -> None:
        if miss_trace.block_bits != self.config.block_bits:
            raise ValueError(
                f"miss trace block_bits {miss_trace.block_bits} != "
                f"mechanism block_bits {self.config.block_bits}"
            )


# -- (de)serialisation -------------------------------------------------------


def mechanism_to_dict(config: MechanismConfig) -> dict:
    """JSON-safe plain-type rendering; exact (ints/bools/strings only)."""
    return {
        "kind": config.kind,
        "entries": config.entries,
        "shadow_sets": config.shadow_sets,
        "shadow_assoc": config.shadow_assoc,
        "block_bits": config.block_bits,
        "streams": None
        if config.streams is None
        else {f.name: getattr(config.streams, f.name) for f in dataclasses.fields(config.streams)},
        "members": [mechanism_to_dict(m) for m in config.members],
    }


def mechanism_from_dict(payload: dict) -> MechanismConfig:
    """Rebuild a :class:`MechanismConfig` written by :func:`mechanism_to_dict`.

    Raises:
        KeyError/TypeError/ValueError: on malformed payloads (store
        callers treat any of these as a miss; wire callers as a 400).
    """
    streams = payload.get("streams")
    return MechanismConfig(
        kind=payload["kind"],
        entries=int(payload.get("entries", 0)),
        shadow_sets=int(payload.get("shadow_sets", 256)),
        shadow_assoc=int(payload.get("shadow_assoc", 4)),
        block_bits=int(payload.get("block_bits", 6)),
        streams=None if streams is None else StreamConfig(**streams),
        members=tuple(mechanism_from_dict(m) for m in payload.get("members") or ()),
    )


# -- labels and parsing ------------------------------------------------------


def mechanism_label(config: MechanismConfig) -> str:
    """Short human/manifest label, invertible by :func:`parse_mechanism_spec`
    for the spec-expressible subset."""
    if config.kind == "streams":
        return "streams"
    if config.kind == "victim":
        return f"victim:{config.entries}"
    if config.kind == "misscache":
        return f"misscache:{config.entries}"
    return "+".join(mechanism_label(m) for m in config.members)


def _parse_single(token: str) -> MechanismConfig:
    name, _, arg = token.strip().partition(":")
    name = name.strip().lower()
    if name in ("streams", "sb"):
        if arg:
            raise ValueError(f"streams takes no :N argument (got {token!r})")
        return MechanismConfig.for_streams()
    if name in ("victim", "vc"):
        return MechanismConfig.victim(int(arg) if arg else 16)
    if name in ("misscache", "miss", "mc"):
        return MechanismConfig.misscache(int(arg) if arg else 16)
    raise ValueError(
        f"unknown mechanism {name!r} (expected streams, victim[:N], "
        f"misscache[:N], or a '+'-joined hybrid)"
    )


def parse_mechanism_spec(text: str) -> MechanismConfig:
    """Parse a CLI mechanism spec.

    Examples: ``streams``, ``victim:8``, ``misscache`` (16 entries), and
    hybrid stacks like ``victim:4+streams`` (front to back).
    """
    parts = [p for p in (piece.strip() for piece in text.split("+")) if p]
    if not parts:
        raise ValueError("empty mechanism spec")
    members = [_parse_single(p) for p in parts]
    if len(members) == 1:
        return members[0]
    return MechanismConfig.hybrid(*members)
