"""Golden reference models for the secondary-mechanism zoo.

Scalar, loop-per-event reimplementations of the ``repro.mechanisms``
semantics (victim cache, miss cache, serial hybrid stacks), written from
the docs/mechanisms.md contract with the same independence rules as
:mod:`repro.check.oracle`: **no code shared** with the production
implementations — only the frozen config dataclasses (pure data) and the
integer event encodings cross the boundary.  Plain lists with linear
search stand in for the production ``OrderedDict`` structures, and the
hybrid reference is *online per-event* serial composition, so the differ
also proves the production two-phase residual formulation equivalent.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.check.oracle import (
    EV_IFETCH_MISS,
    EV_WRITEBACK,
    RefStreamPrefetcher,
)

__all__ = [
    "RefVictimCache",
    "RefMissCache",
    "RefHybridStack",
    "build_ref_mechanism",
    "MECH_COUNTERS",
]

#: Counter names every reference mechanism reports; with
#: ``member_hits`` (front to back, empty unless a hybrid) and ``streams``
#: (the stream member's statistics, or None) they are its whole report.
MECH_COUNTERS = (
    "demand_misses",
    "hits",
    "ifetch_misses",
    "writebacks",
    "invalidations",
    "allocations",
    "evictions",
    "writebacks_out",
    "prefetches_issued",
    "prefetches_used",
)


class _RefMechanism:
    """Shared counter plumbing for the reference mechanisms."""

    def __init__(self, config):
        self.config = config
        self.counters: Dict[str, int] = {name: 0 for name in MECH_COUNTERS}

    def handle_event(self, addr: int, kind: int) -> str:
        """One miss event; returns 'hit'/'miss'/'writeback'."""
        block = addr >> self.config.block_bits
        if kind == EV_WRITEBACK:
            self.counters["writebacks"] += 1
            self._writeback(block)
            return "writeback"
        self.counters["demand_misses"] += 1
        if kind == EV_IFETCH_MISS:
            self.counters["ifetch_misses"] += 1
        if self._demand(addr, block, kind):
            self.counters["hits"] += 1
            return "hit"
        return "miss"

    def run(self, addrs: Sequence[int], kinds: Sequence[int]) -> Dict[str, object]:
        outcomes = [self.handle_event(addr, kind) for addr, kind in zip(addrs, kinds)]
        stats = self.finalize()
        stats["outcomes"] = outcomes
        return stats

    def finalize(self) -> Dict[str, object]:
        return {**self.counters, "member_hits": [], "streams": None}

    def _demand(self, addr: int, block: int, kind: int) -> bool:
        raise NotImplementedError

    def _writeback(self, block: int) -> None:
        raise NotImplementedError


class RefVictimCache(_RefMechanism):
    """Reference victim cache: shadow L1 tag array + FA LRU buffer.

    The buffer is a list of ``[block, dirty]`` pairs ordered LRU-first;
    shadow sets are block lists ordered LRU-first too (miss-order MRU
    replacement).  See docs/mechanisms.md for the event contract.
    """

    def __init__(self, config):
        super().__init__(config)
        self.shadow: List[List[int]] = [[] for _ in range(config.shadow_sets)]
        self.buffer: List[List] = []  # [block, dirty], index 0 = LRU

    def _demand(self, addr: int, block: int, kind: int) -> bool:
        hit = False
        for entry in self.buffer:
            if entry[0] == block:
                # Swap back into L1; the dirty bit travels with the block.
                self.buffer.remove(entry)
                hit = True
                break
        tags = self.shadow[block % self.config.shadow_sets]
        if block in tags:
            tags.remove(block)
            tags.append(block)
        else:
            tags.append(block)
            if len(tags) > self.config.shadow_assoc:
                self._insert_victim(tags.pop(0), False)
        return hit

    def _writeback(self, block: int) -> None:
        tags = self.shadow[block % self.config.shadow_sets]
        if block in tags:
            tags.remove(block)
        self._insert_victim(block, True)

    def _insert_victim(self, block: int, dirty: bool) -> None:
        self.counters["allocations"] += 1
        for entry in self.buffer:
            if entry[0] == block:
                entry[1] = entry[1] or dirty
                self.buffer.remove(entry)
                self.buffer.append(entry)
                return
        self.buffer.append([block, dirty])
        if len(self.buffer) > self.config.entries:
            old = self.buffer.pop(0)
            self.counters["evictions"] += 1
            if old[1]:
                self.counters["writebacks_out"] += 1


class RefMissCache(_RefMechanism):
    """Reference miss cache: FA LRU list of recently-missed blocks."""

    def __init__(self, config):
        super().__init__(config)
        self.buffer: List[int] = []  # index 0 = LRU

    def _demand(self, addr: int, block: int, kind: int) -> bool:
        if block in self.buffer:
            self.buffer.remove(block)
            self.buffer.append(block)
            return True
        self.buffer.append(block)
        self.counters["allocations"] += 1
        if len(self.buffer) > self.config.entries:
            self.buffer.pop(0)
            self.counters["evictions"] += 1
        return False

    def _writeback(self, block: int) -> None:
        if block in self.buffer:
            self.buffer.remove(block)
            self.counters["invalidations"] += 1


class _RefStreamMember:
    """RefStreamPrefetcher behind the reference-mechanism event surface."""

    def __init__(self, config):
        self.config = config
        self.prefetcher = RefStreamPrefetcher(config.streams)

    def handle_event(self, addr: int, kind: int) -> str:
        outcome = self.prefetcher.handle_event(addr, kind)
        # Only a true head hit services a miss; in-flight matches miss.
        return outcome if outcome in ("hit", "writeback") else "miss"

    def finalize(self) -> Dict[str, object]:
        totals = self.prefetcher.finalize()
        stats = {name: 0 for name in MECH_COUNTERS}
        stats["member_hits"] = []
        stats["demand_misses"] = totals["demand_misses"]
        stats["hits"] = totals["stream_hits"]
        stats["ifetch_misses"] = totals["ifetch_misses"]
        stats["writebacks"] = totals["writebacks"]
        stats["invalidations"] = totals["invalidations"]
        stats["allocations"] = totals["allocations"]
        stats["prefetches_issued"] = totals["prefetches_issued"]
        stats["prefetches_used"] = totals["prefetches_used"]
        stats["streams"] = totals
        return stats


class RefHybridStack(_RefMechanism):
    """Reference hybrid: *online* serial composition, event by event.

    A demand miss probes members front to back and stops at the first
    hit; members behind never see it.  Write-backs pass every member.
    This is deliberately the online formulation — the production engine
    composes via two-phase residual traces, and the differ proves the
    formulations equivalent.
    """

    def __init__(self, config):
        super().__init__(config)
        self.members = [build_ref_mechanism(member) for member in config.members]

    def _demand(self, addr: int, block: int, kind: int) -> bool:
        # The raw address is forwarded untouched: stream members' stride
        # detectors key on sub-block byte-address bits.
        for member in self.members:
            if member.handle_event(addr, kind) == "hit":
                return True
        return False

    def _writeback(self, block: int) -> None:
        addr = block << self.config.block_bits
        for member in self.members:
            member.handle_event(addr, EV_WRITEBACK)

    def finalize(self) -> Dict[str, object]:
        stats = super().finalize()
        member_stats = [member.finalize() for member in self.members]
        for name in (
            "invalidations",
            "allocations",
            "evictions",
            "writebacks_out",
            "prefetches_issued",
            "prefetches_used",
        ):
            stats[name] = sum(ms[name] for ms in member_stats)
        stats["member_hits"] = [ms["hits"] for ms in member_stats]
        for ms in member_stats:
            if ms["streams"] is not None:
                stats["streams"] = ms["streams"]
        return stats


def build_ref_mechanism(config):
    """Instantiate the reference model for a ``MechanismConfig``."""
    if config.kind == "victim":
        return RefVictimCache(config)
    if config.kind == "misscache":
        return RefMissCache(config)
    if config.kind == "hybrid":
        return RefHybridStack(config)
    if config.kind == "streams":
        return _RefStreamMember(config)
    raise ValueError(f"unknown mechanism kind {config.kind!r}")
