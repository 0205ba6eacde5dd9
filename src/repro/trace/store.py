"""Persistent on-disk store of L1 miss traces and what is derived from them.

The paper's methodology — simulate the primary-cache miss stream once,
replay it under many secondary configurations — is only cheap if the
"once" part actually happens once.  The in-process
:class:`~repro.sim.runner.MissTraceCache` gives that within a session;
this module extends it across processes, sessions and fleet hosts.

Every entry is one artifact *kind* under a content digest, and one
table, :data:`CODECS`, says how each kind lives on disk:

* ``trace`` — one L1 simulation's miss trace + ``L1Summary``, keyed by
  :func:`trace_digest` (exact: ``int64``/``uint8`` arrays, JSON floats);
* ``result`` — one replay's all-integer ``StreamStats``/``MechStats``,
  keyed by :func:`result_digest` of (trace digest, secondary config),
  so warm sweeps skip both the L1 simulation *and* the replay;
* ``profile`` / ``spectrum`` — the analytic stack-distance profiles and
  run spectrum of a trace, keyed by its trace digest.

:meth:`TraceStore.put` and :meth:`TraceStore.get` are the one write and
the one read path of every kind; spans, hook events, replication,
counting, pruning and orphan reaping all follow from the table.

Robustness rule: a codec's ``decode`` raises on any defect — missing
file, truncated archive, bad JSON, foreign shape, stale format version —
and every such entry is a miss: ``get`` returns ``None`` (the caller
recomputes and overwrites), ``prune`` deletes it, ``ingest_blob``
refuses it.  Writes go through a temp file + ``os.replace`` so a crashed
run never leaves a partial entry behind.  Bump a format version when
its kind's layout or semantics change; old entries then miss (and the
digest-keyed ones hash differently and die of neglect).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import tempfile
import time
import zipfile
import zlib
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union
)

import numpy as np

from repro.obs.events import StoreEvent, record_event
from repro.obs.spans import get_tracer

# The cache/core layers import repro.trace.events at module scope, which
# runs this package's __init__ — so this module must not import them back
# at module scope.  Runtime imports happen inside the functions that need
# the classes (they are no-ops once the interpreter has warmed up).
# (repro.obs is dependency-free by contract, so importing it here is safe.)
if TYPE_CHECKING:  # pragma: no cover
    from repro.analytic.profile import LocalityProfile
    from repro.caches.cache import CacheConfig, MissTrace
    from repro.core.config import StreamConfig
    from repro.core.prefetcher import StreamStats
    from repro.mechanisms.base import MechanismConfig, MechStats
    from repro.sim.results import L1Summary
    from repro.trace.spectrum import MissSpectrum

__all__ = [
    "STORE_FORMAT_VERSION",
    "RESULT_FORMAT_VERSION",
    "MECH_RESULT_FORMAT_VERSION",
    "PROFILE_FORMAT_VERSION",
    "SPECTRUM_FORMAT_VERSION",
    "CODECS",
    "BlobRejected",
    "Codec",
    "TraceStore",
    "canonical_scale",
    "cell_stats",
    "trace_digest",
    "result_digest",
    "stats_to_dict",
    "stats_from_dict",
    "mech_stats_to_dict",
    "mech_stats_from_dict",
]

#: Bump when the trace archive layout or the L1 simulation changes.
#: v2: compression preserves first-access miss kinds (dirty-carry) and
#: non-WB+WA configs simulate raw, so stored v1 miss traces are stale.
STORE_FORMAT_VERSION = 2

#: Bump when the stream replay semantics change (stale results must die).
RESULT_FORMAT_VERSION = 1

#: Bump when non-stream mechanism semantics change (victim shadow-tag
#: reconstruction, miss-cache invalidation, hybrid residual composition).
#: Stream-mechanism results ride on :data:`RESULT_FORMAT_VERSION` instead
#: so they stay interchangeable with plain stream results.
MECH_RESULT_FORMAT_VERSION = 1

#: Bump when the locality-profile layout or the profiling semantics
#: change (see :mod:`repro.analytic.profile`); stale profiles then load
#: as misses and are recomputed.
#: v2: profiles carry per-bucket footprint/demand arrays for the
#: combined-locality set-associative estimator, so v1 profiles are stale.
PROFILE_FORMAT_VERSION = 2

#: Bump when the miss-spectrum layout or the extraction semantics change
#: (see :mod:`repro.trace.spectrum`); stale spectra then load as misses
#: and are recomputed.
SPECTRUM_FORMAT_VERSION = 1

#: Everything reading and decoding a missing, truncated, foreign or stale
#: entry can raise.  ``np.load`` surfaces zip-container damage as
#: ``BadZipFile``/``EOFError`` and member-decompression damage as
#: ``zlib.error``; JSON of the wrong shape raises ``LookupError`` or
#: ``TypeError``; bad JSON and stale versions raise ``ValueError``.
_DEFECTS = (
    OSError, LookupError, ValueError, TypeError, EOFError, zipfile.BadZipFile, zlib.error
)


def _canonical(payload: dict) -> str:
    """Deterministic JSON rendering used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_scale(scale: float) -> float:
    """Collapse float-noise aliases of a workload scale.

    Scales arrive from CLI parsing, JSON round-trips and arithmetic like
    ``3 * 0.1``, so the same intended value can differ in the last few
    ulps (``0.3`` vs ``0.30000000000000004``).  Rounding through a
    12-significant-digit decimal rendering maps such aliases to one
    float, so in-process cache keys and on-disk digests agree.  Distinct
    intended scales are unaffected: no sweep in this repo distinguishes
    scales closer than one part in 1e12.  Idempotent.
    """
    return float(f"{float(scale):.12g}")


def trace_digest(
    workload: str,
    scale: float,
    seed: int,
    l1_config: CacheConfig,
    keep_pcs: bool = False,
) -> str:
    """Stable content key of one L1 simulation.

    Everything that determines the miss trace participates: the workload
    identity (name, scale, seed), the full L1 geometry/policy and whether
    PCs were propagated.  The format version is folded in so layout
    changes invalidate without a migration step.
    """
    payload = {
        "store_version": STORE_FORMAT_VERSION,
        "workload": workload,
        "scale": canonical_scale(scale),
        "seed": seed,
        "keep_pcs": keep_pcs,
        "l1": dataclasses.asdict(l1_config),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def result_digest(trace_key: str, config: "Union[StreamConfig, MechanismConfig]") -> str:
    """Stable content key of one replay: trace digest x secondary config.

    A ``streams`` mechanism keys exactly like its bare
    :class:`StreamConfig`, so the two share one entry (see
    :func:`cell_stats`).  The other mechanism kinds fold the mechanism
    identity under their own format version.
    """
    from repro.mechanisms.base import MechanismConfig, mechanism_to_dict

    if isinstance(config, MechanismConfig):
        if config.kind != "streams":
            payload = {
                "mech_result_version": MECH_RESULT_FORMAT_VERSION,
                "trace": trace_key,
                "mechanism": mechanism_to_dict(config),
            }
            return hashlib.sha256(_canonical(payload).encode()).hexdigest()
        config = config.streams
    payload = {
        "result_version": RESULT_FORMAT_VERSION,
        "trace": trace_key,
        "config": dataclasses.asdict(config),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def cell_stats(
    config: "Union[StreamConfig, MechanismConfig]",
    stats: "Union[StreamStats, MechStats]",
) -> "Union[StreamStats, MechStats]":
    """The statistics a cell of ``config`` reports, from a result entry.

    A bare :class:`StreamConfig` and a ``streams``-kind
    :class:`MechanismConfig` share one result digest, so whatever sits
    under it (loaded, coalesced or cached) is reshaped here: the stream
    cell gets :class:`StreamStats`, the mechanism cell :class:`MechStats`,
    exactly as its own replay would return.
    """
    from repro.mechanisms.base import MechanismConfig, MechStats
    from repro.mechanisms.streams import mech_stats_from_streams

    if isinstance(config, MechanismConfig):
        if config.kind != "streams":
            return stats
        if isinstance(stats, MechStats):
            stats = stats.streams
        return mech_stats_from_streams(config, stats)
    return stats.streams if isinstance(stats, MechStats) else stats


# -- StreamStats (de)serialisation -----------------------------------------

_COUNTER_FIELDS = (
    "demand_misses",
    "stream_hits",
    "in_flight_matches",
    "ifetch_misses",
    "writebacks",
    "invalidations",
    "prefetches_issued",
    "prefetches_used",
    "allocations",
    "unit_filter_hits",
    "unit_filter_misses",
    "detector_hits",
)


def stats_to_dict(stats: StreamStats) -> dict:
    """Flatten a :class:`StreamStats` to JSON-safe plain types.

    Exact by construction: every counter is an int, the config fields are
    ints/bools/strings, and the histogram buckets are (low, high) pairs.
    """
    from repro.core.lengths import LENGTH_BUCKETS

    lengths = stats.lengths
    return {
        "config": dataclasses.asdict(stats.config),
        "counters": {name: getattr(stats, name) for name in _COUNTER_FIELDS},
        "lengths": {
            "hits_by_bucket": [
                [low, high, lengths.hits_by_bucket[(low, high)]]
                for low, high in LENGTH_BUCKETS
            ],
            "streams_by_bucket": [
                [low, high, lengths.streams_by_bucket[(low, high)]]
                for low, high in LENGTH_BUCKETS
            ],
            "zero_length_streams": lengths.zero_length_streams,
        },
    }


def stats_from_dict(payload: dict) -> StreamStats:
    """Rebuild a :class:`StreamStats` written by :func:`stats_to_dict`.

    Raises:
        KeyError/TypeError/ValueError: on malformed payloads (callers
        treat any of these as a store miss).
    """
    from repro.core.config import StreamConfig
    from repro.core.lengths import StreamLengthHistogram
    from repro.core.prefetcher import StreamStats

    config = StreamConfig(**payload["config"])
    lengths = StreamLengthHistogram(
        hits_by_bucket={
            (low, high): count
            for low, high, count in payload["lengths"]["hits_by_bucket"]
        },
        streams_by_bucket={
            (low, high): count
            for low, high, count in payload["lengths"]["streams_by_bucket"]
        },
        zero_length_streams=payload["lengths"]["zero_length_streams"],
    )
    counters = payload["counters"]
    return StreamStats(
        config=config,
        lengths=lengths,
        **{name: int(counters[name]) for name in _COUNTER_FIELDS},
    )


# -- MechStats (de)serialisation --------------------------------------------

_MECH_COUNTER_FIELDS = (
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


def mech_stats_to_dict(stats: "MechStats") -> dict:
    """Flatten a :class:`MechStats` to JSON-safe plain types (exact)."""
    from repro.mechanisms.base import mechanism_to_dict

    return {
        "mechanism": mechanism_to_dict(stats.config),
        "counters": {name: getattr(stats, name) for name in _MECH_COUNTER_FIELDS},
        "member_hits": list(stats.member_hits),
        "streams": None if stats.streams is None else stats_to_dict(stats.streams),
    }


def mech_stats_from_dict(payload: dict) -> "MechStats":
    """Rebuild a :class:`MechStats` written by :func:`mech_stats_to_dict`.

    Raises:
        KeyError/TypeError/ValueError: on malformed payloads (callers
        treat any of these as a store miss).
    """
    from repro.mechanisms.base import MechStats, mechanism_from_dict

    counters = payload["counters"]
    streams = payload.get("streams")
    return MechStats(
        config=mechanism_from_dict(payload["mechanism"]),
        member_hits=tuple(int(h) for h in payload.get("member_hits") or ()),
        streams=None if streams is None else stats_from_dict(streams),
        **{name: int(counters[name]) for name in _MECH_COUNTER_FIELDS},
    )


# -- codecs -------------------------------------------------------------------
#
# Each codec turns one kind's value into the bytes of one file and back.
# ``decode`` is strict: it raises (one of _DEFECTS) on anything its
# ``encode`` could not have written, a stale format version included.


def _check_version(header: dict, key: str, version: int) -> None:
    if header[key] != version:
        raise ValueError(f"stale entry: {key} is {header[key]!r}, not {version}")


def _pack_npz(meta: dict, arrays: Dict[str, np.ndarray]) -> bytes:
    """One compressed archive: ``meta`` as a JSON ``uint8`` member, then
    the arrays, in that order."""
    buffer = io.BytesIO()
    meta_bytes = np.frombuffer(_canonical(meta).encode(), dtype=np.uint8)
    np.savez_compressed(buffer, meta=meta_bytes, **arrays)
    return buffer.getvalue()


def _unpack_npz(
    data: bytes, version_key: str, version: int
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` of a :func:`_pack_npz` archive, version-checked."""
    with np.load(io.BytesIO(data)) as archive:
        meta = json.loads(bytes(archive["meta"]).decode())
        _check_version(meta, version_key, version)
        arrays = {name: archive[name] for name in archive.files if name != "meta"}
    return meta, arrays


def _int64(array: np.ndarray) -> np.ndarray:
    return array.astype(np.int64, copy=False)


def _encode_trace(value: "Tuple[MissTrace, L1Summary]") -> bytes:
    miss_trace, summary = value
    meta = {
        "store_version": STORE_FORMAT_VERSION,
        "block_bits": miss_trace.block_bits,
        "summary": dataclasses.asdict(summary),
    }
    arrays = {"addrs": miss_trace.addrs, "kinds": miss_trace.kinds}
    if miss_trace.pcs is not None:
        arrays["pcs"] = miss_trace.pcs
    return _pack_npz(meta, arrays)


def _decode_trace(data: bytes) -> "Tuple[MissTrace, L1Summary]":
    from repro.caches.cache import MissTrace
    from repro.sim.results import L1Summary

    meta, arrays = _unpack_npz(data, "store_version", STORE_FORMAT_VERSION)
    pcs = arrays.get("pcs")
    miss_trace = MissTrace(
        _int64(arrays["addrs"]),
        arrays["kinds"].astype(np.uint8, copy=False),
        int(meta["block_bits"]),
        None if pcs is None else _int64(pcs),
    )
    return miss_trace, L1Summary(**meta["summary"])


def _encode_result(stats: "Union[StreamStats, MechStats]") -> bytes:
    from repro.mechanisms.base import MechStats

    if isinstance(stats, MechStats) and stats.config.kind == "streams":
        stats = stats.streams  # shares the plain stream entry (same digest)
    if isinstance(stats, MechStats):
        payload = {
            "mech_result_version": MECH_RESULT_FORMAT_VERSION,
            "stats": mech_stats_to_dict(stats),
        }
    else:
        payload = {
            "result_version": RESULT_FORMAT_VERSION,
            "stats": stats_to_dict(stats),
        }
    return json.dumps(payload, sort_keys=True).encode()


def _decode_result(data: bytes) -> "Union[StreamStats, MechStats]":
    payload = json.loads(data)
    if "mech_result_version" in payload:
        _check_version(payload, "mech_result_version", MECH_RESULT_FORMAT_VERSION)
        return mech_stats_from_dict(payload["stats"])
    _check_version(payload, "result_version", RESULT_FORMAT_VERSION)
    return stats_from_dict(payload["stats"])


_PROFILE_COUNTERS = ("cold_reads", "cold_writes", "writebacks", "unique_blocks")
_PROFILE_ARRAYS = ("read_hist", "write_hist", "bucket_footprint", "bucket_demand")


def _encode_profiles(profiles: "Dict[int, LocalityProfile]") -> bytes:
    meta = {
        "profile_version": PROFILE_FORMAT_VERSION,
        "blocks": {
            str(block_size): {
                name: getattr(profile, name) for name in _PROFILE_COUNTERS
            }
            for block_size, profile in profiles.items()
        },
    }
    arrays = {
        f"{name}_{block_size}": getattr(profile, name)
        for block_size, profile in profiles.items()
        for name in _PROFILE_ARRAYS
        if getattr(profile, name) is not None
    }
    return _pack_npz(meta, arrays)


def _decode_profiles(data: bytes) -> "Dict[int, LocalityProfile]":
    from repro.analytic.profile import LocalityProfile

    meta, arrays = _unpack_npz(data, "profile_version", PROFILE_FORMAT_VERSION)
    profiles = {}
    for key, counters in meta["blocks"].items():
        block_size = int(key)
        profiles[block_size] = LocalityProfile(
            block_size=block_size,
            **{name: int(counters[name]) for name in _PROFILE_COUNTERS},
            **{
                name: _int64(arrays[f"{name}_{block_size}"])
                for name in _PROFILE_ARRAYS
                if f"{name}_{block_size}" in arrays
            },
        )
    return profiles


_SPECTRUM_SCALARS = (
    "block_bits", "n_events", "demand_misses", "writebacks", "ifetch_misses",
    "lone_misses", "seed_events", "alloc_events", "window", "zone_bits",
)
#: Spectrum arrays in archive order; all ``int64`` but the two flags.
_SPECTRUM_ARRAYS = (
    "run_start_addr", "run_stride_bytes", "run_length", "run_wb_next",
    "run_wb_window", "run_primer_age", "run_kind", "run_byte_uniform",
    "run_gaps_ge", "run_conc_ge",
)
_SPECTRUM_UINT8 = ("run_kind", "run_byte_uniform")


def _encode_spectrum(spectrum: "MissSpectrum") -> bytes:
    meta = {
        "spectrum_version": SPECTRUM_FORMAT_VERSION,
        "scalars": {name: getattr(spectrum, name) for name in _SPECTRUM_SCALARS},
    }
    return _pack_npz(meta, {name: getattr(spectrum, name) for name in _SPECTRUM_ARRAYS})


def _decode_spectrum(data: bytes) -> "MissSpectrum":
    from repro.trace.spectrum import MissSpectrum

    meta, arrays = _unpack_npz(data, "spectrum_version", SPECTRUM_FORMAT_VERSION)
    scalars = meta["scalars"]
    return MissSpectrum(
        **{name: int(scalars[name]) for name in _SPECTRUM_SCALARS},
        **{
            name: arrays[name].astype(
                np.uint8 if name in _SPECTRUM_UINT8 else np.int64, copy=False
            )
            for name in _SPECTRUM_ARRAYS
        },
    )


class Codec(NamedTuple):
    """How one artifact kind lives on disk: ``<root>/<directory>/<digest><suffix>``."""

    directory: str
    suffix: str
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]


#: kind -> codec, for every kind the store holds.
CODECS: Dict[str, Codec] = {
    "trace": Codec("traces", ".npz", _encode_trace, _decode_trace),
    "result": Codec("results", ".json", _encode_result, _decode_result),
    "profile": Codec("profiles", ".npz", _encode_profiles, _decode_profiles),
    "spectrum": Codec("spectra", ".npz", _encode_spectrum, _decode_spectrum),
}


class BlobRejected(ValueError):
    """Bytes offered to :meth:`TraceStore.ingest_blob` that do not decode."""


#: Orphaned temp files older than this (seconds) are reaped on open.
#: Generous: a temp file only outlives its writer if that writer died
#: mid-write, and an hour comfortably exceeds any legitimate write.
ORPHAN_TTL_SECONDS = 3600.0


class TraceStore:
    """Directory-backed store of miss traces and derived artifacts.

    Safe for concurrent use by independent processes and threads:
    digests are content-addressed, writers stage to ``*.tmp`` files the
    readers' globs never match and then rename atomically, a losing
    racer's rename is treated as benign (the winner wrote identical
    bytes), and temp files orphaned by a crashed writer are reaped the
    next time a store is opened (:meth:`clean_orphans`).

    Args:
        root: store directory (created on first use).
        hooks: optional callback fired on every lookup/write with a
            typed :class:`~repro.obs.events.StoreEvent` —
            ``<kind>_hit``/``_miss``/``_saved`` for each kind in
            :data:`CODECS`, ``<kind>_blob_read``/``_blob_ingested`` for
            replication — carrying the entry digest, bytes moved and
            operation wall time.  ``StoreEvent`` is a ``str`` equal to
            the event name, so name-only hooks work unchanged.  Hooks
            must be cheap and must not raise.  Every event is also
            folded into the engine metrics registry (``engine_store_*``).
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        hooks: Optional[Callable[[str], None]] = None,
    ):
        self.root = Path(root)
        self.hooks = hooks
        self._dirs = {kind: self.root / codec.directory for kind, codec in CODECS.items()}
        self.clean_orphans(ORPHAN_TTL_SECONDS)

    def __repr__(self) -> str:
        return f"TraceStore({str(self.root)!r})"

    def _emit(self, name: str, digest: str, nbytes: int, duration_s: float) -> None:
        event = StoreEvent(name, digest=digest, nbytes=nbytes, duration_s=duration_s)
        record_event(event, group="store")
        if self.hooks is not None:
            self.hooks(event)

    def _directory(self, kind: str) -> Path:
        try:
            return self._dirs[kind]
        except KeyError:
            known = tuple(CODECS)
            raise ValueError(f"unknown store kind {kind!r}; known: {known}") from None

    def path(self, kind: str, digest: str) -> Path:
        """On-disk path of one entry."""
        return self._directory(kind) / f"{digest}{CODECS[kind].suffix}"

    def put(self, kind: str, digest: str, value: Any) -> Path:
        """Encode and persist one entry under its digest (atomic)."""
        path = self.path(kind, digest)
        started = time.perf_counter()
        with get_tracer().span(f"store.save_{kind}", digest=digest[:12]):
            data = CODECS[kind].encode(value)
            self._write_atomic(path, data)
        self._emit(f"{kind}_saved", digest, len(data), time.perf_counter() - started)
        return path

    def get(self, kind: str, digest: str) -> Optional[Any]:
        """The stored entry, decoded, or None on any defect (a miss)."""
        path = self.path(kind, digest)
        started = time.perf_counter()
        with get_tracer().span(f"store.load_{kind}", digest=digest[:12]):
            try:
                data = path.read_bytes()
                value = CODECS[kind].decode(data)
            except _DEFECTS:
                # Missing, damaged, foreign or stale: the caller
                # recomputes, and its rewrite heals the store.
                value = None
        if value is None:
            self._emit(f"{kind}_miss", digest, 0, time.perf_counter() - started)
            return None
        self._emit(f"{kind}_hit", digest, len(data), time.perf_counter() - started)
        return value

    # -- blob layer (fleet replication) ------------------------------------
    #
    # Workers in a sweep fleet replicate entries by digest: a worker that
    # misses locally fetches the raw on-disk bytes of an entry from the
    # frontend (or a peer) over HTTP and ingests them.  The bytes under a
    # digest are identical on every host that has them, and the digest is
    # an *input* key, so ingestion checks the one thing it can: the bytes
    # must decode as the kind they claim to be.

    def has_blob(self, kind: str, digest: str) -> bool:
        """Cheap existence probe (no content validation)."""
        return self.path(kind, digest).is_file()

    def read_blob(self, kind: str, digest: str) -> Optional[bytes]:
        """The raw stored bytes of one entry, or None when absent.

        This is what the service's ``GET /v1/blob/<kind>/<digest>``
        endpoint serves; readers never see a torn write because writers
        stage to ``*.tmp`` and rename.
        """
        path = self.path(kind, digest)
        started = time.perf_counter()
        try:
            data = path.read_bytes()
        except OSError:
            return None
        self._emit(f"{kind}_blob_read", digest, len(data), time.perf_counter() - started)
        return data

    def ingest_blob(self, kind: str, digest: str, data: bytes) -> Path:
        """Install raw entry bytes fetched from a peer (atomic).

        Raises:
            BlobRejected: the bytes do not decode with the kind's codec
                (the same rule :meth:`get` applies).  Nothing is
                installed, so the entry stays absent rather than
                present-but-unloadable.
        """
        path = self.path(kind, digest)
        started = time.perf_counter()
        try:
            CODECS[kind].decode(data)
        except _DEFECTS as exc:
            raise BlobRejected(
                f"{kind} blob {digest} does not decode: {type(exc).__name__}: {exc}"
            ) from exc
        self._write_atomic(path, data)
        elapsed = time.perf_counter() - started
        self._emit(f"{kind}_blob_ingested", digest, len(data), elapsed)
        return path

    # -- maintenance -------------------------------------------------------

    def _entries(self, kind: str) -> List[Path]:
        directory = self._directory(kind)
        if not directory.is_dir():
            return []
        return list(directory.glob(f"*{CODECS[kind].suffix}"))

    def count(self, kind: str) -> int:
        """Stored entries of one kind (staging files are not counted)."""
        return len(self._entries(kind))

    def prune(self) -> int:
        """Delete every entry :meth:`get` would miss; return the count."""
        removed = 0
        for kind, codec in CODECS.items():
            for path in self._entries(kind):
                try:
                    codec.decode(path.read_bytes())
                except _DEFECTS:
                    path.unlink(missing_ok=True)
                    removed += 1
        return removed

    def clear(self) -> None:
        """Delete every stored entry of every kind."""
        for directory in self._dirs.values():
            if directory.is_dir():
                for path in directory.iterdir():
                    path.unlink(missing_ok=True)

    def _fs_now(self) -> float:
        """The filesystem's notion of "now", for mtime-age comparisons.

        ``clean_orphans`` ages ``*.tmp`` files by their mtime, which the
        filesystem stamped — so the reference point must come from the
        same clock.  Comparing mtimes against ``time.time()`` breaks
        under an NTP step: a backward step makes a fresh temp file look
        ancient and reaps an in-flight writer's staging file.  Writing a
        probe file and reading its mtime measures the filesystem clock
        directly; the probe's name shape (no ``.tmp`` or entry suffix)
        is invisible to every store glob.  Falls back to ``time.time()``
        when no kind directory exists yet or the probe fails — in that
        degraded case there is nothing to reap anyway, or the same
        OSError will skip the reaping loop too.
        """
        for directory in self._dirs.values():
            if not directory.is_dir():
                continue
            try:
                fd, probe = tempfile.mkstemp(
                    dir=directory, prefix=".clock.", suffix=".probe"
                )
                try:
                    os.close(fd)
                    return os.stat(probe).st_mtime
                finally:
                    os.unlink(probe)
            except OSError:
                continue
        return time.time()

    def clean_orphans(self, max_age_seconds: float = 0.0) -> int:
        """Reap ``*.tmp`` staging files older than ``max_age_seconds``.

        A writer that dies between ``mkstemp`` and the rename leaves its
        temp file behind.  Those files are invisible to every lookup (the
        readers glob each kind's suffix) but accumulate on disk, so
        opening a store sweeps out any old enough that their writer must
        be gone.  Live writers are protected by the age threshold — and a
        lost race with one merely re-orphans a file the next open reaps.
        Ages are measured against the filesystem clock (:meth:`_fs_now`),
        not the process wall clock, so an NTP step cannot make a fresh
        staging file look old.

        Returns:
            Number of temp files removed.
        """
        removed = 0
        now = self._fs_now()
        for directory in self._dirs.values():
            if not directory.is_dir():
                continue
            for path in directory.glob("*.tmp"):
                try:
                    if now - path.stat().st_mtime >= max_age_seconds:
                        path.unlink()
                        removed += 1
                except OSError:
                    continue  # racing reaper/writer got there first
        return removed

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        """Write ``data`` to a staging file, then rename it over ``path``.

        The staging file lives beside the target as
        ``<name>.<random>.tmp`` so readers' globs never observe a torn
        write.  Concurrent writers race benignly: content addressing
        means both produced identical bytes, so if the rename itself
        fails but the target exists, the other writer won and this write
        is complete by proxy.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            try:
                os.replace(tmp, path)
            except OSError:
                # FileExistsError/PermissionError from a racing rename
                # (Windows semantics); benign iff the winner's file is
                # in place.
                if not path.exists():
                    raise
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
