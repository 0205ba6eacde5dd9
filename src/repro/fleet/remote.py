"""Replicated trace-store layer: fetch content-addressed blobs by digest.

Any worker can serve any cell after one transfer: when a chunk arrives
for a trace the worker has neither computed nor stored, it fetches the
raw store bytes from the chunk's ``blob_origin`` (normally the
frontend, which either has the blob or returns a clean 404) and ingests
them into its local :class:`~repro.trace.store.TraceStore` under the
same digest.  The store refuses bytes that do not decode as a trace
(:class:`~repro.trace.store.BlobRejected`), so a garbage transfer never
becomes an entry that looks present but loads as a miss.

Two failure modes, deliberately distinct:

* :class:`BlobNotFound` — the origin answered 404: the blob does not
  exist there.  Under the default ``"fallback"`` fetch policy the
  worker recomputes locally; under ``"require"`` the affected cells
  fail with a tagged TaskError (no recompute, no hang).
* :class:`RemoteStoreError` / :class:`~repro.trace.store.BlobRejected`
  — the origin was unreachable, answered an error after retries, or
  answered bytes that are not a trace (nothing is installed); the
  caller treats it like a local miss.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set
from urllib.parse import urlsplit

from repro.obs.log import get_logger
from repro.obs.metrics import engine_registry
from repro.obs.spans import get_tracer
from repro.service.client import RequestFailed, ServiceClient
from repro.trace.store import BlobRejected, TraceStore

__all__ = [
    "BlobNotFound",
    "RemoteStoreError",
    "fetch_blob",
    "replicate_traces",
]


class RemoteStoreError(RuntimeError):
    """The blob origin failed (unreachable, non-404 error, bad body)."""


class BlobNotFound(KeyError):
    """The origin answered a clean 404: no such digest there."""

    def __init__(self, origin: str, kind: str, digest: str):
        self.origin = origin
        self.kind = kind
        self.digest = digest
        super().__init__(f"{origin} has no {kind} blob {digest}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


def _split_origin(origin: str) -> tuple:
    parts = urlsplit(origin)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise RemoteStoreError(f"bad blob origin {origin!r}")
    return parts.hostname, parts.port or (443 if parts.scheme == "https" else 80)


def fetch_blob(
    origin: str,
    kind: str,
    digest: str,
    timeout: float = 30.0,
    retries: int = 2,
) -> bytes:
    """Fetch one store entry's raw bytes from ``origin``.

    Raises:
        BlobNotFound: clean 404 from the origin.
        RemoteStoreError: transport failure after retries, or any other
            non-200 answer.
    """
    host, port = _split_origin(origin)
    registry = engine_registry()
    registry.counter("fleet_remote_fetch_total", "blob fetches attempted").inc()
    client = ServiceClient(host, port, timeout=timeout, retries=retries)
    try:
        with get_tracer().span("fleet.fetch_blob", kind=kind, digest=digest[:12]):
            status, body = client.blob(kind, digest)
    except RequestFailed as exc:
        registry.counter("fleet_remote_error_total", "blob fetches failed").inc()
        raise RemoteStoreError(f"fetching {kind} {digest} from {origin}: {exc}") from exc
    finally:
        client.close()
    if status == 404:
        registry.counter("fleet_remote_miss_total", "blob fetches answered 404").inc()
        raise BlobNotFound(origin, kind, digest)
    if status != 200 or not isinstance(body, bytes):
        registry.counter("fleet_remote_error_total", "blob fetches failed").inc()
        raise RemoteStoreError(
            f"fetching {kind} {digest} from {origin}: status {status}"
        )
    registry.counter("fleet_remote_bytes_total", "blob bytes fetched").inc(len(body))
    return body


def replicate_traces(
    store: Optional[TraceStore],
    origin: Optional[str],
    digests: Iterable[str],
    timeout: float = 30.0,
) -> Set[str]:
    """Ensure trace blobs are local, fetching the rest from ``origin``.

    Returns:
        The digests that are available *nowhere* — absent locally and
        404, unfetchable or undecodable at the origin.  The caller
        decides whether those recompute (``"fallback"``) or fail
        (``"require"``); storeless workers report every digest missing,
        for the same reason.
    """
    log = get_logger("fleet")
    missing: Set[str] = set()
    for digest in digests:
        if store is not None and store.has_blob("trace", digest):
            continue
        if store is None or origin is None:
            missing.add(digest)
            continue
        try:
            data = fetch_blob(origin, "trace", digest, timeout=timeout)
            store.ingest_blob("trace", digest, data)
        except (BlobNotFound, RemoteStoreError, BlobRejected) as exc:
            log.warning(
                "blob.miss",
                digest=digest[:12],
                origin=origin,
                error=type(exc).__name__,
            )
            missing.add(digest)
            continue
        log.info(
            "blob.replicated", digest=digest[:12], origin=origin, bytes=len(data)
        )
    return missing
