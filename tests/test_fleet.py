"""Unit tests for the fleet tier: hashing, wire format, blob layer,
client retry, and the dispatcher's sharding/failover mechanics.

Everything here runs in-process (no sockets except the retry tests,
which use a throwaway local listener); the cross-host behaviour is
covered end-to-end by ``test_fleet_e2e.py`` and the smoke job.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.caches.cache import CacheConfig
from repro.core.config import StreamConfig
from repro.fleet.hashing import rendezvous_owner, rendezvous_rank, rendezvous_score
from repro.service import api
from repro.service.client import RequestFailed, ServiceClient
from repro.sim.parallel import SweepTask, TaskError, run_grid
from repro.sim.results import RunResult
from repro.trace.store import TraceStore, trace_digest

NODES = [f"http://10.0.0.{i}:8077" for i in range(1, 6)]
KEYS = [f"digest-{i:04d}" for i in range(200)]


class TestRendezvousHashing:
    def test_owner_is_stable_and_seed_independent(self):
        # sha256-based: the same literal inputs must map identically in
        # every process, regardless of PYTHONHASHSEED.
        assert rendezvous_owner("abc", NODES) == rendezvous_owner("abc", list(NODES))
        assert rendezvous_score("abc", NODES[0]) == rendezvous_score("abc", NODES[0])

    def test_rank_is_a_permutation_and_owner_is_its_head(self):
        for key in KEYS[:20]:
            rank = rendezvous_rank(key, NODES)
            assert sorted(rank) == sorted(NODES)
            assert rank[0] == rendezvous_owner(key, NODES)

    def test_removing_a_node_only_moves_its_own_keys(self):
        # The property failover leans on: killing one worker reassigns
        # exactly the keys it owned; every other placement is untouched.
        before = {key: rendezvous_owner(key, NODES) for key in KEYS}
        dead = NODES[2]
        survivors = [n for n in NODES if n != dead]
        after = {key: rendezvous_owner(key, survivors) for key in KEYS}
        for key in KEYS:
            if before[key] != dead:
                assert after[key] == before[key]
            else:
                assert after[key] != dead
        # and the dead node's keys land on their rank runner-up
        for key in KEYS:
            if before[key] == dead:
                assert after[key] == rendezvous_rank(key, NODES)[1]

    def test_distribution_is_roughly_even(self):
        counts = {node: 0 for node in NODES}
        for key in KEYS:
            counts[rendezvous_owner(key, NODES)] += 1
        assert min(counts.values()) > 0
        assert max(counts.values()) < 3 * len(KEYS) / len(NODES)

    def test_empty_node_set(self):
        assert rendezvous_owner("abc", []) is None


class TestChunkWireFormat:
    def test_parse_chunk_request_round_trip(self):
        payload = {
            "v": api.WIRE_VERSION,
            "cells": [
                {
                    "key": ["sweep", 4],
                    "workload": "sweep",
                    "scale": 0.25,
                    "seed": 0,
                    "config": {"n_streams": 4},
                }
            ],
            "blob_origin": "http://127.0.0.1:9000/",
            "fetch_policy": "require",
            "timeout_s": 30,
        }
        request = api.parse_chunk_request(payload)
        assert len(request.cells) == 1
        cell = request.cells[0]
        assert cell.key == ("sweep", 4)
        assert cell.workload == "sweep"
        assert cell.config.n_streams == 4
        assert request.blob_origin == "http://127.0.0.1:9000"
        assert request.fetch_policy == "require"
        assert request.timeout_s == 30

    def test_parse_chunk_request_rejects_garbage(self):
        with pytest.raises(api.ValidationError):
            api.parse_chunk_request({"v": api.WIRE_VERSION, "cells": []})
        with pytest.raises(api.ValidationError):
            api.parse_chunk_request(
                {
                    "v": api.WIRE_VERSION,
                    "cells": [{"workload": "sweep"}],
                    "fetch_policy": "sometimes",
                }
            )
        with pytest.raises(api.ValidationError):
            api.parse_chunk_request(
                {"v": api.WIRE_VERSION, "cells": [{"workload": "nope"}]}
            )

    def test_parse_register_request(self):
        assert (
            api.parse_register_request(
                {"v": api.WIRE_VERSION, "url": "http://h:1/"}
            )
            == "http://h:1"
        )
        with pytest.raises(api.ValidationError):
            api.parse_register_request({"v": api.WIRE_VERSION, "url": "ftp://h:1"})
        with pytest.raises(api.ValidationError):
            api.parse_register_request({"v": api.WIRE_VERSION})

    def test_cell_result_survives_the_wire_with_provenance(self):
        task = SweepTask(
            key=("sweep", 4),
            workload="sweep",
            config=StreamConfig.jouppi(n_streams=4),
            scale=0.25,
        )
        (result,) = run_grid([task])
        cell = api.CellSpec(
            key=task.key, workload="sweep", config=task.config, scale=0.25
        )
        encoded = json.loads(json.dumps(api.encode_cell_result(cell, result)))
        decoded = api.decode_cell_result(encoded)
        assert decoded.streams == result.streams
        assert decoded.l1 == result.l1
        assert decoded.worker == result.worker
        assert decoded.source == result.source
        assert decoded.wall_time_s == result.wall_time_s

    def test_task_error_survives_the_wire(self):
        error = TaskError(
            key=("sweep", 4),
            workload="sweep",
            error="boom",
            details="trace",
            wall_time_s=0.5,
            worker=123,
        )
        decoded = api.decode_task_error(json.loads(json.dumps(error.to_payload())))
        assert decoded.key == ("sweep", 4)
        assert decoded.error == "boom"
        assert decoded.details == "trace"
        assert decoded.worker == 123


class TestStoreBlobLayer:
    def test_ingest_read_round_trip(self, tmp_path):
        import numpy as np

        from repro.caches.cache import MissEventKind, MissTrace
        from repro.sim.results import L1Summary
        from repro.trace.store import BlobRejected

        digest = "a" * 64
        source = TraceStore(tmp_path / "source")
        kinds = np.full(10, int(MissEventKind.READ_MISS), dtype=np.uint8)
        trace = MissTrace(np.arange(0, 640, 64, dtype=np.int64), kinds, 6)
        summary = L1Summary(
            accesses=10, misses=10, writebacks=0, ifetch_misses=0,
            miss_rate=1.0, trace_length=10, data_set_bytes=640,
        )
        source.put("trace", digest, (trace, summary))
        data = source.read_blob("trace", digest)
        store = TraceStore(tmp_path / "store")
        assert not store.has_blob("trace", digest)
        assert store.read_blob("trace", digest) is None
        # bytes that do not decode as the kind are refused, not installed
        with pytest.raises(BlobRejected):
            store.ingest_blob("trace", digest, b"\x00\x01payload")
        assert not store.has_blob("trace", digest)
        store.ingest_blob("trace", digest, data)
        assert store.has_blob("trace", digest)
        assert store.read_blob("trace", digest) == data
        # blob identity maps onto the ordinary store layout
        assert store.path("trace", digest) == tmp_path / "store" / "traces" / f"{digest}.npz"

    def test_unknown_kind_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.path("model", "a" * 64)
        with pytest.raises(ValueError):
            store.has_blob("model", "a" * 64)

    def test_blob_bytes_are_store_bytes(self, tmp_path):
        # A blob fetched from one store and ingested into another makes
        # the destination a cache hit for the same digest.
        src = TraceStore(tmp_path / "src")
        dst = TraceStore(tmp_path / "dst")
        from repro.sim.runner import MissTraceCache

        cache = MissTraceCache(CacheConfig.paper_l1(), store=src)
        cache.get("sweep", 0.25, 0)
        digest = trace_digest("sweep", 0.25, 0, CacheConfig.paper_l1(), False)
        data = src.read_blob("trace", digest)
        assert data is not None
        dst.ingest_blob("trace", digest, data)
        loaded = dst.get("trace", digest)
        assert loaded is not None


def _flaky_listener(failures: int, respond_status: int = 200):
    """A local TCP server that botches its first ``failures`` requests
    (accept + close without responding), then answers JSON."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    port = sock.getsockname()[1]
    state = {"seen": 0}

    def serve():
        while True:
            try:
                conn, _ = sock.accept()
            except OSError:
                return
            with conn:
                try:
                    conn.settimeout(5.0)
                    data = b""
                    while b"\r\n\r\n" not in data:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        data += chunk
                except OSError:
                    continue
                state["seen"] += 1
                if state["seen"] <= failures:
                    continue  # close without responding: transport error
                body = json.dumps({"ok": True, "v": api.WIRE_VERSION}).encode()
                conn.sendall(
                    (
                        f"HTTP/1.1 {respond_status} OK\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        "Connection: close\r\n\r\n"
                    ).encode()
                    + body
                )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return sock, port, state


class TestClientRetry:
    def test_retries_through_transport_failures(self):
        sock, port, state = _flaky_listener(failures=2)
        try:
            client = ServiceClient(
                "127.0.0.1", port, timeout=5.0, retries=3, backoff_s=0.01
            )
            status, body = client.health()
            assert status == 200 and body["ok"]
            assert state["seen"] == 3  # 2 botched + 1 served
            client.close()
        finally:
            sock.close()

    def test_attempt_cap_is_honored(self):
        sock, port, state = _flaky_listener(failures=100)
        try:
            client = ServiceClient(
                "127.0.0.1", port, timeout=5.0, retries=2, backoff_s=0.01
            )
            with pytest.raises(RequestFailed) as exc_info:
                client.health()
            assert exc_info.value.attempts == 3
            assert state["seen"] == 3
            client.close()
        finally:
            sock.close()

    def test_deadline_bounds_the_whole_retry_loop(self):
        # An unreachable port with a generous retry budget: the
        # deadline, not the attempt cap, must stop the loop.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here
        client = ServiceClient(
            "127.0.0.1", port, timeout=5.0, retries=50, backoff_s=0.05
        )
        started = time.monotonic()
        with pytest.raises(RequestFailed):
            client.request("GET", "/healthz", deadline_s=0.5)
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, f"deadline of 0.5s overshot to {elapsed:.2f}s"

    def test_connection_is_reused_across_requests(self, tmp_path):
        # Against the real server (keep-alive), two sequential requests
        # must ride one TCP connection.
        from repro.service.server import ServiceConfig, ServiceServer, SimulationService

        async def scenario():
            server = ServiceServer(SimulationService(ServiceConfig(jobs=1)))
            host, port = await server.start()
            try:
                def talk():
                    client = ServiceClient(host, port, timeout=10.0)
                    try:
                        client.health()
                        first_sock = client._conn.sock
                        assert first_sock is not None
                        client.health()
                        assert client._conn.sock is first_sock
                    finally:
                        client.close()

                await asyncio.to_thread(talk)
            finally:
                await server.close()

        asyncio.run(scenario())


def _tasks(n_streams=(1, 2, 4, 6, 8, 12), workloads=("sweep", "stride")):
    return [
        SweepTask(
            key=(name, n),
            workload=name,
            config=StreamConfig.jouppi(n_streams=n),
            scale=0.25,
        )
        for name in workloads
        for n in n_streams
    ]


class TestDispatcherSharding:
    def _dispatcher(self, **kwargs):
        from repro.fleet.dispatch import FleetDispatcher
        from repro.obs.metrics import MetricsRegistry

        async def local(tasks):
            return run_grid(tasks)

        kwargs.setdefault("heartbeat_s", 0)
        kwargs.setdefault("registry", MetricsRegistry())
        return FleetDispatcher(local, **kwargs)

    def test_same_trace_same_worker(self):
        dispatcher = self._dispatcher(workers=NODES)
        tasks = _tasks()
        alive = dispatcher.alive_workers()
        groups = dispatcher._shard(tasks, alive)
        owner_of = {}
        for worker, indexed in groups:
            for _, task in indexed:
                digest = dispatcher._task_trace_digest(task)
                assert owner_of.setdefault(digest, worker.url) == worker.url
        # every cell of one workload shares a trace digest, hence a worker
        assert len(owner_of) == 2  # two workloads at one (scale, seed)

    def test_shard_preserves_every_index_exactly_once(self):
        dispatcher = self._dispatcher(workers=NODES)
        tasks = _tasks()
        groups = dispatcher._shard(tasks, dispatcher.alive_workers())
        seen = sorted(i for _, indexed in groups for i, _ in indexed)
        assert seen == list(range(len(tasks)))

    def test_zero_workers_runs_locally(self):
        dispatcher = self._dispatcher()
        tasks = _tasks(n_streams=(4,), workloads=("sweep",))
        results = asyncio.run(dispatcher.run_batch(tasks))
        (direct,) = run_grid(tasks)
        assert results[0].streams == direct.streams

    def test_dead_workers_fall_back_to_local(self):
        # Registered but dead-on-arrival workers (nothing listens on
        # their ports): every shard exhausts its attempts, fails over,
        # finds no survivors, and lands on the local runner with
        # bit-identical results.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        dispatcher = self._dispatcher(
            workers=[f"http://127.0.0.1:{port}"],
            max_attempts=2,
            backoff_s=0.01,
            chunk_timeout_s=5.0,
        )
        tasks = _tasks(n_streams=(1, 4), workloads=("sweep",))
        results = asyncio.run(dispatcher.run_batch(tasks))
        direct = run_grid(tasks)
        for got, want in zip(results, direct):
            assert isinstance(got, RunResult)
            assert got.streams == want.streams
        assert not dispatcher.workers[f"http://127.0.0.1:{port}"].alive
        snap = dispatcher._m.snapshot()
        assert snap["counters"]["fleet_failover_cells_total"] == len(tasks)
        assert snap["counters"]["fleet_local_fallback_cells_total"] == len(tasks)
        assert snap["counters"]["fleet_retry_total"] >= 1

    def test_status_is_json_safe(self):
        dispatcher = self._dispatcher(workers=NODES[:2])
        tasks = _tasks(n_streams=(4,), workloads=("sweep",))
        dispatcher._log_cells(tasks, run_grid(tasks), origin="local")
        encoded = json.dumps(dispatcher.status())
        decoded = json.loads(encoded)
        assert decoded["alive"] == 2
        assert decoded["cells"][0]["origin"] == "local"
        assert decoded["cells"][0]["key"] == ["sweep", 4]


class TestConfigValidation:
    def test_worker_cannot_dispatch(self):
        from repro.service.server import ServiceConfig

        with pytest.raises(ValueError):
            ServiceConfig(worker=True, workers=("http://h:1",))

    def test_bad_fetch_policy_rejected(self):
        from repro.service.server import ServiceConfig

        with pytest.raises(ValueError):
            ServiceConfig(fetch_policy="sometimes")


class TestWorkerClocks:
    """Liveness decisions must survive wall-clock steps (NTP, manual
    changes): `heartbeat_age_s` reads the monotonic clock only; the unix
    stamp is display-only."""

    def _handle(self):
        from repro.fleet.dispatch import WorkerHandle

        return WorkerHandle(NODES[0], max_inflight=2)

    def test_age_none_before_first_heartbeat(self):
        handle = self._handle()
        assert handle.heartbeat_age_s() is None
        assert handle.summary()["heartbeat_age_s"] is None

    def test_age_small_after_mark_alive(self):
        handle = self._handle()
        handle.mark_alive(pid=123)
        age = handle.heartbeat_age_s()
        assert age is not None and 0.0 <= age < 5.0
        assert handle.summary()["last_heartbeat_unix"] == pytest.approx(
            time.time(), abs=5.0
        )

    @pytest.mark.parametrize("step", [1e6, -1e6])
    def test_age_immune_to_wall_clock_steps(self, step, monkeypatch):
        handle = self._handle()
        handle.mark_alive(pid=123)
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + step)
        # the decision clock does not move with the wall clock
        age = handle.heartbeat_age_s()
        assert age is not None and 0.0 <= age < 5.0

    def test_age_tracks_monotonic_elapsed(self, monkeypatch):
        handle = self._handle()
        handle.mark_alive(pid=123)
        real_mono = time.monotonic
        monkeypatch.setattr(time, "monotonic", lambda: real_mono() + 120.0)
        assert handle.heartbeat_age_s() >= 120.0
