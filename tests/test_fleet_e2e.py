"""End-to-end fleet tests: frontend + workers over real sockets.

Every test boots one frontend :class:`ServiceServer` plus N worker
servers inside a single ``asyncio.run`` scenario and talks real
HTTP/1.1 to the frontend only — exactly the production topology, minus
process boundaries (the subprocess variant is ``repro.fleet.smoke``).

The contracts under test are the ISSUE's acceptance criteria:

* a >=2-worker sweep is **bit-identical** to a single-host ``run_grid``;
* it stays bit-identical when a worker dies **mid-chunk** (accepts the
  request, then drops the connection) — its cells fail over;
* a remote-store miss under ``fetch_policy="require"`` surfaces as a
  tagged TaskError (and a clean 404 from ``/v1/blob/...``), not a hang;
* N duplicate concurrent sweeps execute each unique cell **exactly
  once** fleet-wide (the frontend's coalescer fronts the whole fleet);
* workers replicate trace blobs from the frontend's store instead of
  recomputing them.
"""

import asyncio
import socket

from repro.core.config import StreamConfig
from repro.fleet.hashing import rendezvous_owner
from repro.service import api
from repro.service.client import arequest
from repro.service.server import ServiceConfig, ServiceServer, SimulationService
from repro.sim.parallel import SweepTask, run_grid
from repro.trace.store import stats_from_dict

WORKLOADS = ["sweep", "stride", "interleaved", "random"]
N_STREAMS = [1, 4, 8]
SCALE = 0.25

SWEEP_PAYLOAD = {
    "workloads": WORKLOADS,
    "n_streams": N_STREAMS,
    "scale": SCALE,
    "timeout_s": 120,
}


def _sweep_tasks(workloads=WORKLOADS, n_streams=N_STREAMS):
    return [
        SweepTask(
            key=(name, n),
            workload=name,
            config=StreamConfig.jouppi(n_streams=n),
            scale=SCALE,
        )
        for name in workloads
        for n in n_streams
    ]


def _direct():
    return {
        task.key: result
        for task, result in zip(_sweep_tasks(), run_grid(_sweep_tasks()))
    }


async def _start_worker(store_root=None) -> ServiceServer:
    server = ServiceServer(
        SimulationService(
            ServiceConfig(jobs=1, worker=True, store_root=store_root)
        )
    )
    await server.start()
    return server


async def _start_frontend(
    worker_servers, store_root=None, **overrides
) -> ServiceServer:
    urls = tuple(f"http://{w.host}:{w.port}" for w in worker_servers)
    config = ServiceConfig(
        jobs=1,
        store_root=store_root,
        max_queue=256,
        workers=urls,
        fleet_heartbeat_s=0,  # tests drive liveness deterministically
        **overrides,
    )
    server = ServiceServer(SimulationService(config))
    await server.start()
    return server


def _assert_bit_identical(body, direct):
    assert body["ok"] and not body["errors"], body.get("errors")
    for cell in body["results"]:
        key = tuple(cell["key"])
        assert stats_from_dict(cell["stats"]) == direct[key].streams
        assert cell["l1"]["misses"] == direct[key].l1.misses


class TestFleetSweep:
    def test_two_worker_sweep_is_bit_identical(self, tmp_path):
        async def scenario():
            workers = [
                await _start_worker(str(tmp_path / f"w{i}")) for i in range(2)
            ]
            frontend = await _start_frontend(workers)
            try:
                status, body = await arequest(
                    frontend.host, frontend.port, "POST", "/v1/sweep",
                    SWEEP_PAYLOAD, timeout=180,
                )
                _, fleet = await arequest(
                    frontend.host, frontend.port, "GET", "/v1/fleet/status"
                )
                from repro.obs.metrics import engine_registry

                snap = engine_registry().snapshot()
                return status, body, fleet, snap
            finally:
                for server in [frontend, *workers]:
                    await server.close()

        direct = _direct()
        status, body, fleet, snap = asyncio.run(scenario())
        assert status == 200
        _assert_bit_identical(body, direct)
        # every cell was executed by a worker, none fell back locally
        worker_urls = {w["url"] for w in fleet["workers"]}
        origins = {cell["origin"] for cell in fleet["cells"]}
        assert origins and origins <= worker_urls
        assert len(fleet["cells"]) == len(direct)
        assert snap["counters"].get("fleet_local_fallback_cells_total", 0) == 0
        assert snap["counters"]["fleet_dispatch_cells_total"] >= len(direct)

    def test_worker_death_mid_chunk_fails_over_bit_identical(self, tmp_path):
        """A worker that accepts the chunk then drops the connection:
        its cells must be re-dispatched and the sweep must still match
        the single-host run exactly."""
        # the saboteur: accepts, reads the request, closes mid-response
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(16)
        fake_port = sock.getsockname()[1]

        async def saboteur():
            loop = asyncio.get_running_loop()
            sock.setblocking(False)
            while True:
                conn, _ = await loop.sock_accept(sock)
                try:
                    await loop.sock_recv(conn, 65536)  # the chunk arrives ...
                finally:
                    conn.close()  # ... and dies with the worker

        async def scenario():
            real = await _start_worker(str(tmp_path / "real"))
            fake_url = f"http://127.0.0.1:{fake_port}"
            frontend = await _start_frontend(
                [real],
                fleet_max_attempts=2,
                fleet_chunk_timeout_s=30.0,
            )
            frontend.service.fleet.register(fake_url)
            sabotage = asyncio.ensure_future(saboteur())
            try:
                status, body = await arequest(
                    frontend.host, frontend.port, "POST", "/v1/sweep",
                    SWEEP_PAYLOAD, timeout=180,
                )
                fake = frontend.service.fleet.workers[fake_url]
                real_url = f"http://{real.host}:{real.port}"
                placement = {
                    url: 0 for url in (fake_url, real_url)
                }
                dispatcher = frontend.service.fleet
                for task in _sweep_tasks():
                    owner = rendezvous_owner(
                        dispatcher._task_trace_digest(task),
                        sorted(placement),
                    )
                    placement[owner] += 1
                return status, body, fake.alive, fake.failed_over_cells, placement[fake_url]
            finally:
                sabotage.cancel()
                sock.close()
                for server in [frontend, real]:
                    await server.close()

        direct = _direct()
        status, body, fake_alive, failed_over, expected = asyncio.run(scenario())
        assert status == 200
        _assert_bit_identical(body, direct)
        # the fake worker owned `expected` cells; all of them failed over
        assert failed_over == expected
        if expected:
            assert not fake_alive

    def test_duplicate_sweeps_execute_each_cell_once_fleet_wide(self, tmp_path):
        """Cluster-wide coalescing: the frontend's digest-keyed
        coalescer fronts the whole fleet, so N duplicate concurrent
        sweeps cost one execution per unique cell."""
        n_requests = 12
        unique_cells = len(WORKLOADS) * len(N_STREAMS)

        async def scenario():
            workers = [
                await _start_worker(str(tmp_path / f"w{i}")) for i in range(2)
            ]
            frontend = await _start_frontend(workers)
            try:
                responses = await asyncio.gather(
                    *(
                        arequest(
                            frontend.host, frontend.port, "POST", "/v1/sweep",
                            SWEEP_PAYLOAD, timeout=180,
                        )
                        for _ in range(n_requests)
                    )
                )
                front_counters = dict(
                    frontend.service.metrics.snapshot()["counters"]
                )
                worker_cells = sum(
                    w.service.metrics.snapshot()["counters"]["chunk_cells_total"]
                    for w in workers
                )
                return responses, front_counters, worker_cells
            finally:
                for server in [frontend, *workers]:
                    await server.close()

        responses, counters, worker_cells = asyncio.run(scenario())
        assert {status for status, _ in responses} == {200}
        for _, body in responses:
            assert body["ok"] and len(body["results"]) == unique_cells
        # exactly one execution per unique cell, across the whole fleet
        assert counters["cells_executed_total"] == unique_cells
        assert worker_cells == unique_cells
        assert counters["coalesce_hits_total"] > 0


class TestRemoteStore:
    def test_missing_blob_is_a_clean_404(self, tmp_path):
        async def scenario():
            frontend = await _start_frontend([], store_root=str(tmp_path / "s"))
            try:
                return await asyncio.gather(
                    arequest(
                        frontend.host, frontend.port, "GET",
                        f"/v1/blob/trace/{'f' * 64}",
                    ),
                    arequest(
                        frontend.host, frontend.port, "GET",
                        "/v1/blob/nonsense/abc",
                    ),
                )
            finally:
                await frontend.close()

        (status_a, body_a), (status_b, _) = asyncio.run(scenario())
        assert status_a == 404
        assert body_a["error"]["code"] == "blob_not_found"
        assert status_b == 404

    def test_require_policy_surfaces_tagged_task_error(self, tmp_path):
        """fetch_policy='require' + a trace available nowhere: the cell
        must fail fast with a tagged TaskError, not recompute or hang."""

        async def scenario():
            worker = await _start_worker(store_root=None)  # storeless
            frontend = await _start_frontend(
                [worker],
                store_root=None,  # storeless: nothing to replicate from
                fetch_policy="require",
            )
            try:
                return await arequest(
                    frontend.host, frontend.port, "POST", "/v1/sweep",
                    dict(SWEEP_PAYLOAD, workloads=["sweep"], n_streams=[4]),
                    timeout=60,
                )
            finally:
                await frontend.close()
                await worker.close()

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body["ok"] and not body["results"]
        assert len(body["errors"]) == 1
        error = body["errors"][0]
        assert error["error"] == "trace_unavailable"
        assert "require" in error["traceback"]

    def test_worker_replicates_trace_blobs_instead_of_recomputing(self, tmp_path):
        """With the frontend's store warm, a fresh worker must fetch the
        trace blob over /v1/blob rather than re-simulating the L1."""

        async def scenario():
            frontend = await _start_frontend(
                [], store_root=str(tmp_path / "front")
            )
            try:
                # warm the frontend store with a local (no-worker) run
                status, _ = await arequest(
                    frontend.host, frontend.port, "POST", "/v1/sweep",
                    dict(SWEEP_PAYLOAD, workloads=["sweep"], n_streams=[4]),
                    timeout=120,
                )
                assert status == 200
                worker = await _start_worker(str(tmp_path / "worker"))
                try:
                    frontend.service.fleet.register(
                        f"http://{worker.host}:{worker.port}"
                    )
                    # same trace, different replay config: the worker
                    # needs the trace blob but not the result
                    status, body = await arequest(
                        frontend.host, frontend.port, "POST", "/v1/sweep",
                        dict(SWEEP_PAYLOAD, workloads=["sweep"], n_streams=[6]),
                        timeout=120,
                    )
                    counters = worker.service.metrics.snapshot()["counters"]
                    cell = api.CellSpec(
                        key=("sweep", 6),
                        workload="sweep",
                        config=StreamConfig.jouppi(n_streams=6),
                        scale=SCALE,
                    )
                    tkey, _ = frontend.service._digests(cell)
                    has_blob = worker.service.store.has_blob("trace", tkey)
                    return status, body, counters, has_blob
                finally:
                    await worker.close()
            finally:
                await frontend.close()

        status, body, counters, has_blob = asyncio.run(scenario())
        assert status == 200 and body["ok"] and not body["errors"]
        assert has_blob, "worker store never received the replicated trace blob"
        assert counters["chunk_cells_total"] == 1
        # the L1 simulation happened zero times on the worker
        assert counters.get("runner_trace_computed_total", 0) == 0
        assert counters.get("store_trace_hit_total", 0) >= 1

    def test_garbage_blob_is_refused_not_installed(self, tmp_path):
        """An origin that answers 200 with bytes that are not a trace: the
        worker installs nothing, logs ``blob.miss``, and under 'require'
        fails the cell as trace_unavailable instead of recomputing it."""
        from repro.obs.log import log_ring

        async def garbage(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            body = b"\x00 not a trace archive"
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            writer.close()

        cell = api.CellSpec(
            key=("sweep", 4),
            workload="sweep",
            config=StreamConfig.jouppi(n_streams=4),
            scale=SCALE,
        )

        async def scenario():
            origin = await asyncio.start_server(garbage, "127.0.0.1", 0)
            worker = await _start_worker(str(tmp_path / "worker"))
            try:
                response = await worker.service.handle_chunk(
                    api.ChunkRequest(
                        cells=(cell,),
                        blob_origin="http://127.0.0.1:%d" % origin.sockets[0].getsockname()[1],
                        fetch_policy="require",
                        timeout_s=60,
                    )
                )
                tkey, _ = worker.service._digests(cell)
                has_blob = worker.service.store.has_blob("trace", tkey)
                counters = worker.service.metrics.snapshot()["counters"]
                return response, tkey, has_blob, counters
            finally:
                await worker.close()
                origin.close()
                await origin.wait_closed()

        response, tkey, has_blob, counters = asyncio.run(scenario())
        (result,) = response["cells"]
        assert not result["ok"]
        assert result["error"]["error"] == "trace_unavailable"
        assert not has_blob
        assert counters.get("runner_trace_computed_total", 0) == 0
        assert any(
            record["event"] == "blob.miss"
            and record.get("error") == "BlobRejected"
            and record.get("digest") == tkey[:12]
            for record in log_ring().tail(50)
        )
