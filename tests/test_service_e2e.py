"""End-to-end tests for the simulation service over real sockets.

Each test boots a :class:`ServiceServer` on an ephemeral port inside an
``asyncio.run`` scenario, speaks actual HTTP/1.1 through
:func:`repro.service.client.arequest`, and checks the externally
observable contract: coalescing (N concurrent duplicate sweeps execute
each unique cell exactly once), bit-identical results vs. a direct
:func:`run_grid`, 429 under backpressure, 504 past a deadline, and the
warm-store fast path.

Serial mode (``jobs=1``) keeps these fast: the request path through
validate → queue → coalesce → batch is identical to pool mode, only the
final ``run_grid`` call differs (covered by ``test_parallel.py`` and
the CI smoke job).
"""

import asyncio

import pytest

from repro.core.config import StreamConfig
from repro.service.client import arequest
from repro.service.server import ServiceConfig, ServiceServer, SimulationService
from repro.sim.parallel import SweepTask, run_grid
from repro.trace.store import stats_from_dict

WORKLOADS = ["sweep", "stride"]
N_STREAMS = [1, 4, 8]
SCALE = 0.25

SWEEP_PAYLOAD = {
    "workloads": WORKLOADS,
    "n_streams": N_STREAMS,
    "scale": SCALE,
    "timeout_s": 120,
}


def _sweep_tasks():
    return [
        SweepTask(
            key=(name, n),
            workload=name,
            config=StreamConfig.jouppi(n_streams=n),
            scale=SCALE,
        )
        for name in WORKLOADS
        for n in N_STREAMS
    ]


async def _serve(config: ServiceConfig):
    server = ServiceServer(SimulationService(config))
    host, port = await server.start()
    return server, host, port


class TestConcurrentCoalescing:
    def test_duplicate_sweeps_execute_each_cell_once(self, tmp_path):
        """The acceptance scenario: >=100 concurrent duplicate sweeps,
        one run_grid execution per unique cell, bit-identical results."""
        n_requests = 110
        unique_cells = len(WORKLOADS) * len(N_STREAMS)

        async def scenario():
            server, host, port = await _serve(
                ServiceConfig(
                    jobs=1,
                    store_root=str(tmp_path / "store"),
                    max_queue=2 * n_requests,
                    batch_window_s=0.01,
                )
            )
            try:
                responses = await asyncio.gather(
                    *(
                        arequest(host, port, "POST", "/v1/sweep", SWEEP_PAYLOAD, timeout=180)
                        for _ in range(n_requests)
                    )
                )
                _, metrics = await arequest(host, port, "GET", "/metrics.json")
                return responses, metrics
            finally:
                await server.close()

        responses, metrics = asyncio.run(scenario())

        statuses = {status for status, _ in responses}
        assert statuses == {200}, f"expected all 200s, saw {sorted(statuses)}"
        for _, body in responses:
            assert body["ok"] and not body["errors"]
            assert len(body["results"]) == unique_cells

        counters = metrics["counters"]
        # Exactly one run_grid execution per unique cell, despite 110
        # concurrent requests asking for the same grid.
        assert counters["cells_executed_total"] == unique_cells
        assert counters["cells_requested_total"] == n_requests * unique_cells
        assert counters["coalesce_hits_total"] > 0
        assert counters["requests_total"] == n_requests
        assert counters["requests_rejected_total"] == 0

        # Every response is bit-identical to a direct run_grid of the
        # same grid: replay stats survive the wire exactly.
        direct = {
            task.key: result
            for task, result in zip(_sweep_tasks(), run_grid(_sweep_tasks()))
        }
        for _, body in responses:
            for cell in body["results"]:
                key = tuple(cell["key"])
                assert stats_from_dict(cell["stats"]) == direct[key].streams
                assert cell["l1"]["misses"] == direct[key].l1.misses


class TestBackpressure:
    def test_over_capacity_rejected_with_429(self, tmp_path):
        async def scenario():
            # One admission slot + a long linger window: the first
            # admitted request parks in the batcher for 0.5s while the
            # rest of the burst arrives and must bounce.
            server, host, port = await _serve(
                ServiceConfig(jobs=1, max_queue=1, batch_window_s=0.5)
            )
            try:
                responses = await asyncio.gather(
                    *(
                        arequest(host, port, "POST", "/v1/sweep", SWEEP_PAYLOAD, timeout=60)
                        for _ in range(8)
                    )
                )
                _, metrics = await arequest(host, port, "GET", "/metrics.json")
                return responses, metrics
            finally:
                await server.close()

        responses, metrics = asyncio.run(scenario())

        statuses = sorted(status for status, _ in responses)
        assert 200 in statuses, f"no request got through: {statuses}"
        assert 429 in statuses, f"no request was rejected: {statuses}"
        rejected = [body for status, body in responses if status == 429]
        for body in rejected:
            assert not body["ok"]
            assert body["error"]["code"] == "over_capacity"
        assert metrics["counters"]["requests_rejected_total"] == len(rejected)


class TestDeadline:
    def test_expired_deadline_is_504_and_work_survives(self, tmp_path):
        async def scenario():
            # The linger window (0.5s) exceeds the first request's
            # deadline (50ms), so it must time out; the second request
            # (generous deadline) coalesces onto the surviving flight —
            # the shield keeps shared work alive past one waiter's 504.
            server, host, port = await _serve(
                ServiceConfig(jobs=1, batch_window_s=0.5)
            )
            try:
                impatient = dict(SWEEP_PAYLOAD, timeout_s=0.05)
                status_a, body_a = await arequest(
                    host, port, "POST", "/v1/sweep", impatient, timeout=60
                )
                status_b, body_b = await arequest(
                    host, port, "POST", "/v1/sweep", SWEEP_PAYLOAD, timeout=120
                )
                _, metrics = await arequest(host, port, "GET", "/metrics.json")
                return (status_a, body_a), (status_b, body_b), metrics
            finally:
                await server.close()

        (status_a, body_a), (status_b, body_b), metrics = asyncio.run(scenario())

        assert status_a == 504
        assert body_a["error"]["code"] == "deadline_exceeded"
        assert status_b == 200 and body_b["ok"]
        assert len(body_b["results"]) == len(WORKLOADS) * len(N_STREAMS)
        assert metrics["counters"]["requests_timeout_total"] == 1


class TestWarmStoreFastPath:
    def test_repeat_cell_served_from_store_without_execution(self, tmp_path):
        async def scenario():
            # result_cache_entries=0 disables the in-memory LRU, so the
            # repeat request must go through the store fast path rather
            # than re-entering the batcher.
            server, host, port = await _serve(
                ServiceConfig(
                    jobs=1,
                    store_root=str(tmp_path / "store"),
                    result_cache_entries=0,
                )
            )
            try:
                payload = {
                    "workload": "sweep",
                    "scale": SCALE,
                    "config": {"n_streams": 4},
                    "timeout_s": 120,
                }
                first = await arequest(host, port, "POST", "/v1/run", payload, timeout=60)
                second = await arequest(host, port, "POST", "/v1/run", payload, timeout=60)
                _, metrics = await arequest(host, port, "GET", "/metrics.json")
                return first, second, metrics
            finally:
                await server.close()

        (status_a, body_a), (status_b, body_b), metrics = asyncio.run(scenario())

        assert status_a == 200 and status_b == 200
        counters = metrics["counters"]
        assert counters["cells_executed_total"] == 1
        assert counters["store_fastpath_hits_total"] >= 1
        assert body_a["results"][0]["stats"] == body_b["results"][0]["stats"]


    def test_repeat_mechanism_cell_is_one_store_hit(self, tmp_path):
        """A mechanism cell's repeat is served by the fast path: the only
        store traffic is one result hit, and nothing executes."""

        async def scenario():
            service = SimulationService(
                ServiceConfig(
                    jobs=1,
                    store_root=str(tmp_path / "store"),
                    result_cache_entries=0,
                )
            )
            server = ServiceServer(service)
            host, port = await server.start()
            try:
                payload = {
                    "workload": "sweep",
                    "scale": SCALE,
                    "mechanism": "victim:4",
                    "timeout_s": 120,
                }
                first = await arequest(host, port, "POST", "/v1/run", payload, timeout=60)
                events = []
                service.store.hooks = events.append
                second = await arequest(host, port, "POST", "/v1/run", payload, timeout=60)
                _, metrics = await arequest(host, port, "GET", "/metrics.json")
                return first, second, events, metrics
            finally:
                await server.close()

        (status_a, body_a), (status_b, body_b), events, metrics = asyncio.run(scenario())
        assert status_a == 200 and status_b == 200
        assert events == ["result_hit"]
        counters = metrics["counters"]
        assert counters["cells_executed_total"] == 1
        assert counters["store_fastpath_hits_total"] == 1
        assert body_a["results"][0]["mech"] == body_b["results"][0]["mech"]

    def test_streams_mechanism_shares_the_stream_entry(self, tmp_path):
        """A streams-kind mechanism cell and the bare StreamConfig cell with
        the same stream config share one store entry; each keeps its own
        wire shape ("mech" vs "stats")."""
        from repro.mechanisms import MechanismConfig, mechanism_to_dict
        from repro.trace.store import mech_stats_from_dict

        stream_config = StreamConfig.jouppi(n_streams=4)
        mechanism = mechanism_to_dict(MechanismConfig.for_streams(stream_config))

        async def scenario():
            service = SimulationService(
                ServiceConfig(jobs=1, store_root=str(tmp_path / "store"))
            )
            server = ServiceServer(service)
            host, port = await server.start()
            try:
                base = {"workload": "sweep", "scale": SCALE, "timeout_s": 120}
                plain = await arequest(
                    host, port, "POST", "/v1/run",
                    dict(base, config={"n_streams": 4}), timeout=60,
                )
                mech = await arequest(
                    host, port, "POST", "/v1/run",
                    dict(base, mechanism=mechanism), timeout=60,
                )
                _, metrics = await arequest(host, port, "GET", "/metrics.json")
                return plain, mech, service.store.count("result"), metrics
            finally:
                await server.close()

        (status_a, plain), (status_b, mech), n_results, metrics = asyncio.run(scenario())
        assert status_a == 200 and status_b == 200
        assert n_results == 1
        assert metrics["counters"]["cells_executed_total"] == 1
        (plain_cell,), (mech_cell,) = plain["results"], mech["results"]
        assert "stats" in plain_cell and "mech" not in plain_cell
        assert "mech" in mech_cell and "stats" not in mech_cell
        stats = stats_from_dict(plain_cell["stats"])
        assert stats.config == stream_config
        assert mech_stats_from_dict(mech_cell["mech"]).streams == stats


class TestHttpSurface:
    def test_endpoints_and_error_mapping(self, tmp_path):
        async def scenario():
            server, host, port = await _serve(ServiceConfig(jobs=1))
            try:
                health = await arequest(host, port, "GET", "/healthz")
                text = await arequest(host, port, "GET", "/metrics")
                snap = await arequest(host, port, "GET", "/metrics.json")
                missing = await arequest(host, port, "GET", "/nope")
                bad_method = await arequest(host, port, "DELETE", "/v1/run")
                bad_workload = await arequest(
                    host, port, "POST", "/v1/run", {"workload": "nope"}
                )
                bad_config = await arequest(
                    host,
                    port,
                    "POST",
                    "/v1/run",
                    {"workload": "sweep", "config": {"n_stream": 4}},
                )
                bad_exhibit = await arequest(
                    host, port, "POST", "/v1/exhibit", {"name": "figure99"}
                )
                return health, text, snap, missing, bad_method, bad_workload, bad_config, bad_exhibit
            finally:
                await server.close()

        (health, text, snap, missing, bad_method,
         bad_workload, bad_config, bad_exhibit) = asyncio.run(scenario())

        assert health[0] == 200 and health[1]["ok"]
        assert health[1]["jobs"] == 1
        assert text[0] == 200 and "repro_requests_total" in text[1]
        assert snap[0] == 200 and "counters" in snap[1]
        assert missing[0] == 404
        assert bad_method[0] == 405
        assert bad_workload[0] == 400
        assert bad_workload[1]["error"]["code"] == "bad_request"
        assert "unknown workload" in bad_workload[1]["error"]["message"]
        assert bad_config[0] == 400
        assert "unknown config field" in bad_config[1]["error"]["message"]
        assert bad_exhibit[0] == 400
        assert "unknown exhibit" in bad_exhibit[1]["error"]["message"]

    def test_exhibit_roundtrip(self, tmp_path):
        async def scenario():
            server, host, port = await _serve(
                ServiceConfig(jobs=1, store_root=str(tmp_path / "store"))
            )
            try:
                return await arequest(
                    host,
                    port,
                    "POST",
                    "/v1/exhibit",
                    {"name": "table1", "benchmarks": ["buk"], "timeout_s": 120},
                    timeout=180,
                )
            finally:
                await server.close()

        status, body = asyncio.run(scenario())
        assert status == 200 and body["ok"]
        assert body["name"] == "table1"
        assert "buk" in body["rendered"]
