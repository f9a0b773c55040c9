"""The block service: engine-level semantics and live TCP end-to-end.

The engine-level tests drive :meth:`BlockService.handle_request`
directly with a stub connection and run the simulator to completion —
fully deterministic QoS/latency checks with no sockets or threads.
The e2e tests stand up the real asyncio server (``accel=inf``: the
engine never sleeps) and talk to it through the bundled client.
"""

import asyncio
from math import inf

import pytest

from repro.service import (
    QoSPolicy,
    Request,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_OK,
)
from repro.service.client import ServiceClient, run_load
from repro.service.server import BlockService, ServiceConfig
from repro.errors import ConfigError


class StubConn:
    """Collects replies synchronously (no loop, no thread)."""

    def __init__(self):
        self.responses = []

    def send_threadsafe(self, response):
        self.responses.append(response)

    def by_status(self, status):
        return [r for r in self.responses if r.status == status]


def offline_service(**kwargs) -> BlockService:
    """A service whose engine is driven manually (never started)."""
    return BlockService(ServiceConfig(**kwargs))


class TestEngineSemantics:
    def test_read_write_complete_with_latency(self):
        service = offline_service()
        conn = StubConn()
        service.handle_request(conn, Request("READ", "a", 1, 0, 8))
        service.handle_request(conn, Request("WRITE", "a", 2, 64, 8))
        service.sim.run()
        ok = conn.by_status(STATUS_OK)
        assert {r.req_id for r in ok} == {1, 2}
        assert all(r.latency_ms > 0 for r in ok)

    def test_shed_counts_are_deterministic(self):
        """2 slots + 3 queue entries: exactly 5 of 10 one-shot arrivals
        complete, the rest get BUSY synchronously at admission."""
        service = offline_service(
            default_policy=QoSPolicy(max_inflight=2, max_queue=3)
        )
        conn = StubConn()
        for i in range(10):
            service.handle_request(conn, Request("READ", "a", i, i * 8, 8))
        assert len(conn.by_status(STATUS_BUSY)) == 5
        service.sim.run()
        ok = conn.by_status(STATUS_OK)
        assert len(ok) == 5
        # Queued requests completed later and waited longer.
        assert sorted(r.req_id for r in ok) == [0, 1, 2, 3, 4]
        queued_waits = [r.queue_ms for r in ok if r.req_id >= 2]
        assert all(w > 0 for w in queued_waits)

    def test_token_bucket_paces_dispatch(self):
        """rate=100 IOPS, burst 1: request k waits ~10k simulated ms in
        the service queue before the array even sees it."""
        service = offline_service(
            default_policy=QoSPolicy(
                max_inflight=8, max_queue=8, rate_iops=100.0, burst=1.0
            )
        )
        conn = StubConn()
        for i in range(4):
            service.handle_request(conn, Request("READ", "a", i, i * 64, 8))
        service.sim.run()
        ok = sorted(conn.by_status(STATUS_OK), key=lambda r: r.req_id)
        assert len(ok) == 4
        waits = [r.queue_ms for r in ok]
        assert waits[0] == 0.0
        for k, wait in enumerate(waits[1:], start=1):
            assert wait == pytest.approx(10.0 * k, rel=0.01)

    def test_tenants_isolated(self):
        """One tenant saturating its own envelope never sheds another."""
        service = offline_service(
            default_policy=QoSPolicy(max_inflight=1, max_queue=0)
        )
        greedy, polite = StubConn(), StubConn()
        for i in range(5):
            service.handle_request(greedy, Request("READ", "g", i, i * 8, 8))
        service.handle_request(polite, Request("READ", "p", 1, 256, 8))
        service.sim.run()
        assert len(greedy.by_status(STATUS_BUSY)) == 4
        assert len(polite.by_status(STATUS_OK)) == 1
        assert polite.by_status(STATUS_BUSY) == []

    def test_stats_snapshot(self):
        service = offline_service()
        conn = StubConn()
        service.handle_request(conn, Request("READ", "a", 1, 0, 8))
        service.sim.run()
        service.handle_request(conn, Request("STATS", "a", 2))
        stats = conn.responses[-1].data
        assert stats["capacity_blocks"] == service.capacity_blocks
        assert stats["tenants"]["a"]["completed"] == 1
        assert stats["tenants"]["a"]["latency_ms"]["p50"] > 0

    def test_shutdown_summary_prints_the_stats_numbers(self):
        service = offline_service(
            default_policy=QoSPolicy(max_inflight=1, max_queue=0)
        )
        conn = StubConn()
        for i in range(3):
            service.handle_request(conn, Request("READ", "a", i, i * 8, 8))
        service.sim.run()
        service.handle_request(conn, Request("STATS", "a", 9))
        stats = conn.responses[-1].data["tenants"]["a"]
        assert (stats["completed"], stats["shed"]) == (1, 2)
        (line,) = service.summary_text().splitlines()
        assert line.startswith("a: admitted=")
        assert "completed=1 " in line and "shed=2 " in line
        assert f"latency_ms.p99={stats['latency_ms']['p99']:.3f}" in line
        assert f"queue_ms.max={stats['queue_ms']['max']:.3f}" in line

    def test_pin_untimed_and_counted(self):
        service = offline_service()
        conn = StubConn()
        service.handle_request(conn, Request("PIN", "a", 1, 0, 16))
        (response,) = conn.by_status(STATUS_OK)
        assert response.data == {"pinned": 16}
        pinned = sum(len(c.pinned) for c in service.system.controllers)
        assert pinned == 16

    def test_raid1_pin_pins_both_replicas(self):
        service = offline_service(raid="raid1")
        conn = StubConn()
        service.handle_request(conn, Request("PIN", "a", 1, 0, 8))
        assert conn.responses[0].data == {"pinned": 8}
        half = service.mirror.half
        for disk in range(half):
            primary = len(service.system.controllers[disk].pinned)
            partner = len(service.system.controllers[disk + half].pinned)
            assert primary == partner

    def test_raid1_halves_capacity(self):
        full = offline_service()
        mirrored = offline_service(raid="raid1")
        assert mirrored.capacity_blocks == full.capacity_blocks // 2

    def test_raid1_io_round_trip(self):
        service = offline_service(raid="raid1")
        conn = StubConn()
        service.handle_request(conn, Request("WRITE", "a", 1, 0, 8))
        service.handle_request(conn, Request("READ", "a", 2, 0, 8))
        service.sim.run()
        assert len(conn.by_status(STATUS_OK)) == 2

    def test_out_of_range_rejected_by_validate(self):
        service = offline_service()
        request = Request("READ", "a", 1, service.capacity_blocks - 4, 8)
        assert "exceeds" in service.validate(request)
        assert service.validate(Request("STATS", "a", 1)) is None

    def test_bad_raid_mode_refused(self):
        with pytest.raises(ConfigError, match="raid"):
            ServiceConfig(raid="raid6")

    def test_raid1_odd_disks_refused(self):
        with pytest.raises(ConfigError, match="even"):
            ServiceConfig(raid="raid1", n_disks=3)


class TestLiveService:
    """Real asyncio server + TCP client, engine free-running."""

    @staticmethod
    def serve(coro_fn, **config_kwargs):
        config_kwargs.setdefault("accel", inf)

        async def go():
            async with BlockService(ServiceConfig(**config_kwargs)) as service:
                sock = service._server.sockets[0]
                host, port = sock.getsockname()[:2]
                return await coro_fn(service, host, port)

        return asyncio.run(go())

    def test_read_write_stats_over_tcp(self):
        async def scenario(service, host, port):
            client = ServiceClient(host, port)
            await client.connect()
            try:
                read = await client.request(
                    Request("READ", "alice", client.next_id(), 0, 8)
                )
                write = await client.request(
                    Request("WRITE", "alice", client.next_id(), 128, 8)
                )
                stats = await client.stats("alice")
                return read, write, stats
            finally:
                await client.close()

        read, write, stats = self.serve(scenario)
        assert read.status == STATUS_OK and read.latency_ms > 0
        assert write.status == STATUS_OK and write.latency_ms > 0
        assert stats["tenants"]["alice"]["completed"] == 2

    def test_out_of_range_gets_error_reply(self):
        async def scenario(service, host, port):
            client = ServiceClient(host, port)
            await client.connect()
            try:
                return await client.request(
                    Request(
                        "READ", "a", client.next_id(),
                        service.capacity_blocks, 8,
                    )
                )
            finally:
                await client.close()

        response = self.serve(scenario)
        assert response.status == STATUS_ERROR
        assert "exceeds" in response.error

    def test_malformed_op_gets_error_without_dropping_connection(self):
        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            from repro.service.protocol import encode_frame, read_frame

            writer.write(encode_frame({"op": "TRIM", "id": 5}))
            await writer.drain()
            error = await read_frame(reader)
            # The connection survives a bad op: a valid request after it
            # still gets served.
            writer.write(
                encode_frame(
                    {"op": "READ", "tenant": "a", "id": 6,
                     "start": 0, "blocks": 4}
                )
            )
            await writer.drain()
            ok = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return error, ok

        error, ok = self.serve(scenario)
        assert error["status"] == STATUS_ERROR and error["id"] == 5
        assert ok["status"] == STATUS_OK and ok["id"] == 6

    def test_mixed_burst_with_run_load(self):
        async def scenario(service, host, port):
            return await run_load(
                host, port,
                ["alice", "bob"],
                requests=30,
                blocks=8,
                write_frac=0.25,
                window=16,
                seed=3,
                pin_blocks=8,
                retries=2,
            )

        result = self.serve(scenario)
        assert result["total_errors"] == 0
        assert result["total_ok"] + result["total_busy"] == 60
        assert result["total_ok"] > 0
        for tenant in ("alice", "bob"):
            r = result["tenants"][tenant]
            assert r["pinned"] == 8
            if r["ok"]:
                assert 0 < r["p50_ms"] <= r["p95_ms"] <= r["p99_ms"]

    def test_shedding_visible_over_tcp(self):
        async def scenario(service, host, port):
            return await run_load(
                host, port,
                ["hog"],
                requests=40,
                blocks=8,
                write_frac=0.0,
                window=40,
                seed=5,
                retries=2,
            )

        # Finite accel: each read occupies observable wall time, so the
        # 40-wide client window reliably overflows the 2+4 envelope
        # (at accel=inf the engine can finish a request between two
        # arrivals and never shed).
        result = self.serve(
            scenario,
            accel=100.0,
            default_policy=QoSPolicy(max_inflight=2, max_queue=4),
        )
        hog = result["tenants"]["hog"]
        assert hog["busy"] > 0
        assert hog["ok"] > 0
        assert hog["errors"] == 0

    def test_stats_counts_match_client_replies(self):
        """STATS ``shed`` and ``completed`` (one counter each, on the
        tenant queue) agree with what the client saw: every BUSY reply
        is one shed, every OK reply plus the PIN is one completion."""

        async def scenario(service, host, port):
            return await run_load(
                host, port,
                ["alice", "bob"],
                requests=40,
                blocks=8,
                write_frac=0.25,
                window=32,
                seed=5,
                pin_blocks=8,
                retries=2,
            )

        result = self.serve(
            scenario,
            accel=100.0,
            raid="raid1",
            default_policy=QoSPolicy(max_inflight=2, max_queue=4),
        )
        assert result["total_busy"] > 0
        server = result["server"]["tenants"]
        for name, tenant in result["tenants"].items():
            assert tenant["pinned"] == 8
            assert server[name]["shed"] == tenant["busy"]
            assert server[name]["completed"] == tenant["ok"] + 1
            assert "errors" not in server[name]

    def test_engine_thread_stopped_after_context_exit(self):
        async def scenario(service, host, port):
            return service

        service = self.serve(scenario)
        assert service._engine is None
        assert not service.sim._running


class TestServiceDemoExperiment:
    def test_runs_and_reports_per_tenant(self):
        from repro.experiments import service_demo

        from repro.experiments.base import scaled_count

        result = service_demo.run(scale=0.15, seed=7)
        requests = scaled_count(service_demo.BASE_REQUESTS, 0.15, minimum=20)
        assert result.x_values == list(service_demo.TENANTS)
        for i, tenant in enumerate(result.x_values):
            ok = result.get("ok")[i]
            busy = result.get("busy")[i]
            assert result.get("errors")[i] == 0
            assert ok + busy == requests
            assert ok > 0
            if ok:
                assert result.get("p50_ms")[i] > 0
                assert (
                    result.get("p50_ms")[i]
                    <= result.get("p95_ms")[i]
                    <= result.get("p99_ms")[i]
                )

    def test_registered_as_indivisible_sweep(self):
        from repro.experiments import service_demo
        from repro.experiments.registry import EXPERIMENTS

        assert EXPERIMENTS["service_demo"].run is service_demo.run
        assert EXPERIMENTS["service_demo"].axis is None
