"""The multiplexed load driver end to end against a live runtime."""

import socket

import pytest

from repro.faults import FaultPlan, default_plan
from repro.obs import FlightRecorder
from repro.service.loadgen import LoadConfig, LoadDriver, _connect


SMALL = dict(
    clients=200,
    objects=80,
    range_queries=12,
    knn_queries=3,
    predictive_queries=3,
    cycles=5,
    sessions=2,
    verify_samples=10,
)


class TestConnect:
    def test_driver_sockets_disable_nagle(self):
        """Without TCP_NODELAY the tail of a multi-send outbox waits on
        the server's delayed ACK (~40 ms per round)."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with _connect(listener.getsockname(), timeout=5) as sock:
                assert (
                    sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                    != 0
                )


class TestCleanRun:
    def test_run_is_clean_and_verified(self, make_runtime):
        runtime = make_runtime(grid_size=16, oracle=True)
        report = LoadDriver(runtime.tcp_address, LoadConfig(**SMALL)).run()
        assert report["ok"], report
        assert report["counts"]["welcome"] == SMALL["clients"]
        assert report["counts"].get("errors", 0) == 0
        assert report["divergences_total"] == 0
        assert report["verify"]["mismatches"] == []
        assert report["verify"]["sampled"] == 10
        # Every wire client registered exactly once server-side
        # (+1 for the driver's control session client).
        assert runtime.admission.clients_active == SMALL["clients"] + 1

    def test_runs_are_deterministic_in_traffic(self, make_runtime):
        first = make_runtime(grid_size=16)
        second = make_runtime(grid_size=16)
        cfg = LoadConfig(**SMALL)
        a = LoadDriver(first.tcp_address, cfg).run()
        b = LoadDriver(second.tcp_address, cfg).run()
        assert a["counts"]["uplink_lines"] == b["counts"]["uplink_lines"]
        assert a["counts"]["updates"] == b["counts"]["updates"]


class TestChaosOverRealTransport:
    def test_oracle_stays_clean_under_injected_faults(self, make_runtime):
        """The tentpole end-to-end claim: chaos on live sockets, the
        oracle cross-checking every cycle, zero divergences."""
        runtime = make_runtime(
            grid_size=16, oracle=True, fault_plan=default_plan(7)
        )
        cfg = LoadConfig(
            clients=60,
            objects=40,
            range_queries=8,
            knn_queries=2,
            predictive_queries=2,
            cycles=8,
            sessions=2,
            verify_samples=5,
        )
        report = LoadDriver(runtime.tcp_address, cfg).run()
        assert report["divergences_total"] == 0
        assert runtime.injector is not None
        assert runtime.injector.total_injected > 0
        # Scheduled wakeups reached the wire as begin/end markers with
        # incremental recovery updates in between.
        assert report["counts"].get("wakeups", 0) > 0
        assert report["counts"].get("wakeup_end", 0) > 0
        assert report["worker_errors"] == []


class TestControlSessionOutage:
    def test_driver_survives_its_control_client_waking_up(self, make_runtime):
        """A fault plan may disconnect the driver's own control client.
        Its wakeup then writes ``wakeup_begin``/``wakeup_end`` markers
        on the control stream ahead of the ``tick`` reply; the driver
        must skip them instead of failing with "tick failed"."""
        recorder = FlightRecorder(capacity=1 << 16)
        runtime = make_runtime(
            grid_size=16,
            oracle=True,
            recorder=recorder,
            fault_plan=FaultPlan(seed=10, disconnect_rate=0.3, reconnect_after=2),
        )
        cfg = LoadConfig(
            clients=40,
            objects=30,
            range_queries=6,
            knn_queries=2,
            predictive_queries=2,
            cycles=8,
            sessions=2,
            verify_samples=5,
        )
        report = LoadDriver(runtime.tcp_address, cfg).run()
        # The seeded schedule really did take the control client down
        # and wake it up again while the driver was still ticking.
        woken = [
            event
            for event in recorder.events()
            if event["kind"] == "wakeup_begin"
            and event["client"] == -1  # the driver's control client
        ]
        assert woken
        assert report["divergences_total"] == 0
        assert report["worker_errors"] == []
        assert len(report["last_cycle"]) > 0


class TestConfig:
    def test_objects_cannot_exceed_clients(self):
        with pytest.raises(ValueError):
            LoadConfig(clients=10, objects=11)

    def test_sessions_must_be_positive(self):
        with pytest.raises(ValueError):
            LoadConfig(clients=10, objects=5, sessions=0)
