"""Service workloads: ``ServiceRuntime`` in its own process, driven by
``repro.service.loadgen.LoadDriver(sessions=1)``.

One worker thread plus the control link: two threads and two
connections for two cores, which keeps the driver's JSON work off the
server's interpreter lock.  A cycle is the driver's round — outbox
handoff, consume confirmation, ``tick``, then reading the downlink up
to ``cycle_end``.  Building the next outbox (simulator tick plus op
dicts) happens between rounds, outside the timed window.

The benchmark attaches only by rebinding attributes in its own
processes: ``LoadDriver._round`` on the driver instance (round timing),
``loadgen.json`` (downlink bytes read), ``loadgen._ControlLink`` (see
:class:`ControlLink`), and — in the traced half of a traced run —
``loadgen.encode`` and ``_SessionWorker._read_until``.  The service
side is wrapped by ``service_proc.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from statistics import median

from common import (
    HERE,
    ROOT,
    CyclePlan,
    at_reference_speed,
    calibrate,
    digest,
    end_to_end,
    scale_cycles,
)
from layers import per_layer
from spans import CycleTable, Recorder

import repro.service.loadgen as loadgen
from repro.faults.plan import FaultPlan
from repro.service.loadgen import LoadConfig, LoadDriver, http_get
from repro.service.protocol import encode


@dataclass(frozen=True)
class Spec:
    name: str
    clients: int
    objects: int
    oracle: bool
    range_queries: int = 240
    knn_queries: int = 60
    predictive_queries: int = 40
    report_fraction: float = 0.35
    #: simulated seconds per cycle: objects cross query boundaries often
    #: enough that +/- update counts are not dominated by the seed
    dt: float = 4.0
    commit_every: int = 4
    #: per client per cycle (0 = no fault plan)
    disconnect_rate: float = 0.0
    reconnect_after: int = 2
    #: the run's measured cycle count is ceil(seconds x this)
    cycles_per_second: float = 7.5
    #: set-ups per run (each launches a service process); setup_s is
    #: their median
    setups: int = 5


SPECS = {
    "service-outage": Spec(
        name="service-outage",
        clients=600,
        objects=300,
        oracle=True,
        disconnect_rate=0.02,
        cycles_per_second=8.5,
    ),
}


def toy(spec: Spec) -> Spec:
    """A seconds-scale version of ``spec`` (the smoke test)."""
    return replace(
        spec,
        clients=max(40, spec.clients // 20),
        objects=max(20, spec.objects // 20),
        range_queries=12,
        knn_queries=3,
        predictive_queries=3,
        disconnect_rate=min(1.0, spec.disconnect_rate * 5),
    )


def load_config(spec: Spec, seed: int, cycles: int) -> LoadConfig:
    return LoadConfig(
        clients=spec.clients,
        objects=spec.objects,
        range_queries=spec.range_queries,
        knn_queries=spec.knn_queries,
        predictive_queries=spec.predictive_queries,
        report_fraction=spec.report_fraction,
        dt=spec.dt,
        commit_every=spec.commit_every,
        cycles=cycles,
        sessions=1,
        seed=seed,
    )


def fault_plan(spec: Spec, seed: int) -> FaultPlan | None:
    if not spec.disconnect_rate:
        return None
    return FaultPlan(
        seed=seed,
        disconnect_rate=spec.disconnect_rate,
        reconnect_after=spec.reconnect_after,
    )


def fingerprint(spec: Spec, seed: int, cycles: int) -> str:
    """Digest of what the driver replays: its config, the fault plan,
    the initial reports, the query specs and ``cycles`` simulator ticks
    with the query moves they cause."""
    cfg = load_config(spec, seed, cycles)
    driver = LoadDriver(("127.0.0.1", 0), cfg)
    plan = fault_plan(spec, seed)

    def reports(items):
        return [
            (r.oid, r.location.x, r.location.y, r.velocity.vx, r.velocity.vy, r.t)
            for r in items
        ]

    def specs(items):
        return [
            (s.qid, s.kind, s.center.x, s.center.y, s.side, s.k, s.horizon, s.carrier)
            for s in items
        ]

    parts = [
        asdict(spec),
        asdict(cfg),
        plan.to_dict() if plan else None,
        reports(driver.sim.initial_reports()),
        specs(driver.gen.specs.values()),
    ]
    for _ in range(cycles):
        ticked = driver.sim.tick(cfg.dt, cfg.report_fraction)
        moved = driver.gen.updates_for_moved_objects([r.oid for r in ticked])
        parts += [reports(ticked), specs(moved)]
    return digest(*parts)


class _CountingJson:
    """Stands in for ``loadgen.json``: counts the downlink bytes the
    driver's worker parses."""

    def __init__(self) -> None:
        self.bytes = 0

    def loads(self, line):
        self.bytes += len(line)
        return json.loads(line)

    dumps = staticmethod(json.dumps)


class ControlLink(loadgen._ControlLink):
    """The driver's control session, tolerant of protocol markers.

    The service registers the control session's client (-1) like any
    other, so a fault plan can disconnect it and its wakeup puts
    ``wakeup_begin``/``wakeup_end`` lines on the control stream ahead of
    the ``cycle`` reply, which the shipped control link would take for
    the reply.  This one skips them, and times ``tick`` requests.
    """

    ticks: dict[int, tuple[float, float]] = {}
    round_index = 0

    def request(self, op: dict) -> dict:
        start = time.perf_counter()
        self.wire.write(encode(op))
        self.wire.flush()
        while True:
            line = self.wire.readline()
            if not line:
                raise ConnectionError("server closed the control session")
            reply = json.loads(line)
            if reply.get("op") not in ("wakeup_begin", "wakeup_end"):
                break
        if op["op"] == "tick":
            ControlLink.ticks[ControlLink.round_index] = (
                start,
                time.perf_counter(),
            )
        return reply


class Service:
    """One service process; always stopped and waited for."""

    def __init__(self, spec: Spec, seed: int):
        start = time.perf_counter()
        cmd = [
            sys.executable,
            str(HERE / "service_proc.py"),
            "--oracle", str(int(spec.oracle)),
            "--fault-seed", str(seed),
            "--disconnect-rate", str(spec.disconnect_rate),
            "--reconnect-after", str(spec.reconnect_after),
        ]
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            ready = json.loads(self._line())
        except BaseException:
            self.kill()
            raise
        self.launch_s = time.perf_counter() - start
        self.tcp = tuple(ready["tcp"])
        self.http = tuple(ready["http"])

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("service process exited early")
        return line

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self._line())

    def stop(self) -> dict:
        try:
            final = self.command("stop")
            self.proc.wait(timeout=60)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)


class DriverProbe:
    """Per-round timing and counts, from ``_round`` on the driver;
    index 0 is the set-up round (hellos, registrations, initial
    reports), index c the round that ticks service cycle c.  Before
    each round, outside its timed window, the host's speed is sampled
    with ``calibrate`` (five times before the set-up round)."""

    def __init__(self, driver: LoadDriver, counting: _CountingJson, on_round):
        self.walls: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.bytes: list[int] = []
        self.updates: list[int] = []
        self.wakeups: list[int] = []
        self.calibrations: list[list[float]] = []
        original = driver._round

        def timed_round(workers, barrier, outboxes, control):
            index = len(self.walls)
            on_round(index)
            ControlLink.round_index = index
            counts = workers[0].counts
            before = (counts["updates"] + counts["answers"], counts["wakeups"])
            bytes_before = counting.bytes
            self.calibrations.append(calibrate(5 if index == 0 else 1))
            start = time.perf_counter()
            original(workers, barrier, outboxes, control)
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.walls.append(end - start)
            self.bytes.append(counting.bytes - bytes_before)
            self.updates.append(counts["updates"] + counts["answers"] - before[0])
            self.wakeups.append(counts["wakeups"] - before[1])

        driver._round = timed_round


def _drive(spec, seed, cycles, on_round=lambda index, service: None):
    """Launch a service, drive ``cycles`` rounds after the set-up round,
    stop it.  ``on_round(index, service)`` runs before each round and
    once more (``index=None``) after the driver finishes."""
    counting = _CountingJson()
    loadgen.json = counting
    loadgen._ControlLink = ControlLink
    ControlLink.ticks = {}
    before = calibrate(5)
    service = Service(spec, seed)
    try:
        driver = LoadDriver(service.tcp, load_config(spec, seed, cycles))
        probe = DriverProbe(driver, counting, lambda i: on_round(i, service))
        report = driver.run()
        on_round(None, service)
    except BaseException:
        service.kill()
        raise
    final = service.stop()
    took = service.launch_s + probe.walls[0]
    setup = (took, at_reference_speed(took, before + probe.calibrations[0]))
    return setup, driver, probe, report, final


def run(spec, seed, seconds, trace, trace_path) -> dict:
    plan = CyclePlan(seconds * spec.cycles_per_second, trace)

    setups = [_drive(spec, seed, 0)[0] for _ in range(spec.setups - 1)]

    rec = Recorder(tid=0)
    state = {}

    def on_round(index, service):
        if index == plan.traced.start:
            state["registrations_s"] = service.command("trace")["registrations_s"]
            rec.leaf(loadgen, "encode", "driver.encode")
            original = loadgen._SessionWorker._read_until

            def read_until(worker, wire, terminal):
                return rec.call(
                    f"driver.read_{terminal}", original, worker, wire, terminal
                )

            loadgen._SessionWorker._read_until = read_until
        if index is not None:
            rec.cycle = index
        elif trace:
            start = time.perf_counter()
            status, body = http_get(service.http, "/metrics")
            state["scrape_ms"] = (time.perf_counter() - start) * 1e3
            state["series"] = sum(
                1 for line in body.splitlines() if line and not line.startswith("#")
            )
            state["scrape_status"] = status

    setup, driver, probe, report, final = _drive(spec, seed, plan.total, on_round)
    setups.append(setup)
    setup_raw = [raw for raw, _ in setups]
    setup_times = [scaled for _, scaled in setups]
    raw = {c: wall for c, wall in enumerate(probe.walls) if c}
    walls = scale_cycles(
        raw, {c: cal[0] for c, cal in enumerate(probe.calibrations) if c}
    )

    # Correctness: the oracle's verdict when one is attached, else the
    # sampled mirror-vs-engine diff; worker errors either way.
    counts = report["counts"]
    mismatches = report["verify"]["mismatches"]
    failed = counts.get("errors", 0) + counts.get("busy", 0)
    failed += final["divergences"]
    if not spec.oracle:
        failed += len(mismatches) + (0 if report["ok"] else 1)
    attempted = counts.get("uplink_lines", 0) + report["verify"]["sampled"]

    summaries = driver.cycle_summaries
    ops = {
        c: summaries[c]["uplinks_applied"] + probe.wakeups[c]
        for c in range(1, plan.total + 1)
    }
    out = {
        "cycles": plan.describe(),
        "cycle_ms": [round(walls[c] * 1e3, 3) for c in sorted(walls)],
        "raw_cycle_ms": [round(raw[c] * 1e3, 3) for c in sorted(raw)],
        "calibration_ms": [round(cal[0] * 1e3, 4) for cal in probe.calibrations],
        "setup_samples": setup_times,
        "raw_setup_samples": setup_raw,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "correctness": {
            "driver_ok": report["ok"],
            "divergences": final["divergences"],
            "divergence_sample": final["divergence_sample"],
            "sampled": report["verify"]["sampled"],
            "mismatches": len(mismatches),
            "mismatches_counted": not spec.oracle,
            "worker_errors": report["worker_errors"][:5],
            "counts": counts,
        },
        "metrics": end_to_end(
            plan.plain,
            setup_times,
            walls,
            ops,
            probe.updates,
            probe.bytes,
            final["peak_rss_mb"],
        ),
        "raw_metrics": end_to_end(
            plan.plain,
            setup_raw,
            raw,
            ops,
            probe.updates,
            probe.bytes,
            final["peak_rss_mb"],
        ),
    }
    if trace:
        table = CycleTable()
        table.add(rec.export(), pid=0)
        table.add(final["recorder"], pid=1)
        table.write_chrome_trace(trace_path)
        traced = list(plan.traced)
        out["per_layer"] = _per_layer(traced, table, probe, final, state)
        out["per_layer"]["trace_overhead_pct"] = plan.overhead_pct(walls)
        out["traced_cycles"] = {"first": traced[0], **table.breakdown(traced)}
    return out


def _per_layer(traced, table, probe, final, state):
    deltas = {int(c): d for c, d in final["deltas"].items()}
    samples = {int(c): s for c, s in final["samples"].items()}
    ticks = ControlLink.ticks

    def med(values):
        return median(values) * 1e3

    rtt = {c: ticks[c][1] - ticks[c][0] for c in traced}
    run_cycle = table.busy["service.run_cycle"]
    # Worker-side time inside the round: encoding the outbox, reading
    # to the pong, reading to cycle_end.  The rest of the round, less
    # the tick round trip, is barrier hand-off and socket writes.
    worker_busy = {
        c: sum(
            table.busy[name].get(c, 0.0)
            for name in ("driver.encode", "driver.read_pong", "driver.read_cycle_end")
        )
        for c in traced
    }
    extra = {
        "engine.phase.registrations_ms": state["registrations_s"] * 1e3,
        "check.divergences": final["divergences"],
        "service.uplink.wait_ms": med([samples[c]["wait_median"] for c in traced]),
        "service.uplink.backlog": sum(samples[c]["backlog"] for c in traced)
        / len(traced),
        "service.tick.overhead_ms": med(
            [rtt[c] - run_cycle.get(c, 0.0) for c in traced]
        ),
        "obs.metrics_series": state["series"],
        "obs.metrics_scrape_ms": state["scrape_ms"],
        "driver.send_ms": med([ticks[c][0] - probe.starts[c] for c in traced]),
        "driver.tick_rtt_ms": med(list(rtt.values())),
        "driver.read_ms": med([probe.ends[c] - ticks[c][1] for c in traced]),
        # Less the calibration, which runs between the rounds too.
        "driver.build_ms": med(
            [
                probe.starts[c] - probe.ends[c - 1] - probe.calibrations[c][0]
                for c in traced
            ]
        ),
        "cycle.unexplained_ms": med(
            [probe.walls[c] - rtt[c] - worker_busy[c] for c in traced]
        ),
    }
    return per_layer(table, deltas, traced, extra)
