"""In-process workloads: ``LocationAwareServer`` driven directly.

One cycle is one bulk evaluation, as in the paper: the cycle's uplink
calls (object reports, query moves) followed by ``evaluate_cycle``.  The
cycle's wall time runs from its first ``receive_*`` call until
``evaluate_cycle`` returns.  Everything else — building the cycle's
``Point`` values, draining the links into client mirrors, reading
counters — happens outside that window.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import asdict, dataclass, replace
from statistics import median

import numpy as np

from common import (
    CyclePlan,
    at_reference_speed,
    calibrate,
    digest,
    end_to_end,
    peak_rss_mb,
    scale_cycles,
)
from layers import delta, instrument_server, per_layer, probe
from spans import CycleTable, Recorder

from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect, Velocity
from repro.net import UpdateMessage

FIRST_QID = 1_000_000
RANGE, KNN, PREDICTIVE = 0, 1, 2

#: Fixed city hot spots (x, y, sigma, weight): part of the workload's
#: definition, like a road map, so seeds vary objects, not the city.
HOTSPOTS = (
    (0.30, 0.30, 0.05, 0.35),
    (0.70, 0.35, 0.04, 0.25),
    (0.45, 0.70, 0.06, 0.25),
    (0.80, 0.80, 0.03, 0.15),
)


@dataclass(frozen=True)
class Spec:
    name: str
    objects: int
    queries: int
    #: query kind shares: (range, k-NN, predictive)
    mix: tuple[float, float, float]
    clients: int
    #: share of objects that report each cycle
    report_fraction: float
    #: share of queries that move each cycle
    move_fraction: float
    #: share of objects placed around HOTSPOTS (the rest is uniform)
    hot_share: float = 0.0
    #: the run's measured cycle count is ceil(seconds x this)
    cycles_per_second: float = 12.0
    #: set-ups per run; setup_s is their median
    setups: int = 5
    side: float = 0.02
    k: int = 4
    horizon: float = 5.0
    #: standard deviation of an object's speed per axis, world units per
    #: cycle (the world is the unit square; a cycle is one time unit)
    speed: float = 0.0002
    #: standard deviation of one query move, per axis
    step: float = 0.001


SPECS = {
    "reports-skewed": Spec(
        name="reports-skewed",
        objects=8_000,
        queries=800,
        mix=(0.90, 0.08, 0.02),
        clients=200,
        report_fraction=0.10,
        move_fraction=0.0,
        hot_share=0.4,
        cycles_per_second=10.0,
    ),
    "queries-moving": Spec(
        name="queries-moving",
        objects=5_000,
        queries=1_500,
        mix=(0.30, 0.50, 0.20),
        clients=300,
        report_fraction=0.02,
        move_fraction=0.20,
        cycles_per_second=9.0,
    ),
}


def toy(spec: Spec) -> Spec:
    """A seconds-scale version of ``spec`` (the smoke test)."""
    return replace(
        spec,
        objects=spec.objects // 20,
        queries=max(20, spec.queries // 20),
        clients=max(5, spec.clients // 20),
    )


@dataclass
class Inputs:
    spec: Spec
    positions: np.ndarray  # (objects, 2) initial locations
    velocities: np.ndarray  # (objects, 2) initial velocities
    kinds: np.ndarray  # (queries,) RANGE / KNN / PREDICTIVE
    centers: np.ndarray  # (queries, 2) initial query centers
    #: per cycle: report oids, new locations, velocities, moved query
    #: indexes, their new centers
    cycles: list[tuple[np.ndarray, ...]]
    final_positions: np.ndarray
    final_centers: np.ndarray

    def digest(self, cycles: int) -> str:
        return digest(
            asdict(self.spec),
            self.positions.tobytes(),
            self.velocities.tobytes(),
            self.kinds.tobytes(),
            self.centers.tobytes(),
            *(a.tobytes() for cycle in self.cycles[:cycles] for a in cycle),
        )


def generate(spec: Spec, seed: int, cycles: int) -> Inputs:
    """All of a run's inputs, from ``seed`` alone.

    Objects move linearly and report periodically, round-robin in a
    seeded order, so every object reports once per 1/report_fraction
    cycles: the engine's state (how many objects move, how far their
    predicted footprints reach) is the same in the first timed cycle
    as in the last.  Queries move the same way.
    """
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    n, q = spec.objects, spec.queries
    n_hot = round(n * spec.hot_share)
    parts = [rng.uniform(0.0, 1.0, size=(n - n_hot, 2))]
    if n_hot:
        weights = np.array([h[3] for h in HOTSPOTS])
        which = rng.choice(len(HOTSPOTS), size=n_hot, p=weights / weights.sum())
        centers = np.array([h[:2] for h in HOTSPOTS])[which]
        sigmas = np.array([h[2] for h in HOTSPOTS])[which][:, None]
        parts.append(centers + rng.normal(0.0, 1.0, size=(n_hot, 2)) * sigmas)
    positions = np.clip(np.concatenate(parts), 0.0, 1.0)
    rng.shuffle(positions)
    velocities = rng.normal(0.0, spec.speed, size=(n, 2))
    initial_velocities = velocities.copy()
    n_range = round(q * spec.mix[0])
    n_knn = round(q * spec.mix[1])
    kinds = np.repeat(
        np.array([RANGE, KNN, PREDICTIVE], dtype=np.int8),
        [n_range, n_knn, q - n_range - n_knn],
    )
    # Queries are asked where the objects are.
    centers = positions[rng.integers(0, n, size=q)].copy()
    current, qcurrent = positions.copy(), centers.copy()
    last = np.zeros(n)
    report_order = rng.permutation(n)
    move_order = rng.permutation(q)
    n_reports = round(n * spec.report_fraction)
    n_moves = round(q * spec.move_fraction)
    per_cycle = []
    for c in range(1, cycles + 1):
        start = (c - 1) * n_reports
        oids = report_order[np.arange(start, start + n_reports) % n]
        # A small turn at every report keeps the population mixing.
        velocities[oids] += rng.normal(0.0, spec.speed / 4, size=(n_reports, 2))
        moved = np.clip(
            current[oids] + velocities[oids] * (c - last[oids])[:, None],
            0.0,
            1.0,
        )
        current[oids], last[oids] = moved, c
        start = (c - 1) * n_moves
        qidx = move_order[np.arange(start, start + n_moves) % q]
        qmoved = np.clip(
            qcurrent[qidx] + rng.normal(0.0, spec.step, size=(n_moves, 2)),
            0.0,
            1.0,
        )
        qcurrent[qidx] = qmoved
        per_cycle.append((oids, moved, velocities[oids].copy(), qidx, qmoved))
    return Inputs(
        spec,
        positions,
        initial_velocities,
        kinds,
        centers,
        per_cycle,
        current,
        qcurrent,
    )


def square(spec: Spec, x: float, y: float) -> tuple[float, float, float, float]:
    half = spec.side / 2
    return (x - half, y - half, x + half, y + half)


def set_up(inputs: Inputs) -> tuple[LocationAwareServer, float]:
    """Server construction through the initial evaluation; returns the
    server and the seconds it took."""
    spec = inputs.spec
    queries = list(zip(inputs.kinds.tolist(), inputs.centers.tolist()))
    positions = inputs.positions.tolist()
    velocities = inputs.velocities.tolist()
    start = time.perf_counter()
    server = LocationAwareServer()
    for client in range(spec.clients):
        server.register_client(client)
    for i, (kind, (x, y)) in enumerate(queries):
        qid, owner = FIRST_QID + i, i % spec.clients
        if kind == RANGE:
            server.register_range_query(owner, qid, Rect(*square(spec, x, y)))
        elif kind == KNN:
            server.register_knn_query(owner, qid, Point(x, y), spec.k)
        else:
            server.register_predictive_query(
                owner, qid, Rect(*square(spec, x, y)), spec.horizon
            )
    for oid, ((x, y), (vx, vy)) in enumerate(zip(positions, velocities)):
        server.receive_object_report(oid, Point(x, y), 0.0, Velocity(vx, vy))
    server.evaluate_cycle(0.0)
    return server, time.perf_counter() - start


class Mirrors:
    """Client-side answer state folded from the drained links."""

    def __init__(self, server: LocationAwareServer, clients: int):
        self.links = [server.link_of(c) for c in range(clients)]
        self.answers: dict[int, set[int]] = {}
        self.unexpected = 0

    def fold(self) -> None:
        answers = self.answers
        for link in self.links:
            for message in link.drain():
                if type(message) is not UpdateMessage:
                    self.unexpected += 1
                    continue
                answer = answers.setdefault(message.qid, set())
                if message.sign == 1:
                    answer.add(message.oid)
                else:
                    answer.discard(message.oid)


def check(server, inputs: Inputs, mirrors: Mirrors, seed: int) -> dict:
    """Every correctness check the run makes, after the timed cycles."""
    spec, engine = inputs.spec, server.engine
    failures: dict[str, list] = {"mirror": [], "invariants": [], "brute": []}
    qids = [FIRST_QID + i for i in range(spec.queries)]
    for qid in qids:
        if mirrors.answers.get(qid, set()) != set(engine.answer_of(qid)):
            failures["mirror"].append(qid)
    try:
        engine.check_invariants()
    except AssertionError as exc:
        failures["invariants"].append(repr(exc))
    # A seeded sample of range and k-NN answers against brute force
    # over every live object (predictive answers are covered by the
    # mirror and invariant checks).
    rng = np.random.default_rng([seed, 7])
    eligible = np.flatnonzero(inputs.kinds != PREDICTIVE)
    sample = rng.choice(eligible, size=min(32, len(eligible)), replace=False)
    xs, ys = inputs.final_positions[:, 0], inputs.final_positions[:, 1]
    points = inputs.final_positions.tolist()
    for i in sorted(sample.tolist()):
        qid = FIRST_QID + i
        x, y = inputs.final_centers[i].tolist()
        answer = engine.answer_of(qid)
        if inputs.kinds[i] == RANGE:
            min_x, min_y, max_x, max_y = square(spec, x, y)
            inside = np.flatnonzero(
                (xs >= min_x) & (xs <= max_x) & (ys >= min_y) & (ys <= max_y)
            )
            ok = set(inside.tolist()) == set(answer)
        else:
            # k-th distance equality is exact under ties.
            dists = sorted(math.hypot(px - x, py - y) for px, py in points)
            k = min(spec.k, len(dists))
            ok = len(answer) == k and max(
                math.hypot(points[o][0] - x, points[o][1] - y) for o in answer
            ) == dists[k - 1]
        if not ok:
            failures["brute"].append(qid)
    return {
        "checked": len(qids) + 1 + len(sample),
        "failed": sum(map(len, failures.values())) + mirrors.unexpected,
        "unexpected_messages": mirrors.unexpected,
        "detail": {k: v[:10] for k, v in failures.items()},
    }


def run(spec: Spec, seed: int, seconds: float, trace: bool, trace_path) -> dict:
    plan = CyclePlan(seconds * spec.cycles_per_second, trace)
    inputs = generate(spec, seed, plan.total)

    setup_raw, setup_times = [], []
    server = None
    for _ in range(spec.setups):
        if server is not None:
            server.close()
            server = None
        before = calibrate(5)
        server, took = set_up(inputs)
        setup_raw.append(took)
        setup_times.append(at_reference_speed(took, before + calibrate(5)))
    registrations_s = server.registry.value_of(
        "engine_phase_seconds_total", {"phase": "registrations"}
    )
    mirrors = Mirrors(server, spec.clients)
    mirrors.fold()

    rec = Recorder()
    stats = server.stats
    walls, ops, delivered, wire_bytes, deltas = {}, {}, {}, {}, {}
    calibrations = {}
    op_failures = 0
    for c, (oids, moved, velocity, qidx, qmoved) in enumerate(
        inputs.cycles, start=1
    ):
        if c == plan.traced.start:
            instrument_server(rec, server)
        now = float(c)
        reports = list(
            zip(
                oids.tolist(),
                [Point(x, y) for x, y in moved.tolist()],
                [Velocity(vx, vy) for vx, vy in velocity.tolist()],
            )
        )
        moves = []
        for i, (x, y) in zip(qidx.tolist(), qmoved.tolist()):
            qid, kind = FIRST_QID + i, inputs.kinds[i]
            if kind == KNN:
                moves.append((server.receive_knn_query_move, qid, Point(x, y)))
            else:
                method = (
                    server.receive_range_query_move
                    if kind == RANGE
                    else server.receive_predictive_query_move
                )
                moves.append((method, qid, Rect(*square(spec, x, y))))
        report = server.receive_object_report
        evaluate_cycle = server.evaluate_cycle

        def cycle():
            failed = 0
            for oid, location, vel in reports:
                try:
                    report(oid, location, now, vel)
                except Exception:  # noqa: BLE001 - counted as a failed op
                    failed += 1
            for move, qid, where in moves:
                try:
                    move(qid, where, now)
                except Exception:  # noqa: BLE001 - counted as a failed op
                    failed += 1
            return failed, evaluate_cycle(now)

        calibrations[c] = calibrate()[0]
        bytes_before = stats.delivered_bytes
        if c in plan.traced:
            rec.cycle = c
            before = probe(server.registry)
            start = time.perf_counter()
            failed, result = rec.call("cycle", cycle)
            end = time.perf_counter()
            deltas[c] = delta(probe(server.registry), before)
        else:
            start = time.perf_counter()
            failed, result = cycle()
            end = time.perf_counter()
        walls[c] = end - start
        op_failures += failed
        ops[c] = len(reports) + len(moves)
        delivered[c] = result.delivered_updates
        wire_bytes[c] = stats.delivered_bytes - bytes_before
        mirrors.fold()

    verdict = check(server, inputs, mirrors, seed)
    rss = peak_rss_mb()
    server.close()

    raw = walls
    walls = scale_cycles(raw, calibrations)
    out = {
        "cycles": plan.describe(),
        "cycle_ms": [round(walls[c] * 1e3, 3) for c in sorted(walls)],
        "raw_cycle_ms": [round(raw[c] * 1e3, 3) for c in sorted(raw)],
        "calibration_ms": [
            round(calibrations[c] * 1e3, 4) for c in sorted(calibrations)
        ],
        "setup_samples": setup_times,
        "raw_setup_samples": setup_raw,
        "ops_attempted": sum(ops.values()) + verdict["checked"],
        "ops_failed": op_failures + verdict["failed"],
        "correctness": verdict,
        "metrics": end_to_end(
            plan.plain, setup_times, walls, ops, delivered, wire_bytes, rss
        ),
        "raw_metrics": end_to_end(
            plan.plain, setup_raw, raw, ops, delivered, wire_bytes, rss
        ),
    }
    if trace:
        traced = list(plan.traced)
        table = CycleTable()
        table.add(rec.export())
        explained = {
            c: table.busy["server.uplink"].get(c, 0.0)
            + table.busy["server.evaluate_cycle"].get(c, 0.0)
            for c in traced
        }
        extra = {
            "engine.phase.registrations_ms": registrations_s * 1e3,
            "cycle.unexplained_ms": median(
                (raw[c] - explained[c]) * 1e3 for c in traced
            ),
            "trace_overhead_pct": plan.overhead_pct(walls),
        }
        out["per_layer"] = per_layer(table, deltas, traced, extra)
        out["traced_cycles"] = {"first": traced[0], **table.breakdown(traced)}
        table.write_chrome_trace(trace_path)
    return out


def fingerprint(spec: Spec, seed: int, cycles: int) -> str:
    return generate(spec, seed, cycles).digest(cycles)
