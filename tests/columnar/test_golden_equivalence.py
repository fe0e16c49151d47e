"""Golden equivalence of the columnar pipeline vs the serial pipelines.

``pipeline="columnar"`` is specified as byte-for-byte equivalent to
``pipeline="cell-batched"``: identical update streams in identical
order, every round, for every workload.  These tests drive engine trios through
randomized mixed workloads (all three query kinds, query moves,
unregistrations, object removals, off-world clamping) and compare the
ordered streams; the per-object reference is checked for per-query set
equality (its intra-phase emission order legitimately differs).
"""

from __future__ import annotations

import random

import pytest

from repro.core import IncrementalEngine
from repro.geometry import Point, Rect, Velocity


def ordered_stream(updates) -> list[tuple[int, int, int]]:
    return [(u.qid, u.oid, u.sign) for u in updates]


def per_query(updates) -> dict[int, list[tuple[int, int]]]:
    out: dict[int, list[tuple[int, int]]] = {}
    for u in updates:
        out.setdefault(u.qid, []).append((u.oid, u.sign))
    return out


class TrioDriver:
    """Feed columnar, cell-batched and per-object engines one workload."""

    def __init__(self, seed: int, grid_size: int = 8):
        self.rng = random.Random(seed)
        self.columnar = IncrementalEngine(
            grid_size=grid_size,
            prediction_horizon=30.0,
            pipeline="columnar",
        )
        self.serial = IncrementalEngine(
            grid_size=grid_size,
            prediction_horizon=30.0,
            pipeline="cell-batched",
        )
        self.reference = IncrementalEngine(
            grid_size=grid_size,
            prediction_horizon=30.0,
            pipeline="per-object",
        )
        self.engines = (self.columnar, self.serial, self.reference)
        self.live_objects: set[int] = set()
        self.live_queries: dict[int, str] = {}
        self.next_oid = 0
        self.next_qid = 1000

    def all(self, method: str, *args) -> None:
        for engine in self.engines:
            getattr(engine, method)(*args)

    def random_rect(self, max_side: float = 0.3) -> Rect:
        rng = self.rng
        x, y = rng.random(), rng.random()
        return Rect(
            x, y, x + rng.uniform(0.01, max_side), y + rng.uniform(0.01, max_side)
        )

    def register_random_query(self) -> None:
        rng = self.rng
        qid = self.next_qid
        self.next_qid += 1
        kind = rng.random()
        if kind < 0.55:
            self.all("register_range_query", qid, self.random_rect())
            self.live_queries[qid] = "range"
        elif kind < 0.8:
            self.all(
                "register_knn_query",
                qid,
                Point(rng.random(), rng.random()),
                rng.randint(1, 4),
            )
            self.live_queries[qid] = "knn"
        else:
            self.all(
                "register_predictive_query", qid, self.random_rect(), 10.0
            )
            self.live_queries[qid] = "predictive"

    def move_random_query(self, now: float) -> None:
        rng = self.rng
        qid = rng.choice(sorted(self.live_queries))
        kind = self.live_queries[qid]
        if kind == "range":
            self.all("move_range_query", qid, self.random_rect(), now)
        elif kind == "knn":
            self.all(
                "move_knn_query", qid, Point(rng.random(), rng.random()), now
            )
        else:
            self.all("move_predictive_query", qid, self.random_rect(), now)

    def report_random_object(self, now: float) -> None:
        rng = self.rng
        if self.live_objects and rng.random() < 0.7:
            oid = rng.choice(sorted(self.live_objects))
        else:
            oid = self.next_oid
            self.next_oid += 1
            self.live_objects.add(oid)
        velocity = Velocity.ZERO
        if rng.random() < 0.3:
            velocity = Velocity(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        self.all(
            "report_object",
            oid,
            Point(rng.uniform(-0.05, 1.05), rng.uniform(-0.05, 1.05)),
            now,
            velocity,
        )

    def run_round(self, now: float) -> None:
        rng = self.rng
        for _ in range(rng.randint(10, 50)):
            self.report_random_object(now)
        if rng.random() < 0.6:
            self.register_random_query()
        if self.live_queries and rng.random() < 0.4:
            self.move_random_query(now)
        if self.live_queries and rng.random() < 0.2:
            qid = rng.choice(sorted(self.live_queries))
            del self.live_queries[qid]
            self.all("unregister_query", qid)
        if self.live_objects and rng.random() < 0.2:
            oid = rng.choice(sorted(self.live_objects))
            self.live_objects.discard(oid)
            self.all("remove_object", oid)

    def evaluate_and_compare(self, now: float, round_no: int) -> None:
        got = ordered_stream(self.columnar.evaluate(now))
        want = ordered_stream(self.serial.evaluate(now))
        ref = self.reference.evaluate(now)
        assert got == want, f"ordered streams diverged in round {round_no}"
        ref_sets = per_query(ref)
        got_sets = per_query_from_stream(got)
        assert set(ref_sets) == set(got_sets), f"round {round_no}"
        for qid in ref_sets:
            assert sorted(ref_sets[qid]) == sorted(got_sets[qid]), (
                round_no,
                qid,
            )
        assert (
            self.columnar.complete_answers() == self.serial.complete_answers()
        ), f"answers diverged after round {round_no}"
        assert (
            self.columnar.complete_answers()
            == self.reference.complete_answers()
        ), f"answers diverged from reference after round {round_no}"
        for engine in self.engines:
            engine.check_invariants()

    def run(self, rounds: int = 10) -> None:
        now = 0.0
        for round_no in range(rounds):
            now += 1.0
            self.run_round(now)
            self.evaluate_and_compare(now, round_no)
        # A pure time advance: only predictive windows slide.
        self.evaluate_and_compare(now + 1.0, rounds)


def per_query_from_stream(stream) -> dict[int, list[tuple[int, int]]]:
    out: dict[int, list[tuple[int, int]]] = {}
    for qid, oid, sign in stream:
        out.setdefault(qid, []).append((oid, sign))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_auto_backend_matches_serial_stream_byte_for_byte(seed):
    TrioDriver(seed).run()


def test_finer_grid_matches(seed=17):
    TrioDriver(seed, grid_size=16).run(rounds=6)


def test_columnar_emits_batch_metrics():
    engine = IncrementalEngine(grid_size=8, pipeline="columnar")
    engine.register_range_query(100, Rect(0.25, 0.25, 0.75, 0.75))
    for oid in range(20):
        engine.report_object(oid, Point(oid / 20.0, 0.5), 0.0)
    engine.evaluate(0.0)
    value_of = engine.registry.value_of
    assert value_of("engine_columnar_batches_total") == 1
    # Objects at x in {0.25 .. 0.75} enter the region: 11 changed pairs,
    # each counted in the (larger) candidate-pair total.
    changes = value_of("engine_columnar_changes_total")
    assert changes == 11
    assert value_of("engine_columnar_pairs_total") >= changes


def test_unknown_pipeline_rejected():
    with pytest.raises(ValueError):
        IncrementalEngine(pipeline="simd")
