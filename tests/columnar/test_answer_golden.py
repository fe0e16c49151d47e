"""Golden equivalence of the columnar answer plane's delta emission.

The batch ingest golden tests pin report-buffer shapes; these pin the
*emission* side introduced with the SoA answer plane: the
:class:`~repro.core.updates.UpdateBatch` stream spliced together from
classification column slices, and the :class:`ColumnarAnswerStore` views
legacy callers read through.

Workloads interleave the operations most likely to desynchronise the
store from the authoritative live sets: object removals between
evaluation rounds (negative updates + answered-sweep), and query moves
(range, k-NN, and predictive reshapes that rewrite whole answers).
The two batched pipelines must emit **byte-identical** ordered streams;
the per-object reference must agree per query as a set.  ``check_invariants`` runs after every round
and asserts every cached answer view equals the live set.
"""

from __future__ import annotations

from repro.core import IncrementalEngine, UpdateBatch
from repro.geometry import Point, Rect, Velocity

GRID = 8
HORIZON = 30.0


def ordered(updates):
    return [(u.qid, u.oid, u.sign) for u in updates]


def per_query(stream):
    out: dict[int, set] = {}
    for qid, oid, sign in stream:
        out.setdefault(qid, set()).add((oid, sign))
    return out


def _engine(pipeline):
    return IncrementalEngine(
        grid_size=GRID, prediction_horizon=HORIZON, pipeline=pipeline
    )


class Fleet:
    """One engine per pipeline."""

    def __init__(self):
        self.engines: dict[str, IncrementalEngine] = {
            "cell-batched": _engine("cell-batched"),
            "columnar": _engine("columnar"),
            "per-object": _engine("per-object"),
        }

    def all(self, method: str, *args) -> None:
        for engine in self.engines.values():
            getattr(engine, method)(*args)

    def evaluate_and_compare(self, now: float) -> list[tuple[int, int, int]]:
        streams = {}
        for name, engine in self.engines.items():
            raw = engine.evaluate(now)
            assert type(raw) is UpdateBatch, (name, type(raw))
            streams[name] = ordered(raw)
        want = streams.pop("cell-batched")
        reference = streams.pop("per-object")
        for name, got in streams.items():
            assert got == want, f"{name} stream diverged from cell-batched"
        assert per_query(reference) == per_query(want), (
            "per-object update set diverged"
        )
        for engine in self.engines.values():
            engine.check_invariants()
        return want

    def register_standard_queries(self) -> None:
        self.all("register_range_query", 1, Rect(0.10, 0.10, 0.45, 0.45))
        self.all("register_range_query", 2, Rect(0.40, 0.40, 0.90, 0.90))
        self.all("register_range_query", 3, Rect(0.0, 0.0, 0.125, 0.125))
        self.all("register_knn_query", 4, Point(0.5, 0.5), 3)
        self.all("register_predictive_query", 5, Rect(0.2, 0.2, 0.6, 0.6), 10.0)
        self.all("register_predictive_query", 6, Rect(0.7, 0.1, 0.95, 0.5), 10.0)


def test_removal_interleaved_emission():
    """Removals between rounds: negative deltas, answered-sweep, and a
    re-reported oid must thread identically through every stream."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(32):
        fleet.all(
            "report_object",
            oid,
            Point((oid % 8) / 8.0 + 0.05, (oid // 8) / 4.0 + 0.05),
            0.0,
        )
    first = fleet.evaluate_and_compare(0.0)
    assert first, "initial population must produce enter updates"

    # Remove members of several answers, move a third of the rest.
    for oid in (2, 9, 17, 26):
        fleet.all("remove_object", oid)
    for oid in range(0, 32, 3):
        if oid not in (2, 9, 17, 26):
            fleet.all("report_object", oid, Point(0.5, 0.5), 1.0)
    second = fleet.evaluate_and_compare(1.0)
    assert any(sign < 0 for _, _, sign in second), (
        "removals must surface as negative updates"
    )

    # Unregister a populated query, re-report a removed oid, and keep
    # churning: the store must forget qid 2 and treat oid 9 as new.
    fleet.all("unregister_query", 2)
    fleet.all("report_object", 9, Point(0.3, 0.3), 2.0)
    for oid in range(1, 32, 4):
        if oid not in (2, 17, 26):
            fleet.all("report_object", oid, Point(oid / 32.0, 0.85), 2.0)
    third = fleet.evaluate_and_compare(2.0)
    assert all(qid != 2 for qid, _, _ in third), (
        "unregistered query must emit nothing"
    )


def test_query_move_interleaved_emission():
    """Query moves rewrite whole answers; interleaved with object
    reports they exercise every invalidation hook in one stream."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(28):
        fleet.all(
            "report_object",
            oid,
            Point((oid % 7) / 7.0 + 0.04, (oid // 7) / 4.0 + 0.04),
            0.0,
            Velocity(0.01, 0.0) if oid % 5 == 0 else Velocity.ZERO,
        )
    fleet.evaluate_and_compare(0.0)

    # Round 1: every query type moves while a handful of objects move.
    fleet.all("move_range_query", 1, Rect(0.55, 0.55, 0.95, 0.95), 1.0)
    fleet.all("move_knn_query", 4, Point(0.15, 0.8), 1.0)
    fleet.all("move_predictive_query", 5, Rect(0.6, 0.0, 0.95, 0.35), 1.0)
    for oid in range(0, 28, 4):
        fleet.all("report_object", oid, Point(0.75, 0.75), 1.0)
    moved = fleet.evaluate_and_compare(1.0)
    assert any(sign < 0 for _, _, sign in moved), (
        "query moves must evict prior members"
    )

    # Round 2: moves chased by removals in the same batch window.
    fleet.all("move_range_query", 3, Rect(0.7, 0.7, 0.8, 0.8), 2.0)
    fleet.all("move_knn_query", 4, Point(0.75, 0.75), 2.0)
    for oid in (0, 4, 8):
        fleet.all("remove_object", oid)
    for oid in range(1, 28, 3):
        if oid not in (4,):
            fleet.all("report_object", oid, Point(oid / 28.0, 0.72), 2.0)
    fleet.evaluate_and_compare(2.0)

    # Round 3: a quiet settle round flushes any stale cached views.
    fleet.evaluate_and_compare(3.0)


def test_answer_store_views_and_csr():
    """The store's cached views and CSR snapshot mirror live answers."""
    engine = _engine("columnar")
    engine.register_range_query(1, Rect(0.1, 0.1, 0.9, 0.9))
    engine.register_range_query(2, Rect(0.0, 0.0, 0.3, 0.3))
    engine.register_knn_query(3, Point(0.5, 0.5), 2)
    for oid in range(12):
        engine.report_object(oid, Point(oid / 12.0, oid / 12.0), 0.0)
    engine.evaluate(0.0)

    evaluator = engine._columnar_evaluator
    assert evaluator is not None
    store = evaluator.answers
    for qid in (1, 2, 3):
        live = engine.queries[qid].answer
        assert engine.answer_of(qid) == frozenset(live)
        view = evaluator.answer_view(qid, live)
        if view is not None:
            assert view == live

    qids = [1, 2, 3]
    offsets, values = store.csr(
        qids, lambda qid: engine.queries[qid].answer
    )
    assert len(offsets) == len(qids) + 1
    assert int(offsets[0]) == 0
    for pos, qid in enumerate(qids):
        row = [int(v) for v in values[int(offsets[pos]):int(offsets[pos + 1])]]
        assert row == sorted(engine.queries[qid].answer), qid

    # Mutate and re-snapshot: rows must track the new answers and the
    # version counter must move so derived caches can notice.
    before = store.version
    engine.remove_object(5)
    engine.report_object(20, Point(0.2, 0.2), 1.0)
    engine.evaluate(1.0)
    assert store.version != before
    offsets, values = store.csr(
        qids, lambda qid: engine.queries[qid].answer
    )
    for pos, qid in enumerate(qids):
        row = [int(v) for v in values[int(offsets[pos]):int(offsets[pos + 1])]]
        assert row == sorted(engine.queries[qid].answer), qid
