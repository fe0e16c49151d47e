"""Golden equivalence of the columnar pipeline's delta emission.

The batch ingest golden tests pin report-buffer shapes; these pin the
*emission* side: the :class:`~repro.core.updates.UpdateBatch` stream
spliced together from classification column slices, against the live
answer sets every pipeline keeps.

Workloads interleave the operations that rewrite answers outside the
batch kernel: object removals between evaluation rounds (negative
updates + answered-sweep), query moves (range, k-NN, and predictive
reshapes that rewrite whole answers), and same-length swaps where a
k-NN and a predictive answer each trade one member for another.
The two batched pipelines must emit **byte-identical** ordered streams;
the per-object reference must agree per query as a set.
``check_invariants`` runs after every round.
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
    # churning: qid 2 must fall silent and oid 9 must count as new.
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
    reports and removals they exercise every out-of-kernel answer
    mutation in one stream."""
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

    # Round 3: a quiet settle round (predictive queries recompute their
    # flip schedules through the scalar refresh).
    fleet.evaluate_and_compare(3.0)

    # Round 4: same-length swaps.  The k-NN query's farthest member and
    # one predictive member move away while a fresh object lands on
    # each query, so both answers trade one oid for another.
    engine = fleet.engines["columnar"]
    knn = engine.queries[4]
    far = max(
        knn.answer,
        key=lambda oid: engine.objects[oid].location.distance_to(knn.center),
    )
    leaver = min(engine.queries[5].answer - knn.answer - {far})
    before = {qid: set(engine.queries[qid].answer) for qid in (4, 5)}
    fleet.all("report_object", far, Point(0.05, 0.95), 4.0)
    fleet.all("report_object", leaver, Point(0.3, 0.6), 4.0)
    fleet.all("report_object", 200, knn.center, 4.0)
    fleet.all("report_object", 201, Point(0.62, 0.05), 4.0)
    swapped = fleet.evaluate_and_compare(4.0)
    expected = {
        4: [(4, far, -1), (4, 200, 1)],
        5: [(5, leaver, -1), (5, 201, 1)],
    }
    for qid, want in expected.items():
        got = sorted((u for u in swapped if u[0] == qid), key=lambda u: u[2])
        assert got == want, qid
        after = engine.queries[qid].answer
        assert len(after) == len(before[qid]) and after != before[qid]
        for other in fleet.engines.values():
            assert other.answer_of(qid) == frozenset(after)

    # Round 5: nudging the newcomers re-solves the k-NN query and
    # refreshes the predictive one from the swapped answers.
    fleet.all("report_object", 200, Point(0.74, 0.75), 5.0)
    fleet.all("report_object", 201, Point(0.63, 0.06), 5.0)
    settled = fleet.evaluate_and_compare(5.0)
    assert not [u for u in settled if u[0] in (4, 5)]

