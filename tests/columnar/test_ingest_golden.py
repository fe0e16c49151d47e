"""Golden equivalence of the batch ingest kernel, scenario by scenario.

The randomized trio tests (``test_golden_equivalence.py``) sweep broad
workloads; these tests pin the specific report-buffer shapes the batch
ingest kernel (:mod:`repro.columnar.ingest`) special-cases — brand-new
objects, stay-put batches, predictive/stationary transitions in both
directions, boundary-clamped coordinates, and removal-interleaved
batches — across every pipeline.

The two batched pipelines (cell-batched, columnar) must emit
**byte-identical** ordered update streams; the per-object
reference must agree per query as a set (its intra-batch emission
order legitimately differs).  Every engine's invariants are checked
after every round, which includes the dense ``oid -> cell`` column the
batch kernel maintains.
"""

from __future__ import annotations

from repro.core import IncrementalEngine
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


class Fleet:
    """One engine per pipeline, driven in lockstep."""

    def __init__(self):
        self.engines: dict[str, IncrementalEngine] = {
            pipeline: IncrementalEngine(
                grid_size=GRID, prediction_horizon=HORIZON, pipeline=pipeline
            )
            for pipeline in ("cell-batched", "columnar", "per-object")
        }

    def all(self, method: str, *args) -> None:
        for engine in self.engines.values():
            getattr(engine, method)(*args)

    def evaluate_and_compare(self, now: float) -> list[tuple[int, int, int]]:
        streams = {
            name: ordered(engine.evaluate(now))
            for name, engine in self.engines.items()
        }
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
        # Ranges tiling the middle, a knn probe, and predictive windows.
        self.all("register_range_query", 1, Rect(0.10, 0.10, 0.45, 0.45))
        self.all("register_range_query", 2, Rect(0.40, 0.40, 0.90, 0.90))
        self.all("register_range_query", 3, Rect(0.0, 0.0, 0.125, 0.125))
        self.all("register_knn_query", 4, Point(0.5, 0.5), 3)
        self.all("register_predictive_query", 5, Rect(0.2, 0.2, 0.6, 0.6), 10.0)
        self.all("register_predictive_query", 6, Rect(0.7, 0.1, 0.95, 0.5), 10.0)


def test_new_object_batch():
    """A buffer of brand-new objects: every transition key is (-1, cell)."""
    fleet = Fleet()
    fleet.register_standard_queries()
    fleet.evaluate_and_compare(0.0)
    for oid in range(40):
        fleet.all(
            "report_object", oid, Point((oid % 10) / 10.0, (oid // 10) / 4.0), 1.0
        )
    stream = fleet.evaluate_and_compare(1.0)
    assert stream, "new objects must produce enter updates"


def test_stay_put_batch():
    """Re-reports that keep every object in its home cell still emit a
    correct (possibly empty) delta and leave the index unchanged."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(30):
        fleet.all("report_object", oid, Point(oid / 30.0, 0.3), 0.0)
    fleet.evaluate_and_compare(0.0)
    # Nudge within the same cell (cell width 0.125, nudge 0.001).
    for oid in range(30):
        fleet.all(
            "report_object", oid, Point(oid / 30.0 + 0.001, 0.3), 1.0
        )
    fleet.evaluate_and_compare(1.0)


def test_predictive_to_stationary():
    """Objects with multi-cell predictive footprints dropping to zero
    velocity: the minority branch's multi->point transition."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(20):
        fleet.all(
            "report_object",
            oid,
            Point(0.1 + oid * 0.04, 0.5),
            0.0,
            Velocity(0.02, -0.015),
        )
    fleet.evaluate_and_compare(0.0)
    for oid in range(20):
        fleet.all(
            "report_object",
            oid,
            Point(0.1 + oid * 0.04, 0.52),
            1.0,
            Velocity.ZERO,
        )
    fleet.evaluate_and_compare(1.0)


def test_stationary_to_predictive():
    """Stationary objects acquiring velocity: majority rows leaving the
    dense point column for multi-cell footprints."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(20):
        fleet.all("report_object", oid, Point(0.1 + oid * 0.04, 0.5), 0.0)
    fleet.evaluate_and_compare(0.0)
    for oid in range(20):
        fleet.all(
            "report_object",
            oid,
            Point(0.1 + oid * 0.04, 0.5),
            1.0,
            Velocity(-0.01, 0.02),
        )
    fleet.evaluate_and_compare(1.0)
    # And a mixed follow-up batch: half keep moving, half stop.
    for oid in range(20):
        velocity = Velocity(0.01, 0.0) if oid % 2 else Velocity.ZERO
        fleet.all(
            "report_object",
            oid,
            Point(0.12 + oid * 0.04, 0.52),
            2.0,
            velocity,
        )
    fleet.evaluate_and_compare(2.0)


def test_boundary_clamped_batch():
    """Coordinates on cell edges and outside the world: the batch cell
    kernel must clamp bit-identically to the scalar path."""
    fleet = Fleet()
    fleet.register_standard_queries()
    edge = 0.125  # cell width for GRID=8
    coords = [
        Point(0.0, 0.0),
        Point(1.0, 1.0),
        Point(edge, edge),
        Point(2 * edge, 0.5),
        Point(1.0, 0.0),
        Point(0.0, 1.0),
        Point(3 * edge, 7 * edge),
        Point(0.999999999, 0.5),
    ]
    for oid, p in enumerate(coords):
        fleet.all("report_object", oid, p, 0.0)
    fleet.evaluate_and_compare(0.0)
    # Shift everything exactly one cell; stragglers clamp at the edge.
    for oid, p in enumerate(coords):
        fleet.all(
            "report_object",
            oid,
            Point(min(p.x + edge, 1.0), min(p.y + edge, 1.0)),
            1.0,
        )
    fleet.evaluate_and_compare(1.0)


def test_removal_interleaved_batches():
    """Removals between batches: the dense column must forget removed
    oids, and a re-reported oid is a brand-new (-1, cell) transition."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(24):
        fleet.all("report_object", oid, Point(oid / 24.0, 0.42), 0.0)
    fleet.evaluate_and_compare(0.0)
    for oid in (3, 7, 11):
        fleet.all("remove_object", oid)
    for oid in range(0, 24, 2):  # move the even half (incl. removed "missing")
        if oid not in (3, 7, 11):
            fleet.all("report_object", oid, Point(oid / 24.0, 0.61), 1.0)
    fleet.evaluate_and_compare(1.0)
    # Re-report a removed oid alongside fresh moves.
    fleet.all("report_object", 7, Point(0.3, 0.3), 2.0)
    for oid in range(1, 24, 2):
        if oid not in (3, 11):
            fleet.all("report_object", oid, Point(oid / 24.0, 0.18), 2.0)
    fleet.evaluate_and_compare(2.0)


def test_dense_column_mirrors_index():
    """The batch kernel's oid -> cell column stays in lockstep with the
    grid index across mixed rounds (spot check beyond check_invariants)."""
    from repro.columnar.ingest import MULTI_CELL

    engine = IncrementalEngine(
        grid_size=GRID, prediction_horizon=HORIZON, pipeline="columnar"
    )
    engine.register_range_query(1, Rect(0.1, 0.1, 0.9, 0.9))
    for oid in range(10):
        engine.report_object(oid, Point(oid / 10.0, 0.5), 0.0)
    engine.report_object(10, Point(0.5, 0.5), 0.0, Velocity(0.03, 0.0))
    engine.evaluate(0.0)
    ingest = engine._batch_ingest
    assert ingest is not None and ingest.enabled
    for oid in range(10):
        cells = engine.index.object_cells(oid)
        assert ingest.cell_hint(oid) == next(iter(cells))
    predictive_cells = engine.index.object_cells(10)
    hint = ingest.cell_hint(10)
    if len(predictive_cells) > 1:
        assert hint == MULTI_CELL
    else:
        assert hint == next(iter(predictive_cells))
    engine.remove_object(4)
    engine.evaluate(1.0)
    assert ingest.cell_hint(4) == -1  # NOT_INDEXED after removal
