"""The vectorized predictive-membership pass must be bit-identical to
the scalar ``_predicted_in_region`` verdict on every lane.

The kernel replicates the scalar float sequence (displacement, then
Liang–Barsky slab clipping in the same edge order), so agreement must
hold exactly — including stationary objects, empty windows, boundary
grazes, and trajectories that are parallel to a slab.
"""

from __future__ import annotations

import random

import pytest

from repro.core import IncrementalEngine
from repro.geometry import Point, Rect, Velocity


def build_engine(seed: int, n_objects: int = 120):
    rng = random.Random(seed)
    engine = IncrementalEngine(
        grid_size=8, prediction_horizon=30.0, pipeline="columnar"
    )
    for oid in range(n_objects):
        velocity = Velocity.ZERO
        roll = rng.random()
        if roll < 0.5:
            velocity = Velocity(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        elif roll < 0.6:
            # Axis-parallel motion: exercises the p == 0 slab branch.
            velocity = Velocity(rng.uniform(-0.1, 0.1), 0.0)
        engine.report_object(
            oid,
            Point(rng.random(), rng.random()),
            rng.uniform(0.0, 2.0),
            velocity,
        )
    engine.evaluate(2.0)
    return engine, rng


@pytest.mark.parametrize("seed", range(10))
def test_matches_scalar_on_random_motions(seed):
    engine, rng = build_engine(seed)
    evaluator = engine._columnar_evaluator
    oids = sorted(engine.objects)
    for _ in range(8):
        x, y = rng.random(), rng.random()
        region = Rect(x, y, x + rng.uniform(0.0, 0.4), y + rng.uniform(0.0, 0.4))
        horizon = rng.choice([0.0, 1.0, 10.0, 50.0])

        class _Q:
            pass

        query = _Q()
        query.region = region
        query.horizon = horizon
        flags = evaluator.predicted_inside(
            oids, region, engine.now, horizon, engine.prediction_horizon
        )
        assert flags is not None and len(flags) == len(oids)
        for oid, got in zip(oids, flags):
            want = engine._predicted_in_region(query, engine.objects[oid])
            assert got == want, (oid, engine.objects[oid], region, horizon)


def test_boundary_grazing_lanes_match_scalar():
    engine = IncrementalEngine(
        grid_size=8,
        prediction_horizon=30.0,
        pipeline="columnar",
    )
    region = Rect(0.25, 0.25, 0.75, 0.75)
    cases = [
        # Stationary on the boundary corner: closed containment.
        (Point(0.25, 0.25), Velocity.ZERO),
        # Stationary just outside.
        (Point(0.249999, 0.25), Velocity.ZERO),
        # Slides along the min_x edge (parallel slab, inside).
        (Point(0.25, 0.1), Velocity(0.0, 0.05)),
        # Heads straight at the region and just reaches the edge.
        (Point(0.0, 0.5), Velocity(0.0125, 0.0)),
        # Moves away from the region.
        (Point(0.2, 0.5), Velocity(-0.1, 0.0)),
        # Report in the future relative to the window start.
        (Point(0.5, 0.5), Velocity(0.1, 0.1)),
    ]
    for oid, (location, velocity) in enumerate(cases):
        engine.report_object(oid, location, 0.0, velocity)
    engine.evaluate(0.0)
    evaluator = engine._columnar_evaluator
    oids = sorted(engine.objects)
    for horizon in (0.0, 5.0, 20.0, 100.0):

        class _Q:
            pass

        query = _Q()
        query.region = region
        query.horizon = horizon
        flags = evaluator.predicted_inside(
            oids, region, engine.now, horizon, engine.prediction_horizon
        )
        for oid, got in zip(oids, flags):
            want = engine._predicted_in_region(query, engine.objects[oid])
            assert got == want, (oid, horizon)
