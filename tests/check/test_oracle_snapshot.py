"""The oracle's vectorized snapshot recompute equals the scalar brute force.

``ConsistencyOracle._recompute_all`` screens every query over every
object in numpy and leaves only the exact verdicts (k-NN ranking,
predictive clipping) to scalar code.  :func:`reference_answer` below is
the per-query Python brute force it replaced: the same membership
predicates the engine defines, applied to every object.  The two must
agree exactly on every query, including the states a float screen is
most likely to get wrong: duplicate locations, equidistant k-NN ties,
points on region edges, zero-area regions, ``k`` at or above the object
count, an empty population, expired and future-dated predictive
reports.
"""

from __future__ import annotations

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import ConsistencyOracle
from repro.check import oracle as oracle_module
from repro.core.server import LocationAwareServer
from repro.core.state import QueryKind
from repro.geometry import Point, Rect, Velocity

WORLD = Rect(0.0, 0.0, 1.0, 1.0)
HORIZON = 20.0
NOW = 50.0

#: A coarse lattice: drawing from it produces duplicate locations,
#: points exactly on region edges, zero-area regions and equidistant
#: k-NN candidates.
LATTICE = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]

coord = st.one_of(
    st.sampled_from(LATTICE), st.floats(0.0, 1.0, allow_nan=False)
)
speed = st.one_of(
    st.just(0.0),
    st.sampled_from([-0.05, -0.0125, 0.0125, 0.05]),
    st.floats(-0.1, 0.1, allow_nan=False),
)
#: Report time relative to the evaluation: far enough back that the
#: trusted span ended (``t + HORIZON < NOW``), recent, or after ``NOW``.
report_offset = st.one_of(
    st.sampled_from([-HORIZON - 5.0, -HORIZON, -3.0, 0.0, 2.0]),
    st.floats(-HORIZON - 10.0, 5.0, allow_nan=False),
)
obj = st.tuples(coord, coord, speed, speed, report_offset)
region = st.tuples(coord, coord, coord, coord).map(
    lambda c: Rect(
        min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])
    )
)
query = st.one_of(
    st.tuples(st.just("range"), region),
    st.tuples(st.just("knn"), st.tuples(coord, coord), st.integers(1, 12)),
    st.tuples(
        st.just("predictive"),
        region,
        st.one_of(st.just(HORIZON), st.floats(0.5, HORIZON)),
    ),
)


def reference_answer(engine, qid: int) -> frozenset[int]:
    """Per-query scalar brute force from raw object state (no index, no
    incremental bookkeeping), using the engine's membership predicates."""
    query = engine.queries[qid]
    objects = engine.objects
    if query.kind is QueryKind.RANGE:
        return frozenset(
            oid
            for oid, state in objects.items()
            if query.region.contains_point(state.location)
        )
    if query.kind is QueryKind.KNN:
        ranked = sorted(
            (state.location.distance_to(query.center), oid)
            for oid, state in objects.items()
        )
        return frozenset(oid for _, oid in ranked[: query.k])
    return frozenset(
        oid
        for oid, state in objects.items()
        if engine._predicted_in_region(query, state)
    )


def build(objects, queries) -> LocationAwareServer:
    server = LocationAwareServer(
        world=WORLD, grid_size=4, prediction_horizon=HORIZON
    )
    server.register_client(1)
    for qid, spec in enumerate(queries, start=1000):
        if spec[0] == "range":
            server.register_range_query(1, qid, spec[1])
        elif spec[0] == "knn":
            server.register_knn_query(1, qid, Point(*spec[1]), spec[2])
        else:
            server.register_predictive_query(1, qid, spec[1], spec[2])
    for oid, (x, y, vx, vy, offset) in enumerate(objects):
        server.receive_object_report(
            oid, Point(x, y), NOW + offset, Velocity(vx, vy)
        )
    server.evaluate_cycle(NOW)
    return server


def assert_matches_reference(server: LocationAwareServer) -> None:
    engine = server.engine
    got = ConsistencyOracle(server)._recompute_all()
    assert set(got) == set(engine.queries)
    for qid in engine.queries:
        assert got[qid] == reference_answer(engine, qid), qid


@settings(max_examples=300, deadline=None)
@given(
    objects=st.lists(obj, max_size=25),
    queries=st.lists(query, min_size=1, max_size=8),
    chunk_cells=st.sampled_from([1, 7, oracle_module._CHUNK_CELLS]),
)
def test_recompute_all_equals_scalar_reference(objects, queries, chunk_cells):
    server = build(objects, queries)
    with mock.patch.object(oracle_module, "_CHUNK_CELLS", chunk_cells):
        assert_matches_reference(server)


def test_knn_ties_are_broken_by_oid():
    # Four objects at distance 0.25 from the centre plus a duplicate
    # pair at the centre: k=3 takes both centre objects and the
    # smallest-oid member of the tied ring.
    ring = [(0.75, 0.5), (0.5, 0.75), (0.25, 0.5), (0.5, 0.25)]
    objects = [(x, y, 0.0, 0.0, 0.0) for x, y in ring]
    objects += [(0.5, 0.5, 0.0, 0.0, 0.0)] * 2
    server = build(objects, [("knn", (0.5, 0.5), 3)])
    got = ConsistencyOracle(server)._recompute_all()
    assert got[1000] == frozenset({0, 4, 5})
    assert_matches_reference(server)


def test_no_objects_and_k_above_population():
    server = build(
        [],
        [("range", WORLD), ("knn", (0.5, 0.5), 4), ("predictive", WORLD, 5.0)],
    )
    assert ConsistencyOracle(server)._recompute_all() == {
        1000: frozenset(),
        1001: frozenset(),
        1002: frozenset(),
    }
    server.receive_object_report(7, Point(0.1, 0.1), NOW)
    server.evaluate_cycle(NOW)
    assert ConsistencyOracle(server)._recompute_all()[1001] == {7}


def test_knn_near_ties_on_a_circle():
    # Points on one circle are equidistant on paper but a few ulps
    # apart in floating point, where squared and exact distances can
    # order them differently; the exact (distance, oid) ranking decides.
    ring = [
        (0.5 + 0.25 * math.cos(a), 0.5 + 0.25 * math.sin(a))
        for a in (2 * math.pi * i / 97 for i in range(97))
    ]
    objects = [(x, y, 0.0, 0.0, 0.0) for x, y in ring]
    queries = [("knn", (0.5, 0.5), k) for k in (1, 5, 12)]
    assert_matches_reference(build(objects, queries))
