"""Kernel contract tests for the numpy membership classifier.

Plans here are built by hand from randomized stores (no engine in the
loop), so the tests pin the kernel contract itself: changed pairs only
as public qid/oid lists (stores use non-identity ids so the row→id
mapping is genuinely exercised), flat serial pair order, per-cohort
end offsets, NaN old coordinates classified as "was a member of
nothing".  Two independent references check it: a straight-line walk
of the plan, and a brute-force containment check through
:class:`repro.geometry.Rect`.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.columnar import (
    ColumnarObjectStore,
    ColumnarQueryStore,
    KIND_RANGE,
    PairPlan,
    classify_transitions,
)
from repro.geometry import Point, Rect


def build_random_batch(seed: int, cohorts: int = 12):
    """Random stores plus a random ragged plan over them."""
    rng = random.Random(seed)
    ostore = ColumnarObjectStore()
    qstore = ColumnarQueryStore()
    n_objects = rng.randint(5, 60)
    n_queries = rng.randint(3, 30)
    for i in range(n_objects):
        oid = 1000 + 3 * i  # row i, but a distinct public id
        x, y = rng.random(), rng.random()
        ostore.apply_report(oid, x, y, 0.0, 0.0, 0.0, 0)
        if rng.random() < 0.8:
            # Second report: old coords become the first location.
            ostore.apply_report(oid, rng.random(), rng.random(), 0.0, 0.0, 1.0, 0)
    for i in range(n_queries):
        qid = 500 + 7 * i
        x, y = rng.random() * 0.8, rng.random() * 0.8
        qstore.put(
            qid, KIND_RANGE, x, y, x + rng.random() * 0.4, y + rng.random() * 0.4
        )
    plan = PairPlan()
    for _ in range(cohorts):
        parts = rng.randint(0, 3)
        total_entries = 0
        for _ in range(parts):
            size = rng.randint(1, n_queries)
            part = sorted(rng.sample(range(n_queries), size))
            plan.ent_parts.append(part)
            total_entries += len(part)
        plan.parts_per_cohort.append(parts)
        plan.ent_counts.append(total_entries)
        members = rng.randint(1, min(8, n_objects))
        rows = sorted(rng.sample(range(n_objects), members))
        plan.obj_rows.extend(rows)
        plan.obj_counts.append(members)
    plan.seal()
    return plan, ostore, qstore


def reference_classify(plan, ostore, qstore):
    """Straight-line reimplementation of the contract, independent of
    the production kernel."""
    qids, oids, signs, ends = [], [], [], []
    part_index = 0
    obj_index = 0
    for cohort, members in enumerate(plan.obj_counts):
        rows = plan.obj_rows[obj_index : obj_index + members]
        obj_index += members
        for _ in range(plan.parts_per_cohort[cohort]):
            for erow in plan.ent_parts[part_index]:
                lx, hx = qstore.min_xs[erow], qstore.max_xs[erow]
                ly, hy = qstore.min_ys[erow], qstore.max_ys[erow]
                for orow in rows:
                    in_new = lx <= ostore.xs[orow] <= hx and ly <= ostore.ys[orow] <= hy
                    in_old = (
                        lx <= ostore.old_xs[orow] <= hx
                        and ly <= ostore.old_ys[orow] <= hy
                    )
                    if in_new != in_old:
                        qids.append(qstore.qids[erow])
                        oids.append(ostore.oids[orow])
                        signs.append(1 if in_new else -1)
            part_index += 1
        ends.append(len(qids))
    return qids, oids, signs, ends


def brute_force_changes(plan, ostore, qstore):
    """Per cohort, the set of ``(qid, oid, sign)`` changes found by
    testing every (candidate query, member) pair for containment with
    :meth:`Rect.contains_point` — no plan-order walk, no store-column
    comparisons.  A NaN old coordinate means the object was new."""
    per_cohort = []
    part_index = 0
    obj_index = 0
    for cohort, members in enumerate(plan.obj_counts):
        rows = plan.obj_rows[obj_index : obj_index + members]
        obj_index += members
        entries = []
        for _ in range(plan.parts_per_cohort[cohort]):
            entries.extend(plan.ent_parts[part_index])
            part_index += 1
        changes = set()
        for erow in entries:
            region = Rect(
                qstore.min_xs[erow],
                qstore.min_ys[erow],
                qstore.max_xs[erow],
                qstore.max_ys[erow],
            )
            for orow in rows:
                now_in = region.contains_point(
                    Point(ostore.xs[orow], ostore.ys[orow])
                )
                old_x, old_y = ostore.old_xs[orow], ostore.old_ys[orow]
                was_in = not math.isnan(old_x) and region.contains_point(
                    Point(old_x, old_y)
                )
                if now_in != was_in:
                    changes.add(
                        (qstore.qids[erow], ostore.oids[orow], 1 if now_in else -1)
                    )
        per_cohort.append(changes)
    return per_cohort


@pytest.mark.parametrize("seed", range(20))
def test_numpy_backend_matches_reference(seed):
    plan, ostore, qstore = build_random_batch(seed)
    got = classify_transitions(plan, ostore, qstore)
    ref = reference_classify(plan, ostore, qstore)
    assert [list(part) for part in got] == [list(part) for part in ref]
    # Brute-force containment agrees on what changed, cohort by cohort.
    qids, oids, signs, ends = got
    starts = [0, *ends[:-1]]
    assert [
        set(zip(qids[lo:hi], oids[lo:hi], signs[lo:hi]))
        for lo, hi in zip(starts, ends)
    ] == brute_force_changes(plan, ostore, qstore)


@pytest.mark.parametrize("seed", range(8))
def test_numpy_chunking_is_invisible(seed):
    plan, ostore, qstore = build_random_batch(seed, cohorts=20)
    whole = classify_transitions(plan, ostore, qstore)
    tiny = classify_transitions(plan, ostore, qstore, chunk_pairs=7)
    assert tuple(map(list, whole)) == tuple(map(list, tiny))


def test_nan_old_coords_mean_member_of_nothing():
    ostore = ColumnarObjectStore()
    qstore = ColumnarQueryStore()
    # Fresh object inside the query: NaN old coords -> pure enter.
    ostore.apply_report(1, 0.5, 0.5, 0.0, 0.0, 0.0, 0)
    assert math.isnan(ostore.old_xs[0])
    qstore.put(9, KIND_RANGE, 0.0, 0.0, 1.0, 1.0)
    plan = PairPlan()
    plan.ent_parts.append([0])
    plan.parts_per_cohort.append(1)
    plan.ent_counts.append(1)
    plan.obj_rows.append(0)
    plan.obj_counts.append(1)
    plan.seal()
    qids, oids, signs, ends = classify_transitions(plan, ostore, qstore)
    assert (list(qids), list(oids), list(signs)) == ([9], [1], [1])
    assert list(ends) == [1]


def test_empty_plan():
    plan = PairPlan()
    plan.parts_per_cohort.extend([0, 0])
    plan.ent_counts.extend([0, 0])
    plan.obj_rows.extend([0, 0])
    plan.obj_counts.extend([1, 1])
    plan.seal()
    ostore = ColumnarObjectStore()
    ostore.apply_report(1, 0.5, 0.5, 0.0, 0.0, 0.0, 0)
    qstore = ColumnarQueryStore()
    qids, oids, signs, ends = classify_transitions(plan, ostore, qstore)
    assert list(qids) == [] and list(oids) == [] and list(signs) == []
    assert list(ends) == [0, 0]


def test_boundary_containment_is_closed():
    # Objects sitting exactly on a bound enter/stay: closed comparisons,
    # matching Rect.contains_point.
    ostore = ColumnarObjectStore()
    qstore = ColumnarQueryStore()
    ostore.apply_report(1, 0.2, 0.2, 0.0, 0.0, 0.0, 0)  # old NaN
    ostore.apply_report(1, 0.4, 0.6, 0.0, 0.0, 1.0, 0)  # old = (0.2, 0.2)
    qstore.put(5, KIND_RANGE, 0.2, 0.2, 0.4, 0.6)
    plan = PairPlan()
    plan.ent_parts.append([0])
    plan.parts_per_cohort.append(1)
    plan.ent_counts.append(1)
    plan.obj_rows.append(0)
    plan.obj_counts.append(1)
    plan.seal()
    # Old (0.2,0.2) on the min corner and new (0.4,0.6) on the max
    # corner are both inside: no transition.
    qids, _, _, ends = classify_transitions(plan, ostore, qstore)
    assert list(qids) == []
    assert list(ends) == [0]
