"""Batch kernels for the columnar evaluation core.

The cell-batched pipeline's inner loop visits every (candidate query,
cohort object) pair of every transition cohort in Python.  The columnar
pipeline replaces that loop with two array passes over the whole batch:

1. **Cell-range join** — expand the batch's ragged (cohort → candidate
   entry rows × member object rows) structure into two flat pair-index
   arrays, in *exactly* the order the serial loop would visit pairs
   (cohort → cell → partial-then-covering entries sorted by qid →
   objects sorted by oid).
2. **Membership classification** — one vectorized containment test per
   pair against the object's new and old coordinates.  ``enter`` is
   inside-new ∧ ¬inside-old (a positive update), ``leave`` the reverse
   (negative), ``still-inside``/``still-outside`` produce nothing.
   Prior membership is *recomputed geometrically from the old
   coordinates* rather than looked up: a range answer always equals
   the set of objects inside the region (the engine maintains exactly
   that invariant through every phase), and NaN old coordinates — new
   objects — test False against every bound.

Kernel contract::

    classify_transitions(plan, ostore, qstore)
        -> (qids, oids, signs, cohort_ends)

``qids``/``oids`` are the public query/object identifiers of the
*changed* pairs only, as plain Python lists in flat pair order (store
rows map to identifiers with one vectorized gather over the id
columns — never per pair in Python); ``signs`` holds
+1/-1; ``cohort_ends[i]`` is the exclusive end of cohort ``i``'s span
in those lists.  The kernel classifies exactly the pairs the plan
enumerates, in the plan's order — plan construction has already
deduplicated candidate entries across a multi-cell cohort's cells
(first-occurrence order, the mirror of the serial pass's seen-qid
skip), so every changed pair maps one-to-one onto an emitted update.

The kernel materialises pair-index arrays for the whole batch
(int32: two 4-byte columns per pair) but runs the float work in
:data:`PAIR_CHUNK`-sized chunks so peak temporary memory stays bounded
regardless of batch size.
"""

from __future__ import annotations

import numpy as np

#: Pairs per float-kernel chunk (eight float64 temporaries per pair in
#: flight → ~70 MB peak at this setting).
PAIR_CHUNK = 1 << 20


class PairPlan:
    """The ragged join structure for one batch, cohort-major.

    * ``ent_parts`` — one sequence of query-store rows per (cohort,
      cell) with at least one candidate entry, in cohort order; each
      part is already in the serial candidate order (partial entries
      then covering entries, each sorted by qid), as int32 ndarrays or
      int lists.
    * ``parts_per_cohort[i]`` — how many of those parts belong to
      cohort ``i``.
    * ``ent_counts[i]`` — total candidate entries of cohort ``i``.
    * ``obj_rows`` — object-store rows of every cohort member, flat,
      cohort-major, sorted by oid within a cohort.
    * ``obj_counts[i]`` — member count of cohort ``i``.
    """

    __slots__ = (
        "ent_parts",
        "parts_per_cohort",
        "ent_counts",
        "obj_rows",
        "obj_counts",
        "total_pairs",
    )

    def __init__(self) -> None:
        self.ent_parts: list = []
        self.parts_per_cohort: list[int] = []
        self.ent_counts: list[int] = []
        self.obj_rows: list[int] = []
        self.obj_counts: list[int] = []
        self.total_pairs = 0

    @property
    def cohort_count(self) -> int:
        return len(self.ent_counts)

    def seal(self) -> None:
        """Finalize derived totals after the last cohort is added."""
        self.total_pairs = sum(
            e * m for e, m in zip(self.ent_counts, self.obj_counts)
        )


def classify_transitions(
    plan: PairPlan,
    ostore,
    qstore,
    chunk_pairs: int = PAIR_CHUNK,
    want_arrays: bool = False,
):
    """Run the join + membership classification for one batch.

    With ``want_arrays`` a fifth element is returned: the int64
    ``(qids, oids, signs)`` ndarray triple (``None`` when there are no
    changed pairs) — the bulk emitter groups set maintenance from it
    without re-materialising arrays from the lists.
    """
    n_cohorts = plan.cohort_count
    if plan.total_pairs == 0:
        empty = ([], [], [], [0] * n_cohorts)
        return (*empty, None) if want_arrays else empty

    ent_counts = np.asarray(plan.ent_counts, dtype=np.int64)
    obj_counts = np.asarray(plan.obj_counts, dtype=np.int64)
    pairs = ent_counts * obj_counts
    pair_start = np.zeros(n_cohorts + 1, dtype=np.int64)
    np.cumsum(pairs, out=pair_start[1:])
    total = int(pair_start[-1])
    # int32 pair indices halve the bandwidth of the expansion
    # temporaries; int64 only when a batch actually overflows them.
    idx = np.int32 if total < 2**31 else np.int64

    # --- the cell-range join: flat (query row, object row) pair arrays.
    ent = np.concatenate(plan.ent_parts)
    obj = np.asarray(plan.obj_rows, dtype=np.int32)
    # Each candidate entry repeats once per cohort member, entry-major.
    qidx = np.repeat(ent, np.repeat(obj_counts, ent_counts))
    # Pair p of cohort c addresses member (p - pair_start[c]) % m[c].
    obj_start = np.zeros(n_cohorts, dtype=idx)
    np.cumsum(obj_counts[:-1].astype(idx), out=obj_start[1:])
    rel = np.arange(total, dtype=idx)
    rel -= np.repeat(pair_start[:-1].astype(idx), pairs)
    rel %= np.repeat(obj_counts.astype(idx), pairs)
    rel += np.repeat(obj_start, pairs)
    oidx = obj[rel]
    del rel

    xs, ys, old_xs, old_ys = ostore.coord_views()
    min_xs, min_ys, max_xs, max_ys = qstore.bounds_views()

    out_q: list = []
    out_o: list = []
    out_s: list = []
    out_pos: list = []
    # NaN old coordinates (new objects) must compare False silently.
    with np.errstate(invalid="ignore"):
        for lo in range(0, total, chunk_pairs):
            hi = min(lo + chunk_pairs, total)
            q = qidx[lo:hi]
            o = oidx[lo:hi]
            lx = min_xs[q]
            hx = max_xs[q]
            ly = min_ys[q]
            hy = max_ys[q]
            px = xs[o]
            py = ys[o]
            in_new = (lx <= px) & (px <= hx) & (ly <= py) & (py <= hy)
            px = old_xs[o]
            py = old_ys[o]
            in_old = (lx <= px) & (px <= hx) & (ly <= py) & (py <= hy)
            changed = in_new != in_old
            pos = np.nonzero(changed)[0]
            if not len(pos):
                continue
            out_q.append(q[pos])
            out_o.append(o[pos])
            out_s.append(np.where(in_new[pos], 1, -1))
            out_pos.append(pos + lo)

    if not out_q:
        empty = ([], [], [], [0] * n_cohorts)
        return (*empty, None) if want_arrays else empty
    # One vectorized gather over the id columns (array('q') buffers are
    # int64 in memory) turns store rows into public identifiers — the
    # emitter never touches a row index per pair.
    qid_col = np.frombuffer(qstore.qids, dtype=np.int64)
    oid_col = np.frombuffer(ostore.oids, dtype=np.int64)
    qid_arr = qid_col[np.concatenate(out_q)]
    oid_arr = oid_col[np.concatenate(out_o)]
    sign_arr = np.concatenate(out_s).astype(np.int64, copy=False)
    qids = qid_arr.tolist()
    oids = oid_arr.tolist()
    signs = sign_arr.tolist()
    # Chunks were processed in order, so global positions are sorted;
    # per-cohort spans fall out of one searchsorted over the boundaries.
    global_pos = np.concatenate(out_pos)
    cohort_ends = np.searchsorted(global_pos, pair_start[1:], side="left")
    ends = cohort_ends.tolist()
    if want_arrays:
        return qids, oids, signs, ends, (qid_arr, oid_arr, sign_arr)
    return qids, oids, signs, ends
