"""The columnar cohort evaluator: plan → kernel → ordered emission.

This is the ``pipeline="columnar"`` replacement for the engine's
per-cohort Python membership loop
(:meth:`repro.core.engine.IncrementalEngine._evaluate_cohort`).  It
reuses the cell-batched pipeline's transition grouping verbatim and
must emit a **byte-identical update stream**, so every ordering rule of
the serial pass is preserved structurally:

* pairs are laid out cohort-major, then cell, then partial-before-
  covering entries sorted by qid, then members sorted by oid — the
  kernel's changed-pair positions are therefore already in serial
  emission order;
* a query candidate appearing in several cells of one multi-cell
  cohort joins on first occurrence only — plan construction drops late
  duplicates (the order-preserving mirror of the serial seen-qid skip;
  duplicate pairs would compute identical change bits, so they are
  dead weight for the kernel and the emitter alike);
* ``stay_put`` cohorts join against partial entries only, and
  point-pair cohorts drop queries covering both cells at plan time —
  in either case a covering query provably yields ``in_old == in_new``
  for every member, so the skipped pairs could never emit;
* each cohort's answered sweep runs right after its own emissions,
  interleaved exactly like the serial pass.

Candidate entries are cached **across evaluations**: a cell's entry
arrays depend only on registered range/predictive queries, so the
cache is keyed on :attr:`ColumnarQueryStore.version` and survives
arbitrarily many object-report batches untouched.  k-NN queries are
deliberately left out of the cached entries (their grid footprints are
re-placed every repair, which would otherwise thrash the cache);
cohort k-NN dirty-marking instead intersects live cell buckets with
the engine's registered-knn set, memoised per evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.columnar.kernels import PairPlan, classify_transitions
from repro.columnar.store import (
    KIND_KNN,
    KIND_PREDICTIVE,
    KIND_RANGE,
    ColumnarAnswerStore,
)

#: ``engine_columnar_batch_size`` histogram bounds: powers of four from
#: a single pair up to 16M pairs per batch.
BATCH_SIZE_BUCKETS: tuple[float, ...] = tuple(4.0**e for e in range(13))

_EMPTY_QIDS: frozenset[int] = frozenset()


def _by_oid(state) -> int:
    return state.oid


class _CellEntries:
    """One cell's cached candidate rows (query-store row indices).

    ``partial``/``full`` are int32 ndarrays; ``full_rows`` is the
    plain-list form of ``full`` (multi-cell cohorts filter it against
    rows already joined in an earlier cell); ``cover_set`` holds the
    covering rows as a frozenset (point-pair cohorts intersect the two
    cells' sets to skip queries that provably cannot change);
    ``static_qids`` snapshots the cell's range + predictive qids for
    the answered sweep (k-NN qids are intentionally absent — see the
    module docstring)."""

    __slots__ = ("partial", "full", "full_rows", "cover_set", "static_qids")

    def __init__(self, partial, full, full_rows, cover_set, static_qids):
        self.partial = partial
        self.full = full
        self.full_rows = full_rows
        self.cover_set = cover_set
        self.static_qids = static_qids


class _DualCounter:
    """Feeds one span duration into two counters (phase + total)."""

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def inc(self, value: float = 1.0) -> None:
        self.first.inc(value)
        self.second.inc(value)


class ColumnarEvaluator:
    """Batch evaluator bound to one engine's live structures.

    All references (``queries``, ``objects``, ``knn_qids``) alias the
    engine's own dicts/sets; the evaluator never rebinds them.
    Emission goes through the update stream's ``push`` /
    ``extend_columns`` contract, which keeps this package import-free
    of :mod:`repro.core` (the engine imports us).
    """

    def __init__(
        self,
        grid,
        index,
        ostore,
        qstore,
        objects,
        queries,
        knn_qids,
        registry,
        tracer,
    ):
        self.grid = grid
        self.index = index
        self.ostore = ostore
        self.qstore = qstore
        self.objects = objects
        self.queries = queries
        self.knn_qids = knn_qids
        self.tracer = tracer
        self._cell_cache: dict[int, _CellEntries] = {}
        self._cohort_cache: dict[tuple, tuple] = {}
        self._cache_version = -1
        self._knn_memo: dict[int, tuple] = {}
        empty = np.empty(0, dtype=np.int32)
        self._empty_entries = _CellEntries(
            empty, empty, (), frozenset(), _EMPTY_QIDS
        )
        self._h_batch_size = registry.histogram(
            "engine_columnar_batch_size", buckets=BATCH_SIZE_BUCKETS
        )
        counter = registry.counter
        self._m_batches = counter("engine_columnar_batches_total")
        self._m_pairs = counter("engine_columnar_pairs_total")
        self._m_changes = counter("engine_columnar_changes_total")
        # Per-phase wall time of the batch pass (plan/join/emit) — the
        # benchmark reads the deltas to attribute a round's cost.
        self._phase_counters = {
            phase: counter(
                "engine_columnar_phase_seconds_total",
                labels={"phase": phase},
            )
            for phase in ("plan", "join", "emit")
        }
        # The emit span feeds both the per-phase breakdown and the
        # pipeline-neutral total the benchmark/CI gate reads.
        self._emit_span_counter = _DualCounter(
            self._phase_counters["emit"],
            counter("engine_emit_seconds_total"),
        )
        # Answer membership as sorted oid arrays: the predictive
        # refresh's membership delta becomes one vectorized
        # searchsorted instead of per-candidate set probes, and the
        # answered sweep's k-NN member union is assembled from (and
        # cached against) the same arrays.  The engine invalidates an
        # entry whenever it mutates an answer outside these paths.
        self.answers = ColumnarAnswerStore(registry)
        self._knn_union_cache: tuple[tuple[int, int], frozenset[int]] | None = (
            None
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, cohorts, updates, knn_dirty) -> None:
        """Evaluate one batch of transition cohorts (engine phase 5b)."""
        span = self.tracer.span
        phase_counters = self._phase_counters
        with span("columnar_plan", phase_counters["plan"]):
            plan, metas = self._build_plan(cohorts, knn_dirty)
        self._m_batches.inc()
        self._m_pairs.inc(plan.total_pairs)
        self._h_batch_size.observe(plan.total_pairs)
        with span("columnar_join", phase_counters["join"]):
            qids, oids, signs, ends, arrays = classify_transitions(
                plan, self.ostore, self.qstore, want_arrays=True
            )
        self._m_changes.inc(len(qids))
        with span("columnar_emit", self._emit_span_counter):
            special = self._sweep_candidates()
            self._emit(
                metas,
                ends,
                qids,
                oids,
                signs,
                arrays,
                special,
                updates,
                knn_dirty,
            )

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------

    def _build_plan(self, cohorts, knn_dirty):
        qstore = self.qstore
        if self._cache_version != qstore.version:
            self._cell_cache.clear()
            self._cohort_cache.clear()
            self._cache_version = qstore.version
        self._knn_memo.clear()
        cohort_cache = self._cohort_cache
        plan = PairPlan()
        ent_parts = plan.ent_parts
        metas = []
        row_of = self.ostore._row_of
        obj_rows = plan.obj_rows
        for cells, states, stay_put, point_pair in cohorts:
            if len(states) > 1:
                states.sort(key=_by_oid)
            parts = 0
            if len(cells) == 1:
                cell = cells[0]
                entries = self._cell_entries(cell)
                self._mark_knn(cell, knn_dirty)
                part = entries.partial if stay_put else entries.full
                total_entries = len(part)
                if total_entries:
                    ent_parts.append(part)
                    parts = 1
                seen = entries.static_qids
            else:
                # The deduped multi-cell entry layout depends only on
                # the cells (and the point-pair cover skip), so recur-
                # ring transitions reuse it across evaluations.
                key = (cells, point_pair)
                cached = cohort_cache.get(key)
                if cached is None:
                    cached = self._plan_multi(cells, point_pair)
                    cohort_cache[key] = cached
                for cell in cells:
                    self._mark_knn(cell, knn_dirty)
                parts_seq, total_entries, seen = cached
                if total_entries:
                    ent_parts.extend(parts_seq)
                    parts = len(parts_seq)
            plan.parts_per_cohort.append(parts)
            plan.ent_counts.append(total_entries)
            for state in states:
                obj_rows.append(row_of[state.oid])
            plan.obj_counts.append(len(states))
            metas.append((states, seen))
        plan.seal()
        return plan, metas

    def _plan_multi(self, cells, point_pair: bool):
        """Deduped candidate layout for one multi-cell transition.

        A row already joined for an earlier cell is dropped (first-
        occurrence order — the mirror of the serial seen-qid skip).
        For point-pair transitions, queries covering *both* cells are
        dropped outright: the member's old location lies in the old
        cell and its new location in the new cell, so ``in_old`` and
        ``in_new`` are both true and no update can result.  (Only
        point pairs guarantee real old locations inside the cohort's
        cells — new objects with NaN old coordinates always land in
        single-cell cohorts.)
        """
        entry_list = [self._cell_entries(cell) for cell in cells]
        joined: set[int] = set()
        if point_pair:
            a, b = entry_list
            if a.cover_set and b.cover_set:
                joined |= a.cover_set & b.cover_set
        parts: list = []
        total = 0
        seen: set[int] = set()
        for entries in entry_list:
            full_rows = entries.full_rows
            if full_rows:
                if joined:
                    keep = [r for r in full_rows if r not in joined]
                else:
                    keep = full_rows
                if keep:
                    joined.update(keep)
                    if len(keep) == len(full_rows):
                        part = entries.full
                    else:
                        part = np.asarray(keep, dtype=np.int32)
                    parts.append(part)
                    total += len(part)
            if entries.static_qids:
                seen |= entries.static_qids
        return tuple(parts), total, frozenset(seen)

    def _mark_knn(self, cell: int, knn_dirty) -> None:
        """Serial-equivalent per-cell k-NN dirty marking, memoised."""
        memo = self._knn_memo
        hit = memo.get(cell)
        if hit is None:
            resident = self.index.queries_in_cell(cell)
            hit = (
                tuple(self.knn_qids.intersection(resident))
                if resident
                else ()
            )
            memo[cell] = hit
        if hit:
            knn_dirty.update(hit)

    def _cell_entries(self, cell: int) -> _CellEntries:
        cached = self._cell_cache.get(cell)
        if cached is not None:
            return cached
        qids = self.index.cell_query_tuple(cell)
        if not qids:
            cached = self._empty_entries
            self._cell_cache[cell] = cached
            return cached
        qstore = self.qstore
        qrow_of = qstore._row_of
        kinds = qstore.kinds
        min_xs = qstore.min_xs
        min_ys = qstore.min_ys
        max_xs = qstore.max_xs
        max_ys = qstore.max_ys
        # Inline Grid.cell_rect — the same arithmetic as the serial
        # pipeline's candidate resolution, so the partial/covering split
        # is bit-identical on boundary regions.
        grid = self.grid
        world = grid.world
        cell_w = grid.cell_width
        cell_h = grid.cell_height
        row, col = divmod(cell, grid.n)
        c_min_x = world.min_x + col * cell_w
        c_min_y = world.min_y + row * cell_h
        c_max_x = world.min_x + (col + 1) * cell_w
        c_max_y = world.min_y + (row + 1) * cell_h
        partial: list[int] = []
        covering: list[int] = []
        static: list[int] = []
        # ``qids`` is sorted ascending, so partial/covering (and their
        # concatenation order below) match the serial entry sort.
        for qid in qids:
            qrow = qrow_of[qid]
            kind = kinds[qrow]
            if kind == KIND_RANGE:
                static.append(qid)
                if (
                    min_xs[qrow] <= c_min_x
                    and min_ys[qrow] <= c_min_y
                    and max_xs[qrow] >= c_max_x
                    and max_ys[qrow] >= c_max_y
                ):
                    covering.append(qrow)
                else:
                    partial.append(qrow)
            elif kind == KIND_PREDICTIVE:
                static.append(qid)
        full = partial + covering
        if not full and not static:
            cached = self._empty_entries
        else:
            cached = _CellEntries(
                np.asarray(partial, dtype=np.int32),
                np.asarray(full, dtype=np.int32),
                full,
                frozenset(covering),
                frozenset(static),
            )
        self._cell_cache[cell] = cached
        return cached

    def predicted_inside(
        self,
        oids,
        region,
        now: float,
        horizon: float,
        trust_horizon: float,
    ):
        """Vectorized ``_predicted_in_region`` over candidate ``oids``.

        Returns one bool per oid (same order).  The arithmetic
        replicates the scalar sequence operation-for-operation —
        ``position_at`` displacement, then Liang–Barsky
        slab clipping in the same edge order with the same running
        ``t0``/``t1`` comparisons — so each lane's IEEE result is
        bit-identical to ``LinearMotion.time_in_rect``'s verdict.
        Stationary objects need no special branch: a zero velocity
        makes every slab test degenerate to the closed containment
        check the scalar path uses.
        """
        return self._predicted_inside_arr(
            oids, region, now, horizon, trust_horizon
        ).tolist()

    def _predicted_inside_arr(
        self,
        oids,
        region,
        now: float,
        horizon: float,
        trust_horizon: float,
    ):
        """:meth:`predicted_inside` as a bool ndarray."""
        ostore = self.ostore
        row_of = ostore._row_of
        rows = np.fromiter(
            (row_of[oid] for oid in oids), count=len(oids), dtype=np.int64
        )
        xs, ys, _, _ = ostore.coord_views()
        t = np.frombuffer(ostore.ts, dtype=np.float64)[rows]
        x = xs[rows]
        y = ys[rows]
        vx = np.frombuffer(ostore.vxs, dtype=np.float64)[rows]
        vy = np.frombuffer(ostore.vys, dtype=np.float64)[rows]
        start = np.maximum(now, t)
        end = np.minimum(now + horizon, t + trust_horizon)
        # An empty window is an unconditional miss; the clip below may
        # see a reversed segment on those lanes, but ``ok`` only ever
        # clears, never sets.
        ok = end >= start
        ds = start - t
        de = end - t
        sx = x + vx * ds
        sy = y + vy * ds
        dx = (x + vx * de) - sx
        dy = (y + vy * de) - sy
        t0 = np.zeros(len(rows))
        t1 = np.ones(len(rows))
        with np.errstate(divide="ignore", invalid="ignore"):
            for p, q in (
                (-dx, sx - region.min_x),
                (dx, region.max_x - sx),
                (-dy, sy - region.min_y),
                (dy, region.max_y - sy),
            ):
                pz = p == 0.0
                ok &= ~(pz & (q < 0.0))
                r = q / p  # junk on pz lanes; masked out below
                neg = p < 0.0
                ok &= ~(neg & (r > t1))
                pos = p > 0.0
                ok &= ~(pos & (r < t0))
                np.copyto(t0, r, where=neg & (r > t0))
                np.copyto(t1, r, where=pos & (r < t1))
        return ok

    # ------------------------------------------------------------------
    # Columnar predictive answers
    # ------------------------------------------------------------------

    def invalidate_answer(self, qid: int) -> None:
        """Drop ``qid``'s sorted answer array.  Called by the engine
        whenever it mutates an answer outside the array paths (object
        removals, query unregistration/moves, scalar predictive
        refreshes, k-NN re-solves) — the next reader rebuilds the
        array from the live set."""
        self.answers.invalidate(qid)

    def answer_view(self, qid: int, live) -> frozenset[int] | None:
        """``qid``'s answer served from the cached sorted array, or
        ``None`` when no coherent array is cached (caller falls back
        to the live set).  This is the read path external consumers
        (oracle, recovery, ``answer_of``) exercise, so a stale array —
        a missed invalidation — surfaces as a visible divergence
        instead of silent drift."""
        arr = self.answers.peek(qid)
        if arr is None or len(arr) != len(live):
            return None
        return frozenset(arr.tolist())

    def refresh_predictive(
        self,
        qid: int,
        query,
        ordered,
        now: float,
        horizon: float,
        trust_horizon: float,
        updates,
    ) -> None:
        """Vectorized predictive refresh for one query (no flip
        schedule).  ``ordered`` is the ascending candidate list and is
        always a superset of the current answer (the engine seeds
        candidates with the answer itself), so the new answer is
        exactly ``ordered[inside]``.

        Membership deltas come from one ``searchsorted`` of the
        candidates against the stored sorted answer array; changed
        memberships are applied to the live ``answer``/``answered``
        sets and emitted ascending by oid — precisely the serial
        loop's order.
        """
        inside = self._predicted_inside_arr(
            ordered, query.region, now, horizon, trust_horizon
        )
        answer = query.answer
        candidates = np.asarray(ordered, dtype=np.int64)
        # The store's length check doubles as the defensive rebuild for
        # any missed invalidation hook (counted as a miss).
        stored = self.answers.get(qid, answer)
        if len(stored):
            pos = np.searchsorted(stored, candidates)
            pos[pos == len(stored)] = len(stored) - 1
            was = stored[pos] == candidates
        else:
            was = np.zeros(len(candidates), dtype=bool)
        changed = np.flatnonzero(inside != was)
        if len(changed):
            objects = self.objects
            push = updates.push
            entering = inside[changed].tolist()
            for i, entered in zip(changed.tolist(), entering):
                oid = ordered[i]
                if entered:
                    answer.add(oid)
                    objects[oid].answered.add(qid)
                    push(qid, oid, 1)
                else:
                    answer.discard(oid)
                    objects[oid].answered.discard(qid)
                    push(qid, oid, -1)
        self.answers.put(qid, candidates[inside])

    def _sweep_candidates(self) -> frozenset[int] | set[int]:
        """Oids that can possibly fail the sweep's ``answered <= seen``
        guard — everything else provably passes and is skipped unchecked.

        A member's ``answered`` set holds, at sweep time, (a) range
        memberships, (b) predictive memberships, (c) k-NN memberships.
        Range memberships are correct as of the member's last evaluated
        position (query moves update answers immediately; this batch's
        pair corrections are applied before any sweep runs), and a range
        query containing an **in-world** point always has a candidate
        entry in that point's cell — so for members whose current *and*
        previous coordinates lie inside the world, every range qid in
        ``answered`` appears in the cohort's ``seen`` set, as does every
        predictive qid (``static_qids`` carries both kinds).  The only
        states on which the sweep body can *act* are therefore members
        of some k-NN answer (k-NN qids are never in ``seen``) and
        objects whose old or new coordinates fall outside the world
        (grid clamping breaks the cell-coverage argument for them).
        Predictive memberships may also escape ``seen`` — a footprint
        need not cover its members' cells — but the sweep body skips
        ``KIND_PREDICTIVE`` qids outright, so running it on a state
        whose only escaped qids are predictive is a provable no-op and
        those members are deliberately left out.  The golden-
        equivalence suites drive all of these paths — off-world
        reports, query moves, every query kind — against the serial
        stream byte-for-byte.
        """
        ostore = self.ostore
        world = self.grid.world
        knn_members = self._knn_member_union()
        special: set[int] = set()
        xs, ys, old_xs, old_ys = ostore.coord_views()
        # NaN old coordinates (new objects) compare False on every
        # bound: a fresh object is never off-world-stale.
        with np.errstate(invalid="ignore"):
            off = (
                (xs < world.min_x)
                | (xs > world.max_x)
                | (ys < world.min_y)
                | (ys > world.max_y)
                | (old_xs < world.min_x)
                | (old_xs > world.max_x)
                | (old_ys < world.min_y)
                | (old_ys > world.max_y)
            )
        off_rows = np.flatnonzero(off)
        if len(off_rows):
            oid_col = np.frombuffer(ostore.oids, dtype=np.int64)
            special.update(oid_col[off_rows].tolist())
        if not special:
            return knn_members
        special.update(knn_members)
        return special

    def _knn_member_union(self) -> frozenset[int]:
        """Every oid in some k-NN answer, via the answer store's sorted
        arrays — one concatenate + unique over cached rows instead of
        per-qid set unions every batch.  The union itself is cached
        against the (query store, answer store) version pair; k-NN
        answer mutations always run an ``invalidate_answer`` hook, so
        any membership change bumps the answer-store version."""
        qstore = self.qstore
        cached = self._knn_union_cache
        key = (qstore.version, self.answers.version)
        if cached is not None and cached[0] == key:
            return cached[1]
        queries = self.queries
        answers = self.answers
        kind_col = np.frombuffer(qstore.kinds, dtype=np.int8)
        rows = np.flatnonzero(kind_col == KIND_KNN)
        if len(rows):
            qid_col = np.frombuffer(qstore.qids, dtype=np.int64)
            parts = [
                answers.get(qid, queries[qid].answer)
                for qid in qid_col[rows].tolist()
            ]
            union = frozenset(np.unique(np.concatenate(parts)).tolist())
        else:
            union = frozenset()
        # Key re-read after the build: the gets above may have bumped
        # the answer-store version while rebuilding missing rows.
        self._knn_union_cache = ((qstore.version, self.answers.version), union)
        return union

    # ------------------------------------------------------------------
    # Ordered emission + answered sweep
    # ------------------------------------------------------------------

    def _emit(
        self, metas, ends, qids, oids, signs, arrays, special, updates, knn_dirty
    ) -> None:
        """Bulk set maintenance + spliced emission.

        Every object belongs to exactly one transition cohort per
        batch, so cohort *i*'s pair emissions touch membership atoms —
        (query, member) pairs — disjoint from every other cohort's
        emissions and sweeps.  Applying the whole batch's answer /
        answered changes up front (grouped by query and by object,
        C-speed bulk set operations) therefore leaves each cohort's
        answered sweep reading exactly the state it would have seen
        under strict serial interleaving.  The update stream itself is
        reassembled in serial order **as columns**: the kernel's
        qid/oid/sign lists splice straight into the batch via
        ``extend_columns`` (zero per-pair allocation), with each
        cohort's sweep output spliced in right after its pair span.
        """
        queries = self.queries
        if arrays is not None:
            qid_arr, oid_arr, _ = arrays
            # One argsort per side yields contiguous per-id groups; each
            # group applies as a single C-speed symmetric difference.
            # Signs are not needed: a positive pair's object is provably
            # absent from the answer and a negative pair's present (the
            # very invariant that lets the kernel recompute ``in_old``
            # geometrically), so toggling is exactly add-the-positives /
            # remove-the-negatives, and a batch's atoms are distinct.
            for id_arr, payload_arr, is_answer in (
                (qid_arr, oid_arr, True),
                (oid_arr, qid_arr, False),
            ):
                order = np.argsort(id_arr)
                k_sorted = id_arr[order]
                cuts = (
                    np.flatnonzero(k_sorted[1:] != k_sorted[:-1]) + 1
                ).tolist()
                payload = payload_arr[order].tolist()
                starts = [0, *cuts]
                stops = [*cuts, len(payload)]
                group_keys = k_sorted[starts].tolist()
                if is_answer:
                    for k, s, e in zip(group_keys, starts, stops):
                        queries[k].answer.symmetric_difference_update(
                            payload[s:e]
                        )
                else:
                    objects = self.objects
                    for k, s, e in zip(group_keys, starts, stops):
                        objects[k].answered.symmetric_difference_update(
                            payload[s:e]
                        )
        qstore = self.qstore
        qrow_of = qstore._row_of
        kinds = qstore.kinds
        min_xs = qstore.min_xs
        min_ys = qstore.min_ys
        max_xs = qstore.max_xs
        max_ys = qstore.max_ys
        splices: list[tuple[int, list, list, list]] = []
        if not special:
            # No k-NN answer members and no off-world objects: every
            # sweep body would be a no-op (see _sweep_candidates).
            metas = ()
        for (states, seen), end in zip(metas, ends):
            chunk = None
            for state in states:
                answered = state.answered
                if not answered or state.oid not in special:
                    continue
                if answered <= seen:
                    continue
                location = state.location
                x = location.x
                y = location.y
                oid = state.oid
                for qid in sorted(answered - seen):
                    qrow = qrow_of[qid]
                    kind = kinds[qrow]
                    if kind == KIND_RANGE:
                        query = queries[qid]
                        inside = (
                            min_xs[qrow] <= x <= max_xs[qrow]
                            and min_ys[qrow] <= y <= max_ys[qrow]
                        )
                        if inside:
                            if oid not in query.answer:
                                query.answer.add(oid)
                                answered.add(qid)
                                if chunk is None:
                                    chunk = ([], [], [])
                                chunk[0].append(qid)
                                chunk[1].append(oid)
                                chunk[2].append(1)
                        elif oid in query.answer:
                            query.answer.discard(oid)
                            answered.discard(qid)
                            if chunk is None:
                                chunk = ([], [], [])
                            chunk[0].append(qid)
                            chunk[1].append(oid)
                            chunk[2].append(-1)
                    elif kind != KIND_PREDICTIVE:
                        knn_dirty.add(qid)
            if chunk is not None:
                splices.append((end, *chunk))
        if splices:
            extend_columns = updates.extend_columns
            prev = 0
            for end_pos, c_qids, c_oids, c_signs in splices:
                if end_pos > prev:
                    extend_columns(
                        qids[prev:end_pos],
                        oids[prev:end_pos],
                        signs[prev:end_pos],
                    )
                    prev = end_pos
                extend_columns(c_qids, c_oids, c_signs)
            if prev < len(qids):
                extend_columns(qids[prev:], oids[prev:], signs[prev:])
        else:
            updates.extend_columns(qids, oids, signs)
