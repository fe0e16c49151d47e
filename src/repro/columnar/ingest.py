"""Vectorized report-buffer ingest (the engine's phase 5a).

The serial ``IncrementalEngine._group_reports`` walks the report buffer
one object at a time: home-cell arithmetic, old-cell lookup through the
grid's auxiliary hash index, a per-object columnar-store write, a
per-object grid bucket move, and a dict append into its transition
cohort.  At 100K reports that loop is the last major serial phase of
the columnar pipeline.  :class:`BatchIngest` replaces it with a few
array passes:

* **home cells** for the entire buffer via the shared batch kernel
  (:func:`repro.grid.cellmath.point_cells_batch` — bit-identical to the
  scalar ``Grid.cell_of`` clamp arithmetic);
* **old cells** gathered from a dense ``oid -> cell`` int64 column kept
  in lockstep with the grid index (sentinels for "not indexed" and
  "multi-cell footprint"), replacing 100K dict lookups with one fancy
  index;
* **transition cohorts** recovered by one ``lexsort`` over
  ``(key, oid)`` with group-boundary detection, where ``key`` encodes
  ``(old_cell, new_cell)``; cohorts are emitted in first-occurrence
  order (``minimum.reduceat`` over the original positions), which is
  exactly the serial dicts' insertion order;
* **grid reassignment** in one pass per touched *cell* via
  :meth:`~repro.grid.index.GridIndex.bulk_drain_points` /
  ``bulk_fill_points`` — every old cell is drained of its departing
  members and every new cell filled with its arrivals in a single set
  operation each, instead of two set operations per object (or even
  per transition);
* **columnar store writes** for the whole batch through
  :meth:`~repro.columnar.store.ColumnarObjectStore.batch_apply`.

The predictive **minority** — reports carrying velocity while
prediction is enabled, and objects currently holding a multi-cell
footprint — falls out to a scalar loop that replicates the serial
branch body verbatim.  This split is exact, not approximate: minority
reports are precisely the ones the serial loop routes into
``set_groups``, and majority reports precisely the ones routed into
``point_groups``, so batching one while looping the other preserves
both dicts' first-occurrence orders.

Cohort member lists come out oid-sorted rather than in report order.
That is safe because every consumer sorts members by oid before any
emission (``_evaluate_cohort`` and the columnar plan builder both do).

Sorted-order equivalence is pinned by the golden ingest tests
(``tests/columnar/test_ingest_golden.py``) across every pipeline.

Like the rest of this package, the module imports nothing from
``repro.core`` — the engine injects its state class and sentinels.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter

import numpy as np

from repro.grid.cellmath import point_cells_batch

#: C-level column extractors for the report buffer's (location,
#: velocity, t) tuples.
_GET_X = attrgetter("x")
_GET_Y = attrgetter("y")
_GET_VX = attrgetter("vx")
_GET_VY = attrgetter("vy")
_GET_T = itemgetter(2)

#: Dense-column sentinel: oid currently has no grid placement.
NOT_INDEXED = -1
#: Dense-column sentinel: oid occupies a multi-cell (predictive)
#: footprint; its exact cells live in the grid index's hash index.
MULTI_CELL = -2

#: The dense column is worth its memory only while oids are reasonably
#: dense.  If the largest oid exceeds this multiple of the live
#: population (plus slack for small worlds), batch ingest disables
#: itself for the engine's lifetime and the serial path takes over.
_MAX_SPARSITY = 8
_SPARSITY_SLACK = 65_536


def _cell_runs(cells_sorted):
    """Group boundaries of a sorted cell array: parallel lists of
    (cell id, run start, run stop) for zipping."""
    n = len(cells_sorted)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(cells_sorted[1:], cells_sorted[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    stops = np.append(starts[1:], n)
    return cells_sorted[starts].tolist(), starts.tolist(), stops.tolist()


class BatchIngest:
    """Batch phase 5a for one engine: owns the dense ``oid -> cell``
    column and turns a report buffer into the serial pipelines' cohort
    structures in a few array passes."""

    __slots__ = ("engine", "state_cls", "no_cells", "enabled", "_cell_by_oid")

    def __init__(self, engine, state_cls, no_cells) -> None:
        self.engine = engine
        self.state_cls = state_cls
        self.no_cells = no_cells
        # Once disabled (a pathologically sparse oid space), batch
        # ingest stays off for the engine's lifetime: the serial path
        # does not maintain the dense column, so there is no consistent
        # state to re-enable from.
        self.enabled = True
        self._cell_by_oid = None

    # ------------------------------------------------------------------
    # Dense-column maintenance
    # ------------------------------------------------------------------

    def forget(self, oid: int) -> None:
        """Mark ``oid`` unindexed (the engine's removal phase)."""
        column = self._cell_by_oid
        if column is not None and 0 <= oid < len(column):
            column[oid] = NOT_INDEXED

    def cell_hint(self, oid: int) -> int | None:
        """The dense column's view of ``oid`` (tests/invariants only)."""
        column = self._cell_by_oid
        if column is None or not 0 <= oid < len(column):
            return None
        return int(column[oid])

    def _ensure_capacity(self, max_oid: int, population: int) -> bool:
        """Grow the dense column to cover ``max_oid``; False = too sparse."""
        needed = max_oid + 1
        column = self._cell_by_oid
        if column is not None and needed <= len(column):
            return True
        if needed > _MAX_SPARSITY * max(population, 1) + _SPARSITY_SLACK:
            return False
        grown = max(needed, 1024)
        if column is not None:
            grown = max(grown, (len(column) * 3) // 2)
        fresh = np.full(grown, NOT_INDEXED, dtype=np.int64)
        if column is not None:
            fresh[: len(column)] = column
        self._cell_by_oid = fresh
        return True

    # ------------------------------------------------------------------
    # The batch kernel
    # ------------------------------------------------------------------

    def group(self, reports):
        """Apply and group one report buffer.

        Returns ``(point_groups, set_groups)`` — the exact structures
        ``_group_reports`` builds (cohort members oid-sorted) — or
        ``None`` when the kernel cannot run (caller falls back to the
        serial loop).  Clears the buffer on success, mutates nothing on
        ``None``.
        """
        if not self.enabled or not reports:
            return None
        engine = self.engine
        objects = engine.objects
        oid_list = list(reports.keys())
        oid_arr = np.asarray(oid_list, dtype=np.int64)
        # Capacity/sparsity guard runs before any state mutation so a
        # fallback round leaves the engine untouched for the serial loop.
        if int(oid_arr.min()) < 0 or not self._ensure_capacity(
            int(oid_arr.max()), len(objects) + len(oid_list)
        ):
            self.enabled = False
            return None

        # --- extraction.  Coordinate columns come straight out of the
        # buffer via C-level passes (list comprehensions + fromiter over
        # attrgetter maps — no per-report Python frame); the one
        # remaining per-report Python loop applies each report to its
        # ObjectState, exactly as the serial loop does.
        count = len(oid_list)
        vals = reports.values()
        locs = [v[0] for v in vals]
        vels = [v[1] for v in vals]
        f64 = np.float64
        x_arr = np.fromiter(map(_GET_X, locs), f64, count=count)
        y_arr = np.fromiter(map(_GET_Y, locs), f64, count=count)
        vx_arr = np.fromiter(map(_GET_VX, vels), f64, count=count)
        vy_arr = np.fromiter(map(_GET_VY, vels), f64, count=count)
        t_arr = np.fromiter(map(_GET_T, vals), f64, count=count)
        state_cls = self.state_cls
        states_buf: list = []
        add_state = states_buf.append
        get_state = objects.get
        for oid, (location, velocity, t) in reports.items():
            state = get_state(oid)
            if state is None:
                state = state_cls(oid, location, velocity, t)
                objects[oid] = state
            else:
                state.location = location
                state.velocity = velocity
                state.t = t
            add_state(state)
        reports.clear()

        grid = engine.grid
        new_cells = point_cells_batch(x_arr, y_arr, grid)
        column = self._cell_by_oid
        old_cells = column[oid_arr]

        # --- majority/minority split.  Minority == exactly the reports
        # the serial loop routes into set_groups: moving objects while
        # prediction is enabled, plus anything currently multi-cell.
        if engine.prediction_horizon > 0:
            minority = (vx_arr != 0.0) | (vy_arr != 0.0)
            minority |= old_cells == MULTI_CELL
        else:
            minority = old_cells == MULTI_CELL
        minority_idx = np.flatnonzero(minority)
        if len(minority_idx):
            majority_idx = np.flatnonzero(~minority)
            m_oid = oid_arr[majority_idx]
            m_old = old_cells[majority_idx]
            m_new = new_cells[majority_idx]
        else:
            majority_idx = None
            m_oid = oid_arr
            m_old = old_cells
            m_new = new_cells

        ostore = engine._ostore
        if ostore is not None and len(m_oid):
            if majority_idx is None:
                ostore.batch_apply(
                    m_oid, x_arr, y_arr, vx_arr, vy_arr, t_arr, m_new
                )
            else:
                ostore.batch_apply(
                    m_oid,
                    x_arr[majority_idx],
                    y_arr[majority_idx],
                    vx_arr[majority_idx],
                    vy_arr[majority_idx],
                    t_arr[majority_idx],
                    m_new,
                )

        # --- cohort grouping: sort by (transition key, oid), find the
        # group boundaries, emit groups by first occurrence in report
        # order (== the serial dict's insertion order).
        point_groups: dict = {}
        set_groups: dict = {}
        index = engine.index
        if len(m_oid):
            n_cells = grid.n * grid.n
            key = (m_old + np.int64(1)) * np.int64(n_cells) + m_new
            order = np.lexsort((m_oid, key))
            sorted_key = key[order]
            boundary = np.empty(len(sorted_key), dtype=bool)
            boundary[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            stops = np.append(starts[1:], len(sorted_key))
            # `order` holds original majority positions, so the minimum
            # per group is its first occurrence in report order.
            first_seen = np.minimum.reduceat(order, starts)
            group_keys = sorted_key[starts]
            # Permute the per-group columns into emission order once, so
            # the loop below zips plain lists instead of re-indexing.
            perm = np.argsort(first_seen, kind="stable")
            old_of_group = ((group_keys // n_cells) - 1)[perm].tolist()
            new_of_group = (group_keys % n_cells)[perm].tolist()
            starts_list = starts[perm].tolist()
            stops_list = stops[perm].tolist()
            # Materialise the member states in sorted order with one
            # object-array gather: per-group members are then plain list
            # slices instead of 100K individual indexed lookups.
            states_arr = np.empty(len(states_buf), dtype=object)
            states_arr[:] = states_buf
            if majority_idx is None:
                states_sorted = states_arr[order].tolist()
            else:
                states_sorted = states_arr[majority_idx][order].tolist()
            # The whole cohort dict is assembled in C: transition keys
            # zipped with member slices, in first-occurrence order.
            slices = list(map(slice, starts_list, stops_list))
            point_groups = dict(
                zip(
                    zip(old_of_group, new_of_group),
                    map(states_sorted.__getitem__, slices),
                )
            )

            # --- grid reassignment, one pass per *cell* rather than per
            # transition: drain every old cell of its departing members,
            # then fill every new cell with its arrivals (new objects
            # and movers alike).  Net bucket/footprint state is
            # identical to per-transition moves — set operations
            # commute and stay-put members never leave their bucket —
            # but the number of Python-level set operations drops from
            # two per transition to one per touched cell.
            sorted_old = m_old[order]
            sorted_new = m_new[order]
            moved = sorted_old != sorted_new
            if moved.any():
                oid_sorted_arr = m_oid[order]
                drain = index.bulk_drain_points
                fill = index.bulk_fill_points
                dep_mask = moved & (sorted_old != np.int64(NOT_INDEXED))
                if dep_mask.any():
                    # Already sorted by (old, new), so departures are
                    # contiguous runs of old cell.
                    dep_old = sorted_old[dep_mask]
                    dep_oids = oid_sorted_arr[dep_mask].tolist()
                    for cell, lo, hi in zip(*_cell_runs(dep_old)):
                        drain(cell, dep_oids[lo:hi])
                arr_new = sorted_new[moved]
                arr_order = np.argsort(arr_new, kind="stable")
                arr_new = arr_new[arr_order]
                arr_oids = oid_sorted_arr[moved][arr_order].tolist()
                for cell, lo, hi in zip(*_cell_runs(arr_new)):
                    fill(cell, arr_oids[lo:hi])
            column[m_oid] = m_new

        # --- minority fallback: the serial branch bodies verbatim, in
        # report order (minority_idx is ascending), so set_groups gets
        # the exact serial insertion and member order.
        if len(minority_idx):
            no_cells = self.no_cells
            group_into = engine._group_into
            object_cells = index.object_cells
            predictive_possible = engine.prediction_horizon > 0
            new_cell_list = new_cells.tolist()
            for i in minority_idx.tolist():
                oid = oid_list[i]
                state = states_buf[i]
                location = state.location
                velocity = state.velocity
                known = old_cells[i] != NOT_INDEXED
                if predictive_possible and (
                    velocity.vx != 0.0 or velocity.vy != 0.0
                ):
                    old_fs = object_cells(oid) if known else None
                    new_fs = engine._object_footprint(state)
                    if old_fs != new_fs:
                        index.place_object(oid, new_fs)
                    if ostore is not None:
                        ostore.apply_report(
                            oid,
                            location.x,
                            location.y,
                            velocity.vx,
                            velocity.vy,
                            state.t,
                            grid.cell_of(location),
                        )
                    group_into(
                        set_groups,
                        no_cells if old_fs is None else old_fs,
                        new_fs,
                        state,
                    )
                    column[oid] = (
                        MULTI_CELL if len(new_fs) > 1 else next(iter(new_fs))
                    )
                else:
                    # Was predictive (multi-cell), now stationary.
                    new_cell = new_cell_list[i]
                    old_fs = object_cells(oid)
                    if ostore is not None:
                        ostore.apply_report(
                            oid,
                            location.x,
                            location.y,
                            velocity.vx,
                            velocity.vy,
                            state.t,
                            new_cell,
                        )
                    new_fs = frozenset((new_cell,))
                    index.place_object(oid, new_fs)
                    group_into(set_groups, old_fs, new_fs, state)
                    column[oid] = new_cell

        return point_groups, set_groups
