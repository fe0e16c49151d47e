"""Mutable grid index over objects and queries.

One :class:`GridIndex` instance is the heart of the location-aware
server: it holds, per cell, the identifiers of the objects located in the
cell and of the queries whose region overlaps the cell.  Auxiliary hash
indexes map each identifier back to its current cell set, which is what
lets an update locate (and clear) the *old* position without a spatial
search — the role the paper assigns to its "object index" and "query
index" (compare the LUR-tree's linked list and the FUR-tree's hash
table).
"""

from __future__ import annotations

import heapq
from collections.abc import Set
from dataclasses import dataclass, field

from repro.geometry import Point, Rect
from repro.grid.partition import Grid
from repro.obs import MetricsRegistry

#: Upper bounds for the cell-occupancy histogram (objects per cell).
OCCUPANCY_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0
)

#: Shared sentinel returned for empty cells by the zero-copy retrieval
#: methods.  Immutable, so accidental mutation of "no residents" fails
#: loudly instead of corrupting a shared object.
_EMPTY: frozenset[int] = frozenset()


@dataclass(slots=True)
class CellBucket:
    """The contents of one grid cell: resident objects and overlapping queries."""

    objects: set[int] = field(default_factory=set)
    queries: set[int] = field(default_factory=set)

    def is_empty(self) -> bool:
        return not self.objects and not self.queries


class GridIndex:
    """Cell buckets plus identifier->cells auxiliary indexes.

    The index is intentionally ignorant of object/query *state* (answer
    lists, regions, timestamps live in the engine); it deals purely in
    identifiers and cell memberships, which keeps re-indexing on updates
    cheap and keeps a single source of truth for each piece of state.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._cells: dict[int, CellBucket] = {}
        self._object_cells: dict[int, frozenset[int]] = {}
        self._query_cells: dict[int, frozenset[int]] = {}
        # Reusable clipping buffer for the *_overlapping retrieval
        # methods (see Grid.cells_overlapping_into); makes them
        # allocation-free but non-reentrant.
        self._scratch_cells: list[int] = []
        # Per-cell sorted qid tuples, built lazily and invalidated only
        # when that cell's query membership changes.  Backs the
        # columnar evaluator's candidate resolution, so repeated reads
        # of a stable cell are a dict hit, not a rebuild.
        self._cell_query_tuples: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def object_count(self) -> int:
        return len(self._object_cells)

    @property
    def query_count(self) -> int:
        return len(self._query_cells)

    @property
    def populated_cell_count(self) -> int:
        return len(self._cells)

    def contains_object(self, oid: int) -> bool:
        return oid in self._object_cells

    def contains_query(self, qid: int) -> bool:
        return qid in self._query_cells

    def object_cells(self, oid: int) -> frozenset[int]:
        """The cells currently holding object ``oid``."""
        return self._object_cells[oid]

    def query_cells(self, qid: int) -> frozenset[int]:
        """The cells currently overlapped by query ``qid``."""
        return self._query_cells[qid]

    def bucket(self, cell: int) -> CellBucket | None:
        """The bucket for ``cell``, or ``None`` when the cell is empty."""
        return self._cells.get(cell)

    # ------------------------------------------------------------------
    # Object side
    # ------------------------------------------------------------------

    def place_object(self, oid: int, cells: frozenset[int]) -> None:
        """Insert or move object ``oid`` so it occupies exactly ``cells``.

        A plain moving object occupies one cell (its location's home
        cell); a predictive object occupies every cell its trajectory MBR
        overlaps.
        """
        if not cells:
            raise ValueError(f"object {oid} must occupy at least one cell")
        old = self._object_cells.get(oid, frozenset())
        for cell in old - cells:
            self._remove_member(cell, oid, is_query=False)
        for cell in cells - old:
            self._cells.setdefault(cell, CellBucket()).objects.add(oid)
        self._object_cells[oid] = cells

    def place_object_at(self, oid: int, location: Point) -> None:
        """Convenience: place a point object at ``location``."""
        self.place_object(oid, frozenset((self.grid.cell_of(location),)))

    def move_point_object(self, oid: int, old_cell: int, new_cell: int) -> None:
        """Hot-path variant of :meth:`place_object` for the common
        single-cell move.  The caller guarantees ``oid`` currently
        occupies exactly ``{old_cell}``; no-op when the cell is unchanged.
        """
        if old_cell == new_cell:
            return
        self._remove_member(old_cell, oid, is_query=False)
        self._cells.setdefault(new_cell, CellBucket()).objects.add(oid)
        self._object_cells[oid] = frozenset((new_cell,))

    def bulk_drain_points(self, cell: int, oids: "list[int]") -> None:
        """Remove a batch of departing point objects from ``cell``'s
        bucket (batch ingest's per-old-cell pass).

        The caller guarantees every member currently occupies exactly
        ``{cell}`` and re-homes each one through a matching
        :meth:`bulk_fill_points` call in the same round; footprints are
        left to that call.  The bucket is reclaimed if emptied, exactly
        like :meth:`_remove_member`.
        """
        cells = self._cells
        bucket = cells[cell]
        bucket.objects.difference_update(oids)
        if bucket.is_empty():
            del cells[cell]

    def bulk_fill_points(self, cell: int, oids: "list[int]") -> None:
        """Insert a batch of arriving point objects into ``cell``'s
        bucket (batch ingest's per-new-cell pass: brand-new objects and
        drained movers alike).

        One bucket lookup and one set union for the whole batch, and
        every member shares a single ``frozenset`` footprint —
        ``dict.fromkeys`` keeps the assignment loop in C.
        """
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = CellBucket()
        bucket.objects.update(oids)
        self._object_cells.update(dict.fromkeys(oids, frozenset((cell,))))

    def remove_object(self, oid: int) -> None:
        """Remove object ``oid`` entirely; unknown ids raise ``KeyError``."""
        cells = self._object_cells.pop(oid, None)
        if cells is None:
            raise KeyError(f"object {oid} is not indexed")
        for cell in cells:
            self._remove_member(cell, oid, is_query=False)

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------

    def place_query(self, qid: int, cells: frozenset[int]) -> None:
        """Insert or move query ``qid`` so it overlaps exactly ``cells``."""
        if not cells:
            raise ValueError(f"query {qid} must overlap at least one cell")
        old = self._query_cells.get(qid, frozenset())
        tuples = self._cell_query_tuples
        for cell in old - cells:
            self._remove_member(cell, qid, is_query=True)
        for cell in cells - old:
            self._cells.setdefault(cell, CellBucket()).queries.add(qid)
            tuples.pop(cell, None)
        self._query_cells[qid] = cells

    def place_query_region(self, qid: int, region: Rect) -> None:
        """Convenience: clip a rectangular query region onto the grid.

        A region that has drifted entirely outside the world still needs
        a home (moving queries follow their clients off the map edge);
        it is clamped to the cell nearest its center.
        """
        cells = self.grid.cells_overlapping_set(region)
        if not cells:
            cells = frozenset((self.grid.cell_of(region.center),))
        self.place_query(qid, cells)

    def remove_query(self, qid: int) -> None:
        """Remove query ``qid`` entirely; unknown ids raise ``KeyError``."""
        cells = self._query_cells.pop(qid, None)
        if cells is None:
            raise KeyError(f"query {qid} is not indexed")
        for cell in cells:
            self._remove_member(cell, qid, is_query=True)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def objects_in_cell(self, cell: int) -> Set[int]:
        """The objects resident in ``cell`` — a zero-copy live view.

        Aliasing contract: the returned set is the index's own bucket
        storage (or a shared immutable empty sentinel).  It reflects
        subsequent index mutations, MUST NOT be mutated by the caller,
        and must be snapshotted (``set(...)``) before being retained
        across any ``place_*`` / ``remove_*`` call.  The bulk-evaluation
        hot path reads millions of these per batch; copying defensively
        here is what the cell-batched pipeline removed.
        """
        bucket = self._cells.get(cell)
        return bucket.objects if bucket else _EMPTY

    def queries_in_cell(self, cell: int) -> Set[int]:
        """The queries overlapping ``cell`` — a zero-copy live view.

        Same aliasing contract as :meth:`objects_in_cell`.
        """
        bucket = self._cells.get(cell)
        return bucket.queries if bucket else _EMPTY

    def objects_overlapping(self, rect: Rect) -> set[int]:
        """Candidate objects: all objects registered in cells touching ``rect``.

        Candidates still need an exact geometric check by the caller —
        a cell may extend well beyond ``rect``.  The returned set is a
        fresh copy (callers may mutate it freely).
        """
        found: set[int] = set()
        cells = self._cells
        for cell in self.grid.cells_overlapping_into(rect, self._scratch_cells):
            bucket = cells.get(cell)
            if bucket:
                found.update(bucket.objects)
        return found

    def queries_overlapping(self, rect: Rect) -> set[int]:
        """Candidate queries whose clipped cells touch ``rect`` (fresh copy)."""
        found: set[int] = set()
        cells = self._cells
        for cell in self.grid.cells_overlapping_into(rect, self._scratch_cells):
            bucket = cells.get(cell)
            if bucket:
                found.update(bucket.queries)
        return found

    def queries_colocated_with_object(self, oid: int) -> set[int]:
        """Queries sharing at least one cell with object ``oid``.

        These are exactly the paper's "candidate queries that can
        intersect with the new location of O".
        """
        found: set[int] = set()
        for cell in self._object_cells[oid]:
            bucket = self._cells.get(cell)
            if bucket:
                found.update(bucket.queries)
        return found

    def cell_query_tuple(self, cell: int) -> tuple[int, ...]:
        """The qids overlapping ``cell`` as a sorted, cached tuple.

        Built on first access and invalidated per cell only when a
        query is placed into or removed from that cell, so a stable
        cell costs one dict hit per access no matter how many batches
        read it.  The tuple is immutable and safe to retain.
        """
        cached = self._cell_query_tuples.get(cell)
        if cached is None:
            bucket = self._cells.get(cell)
            cached = (
                tuple(sorted(bucket.queries))
                if bucket is not None and bucket.queries
                else ()
            )
            self._cell_query_tuples[cell] = cached
        return cached

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def sample_occupancy(
        self, registry: MetricsRegistry, top_k: int = 5
    ) -> None:
        """Record the grid's occupancy shape into ``registry``.

        Observes every populated cell's object count into the
        ``grid_cell_occupancy`` histogram (cumulative across samples —
        the engine samples once per evaluation), refreshes the
        ``grid_populated_cells`` / ``grid_indexed_objects`` /
        ``grid_indexed_queries`` gauges, and publishes the ``top_k``
        hottest cells as ``grid_hot_cell_occupancy{rank=...}`` plus the
        matching ``grid_hot_cell_id{rank=...}`` — the operator's view of
        skew (a mis-sized grid shows up as a few enormous cells).

        One pass over populated cells, no allocation beyond the top-k
        heap; skipped entirely under a disabled (null) registry.
        """
        if not registry.enabled:
            return
        histogram = registry.histogram(
            "grid_cell_occupancy", buckets=OCCUPANCY_BUCKETS
        )
        observe = histogram.observe
        hottest: list[tuple[int, int]] = []  # min-heap of (count, cell)
        heap_push = heapq.heappush
        heap_replace = heapq.heapreplace
        for cell, bucket in self._cells.items():
            n = len(bucket.objects)
            if not n:
                continue
            observe(n)
            if len(hottest) < top_k:
                heap_push(hottest, (n, cell))
            elif n > hottest[0][0]:
                heap_replace(hottest, (n, cell))
        registry.gauge("grid_populated_cells").set(len(self._cells))
        registry.gauge("grid_indexed_objects").set(len(self._object_cells))
        registry.gauge("grid_indexed_queries").set(len(self._query_cells))
        for rank, (n, cell) in enumerate(
            sorted(hottest, key=lambda item: (-item[0], item[1]))
        ):
            labels = {"rank": str(rank)}
            registry.gauge("grid_hot_cell_occupancy", labels=labels).set(n)
            registry.gauge("grid_hot_cell_id", labels=labels).set(cell)
        # Ranks beyond today's populated count must not show stale cells.
        for rank in range(len(hottest), top_k):
            labels = {"rank": str(rank)}
            registry.gauge("grid_hot_cell_occupancy", labels=labels).set(0.0)
            registry.gauge("grid_hot_cell_id", labels=labels).set(-1.0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _remove_member(self, cell: int, ident: int, is_query: bool) -> None:
        bucket = self._cells[cell]
        if is_query:
            bucket.queries.discard(ident)
            self._cell_query_tuples.pop(cell, None)
        else:
            bucket.objects.discard(ident)
        if bucket.is_empty():
            # Reclaim empty buckets so a sparse world stays sparse.
            del self._cells[cell]
