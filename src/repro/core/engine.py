"""The shared, incremental continuous-query engine.

This is the paper's contribution (Section 3): one uniform grid holds
both objects and queries ("queries are indexed in the same way as data");
location reports and query movements are *buffered* and evaluated in
bulk; each evaluation emits only positive/negative updates relative to
the previously reported answers.

Incrementality per query kind:

* **Range** — when a query's region moves from ``A_old`` to ``A_new``,
  answer members outside ``A_new`` produce negative updates, and only
  the difference area ``A_new - A_old`` is searched for positives ("the
  area A_new ∩ A_old does not need to be reevaluated where the query
  result of this area is already reported").  Object moves touch only
  the queries sharing a grid cell with the object's old or new position.
* **k-NN** — maintained as the smallest circle containing the k nearest
  objects.  Object movement marks a k-NN query dirty only when the move
  touches the circle's grid footprint (or the object was an answer
  member); dirty queries are re-solved with an expanding ring search
  around their center and the *answer difference* is emitted.
* **Predictive range** — objects carrying velocity vectors are indexed
  by the grid footprint of their predicted trajectory; a predictive
  query's answer is the set of objects whose extrapolated motion enters
  its region within the query's horizon.  Because the horizon window
  slides with evaluation time, predictive answers must be re-filtered
  from the query's (small) candidate cell set — but only when either
  the candidate set changed (report churn in the footprint cells) or
  the sliding window actually reached the next membership flip time.

Bulk evaluation itself runs as a **cell-batched pipeline** (the paper's
Section 3 point: buffered updates are evaluated as a grid-partition
spatial join, not one at a time).  The batch's object reports are
grouped by their (old cell set → new cell set) transition; each affected
cell's candidate query set is resolved exactly once per evaluation;
range membership checks run over per-cell object cohorts with one sort
per cohort; k-NN dirty-marking and predictive refresh are driven off the
same cohorts.  The seed per-object path is retained as
``pipeline="per-object"`` — it is the semantic reference the golden
equivalence tests and ``benchmarks/bench_bulk_pipeline.py`` compare
against.  ``pipeline="columnar"`` keeps the same cohort grouping but
replaces the per-pair Python loop with numpy batch kernels over
struct-of-arrays mirrors of object and query state
(:mod:`repro.columnar`), emitting a stream byte-identical to
``"cell-batched"``.

Every phase of ``evaluate()`` is wall-clock timed: each phase runs
inside a :class:`repro.obs.Tracer` span (exported to Chrome trace JSON)
whose duration also accumulates into the engine's
``engine_phase_seconds_total{phase=...}`` counters on its
:class:`repro.obs.MetricsRegistry`.  The public ``stats`` property
still returns the familiar :class:`EngineStats` dataclass — now a
snapshot view over those registry instruments.

The engine is single-threaded and in-memory by design: persistence is
layered on by :class:`repro.core.server.LocationAwareServer` through the
storage package, and transport by :mod:`repro.net`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.columnar import (
    KIND_KNN,
    KIND_PREDICTIVE,
    KIND_RANGE,
    MULTI_CELL,
    BatchIngest,
    ColumnarEvaluator,
    ColumnarObjectStore,
    ColumnarQueryStore,
    knn_search_columnar,
)
from repro.core.knn import knn_search
from repro.core.state import (
    KnnQueryState,
    ObjectState,
    PredictiveQueryState,
    QueryKind,
    QueryState,
    RangeQueryState,
)
from repro.core.updates import UpdateBatch
from repro.geometry import Point, Rect, Velocity
from repro.grid import Grid, GridIndex
from repro.obs import (
    NULL_FRESHNESS,
    NULL_RECORDER,
    FlightRecorder,
    FreshnessTracker,
    MetricsRegistry,
    Tracer,
)

DEFAULT_WORLD = Rect(0.0, 0.0, 1.0, 1.0)

#: The valid ``pipeline`` names: the benchmarked default first, then
#: the paper-faithful reference and the numpy batch-kernel pipeline.
PIPELINES = ("cell-batched", "per-object", "columnar")

#: Shared "object is new, no previous cells" sentinel for the batched
#: pipeline's transition grouping.
_NO_CELLS: frozenset[int] = frozenset()


def _by_oid(state: ObjectState) -> int:
    """Sort key for cohort determinism (module-level: no closure rebuild)."""
    return state.oid


class _CellCandidates:
    """One cell's candidate queries, resolved once per evaluation.

    Range queries are flattened to ``(qid, min_x, min_y, max_x, max_y,
    answer)`` tuples (answer sets aliased, mutated in place) and split
    by whether the region fully covers the cell: for a cohort of
    objects that stayed inside the cell, a covering query's membership
    provably cannot change (the member set already equals the cell's
    residents), so ``covering_entries`` is skipped entirely for those
    cohorts.  ``all_qids`` is a snapshot of every query id overlapping
    the cell, used for candidate dedup across a transition's cells and
    for the answered sweep's already-covered test.
    """

    __slots__ = (
        "partial_entries",
        "covering_entries",
        "covering_qids",
        "knn_qids",
        "all_qids",
    )

    def __init__(
        self,
        partial_entries: list[tuple[int, float, float, float, float, set[int]]],
        covering_entries: list[tuple[int, float, float, float, float, set[int]]],
        knn_qids: list[int],
        all_qids: frozenset[int],
    ):
        self.partial_entries = partial_entries
        self.covering_entries = covering_entries
        self.covering_qids = frozenset(entry[0] for entry in covering_entries)
        self.knn_qids = knn_qids
        self.all_qids = all_qids


#: Shared instance for cells with no overlapping queries — in a sparse
#: world most cells are query-free, and building per-cell candidate
#: state for them would dominate small batches.
_NO_CANDIDATES = _CellCandidates([], [], [], _NO_CELLS)

#: The evaluation phases, in execution order.  Keys of
#: ``EngineStats.phase_seconds`` after the first evaluation.
EVALUATION_PHASES = (
    "unregistrations",
    "removals",
    "registrations",
    "query_moves",
    "object_reports",
    "knn_repair",
    "predictive_refresh",
)


@dataclass(slots=True)
class EngineStats:
    """A snapshot of the engine's work counters.

    The integer fields are *work* measures: how many buffered inputs
    each evaluation consumed and how much repair they triggered.
    ``phase_seconds`` adds wall-clock observability: cumulative seconds
    spent in each evaluation phase (keys are ``EVALUATION_PHASES``),
    populated from the first ``evaluate()`` on.  The benchmarks use both
    to explain where time goes; operators would use them to spot hot
    queries and mis-sized grids.

    The live values are registry instruments (``engine_*`` counters on
    :attr:`IncrementalEngine.registry`); :attr:`IncrementalEngine.stats`
    materialises this dataclass from them on every read, so the familiar
    surface survives while exporters see the same numbers.
    """

    evaluations: int = 0
    object_reports: int = 0
    object_removals: int = 0
    query_registrations: int = 0
    query_moves: int = 0
    query_unregistrations: int = 0
    knn_repairs: int = 0
    updates_emitted: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)


class IncrementalEngine:
    """Shared execution + incremental evaluation over one grid.

    Parameters
    ----------
    world:
        The rectangle all locations live in (paper: the unit square).
    grid_size:
        N for the N x N uniform grid.
    prediction_horizon:
        How far (seconds) object trajectories are extrapolated when
        indexing predictive objects.  Every predictive query's horizon
        must fit inside it.
    pipeline:
        ``"cell-batched"`` (default) evaluates buffered object reports
        as per-cell cohorts — candidate queries are resolved once per
        cell transition and membership runs in bulk.  ``"per-object"``
        is the reference path that walks one report at a time; it emits
        the same update *set* per query (order within the object-report
        and predictive phases may differ) and exists for equivalence
        testing and benchmarking.  ``"columnar"`` keeps the
        cell-batched cohort grouping but evaluates the membership pass
        as numpy batch kernels over struct-of-arrays state mirrors
        (:mod:`repro.columnar`); its update stream is byte-identical to
        ``"cell-batched"``.  :data:`PIPELINES` lists the valid names.
    registry:
        The :class:`~repro.obs.MetricsRegistry` carrying the engine's
        counters, phase-second series, and grid-occupancy samples.
        Defaults to a private registry per engine (isolated stats);
        inject one — e.g. :func:`repro.obs.default_registry` — to
        aggregate several components into one exporter.  Pass
        :data:`repro.obs.NULL_REGISTRY` to turn metrics off.
    tracer:
        The :class:`~repro.obs.Tracer` receiving one span per
        evaluation phase.  Defaults to a private bounded tracer; the
        server shares it so cycle/downlink spans nest around the
        engine's.  Pass a :class:`repro.obs.NullTracer` to disable
        trace recording (phase-second counters keep working).

    Every pipeline emits its update stream as an
    :class:`~repro.core.updates.UpdateBatch`.  ``emit_mode`` (always
    ``"batch"``) and ``columnar_backend`` (``"numpy"`` under the
    columnar pipeline, ``None`` otherwise) remain readable as constant
    attributes for callers that record the engine's configuration.
    """

    emit_mode = "batch"

    def __init__(
        self,
        world: Rect = DEFAULT_WORLD,
        grid_size: int = 64,
        prediction_horizon: float = 60.0,
        pipeline: str = "cell-batched",
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        freshness: "FreshnessTracker | None" = None,
        recorder: "FlightRecorder | None" = None,
    ):
        if prediction_horizon < 0:
            raise ValueError(
                f"prediction_horizon must be >= 0, got {prediction_horizon}"
            )
        if pipeline not in PIPELINES:
            raise ValueError(
                f"pipeline must be one of {PIPELINES}, got {pipeline!r}"
            )
        self.columnar_backend = "numpy" if pipeline == "columnar" else None
        self.grid = Grid(world, grid_size)
        self.index = GridIndex(self.grid)
        self.prediction_horizon = prediction_horizon
        self.pipeline = pipeline
        self.now = 0.0
        self.objects: dict[int, ObjectState] = {}
        self.queries: dict[int, QueryState] = {}
        # Buffered inputs, applied in bulk by evaluate().
        self._pending_reports: dict[int, tuple[Point, Velocity, float]] = {}
        self._pending_removals: set[int] = set()
        self._pending_registrations: list[QueryState] = []
        self._pending_moves: dict[int, tuple[object, float]] = {}
        self._pending_unregistrations: set[int] = set()
        # k-NN queries holding fewer than k objects must watch for any
        # population growth, not just movement near their circle.
        self._underfull_knn: set[int] = set()
        # Registered predictive query ids — the refresh phase consults
        # this instead of scanning every query of every kind.
        self._predictive_qids: set[int] = set()
        # Struct-of-arrays mirrors (repro.columnar).  The query store is
        # maintained under every pipeline, so there is one registration
        # path; it costs a few array writes per registration or move,
        # and gives the columnar kernels their bounds arrays with no
        # rebuild.  The object store, the columnar evaluator and batch
        # report ingest only exist under pipeline="columnar".
        self._qstore = ColumnarQueryStore()
        self._knn_qids: set[int] = set()
        self._ostore: ColumnarObjectStore | None = None
        self._columnar_evaluator: ColumnarEvaluator | None = None
        self._batch_ingest: BatchIngest | None = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        # Freshness follows the registry's on/off state unless injected:
        # a NULL_REGISTRY engine must stay on the no-op path end to end
        # (the telemetry overhead gate compares exactly these two modes).
        if freshness is not None:
            self.freshness = freshness
        elif self.registry.enabled:
            self.freshness = FreshnessTracker(self.registry)
        else:
            self.freshness = NULL_FRESHNESS
        # The flight recorder is armed explicitly (chaos harness, tests,
        # the overhead benchmark's "on" arm); default is the no-op ring.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        counter = self.registry.counter
        self._m_evaluations = counter("engine_evaluations_total")
        self._m_object_reports = counter("engine_object_reports_total")
        self._m_object_removals = counter("engine_object_removals_total")
        self._m_query_registrations = counter("engine_query_registrations_total")
        self._m_query_moves = counter("engine_query_moves_total")
        self._m_query_unregistrations = counter(
            "engine_query_unregistrations_total"
        )
        self._m_knn_repairs = counter("engine_knn_repairs_total")
        self._m_updates_emitted = counter("engine_updates_emitted_total")
        self._phase_counters = {
            name: counter("engine_phase_seconds_total", labels={"phase": name})
            for name in EVALUATION_PHASES
        }
        self._m_objects = self.registry.gauge("engine_objects")
        self._m_queries = self.registry.gauge("engine_queries")
        if pipeline == "columnar":
            self._ostore = ColumnarObjectStore()
            self._columnar_evaluator = ColumnarEvaluator(
                self.grid,
                self.index,
                self._ostore,
                self._qstore,
                self.objects,
                self.queries,
                self._knn_qids,
                self.registry,
                self.tracer,
            )
            # Batch report ingest (phase 5a in array passes); the
            # cell-batched pipeline stays on the serial loop as the
            # equivalence (and benchmark) reference.
            self._batch_ingest = BatchIngest(self, ObjectState, _NO_CELLS)
        self._m_ingest_seconds = counter("engine_ingest_seconds_total")

    # ------------------------------------------------------------------
    # Ingestion (buffered)
    # ------------------------------------------------------------------

    def report_object(
        self,
        oid: int,
        location: Point,
        t: float,
        velocity: Velocity = Velocity.ZERO,
    ) -> None:
        """Buffer a location report.  The last report per object wins
        within a batch (the server evaluates every T seconds; a device
        reporting twice within one period supersedes itself).

        Locations are clamped into the service area (the grid's world):
        the engine guarantees completeness only for in-world geometry,
        so out-of-world drift is pulled back to the boundary.
        """
        self._pending_removals.discard(oid)
        location = self.grid.world.clamp_point(location)
        self._pending_reports[oid] = (location, velocity, t)
        self.freshness.stamp_report(oid)

    def remove_object(self, oid: int) -> None:
        """Buffer an object's departure from the system.

        The object must be tracked or have a report buffered in this
        batch; removing an unknown id raises a ``KeyError`` naming it
        immediately (nothing is buffered), so a caller's id-management
        bug surfaces at the call site instead of as a silent no-op or
        an opaque index lookup failure later.
        """
        if oid not in self.objects and oid not in self._pending_reports:
            raise KeyError(f"cannot remove unknown object {oid}")
        self._pending_reports.pop(oid, None)
        self._pending_removals.add(oid)
        # The departure is this object's last provenance event: the
        # negative updates it triggers are attributed to it.
        self.freshness.stamp_report(oid)

    def register_range_query(self, qid: int, region: Rect, t: float = 0.0) -> None:
        """Register a continuous range query (stationary until moved).

        Regions are clipped to the service area — queries are answered
        over the world the server indexes, so the portion of a region
        hanging off the map can never hold an answer object.
        """
        self._check_fresh_qid(qid)
        region = self.grid.world.clip_or_pin(region)
        self._pending_registrations.append(RangeQueryState(qid, region, t))

    def register_knn_query(
        self, qid: int, center: Point, k: int, t: float = 0.0
    ) -> None:
        """Register a continuous k-NN query anchored at ``center``."""
        self._check_fresh_qid(qid)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._pending_registrations.append(KnnQueryState(qid, center, k, t))

    def register_predictive_query(
        self, qid: int, region: Rect, horizon: float, t: float = 0.0
    ) -> None:
        """Register a predictive range query looking ``horizon`` s ahead."""
        self._check_fresh_qid(qid)
        if not 0 < horizon <= self.prediction_horizon:
            raise ValueError(
                f"query horizon {horizon} must be in "
                f"(0, {self.prediction_horizon}]"
            )
        region = self.grid.world.clip_or_pin(region)
        self._pending_registrations.append(
            PredictiveQueryState(qid, region, horizon, t)
        )

    def move_range_query(self, qid: int, region: Rect, t: float) -> None:
        """Buffer a moving range query's new region (service-area clipped)."""
        self._pending_moves[qid] = (self.grid.world.clip_or_pin(region), t)

    def move_knn_query(self, qid: int, center: Point, t: float) -> None:
        """Buffer a moving k-NN query's new focal point."""
        self._pending_moves[qid] = (center, t)

    def move_predictive_query(self, qid: int, region: Rect, t: float) -> None:
        """Buffer a moving predictive query's new region (clipped)."""
        self._pending_moves[qid] = (self.grid.world.clip_or_pin(region), t)

    def unregister_query(self, qid: int) -> None:
        """Buffer a query's removal; no further updates will be emitted.

        Unregistering a query that was registered earlier in the *same*
        batch cancels the pending registration (arrival order wins),
        and unregistering a qid whose only trace is a buffered move
        cancels that move — the documented recovery path after
        ``evaluate()`` rejects a move targeting an unknown query.  A
        qid with no registration, pending registration, or pending
        move raises a ``KeyError`` naming it, with every buffer left
        intact.
        """
        if any(q.qid == qid for q in self._pending_registrations):
            self._pending_moves.pop(qid, None)
            self._pending_registrations = [
                q for q in self._pending_registrations if q.qid != qid
            ]
            return
        if qid in self.queries:
            self._pending_moves.pop(qid, None)
            self._pending_unregistrations.add(qid)
            return
        if self._pending_moves.pop(qid, None) is None:
            raise KeyError(f"cannot unregister unknown query {qid}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """The registry-backed work counters as an :class:`EngineStats`
        snapshot (the pre-telemetry public surface, unchanged)."""
        evaluations = int(self._m_evaluations.value)
        phase_seconds: dict[str, float] = {}
        if evaluations:
            phase_seconds = {
                name: c.value for name, c in self._phase_counters.items()
            }
        return EngineStats(
            evaluations=evaluations,
            object_reports=int(self._m_object_reports.value),
            object_removals=int(self._m_object_removals.value),
            query_registrations=int(self._m_query_registrations.value),
            query_moves=int(self._m_query_moves.value),
            query_unregistrations=int(self._m_query_unregistrations.value),
            knn_repairs=int(self._m_knn_repairs.value),
            updates_emitted=int(self._m_updates_emitted.value),
            phase_seconds=phase_seconds,
        )

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def query_count(self) -> int:
        return len(self.queries)

    def answer_of(self, qid: int) -> frozenset[int]:
        """The current (last evaluated) answer set of ``qid``.

        Under the columnar pipeline this serves through the answer
        store's cached sorted array when one is live — so external
        readers (oracle, recovery) exercise store coherence — and
        falls back to the per-query ``set`` otherwise.
        """
        evaluator = self._columnar_evaluator
        if evaluator is not None:
            view = evaluator.answer_view(qid, self.queries[qid].answer)
            if view is not None:
                return view
        return frozenset(self.queries[qid].answer)

    def complete_answers(self) -> dict[int, frozenset[int]]:
        """Every query's full answer — what a snapshot server retransmits."""
        return {qid: frozenset(q.answer) for qid, q in self.queries.items()}

    # ------------------------------------------------------------------
    # Bulk evaluation
    # ------------------------------------------------------------------

    def evaluate(self, now: float | None = None) -> UpdateBatch:
        """Apply all buffered input and return the incremental updates.

        Phases: unregistrations, object removals, new-query first-time
        answers, query moves, object moves, k-NN repair, predictive
        window refresh.  Applying the returned updates in order to the
        previously reported answers reproduces the current answers
        exactly (tested property).

        The return value is an :class:`~repro.core.updates.UpdateBatch`,
        which is sequence-shaped: iterate, index, and compare it like a
        ``list[Update]``.

        All buffered input is validated *before* any phase mutates state
        (a buffered move of an unknown query raises ``KeyError`` here,
        with the engine left exactly as it was — buffers included — so a
        bad move can never half-apply a batch).
        """
        if now is None:
            now = self.now
        if now < self.now:
            raise ValueError(f"time went backwards: {now} < {self.now}")
        self._validate_pending_moves()
        self.now = now

        recorder = self.recorder
        recorder.advance_cycle()
        recorder.record(
            "evaluate_begin",
            now=now,
            reports=len(self._pending_reports),
            removals=len(self._pending_removals),
            registrations=len(self._pending_registrations),
            moves=len(self._pending_moves),
        )
        self._m_evaluations.inc()
        self._m_object_reports.inc(len(self._pending_reports))
        self._m_object_removals.inc(len(self._pending_removals))
        self._m_query_registrations.inc(len(self._pending_registrations))
        self._m_query_moves.inc(len(self._pending_moves))
        self._m_query_unregistrations.inc(len(self._pending_unregistrations))

        updates = UpdateBatch()
        knn_dirty: set[int] = set(self._underfull_knn)
        # Cells whose object population (or a resident's motion state)
        # changed this evaluation — drives the predictive refresh.
        churned_cells: set[int] = set()
        # Predictive queries that must refresh regardless of cell churn
        # (registered or moved this batch).
        dirty_predictive: set[int] = set()
        pipeline = self.pipeline
        batched = pipeline != "per-object"
        tracer = self.tracer
        span = tracer.span
        phase_counters = self._phase_counters

        with span("evaluate"):
            with span("unregistrations", phase_counters["unregistrations"]):
                self._apply_unregistrations(knn_dirty)
            with span("removals", phase_counters["removals"]):
                self._apply_removals(updates, knn_dirty, churned_cells)
            with span("registrations", phase_counters["registrations"]):
                self._apply_registrations(updates, knn_dirty, dirty_predictive)
            with span("query_moves", phase_counters["query_moves"]):
                self._apply_query_moves(updates, knn_dirty, dirty_predictive)
            with span("object_reports", phase_counters["object_reports"]):
                if pipeline == "columnar":
                    self._apply_object_reports_columnar(
                        updates, knn_dirty, churned_cells
                    )
                elif batched:
                    self._apply_object_reports_batched(
                        updates, knn_dirty, churned_cells
                    )
                else:
                    self._apply_object_reports(updates, knn_dirty)
            with span("knn_repair", phase_counters["knn_repair"]):
                self._repair_knn(knn_dirty, updates)
            with span(
                "predictive_refresh", phase_counters["predictive_refresh"]
            ):
                if batched:
                    self._refresh_predictive_batched(
                        updates, churned_cells, dirty_predictive
                    )
                else:
                    self._refresh_predictive(updates)
            with span("occupancy_sample"):
                self.index.sample_occupancy(self.registry)
        self._m_updates_emitted.inc(len(updates))
        self._m_objects.set(len(self.objects))
        self._m_queries.set(len(self.queries))
        self.freshness.end_cycle()
        recorder.record(
            "evaluate_end",
            now=now,
            updates=len(updates),
            objects=len(self.objects),
            queries=len(self.queries),
        )
        return updates

    def _validate_pending_moves(self) -> None:
        """Reject buffered moves that cannot resolve to a query.

        Runs before any phase mutates state: a move is valid if its
        target is currently registered (and not about to be
        unregistered in this same batch) or is registered earlier in
        this batch.  Raising here leaves every buffer intact, so the
        caller can drop the bad move (``unregister_query``) and
        re-evaluate.
        """
        if not self._pending_moves:
            return
        pending = None
        for qid in self._pending_moves:
            if qid in self.queries and qid not in self._pending_unregistrations:
                continue
            if pending is None:
                pending = {q.qid for q in self._pending_registrations}
            if qid not in pending:
                raise KeyError(f"cannot move unknown query {qid}")

    # ------------------------------------------------------------------
    # Phase 1-2: departures
    # ------------------------------------------------------------------

    def _apply_unregistrations(self, knn_dirty: set[int]) -> None:
        for qid in sorted(self._pending_unregistrations):
            query = self.queries.pop(qid, None)
            if query is None:
                continue
            self.index.remove_query(qid)
            self._qstore.remove(qid)
            self._knn_qids.discard(qid)
            self._underfull_knn.discard(qid)
            self._predictive_qids.discard(qid)
            if self._columnar_evaluator is not None:
                self._columnar_evaluator.invalidate_answer(qid)
            knn_dirty.discard(qid)
            for oid in query.answer:
                self.objects[oid].answered.discard(qid)
            self.freshness.forget_query(qid)
        self._pending_unregistrations.clear()

    def _apply_removals(
        self, updates, knn_dirty: set[int], churned_cells: set[int]
    ) -> None:
        ostore = self._ostore
        ingest = self._batch_ingest
        evaluator = self._columnar_evaluator
        for oid in sorted(self._pending_removals):
            state = self.objects.pop(oid, None)
            if state is None:
                continue
            churned_cells.update(self.index.object_cells(oid))
            self.index.remove_object(oid)
            if ingest is not None:
                ingest.forget(oid)
            if ostore is not None:
                ostore.remove(oid)
            for qid in sorted(state.answered):
                query = self.queries[qid]
                query.answer.discard(oid)
                if evaluator is not None:
                    evaluator.invalidate_answer(qid)
                updates.push(qid, oid, -1)
                if query.kind is QueryKind.KNN:
                    knn_dirty.add(qid)
        self._pending_removals.clear()

    # ------------------------------------------------------------------
    # Phase 3: first-time answers for new queries
    # ------------------------------------------------------------------

    def _apply_registrations(
        self,
        updates,
        knn_dirty: set[int],
        dirty_predictive: set[int],
    ) -> None:
        qstore = self._qstore
        for query in self._pending_registrations:
            self.queries[query.qid] = query
            if query.kind is QueryKind.RANGE:
                region = query.region
                qstore.put(
                    query.qid,
                    KIND_RANGE,
                    region.min_x,
                    region.min_y,
                    region.max_x,
                    region.max_y,
                )
                self.index.place_query_region(query.qid, region)
                self._fill_range_answer(query, updates)
            elif query.kind is QueryKind.KNN:
                qstore.put(query.qid, KIND_KNN)
                self._knn_qids.add(query.qid)
                # Placed at its center first; _repair_knn computes the
                # first-time answer and widens the footprint to the circle.
                self.index.place_query(
                    query.qid,
                    frozenset((self.grid.cell_of(query.center),)),
                )
                knn_dirty.add(query.qid)
            else:
                # Predictive: footprint now, answer in the refresh phase.
                qstore.put(query.qid, KIND_PREDICTIVE)
                self.index.place_query_region(query.qid, query.region)
                self._predictive_qids.add(query.qid)
                dirty_predictive.add(query.qid)
        self._pending_registrations.clear()

    def _fill_range_answer(self, query: RangeQueryState, updates) -> None:
        for oid in sorted(self.index.objects_overlapping(query.region)):
            state = self.objects[oid]
            if query.region.contains_point(state.location):
                query.answer.add(oid)
                state.answered.add(query.qid)
                updates.push(query.qid, oid, 1)

    # ------------------------------------------------------------------
    # Phase 4: query movement
    # ------------------------------------------------------------------

    def _apply_query_moves(
        self,
        updates,
        knn_dirty: set[int],
        dirty_predictive: set[int],
    ) -> None:
        for qid, (payload, t) in self._pending_moves.items():
            query = self.queries.get(qid)
            if query is None:
                # Unreachable after _validate_pending_moves; kept as a
                # defensive invariant.
                raise KeyError(f"cannot move unknown query {qid}")
            query.t = t
            if query.kind is QueryKind.RANGE:
                self._move_range(query, payload, updates)  # type: ignore[arg-type]
            elif query.kind is QueryKind.KNN:
                query.center = payload  # type: ignore[assignment]
                knn_dirty.add(qid)
            else:
                # Predictive regions re-filter in the refresh phase; only
                # the footprint needs to move now.  The store put keeps
                # the wire bounds zeroed — it exists for its version
                # bump, which invalidates the columnar evaluator's
                # cached cell entries for the footprint change.
                query.region = payload  # type: ignore[assignment]
                self.index.place_query_region(qid, payload)  # type: ignore[arg-type]
                self._qstore.put(qid, KIND_PREDICTIVE)
                if self._columnar_evaluator is not None:
                    self._columnar_evaluator.invalidate_answer(qid)
                dirty_predictive.add(qid)
        self._pending_moves.clear()

    def _move_range(
        self, query: RangeQueryState, new_region: Rect, updates
    ) -> None:
        old_region = query.region
        query.region = new_region

        # Negative updates: answer members in A_old - A_new.
        for oid in sorted(query.answer):
            if not new_region.contains_point(self.objects[oid].location):
                query.answer.discard(oid)
                self.objects[oid].answered.discard(query.qid)
                updates.push(query.qid, oid, -1)

        # Positive updates: search only A_new - A_old.
        for piece in new_region.difference(old_region):
            for oid in sorted(self.index.objects_overlapping(piece)):
                if oid in query.answer:
                    continue
                state = self.objects[oid]
                if piece.contains_point(state.location):
                    query.answer.add(oid)
                    state.answered.add(query.qid)
                    updates.push(query.qid, oid, 1)

        self.index.place_query_region(query.qid, new_region)
        self._qstore.put(
            query.qid,
            KIND_RANGE,
            new_region.min_x,
            new_region.min_y,
            new_region.max_x,
            new_region.max_y,
        )

    # ------------------------------------------------------------------
    # Phase 5: object movement
    # ------------------------------------------------------------------

    def _apply_object_reports(self, updates, knn_dirty: set[int]) -> None:
        """Reference path: one report at a time (``pipeline="per-object"``).

        Re-derives the colocated candidate query set for every single
        object; kept verbatim as the semantic baseline the cell-batched
        pipeline is benchmarked and equivalence-tested against.
        """
        for oid, (location, velocity, t) in self._pending_reports.items():
            state = self.objects.get(oid)
            if state is None:
                state = ObjectState(oid, location, velocity, t)
                self.objects[oid] = state
                old_cells: frozenset[int] = frozenset()
            else:
                old_cells = self.index.object_cells(oid)
                state.location = location
                state.velocity = velocity
                state.t = t
            self.index.place_object(oid, self._object_footprint(state))

            candidates = set(self.index.queries_colocated_with_object(oid))
            for cell in old_cells:
                candidates |= self.index.queries_in_cell(cell)
            candidates |= state.answered

            for qid in sorted(candidates):
                query = self.queries[qid]
                if query.kind is QueryKind.RANGE:
                    self._update_range_membership(query, state, updates)
                elif query.kind is QueryKind.KNN:
                    knn_dirty.add(qid)
                # Predictive membership is settled by the refresh phase.
        self._pending_reports.clear()

    def _apply_object_reports_batched(
        self, updates, knn_dirty: set[int], churned_cells: set[int]
    ) -> None:
        """Cell-batched pipeline: evaluate the whole batch as per-cell cohorts.

        5a. Apply every report to object state and the grid, grouping
            objects by their (old cells → new cells) transition.  The
            overwhelmingly common case — a non-predictive object whose
            footprint is one cell — is keyed by an int pair instead of
            frozensets, and an object whose footprint did not change
            skips the grid write entirely.
        5b. For each distinct transition, resolve the candidate query
            set **once** (zero-copy cell views, no per-object set
            copies, no per-object sort) and evaluate each candidate
            range query against the whole cohort in one inline pass
            with the region bounds and answer set hoisted out of the
            loop.  k-NN queries are dirty-marked per cohort.  A cohort
            is sorted once (not once per object), so emissions stay
            deterministically ordered.

        Emits exactly the same update set per query as the per-object
        path — each (query, object) pair is evaluated at most once per
        batch because the report buffer is already last-report-wins —
        but grouped by (transition, query) rather than by reporting
        object.
        """
        if not self._pending_reports:
            return
        with self.tracer.span("report_ingest", self._m_ingest_seconds):
            point_groups, set_groups = self._group_reports()
        cell_cache: dict[int, _CellCandidates] = {}
        for cells, states, stay_put, point_pair in self._iter_cohorts(
            point_groups, set_groups, churned_cells
        ):
            self._evaluate_cohort(
                cells,
                states,
                updates,
                knn_dirty,
                cell_cache,
                stay_put,
                point_pair=point_pair,
            )

    def _group_reports(
        self,
    ) -> tuple[
        dict[tuple[int, int], list[ObjectState]],
        dict[tuple[frozenset[int], frozenset[int]], list[ObjectState]],
    ]:
        """Phase 5a, serial reference: apply every buffered report to
        object state and the grid index, grouping objects by their cell
        transition.  Runs for the cell-batched pipeline (the
        equivalence baseline) and as the fallback when
        :class:`~repro.columnar.ingest.BatchIngest` is unavailable;
        clears the report buffer.  Columnar-store writes are collected
        per batch and flushed through
        :meth:`~repro.columnar.store.ColumnarObjectStore.batch_apply`
        — the scalar ``apply_report`` stays reserved for per-report
        callers."""
        reports = self._pending_reports
        objects = self.objects
        index = self.index
        grid = self.grid
        ostore = self._ostore
        if ostore is not None:
            o_oids: list[int] = []
            o_xs: list[float] = []
            o_ys: list[float] = []
            o_vxs: list[float] = []
            o_vys: list[float] = []
            o_ts: list[float] = []
            o_cells: list[int] = []
        # Hoisted home-cell arithmetic: same expression as Grid.cell_of
        # (division by the precomputed cell size), so cell assignment is
        # bit-identical to the per-object path on boundary coordinates.
        n = grid.n
        n1 = n - 1
        cell_w = grid.cell_width
        cell_h = grid.cell_height
        wmin_x = grid.world.min_x
        wmin_y = grid.world.min_y
        predictive_possible = self.prediction_horizon > 0

        # --- 5a: state + index updates, grouped by cell transition.
        # point_groups: (old_cell, new_cell) int pairs, -1 = new object.
        # set_groups: frozenset pairs for multi-cell (predictive) footprints.
        point_groups: dict[tuple[int, int], list[ObjectState]] = {}
        set_groups: dict[
            tuple[frozenset[int], frozenset[int]], list[ObjectState]
        ] = {}
        for oid, (location, velocity, t) in reports.items():
            state = objects.get(oid)
            if state is None:
                state = ObjectState(oid, location, velocity, t)
                objects[oid] = state
                old_cells = None
            else:
                old_cells = index.object_cells(oid)
                state.location = location
                state.velocity = velocity
                state.t = t
            # Inlined `not state.is_predictive` (Velocity.is_zero).
            if not predictive_possible or (
                velocity.vx == 0.0 and velocity.vy == 0.0
            ):
                col = int((location.x - wmin_x) / cell_w)
                if col < 0:
                    col = 0
                elif col > n1:
                    col = n1
                row = int((location.y - wmin_y) / cell_h)
                if row < 0:
                    row = 0
                elif row > n1:
                    row = n1
                new_cell = row * n + col
                if ostore is not None:
                    o_oids.append(oid)
                    o_xs.append(location.x)
                    o_ys.append(location.y)
                    o_vxs.append(velocity.vx)
                    o_vys.append(velocity.vy)
                    o_ts.append(t)
                    o_cells.append(new_cell)
                if old_cells is None:
                    index.place_object(oid, frozenset((new_cell,)))
                    key = (-1, new_cell)
                elif len(old_cells) == 1:
                    old_cell = next(iter(old_cells))
                    index.move_point_object(oid, old_cell, new_cell)
                    key = (old_cell, new_cell)
                else:
                    # Was predictive (multi-cell), now stationary.
                    new_cells = frozenset((new_cell,))
                    index.place_object(oid, new_cells)
                    self._group_into(set_groups, old_cells, new_cells, state)
                    continue
                cohort = point_groups.get(key)
                if cohort is None:
                    point_groups[key] = [state]
                else:
                    cohort.append(state)
            else:
                new_cells = self._object_footprint(state)
                if old_cells != new_cells:
                    index.place_object(oid, new_cells)
                if ostore is not None:
                    o_oids.append(oid)
                    o_xs.append(location.x)
                    o_ys.append(location.y)
                    o_vxs.append(velocity.vx)
                    o_vys.append(velocity.vy)
                    o_ts.append(t)
                    o_cells.append(grid.cell_of(location))
                self._group_into(
                    set_groups,
                    _NO_CELLS if old_cells is None else old_cells,
                    new_cells,
                    state,
                )
        if ostore is not None and o_oids:
            ostore.batch_apply(o_oids, o_xs, o_ys, o_vxs, o_vys, o_ts, o_cells)
        reports.clear()
        return point_groups, set_groups

    def _group_reports_batched(self):
        """Phase 5a via :class:`~repro.columnar.ingest.BatchIngest` when
        it can run, the serial loop otherwise.  Returns ``(point_groups,
        set_groups)``."""
        ingest = self._batch_ingest
        if ingest is not None and ingest.enabled:
            grouped = ingest.group(self._pending_reports)
            if grouped is not None:
                return grouped
        return self._group_reports()

    def _iter_cohorts(self, point_groups, set_groups, churned_cells: set[int]):
        """Phase 5b's work list: yield ``(cells, states, stay_put,
        point_pair)`` per transition cohort, in the exact order the
        cell-batched pipeline evaluates (and therefore emits) them.
        Accumulates cell churn for the predictive refresh as a side
        effect.  ``cells`` is always an ordered tuple: the columnar
        evaluator keys its multi-cell plan cache on it, and
        tuple-izing a frozenset here preserves the iteration order the
        serial pass would have used.
        """
        for (old_cell, new_cell), states in point_groups.items():
            churned_cells.add(new_cell)
            if old_cell >= 0 and old_cell != new_cell:
                churned_cells.add(old_cell)
                yield (old_cell, new_cell), states, False, True
            else:
                yield (new_cell,), states, old_cell == new_cell, False
        for (old_cells, new_cells), states in set_groups.items():
            churned_cells.update(new_cells)
            if old_cells is not _NO_CELLS and old_cells != new_cells:
                churned_cells.update(old_cells)
            if old_cells is _NO_CELLS or old_cells == new_cells:
                cells = new_cells
            else:
                cells = old_cells | new_cells
            yield tuple(cells), states, False, False

    def _apply_object_reports_columnar(
        self, updates, knn_dirty: set[int], churned_cells: set[int]
    ) -> None:
        """Columnar pipeline: phase 5a grouping exactly as in the
        cell-batched pipeline, then one batch kernel pass over every
        cohort.

        The evaluator plans the batch's ragged (cohort × candidate
        entry × member) join from the struct-of-arrays mirrors,
        classifies every pair's membership transition in bulk, and
        re-emits the changed pairs in serial cohort order — the update
        stream is byte-identical to ``pipeline="cell-batched"``.
        """
        if not self._pending_reports:
            return
        with self.tracer.span("report_ingest", self._m_ingest_seconds):
            point_groups, set_groups = self._group_reports_batched()
        cohorts = list(
            self._iter_cohorts(point_groups, set_groups, churned_cells)
        )
        if cohorts:
            emitted_before = len(updates)
            self._columnar_evaluator.run(cohorts, updates, knn_dirty)
            self.recorder.record(
                "columnar_batch",
                cohorts=len(cohorts),
                emitted=len(updates) - emitted_before,
            )

    @staticmethod
    def _group_into(groups, old_cells, new_cells, state):
        key = (old_cells, new_cells)
        cohort = groups.get(key)
        if cohort is None:
            groups[key] = [state]
        else:
            cohort.append(state)

    def _cell_candidates(self, cell: int) -> "_CellCandidates":
        """Resolve one cell's candidate queries for the batched phase 5.

        Range queries are flattened to ``(qid, bounds..., answer)``
        tuples so the cohort loop needs no per-pair attribute chasing;
        the region bounds are stable for the whole phase (query moves
        happened in phase 4) and ``answer`` is aliased, so in-place
        mutations stay visible.
        """
        cell_qids = self.index.queries_in_cell(cell)
        if not cell_qids:
            return _NO_CANDIDATES
        queries = self.queries
        # Inline Grid.cell_rect: same arithmetic, minus a Rect allocation
        # and the repeated cell_width/cell_height property divisions.
        grid = self.grid
        world = grid.world
        cell_w = grid.cell_width
        cell_h = grid.cell_height
        row, col = divmod(cell, grid.n)
        c_min_x = world.min_x + col * cell_w
        c_min_y = world.min_y + row * cell_h
        c_max_x = world.min_x + (col + 1) * cell_w
        c_max_y = world.min_y + (row + 1) * cell_h
        partial_entries = []
        covering_entries = []
        knn_qids = []
        for qid in cell_qids:
            query = queries[qid]
            kind = query.kind
            if kind is QueryKind.RANGE:
                region = query.region
                entry = (
                    qid,
                    region.min_x,
                    region.min_y,
                    region.max_x,
                    region.max_y,
                    query.answer,
                )
                if (
                    region.min_x <= c_min_x
                    and region.min_y <= c_min_y
                    and region.max_x >= c_max_x
                    and region.max_y >= c_max_y
                ):
                    covering_entries.append(entry)
                else:
                    partial_entries.append(entry)
            elif kind is QueryKind.KNN:
                knn_qids.append(qid)
        partial_entries.sort()
        covering_entries.sort()
        knn_qids.sort()
        return _CellCandidates(
            partial_entries,
            covering_entries,
            knn_qids,
            frozenset(cell_qids),
        )

    def _evaluate_cohort(
        self,
        cells,
        states: list[ObjectState],
        updates,
        knn_dirty: set[int],
        cell_cache: dict[int, "_CellCandidates"],
        stay_put: bool,
        point_pair: bool = False,
    ) -> None:
        """Check one transition cohort against its candidate queries.

        ``cells`` is the union of the cohort's old and new cells; every
        query whose membership can have changed for a cohort member
        either overlaps one of those cells or already holds the member
        in its answer (covered by the trailing answered sweep, which is
        provably empty except for off-world clamping corner cases).

        ``stay_put`` marks a single-cell cohort whose members did not
        change home cell: range queries fully covering that cell are
        then skipped — the old and new locations are both inside the
        region, so each member already is (and stays) an answer member.
        ``point_pair`` marks a two-cell cohort of single-cell objects;
        for it the same argument skips queries covering *both* cells.
        """
        push = updates.push
        multi = len(cells) > 1
        cached_cells = []
        for cell in cells:
            cached = cell_cache.get(cell)
            if cached is None:
                cached = cell_cache[cell] = self._cell_candidates(cell)
            cached_cells.append(cached)
            if cached.knn_qids:
                knn_dirty.update(cached.knn_qids)
        skip_cover: frozenset[int] = _NO_CELLS
        if point_pair and len(cached_cells) == 2:
            skip_cover = (
                cached_cells[0].covering_qids & cached_cells[1].covering_qids
            )
        single = None
        if len(states) == 1:
            single = states[0]
            location = single.location
            sx = location.x
            sy = location.y
            soid = single.oid
            answered = single.answered
        else:
            states.sort(key=_by_oid)
            # Coordinates unpacked once per cohort, not once per
            # (query, object) pair.
            coords = [
                (state.location.x, state.location.y, state.oid, state)
                for state in states
            ]
        seen_qids: frozenset[int] | set[int] = _NO_CELLS
        if multi:
            seen_qids = set()
        for cached in cached_cells:
            if stay_put:
                entry_lists = (cached.partial_entries,)
            else:
                entry_lists = (cached.partial_entries, cached.covering_entries)
            for entries in entry_lists:
                if single is not None:
                    for qid, min_x, min_y, max_x, max_y, answer in entries:
                        if multi and (qid in seen_qids or qid in skip_cover):
                            continue
                        if min_x <= sx <= max_x and min_y <= sy <= max_y:
                            if soid not in answer:
                                answer.add(soid)
                                answered.add(qid)
                                push(qid, soid, 1)
                        elif soid in answer:
                            answer.discard(soid)
                            answered.discard(qid)
                            push(qid, soid, -1)
                else:
                    for qid, min_x, min_y, max_x, max_y, answer in entries:
                        if multi and (qid in seen_qids or qid in skip_cover):
                            continue
                        for x, y, oid, state in coords:
                            if min_x <= x <= max_x and min_y <= y <= max_y:
                                if oid not in answer:
                                    answer.add(oid)
                                    state.answered.add(qid)
                                    push(qid, oid, 1)
                            elif oid in answer:
                                answer.discard(oid)
                                state.answered.discard(qid)
                                push(qid, oid, -1)
            if multi:
                seen_qids.update(cached.all_qids)  # type: ignore[union-attr]
            else:
                seen_qids = cached.all_qids
        # Answered sweep: queries the object no longer shares a cell
        # with (it left their footprint entirely) still owe a check.
        queries = self.queries
        for state in states:
            answered = state.answered
            if not answered or answered <= seen_qids:
                continue
            for qid in sorted(answered - seen_qids):
                query = queries[qid]
                kind = query.kind
                if kind is QueryKind.RANGE:
                    self._update_range_membership(query, state, updates)
                elif kind is QueryKind.KNN:
                    knn_dirty.add(qid)

    def _update_range_membership(
        self, query: RangeQueryState, state: ObjectState, updates
    ) -> None:
        inside = query.region.contains_point(state.location)
        was_member = state.oid in query.answer
        if inside and not was_member:
            query.answer.add(state.oid)
            state.answered.add(query.qid)
            updates.push(query.qid, state.oid, 1)
        elif not inside and was_member:
            query.answer.discard(state.oid)
            state.answered.discard(query.qid)
            updates.push(query.qid, state.oid, -1)

    def _object_footprint(self, state: ObjectState) -> frozenset[int]:
        if state.is_predictive and self.prediction_horizon > 0:
            rect = state.motion().bounding_rect_until(
                state.t + self.prediction_horizon
            )
            cells = self.grid.cells_overlapping_set(rect)
            if cells:
                return cells
            # The whole predicted trajectory lies outside the world
            # (the object drifted off the map): clamp to the nearest
            # cell so the object keeps a deterministic home.
        return frozenset((self.grid.cell_of(state.location),))

    # ------------------------------------------------------------------
    # Phase 6: k-NN repair
    # ------------------------------------------------------------------

    def _repair_knn(self, knn_dirty: set[int], updates) -> None:
        for qid in sorted(knn_dirty):
            query = self.queries.get(qid)
            if query is None or query.kind is not QueryKind.KNN:
                continue
            self._m_knn_repairs.inc()
            self._solve_knn(query, updates)

    def _solve_knn(self, query: KnnQueryState, updates) -> None:
        """Re-solve a dirty k-NN query and emit the answer difference.

        The ring search starts from the query's center and is bounded by
        the k-th distance, so the work stays local to the circle — the
        shared-grid analogue of the paper's "evict the furthest / admit
        the entrant" circle maintenance, with the search doubling as the
        replacement lookup when members depart.
        """
        if self._ostore is not None:
            ranked = knn_search_columnar(
                self.index, self._ostore, query.center, query.k
            )
        else:
            ranked = knn_search(self.index, self.objects, query.center, query.k)
        new_answer = {oid for __, oid in ranked}

        for oid in sorted(query.answer - new_answer):
            query.answer.discard(oid)
            self.objects[oid].answered.discard(query.qid)
            updates.push(query.qid, oid, -1)
        for oid in sorted(new_answer - query.answer):
            query.answer.add(oid)
            self.objects[oid].answered.add(query.qid)
            updates.push(query.qid, oid, 1)
        if self._columnar_evaluator is not None:
            # Membership can change without changing length (one out,
            # one in), so the store's len-check alone cannot detect it.
            self._columnar_evaluator.invalidate_answer(query.qid)

        query.radius = ranked[-1][0] if ranked else 0.0
        footprint = self.grid.cells_overlapping_set(
            query.circle().bounding_rect()
        )
        if not footprint:  # center outside the world: clamp to home cell
            footprint = frozenset((self.grid.cell_of(query.center),))
        self.index.place_query(query.qid, footprint)

        if len(query.answer) < query.k:
            self._underfull_knn.add(query.qid)
        else:
            self._underfull_knn.discard(query.qid)

    # ------------------------------------------------------------------
    # Phase 7: predictive window refresh
    # ------------------------------------------------------------------

    def _refresh_predictive(self, updates) -> None:
        """Reference path: re-filter every predictive query, every cycle."""
        for qid, query in self.queries.items():
            if query.kind is not QueryKind.PREDICTIVE_RANGE:
                continue
            self._refresh_one_predictive(qid, query, updates, False)

    def _refresh_predictive_batched(
        self,
        updates,
        churned_cells: set[int],
        dirty_predictive: set[int],
    ) -> None:
        """Refresh only predictive queries that can actually change.

        A predictive answer depends on (a) the query's region/horizon,
        (b) the states of its candidate objects, and (c) the evaluation
        time (the horizon window slides).  (a) is covered by
        ``dirty_predictive`` (registered/moved this batch), (b) by cell
        churn — every candidate's footprint intersects the query's
        footprint, so any candidate change churns a footprint cell —
        and (c) by the ``next_flip`` event time computed during the
        previous refresh: the earliest time the sliding window can flip
        some candidate's membership.  Anything else is provably a
        no-op and is skipped.
        """
        predictive_qids = self._predictive_qids
        if not predictive_qids:
            return
        need = dirty_predictive
        if churned_cells:
            index = self.index
            for cell in churned_cells:
                for qid in index.queries_in_cell(cell):
                    if qid in predictive_qids:
                        need.add(qid)
        now = self.now
        queries = self.queries
        for qid in sorted(predictive_qids):
            query = queries[qid]
            if qid in need:
                # Churn-driven refresh: under sustained churn a flip
                # schedule would be recomputed every cycle and never
                # consulted, so don't pay for one — the first quiet
                # evaluation refreshes once more (next_flip == -inf)
                # and computes the schedule then.
                self._refresh_one_predictive(qid, query, updates, False)
            elif query.next_flip <= now:
                self._refresh_one_predictive(qid, query, updates, True)

    def _refresh_one_predictive(
        self,
        qid: int,
        query: PredictiveQueryState,
        updates,
        compute_flip: bool,
    ) -> None:
        candidates = set(query.answer)
        index = self.index
        for cell in index.query_cells(qid):
            candidates.update(index.objects_in_cell(cell))
        objects = self.objects
        answer = query.answer
        next_flip = math.inf
        ordered = sorted(candidates)
        evaluator = self._columnar_evaluator
        if not compute_flip and evaluator is not None and ordered:
            # Columnar delta path: membership and emission are handled
            # entirely from the sorted answer array (candidates ⊇
            # answer, so ordered[inside] is the complete new answer).
            evaluator.refresh_predictive(
                qid,
                query,
                ordered,
                self.now,
                query.horizon,
                self.prediction_horizon,
                updates,
            )
            query.next_flip = float("-inf")
            return
        flags = None
        if evaluator is not None:
            # The scalar loop below mutates the answer without updating
            # the evaluator's sorted array; drop it so the next
            # vectorized refresh rebuilds from the live set.
            evaluator.invalidate_answer(qid)
        if evaluator is not None and ordered:
            # Columnar pipeline: one vectorized membership pass over the
            # candidate rows (bit-identical to the scalar check).
            flags = self._columnar_evaluator.predicted_inside(
                ordered,
                query.region,
                self.now,
                query.horizon,
                self.prediction_horizon,
            )
        for pos, oid in enumerate(ordered):
            state = objects[oid]
            inside = (
                flags[pos]
                if flags is not None
                else self._predicted_in_region(query, state)
            )
            was_member = oid in answer
            if inside and not was_member:
                answer.add(oid)
                state.answered.add(qid)
                updates.push(qid, oid, 1)
            elif not inside and was_member:
                answer.discard(oid)
                state.answered.discard(qid)
                updates.push(qid, oid, -1)
            if compute_flip:
                flip = self._membership_flip_time(query, state, inside)
                if flip < next_flip:
                    next_flip = flip
        if not compute_flip:
            query.next_flip = float("-inf")
        elif math.isinf(next_flip):
            query.next_flip = next_flip
        else:
            # Small relative safety margin: the flip time is derived
            # from one trajectory clipping over the full trusted span,
            # while membership itself is recomputed per-window; the
            # margin absorbs any floating-point disagreement between
            # the two so a refresh can only ever fire early, never
            # late.
            query.next_flip = next_flip - 1e-9 * (1.0 + abs(next_flip))

    def _membership_flip_time(
        self, query: PredictiveQueryState, state: ObjectState, inside: bool
    ) -> float:
        """The earliest evaluation time at which ``state``'s membership in
        ``query`` can change with *no further reports* — i.e. purely
        because the horizon window ``[now, now + horizon]`` slides.

        For linear motion inside a convex region the in-region times
        form one interval ``[enters, leaves]`` (within the object's
        trusted extrapolation span).  A current member stays a member
        until the window start passes ``leaves``; a non-member becomes
        one when the window end reaches ``enters``.  ``inf`` means the
        membership can never change without churn.
        """
        span_start = max(self.now, state.t)
        span_end = state.t + self.prediction_horizon
        if span_end < span_start:
            # The trusted extrapolation span is entirely in the past:
            # membership is False and stays False until a new report.
            return math.inf
        interval = state.motion().time_in_rect(
            query.region, span_start, span_end
        )
        if interval is None:
            # Never in the region within the trusted span.  If the
            # windowed check nevertheless said "inside" (conceivable
            # only through floating-point disagreement), stay safe by
            # refreshing every evaluation.
            return -math.inf if inside else math.inf
        enters, leaves = interval
        if inside:
            return leaves
        return enters - query.horizon

    def _predicted_in_region(
        self, query: PredictiveQueryState, state: ObjectState
    ) -> bool:
        """Will ``state`` be inside the query region within its horizon?

        The window is ``[now, now + horizon]`` clamped to start no
        earlier than the object's report time (we cannot extrapolate
        backwards) and to end no later than the object's trusted
        extrapolation span.
        """
        start = max(self.now, state.t)
        end = min(self.now + query.horizon, state.t + self.prediction_horizon)
        if end < start:
            return False
        return state.motion().time_in_rect(query.region, start, end) is not None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _check_fresh_qid(self, qid: int) -> None:
        already_pending = any(
            q.qid == qid for q in self._pending_registrations
        )
        if qid in self.queries or already_pending:
            raise KeyError(f"query {qid} is already registered")

    def check_invariants(self) -> None:
        """Verify the object/query membership bookkeeping (tests only)."""
        for oid, state in self.objects.items():
            for qid in state.answered:
                assert oid in self.queries[qid].answer, (oid, qid)
        for qid, query in self.queries.items():
            for oid in query.answer:
                assert qid in self.objects[oid].answered, (qid, oid)
            assert self.index.contains_query(qid)
        for oid in self.objects:
            assert self.index.contains_object(oid)
        for qid in self._predictive_qids:
            assert self.queries[qid].kind is QueryKind.PREDICTIVE_RANGE
        # Any live answer-store view must agree with the set it mirrors.
        evaluator = self._columnar_evaluator
        if evaluator is not None:
            for qid, query in self.queries.items():
                view = evaluator.answer_view(qid, query.answer)
                assert view is None or view == query.answer, qid
        # Struct-of-arrays mirrors stay coherent with the dataclass state.
        qstore = self._qstore
        assert len(qstore) == len(self.queries)
        assert self._knn_qids == {
            qid
            for qid, query in self.queries.items()
            if query.kind is QueryKind.KNN
        }
        for qid, query in self.queries.items():
            kind, min_x, min_y, max_x, max_y = qstore.descriptor(qid)
            if query.kind is QueryKind.RANGE:
                region = query.region
                assert kind == KIND_RANGE and (
                    min_x,
                    min_y,
                    max_x,
                    max_y,
                ) == (
                    region.min_x,
                    region.min_y,
                    region.max_x,
                    region.max_y,
                ), qid
            elif query.kind is QueryKind.KNN:
                assert kind == KIND_KNN, qid
            else:
                assert kind == KIND_PREDICTIVE, qid
        ostore = self._ostore
        if ostore is not None:
            assert len(ostore) == len(self.objects)
            for oid, state in self.objects.items():
                row = ostore.row_of(oid)
                location = state.location
                assert ostore.xs[row] == location.x, oid
                assert ostore.ys[row] == location.y, oid
        # The batch-ingest dense oid→cell column mirrors the grid
        # index's object placements exactly (while enabled; a disabled
        # kernel's column is dead state and never read again).
        ingest = self._batch_ingest
        if (
            ingest is not None
            and ingest.enabled
            and ingest._cell_by_oid is not None
        ):
            for oid in self.objects:
                hint = ingest.cell_hint(oid)
                assert hint is not None, oid
                cells = self.index.object_cells(oid)
                if hint == MULTI_CELL:
                    assert len(cells) > 1, (oid, cells)
                else:
                    assert cells == frozenset((hint,)), (oid, hint, cells)
