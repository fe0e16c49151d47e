"""The differential consistency oracle.

The oracle's mirror clients replicate the client-side protocol exactly
as :class:`repro.core.client.Client` implements it — apply every
delivered update in wire order, roll back to the committed answer on
wakeup, commit on the server's commit notifications — but they feed off
the link's delivery observer instead of draining the inbox, so a real
client (or no client at all) can coexist with the oracle on the same
link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import IncrementalEngine
from repro.core.server import LocationAwareServer
from repro.core.state import (
    KnnQueryState,
    ObjectState,
    PredictiveQueryState,
    QueryKind,
    RangeQueryState,
)
from repro.core.updates import Update, apply_updates
from repro.net.messages import FullAnswerMessage, Message, UpdateMessage

#: Upper bound on the cells of one query x object matrix (a float64
#: matrix of this size is 2 MB); the snapshot recompute walks the
#: queries in row chunks that fit it.
_CHUNK_CELLS = 1 << 18

#: Relative slack of the vectorized screens.  A squared distance
#: ranks objects within a few ulps of ``math.hypot``, and a Liang-Barsky
#: clip may accept a segment that misses the region by a few ulps, so
#: the screens keep everything within this relative distance and leave
#: the exact verdict to the scalar predicates.
_SLACK = 1e-9

#: Absolute floor of the k-NN screen: squaring a coordinate difference
#: below ~1e-154 underflows, which no relative slack can cover.
_TINY = 1e-300


@dataclass(frozen=True, slots=True)
class Divergence:
    """One detected consistency violation.

    ``kind`` is the check that failed (``replay`` / ``snapshot`` /
    ``commit`` / ``desync``); ``oids`` is the symmetric difference
    between the two answer derivations, so the report names exactly the
    objects the two sides disagree about.
    """

    kind: str
    cycle: int
    qid: int
    client_id: int
    oids: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.kind}] cycle={self.cycle} qid={self.qid} "
            f"client={self.client_id} oids={list(self.oids)}: {self.detail}"
        )


@dataclass(slots=True)
class _MirrorClient:
    """Protocol-faithful replica of one client's answer state."""

    answers: dict[int, set[int]] = field(default_factory=dict)
    committed: dict[int, frozenset[int]] = field(default_factory=dict)
    #: True once any downlink message was lost since the last completed
    #: recovery — the client may legitimately differ from the engine.
    lossy: bool = False


class ConsistencyOracle:
    """Cross-checks a live server against independent re-derivations.

    Attach it *after* registering clients (or call :meth:`watch_client`
    for late arrivals); per cycle, bracket the evaluation with
    :meth:`begin_cycle` / :meth:`end_cycle`::

        oracle = ConsistencyOracle(server)
        for cycle, now in enumerate(times):
            oracle.begin_cycle()
            result = server.evaluate_cycle(now)
            divergences = oracle.end_cycle(cycle, result.updates)

    A clean run reports no divergences and leaves
    ``oracle_divergence_total`` at zero.
    """

    def __init__(self, server: LocationAwareServer):
        self.server = server
        self.divergences: list[Divergence] = []
        self._mirrors: dict[int, _MirrorClient] = {}
        self._prev_answers: dict[int, frozenset[int]] = {}
        self._m_checks = server.registry.counter("oracle_checks_total")
        server.add_observer(self)
        for client_id in server.client_ids():
            self.watch_client(client_id)

    def watch_client(self, client_id: int) -> None:
        """Start mirroring ``client_id``'s downlink."""
        if client_id in self._mirrors:
            return
        self._mirrors[client_id] = _MirrorClient()
        self.server.link_of(client_id).delivery_observer = self._on_delivery

    # ------------------------------------------------------------------
    # Wire + protocol observation (called by the server/link, not users)
    # ------------------------------------------------------------------

    def _on_delivery(
        self, client_id: int, message: Message, delivered: bool
    ) -> None:
        mirror = self._mirrors[client_id]
        if not delivered:
            mirror.lossy = True
            return
        if isinstance(message, UpdateMessage):
            answer = mirror.answers.setdefault(message.qid, set())
            if message.sign == 1:
                answer.add(message.oid)
            else:
                answer.discard(message.oid)
        elif isinstance(message, FullAnswerMessage):
            mirror.answers[message.qid] = set(message.oids)

    def on_wakeup_begin(self, client_id: int) -> None:
        """The client rolls back to committed state before recovery."""
        mirror = self._mirrors.get(client_id)
        if mirror is None:
            return
        for qid in self.server.queries_of(client_id):
            mirror.answers[qid] = set(mirror.committed.get(qid, frozenset()))
        mirror.lossy = False

    def on_wakeup_end(self, client_id: int) -> None:
        """Recovery completed: the post-recovery answers are committed."""
        mirror = self._mirrors.get(client_id)
        if mirror is None:
            return
        for qid in self.server.queries_of(client_id):
            mirror.committed[qid] = frozenset(
                mirror.answers.get(qid, frozenset())
            )

    def on_commit(self, qid: int) -> None:
        mirror = self._mirrors.get(self.server.client_of(qid))
        if mirror is None:
            return
        mirror.committed[qid] = frozenset(mirror.answers.get(qid, frozenset()))

    # ------------------------------------------------------------------
    # Mirror introspection
    # ------------------------------------------------------------------

    def mirror_answer(self, client_id: int, qid: int) -> frozenset[int]:
        """What the mirrored client currently holds for ``qid``."""
        return frozenset(self._mirrors[client_id].answers.get(qid, frozenset()))

    def in_sync(self, client_id: int) -> bool:
        """True when the mirror matches the engine on every owned query."""
        engine = self.server.engine
        return all(
            self.mirror_answer(client_id, qid) == engine.answer_of(qid)
            for qid in self.server.queries_of(client_id)
        )

    # ------------------------------------------------------------------
    # Per-cycle checking
    # ------------------------------------------------------------------

    def begin_cycle(self) -> None:
        """Capture the pre-cycle engine answers for the replay check."""
        engine = self.server.engine
        self._prev_answers = {
            qid: engine.answer_of(qid) for qid in engine.queries
        }

    def end_cycle(self, cycle: int, updates: list[Update]) -> list[Divergence]:
        """Run all four checks; returns (and accumulates) divergences.

        The first divergence trips the server's flight recorder: the
        last-N protocol events leading to the inconsistency are exactly
        what the ring holds.
        """
        found: list[Divergence] = []
        with self.server.tracer.span("oracle_check"):
            self._check_replay(cycle, updates, found)
            self._check_snapshot(cycle, found)
            self._check_commit(cycle, found)
            self._check_desync(cycle, found)
        self._m_checks.inc()
        recorder = self.server.recorder
        recorder.record(
            "oracle_check", oracle_cycle=cycle, divergences=len(found)
        )
        for divergence in found:
            self.server.registry.counter(
                "oracle_divergence_total", labels={"kind": divergence.kind}
            ).inc()
            recorder.record(
                "oracle_divergence",
                check=divergence.kind,
                qid=divergence.qid,
                client=divergence.client_id,
                oids=list(divergence.oids),
            )
        if found:
            recorder.trigger(
                "oracle_divergence",
                check=found[0].kind,
                qid=found[0].qid,
            )
        self.divergences.extend(found)
        return found

    # -- the four checks ----------------------------------------------

    def _check_replay(
        self, cycle: int, updates: list[Update], found: list[Divergence]
    ) -> None:
        engine = self.server.engine
        by_qid: dict[int, list[Update]] = {}
        for update in updates:
            by_qid.setdefault(update.qid, []).append(update)
        for qid, previous in self._prev_answers.items():
            if qid not in engine.queries:
                continue  # unregistered mid-cycle
            replayed = apply_updates(set(previous), by_qid.get(qid, []))
            self._compare(
                "replay", cycle, qid, frozenset(replayed),
                engine.answer_of(qid),
                "prev answer + cycle updates vs engine answer", found,
            )

    def _check_snapshot(self, cycle: int, found: list[Divergence]) -> None:
        engine = self.server.engine
        for qid, recomputed in self._recompute_all().items():
            self._compare(
                "snapshot", cycle, qid, recomputed,
                engine.answer_of(qid),
                "from-scratch recomputation vs engine answer", found,
            )

    def _check_commit(self, cycle: int, found: list[Divergence]) -> None:
        server = self.server
        for client_id, mirror in self._mirrors.items():
            for qid in server.queries_of(client_id):
                self._compare(
                    "commit", cycle, qid,
                    server.commits.committed_answer(qid),
                    mirror.committed.get(qid, frozenset()),
                    "server committed answer vs state the client "
                    "provably received (committed ⊆ delivered)", found,
                )

    def _check_desync(self, cycle: int, found: list[Divergence]) -> None:
        server = self.server
        engine = server.engine
        for client_id, mirror in self._mirrors.items():
            if mirror.lossy or not server.link_of(client_id).connected:
                continue
            for qid in server.queries_of(client_id):
                self._compare(
                    "desync", cycle, qid,
                    frozenset(mirror.answers.get(qid, frozenset())),
                    engine.answer_of(qid),
                    "loss-free client's mirrored answer vs engine answer",
                    found,
                )

    # -- helpers -------------------------------------------------------

    def _compare(
        self,
        kind: str,
        cycle: int,
        qid: int,
        got: frozenset[int],
        want: frozenset[int],
        detail: str,
        found: list[Divergence],
    ) -> None:
        if got == want:
            return
        try:
            client_id = self.server.client_of(qid)
        except KeyError:  # engine-only query, no client binding
            client_id = -1
        found.append(
            Divergence(
                kind=kind,
                cycle=cycle,
                qid=qid,
                client_id=client_id,
                oids=tuple(sorted(got ^ want)),
                detail=detail,
            )
        )

    def _recompute_all(self) -> dict[int, frozenset[int]]:
        """Brute-force every query's answer from raw object state.

        Reads the object columns from ``engine.objects`` once and
        nothing from the grid, the index or the incremental bookkeeping.
        Range containment is exact in numpy (closed bounds, the same
        comparisons as :meth:`Rect.contains_point`).  k-NN and
        predictive answers are screened in numpy with a conservative
        slack; the survivors get the exact scalar verdict —
        ``(Point.distance_to, oid)`` ranking and
        ``engine._predicted_in_region`` — so the oracle cross-checks,
        rather than shares, the columnar ``predicted_inside`` kernel.
        """
        engine = self.server.engine
        objects = engine.objects
        n = len(objects)
        states = list(objects.values())
        oid_list = list(objects)
        cols = _ObjectColumns(
            states=states,
            oid_list=oid_list,
            oids=np.array(oid_list, dtype=np.int64),
            xs=np.fromiter((s.location.x for s in states), np.float64, n),
            ys=np.fromiter((s.location.y for s in states), np.float64, n),
            vxs=np.fromiter((s.velocity.vx for s in states), np.float64, n),
            vys=np.fromiter((s.velocity.vy for s in states), np.float64, n),
            ts=np.fromiter((s.t for s in states), np.float64, n),
        )
        by_kind: dict[QueryKind, list] = {kind: [] for kind in QueryKind}
        for query in engine.queries.values():
            by_kind[query.kind].append(query)
        answers: dict[int, frozenset[int]] = {}
        _range_answers(by_kind[QueryKind.RANGE], cols, answers)
        _knn_answers(by_kind[QueryKind.KNN], cols, answers)
        _predictive_answers(
            by_kind[QueryKind.PREDICTIVE_RANGE], cols, engine, answers
        )
        return answers


@dataclass(frozen=True, slots=True)
class _ObjectColumns:
    """One snapshot of ``engine.objects`` as parallel columns."""

    states: list[ObjectState]
    oid_list: list[int]
    oids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    vxs: np.ndarray
    vys: np.ndarray
    ts: np.ndarray


def _row_chunks(rows: int, width: int):
    """``(lo, hi)`` row slices whose ``rows x width`` blocks fit
    :data:`_CHUNK_CELLS`."""
    step = max(1, _CHUNK_CELLS // max(width, 1))
    for lo in range(0, rows, step):
        yield lo, min(rows, lo + step)


def _magnitude(*arrays: np.ndarray) -> float:
    """The largest absolute value in any of ``arrays`` (0 if empty)."""
    return max(float(np.abs(a).max(initial=0.0)) for a in arrays)


def _region_bounds(queries: list) -> np.ndarray:
    """``(q, 4)`` array of ``min_x, min_y, max_x, max_y`` columns."""
    return np.array(
        [
            (q.region.min_x, q.region.min_y, q.region.max_x, q.region.max_y)
            for q in queries
        ],
        dtype=np.float64,
    )


def _range_answers(
    queries: list[RangeQueryState],
    cols: _ObjectColumns,
    answers: dict[int, frozenset[int]],
) -> None:
    if not queries:
        return
    bounds = _region_bounds(queries)
    xs, ys = cols.xs, cols.ys
    for lo, hi in _row_chunks(len(queries), len(xs)):
        b = bounds[lo:hi]
        inside = (
            (b[:, 0:1] <= xs)
            & (xs <= b[:, 2:3])
            & (b[:, 1:2] <= ys)
            & (ys <= b[:, 3:4])
        )
        for row, query in enumerate(queries[lo:hi]):
            answers[query.qid] = frozenset(cols.oids[inside[row]].tolist())


def _knn_answers(
    queries: list[KnnQueryState],
    cols: _ObjectColumns,
    answers: dict[int, frozenset[int]],
) -> None:
    if not queries:
        return
    n = len(cols.oid_list)
    everyone = frozenset(cols.oid_list)
    centers = np.array(
        [(q.center.x, q.center.y) for q in queries], dtype=np.float64
    )
    states, oid_list = cols.states, cols.oid_list
    for lo, hi in _row_chunks(len(queries), n):
        dx = cols.xs - centers[lo:hi, 0:1]
        dy = cols.ys - centers[lo:hi, 1:2]
        dist2 = dx * dx + dy * dy
        for row, query in enumerate(queries[lo:hi]):
            k = query.k
            if k >= n:
                answers[query.qid] = everyone
                continue
            d2 = dist2[row]
            kth = np.partition(d2, k - 1)[k - 1]
            # Every true top-k member lies within a few ulps of the
            # screened k-th distance; the band keeps all of them and
            # the exact ranking below decides ties by oid.
            band = np.flatnonzero(d2 <= kth * (1.0 + _SLACK) + _TINY)
            center = query.center
            ranked = sorted(
                (states[i].location.distance_to(center), oid_list[i])
                for i in band.tolist()
            )
            answers[query.qid] = frozenset(oid for _, oid in ranked[:k])


def _predictive_answers(
    queries: list[PredictiveQueryState],
    cols: _ObjectColumns,
    engine: IncrementalEngine,
    answers: dict[int, frozenset[int]],
) -> None:
    if not queries:
        return
    now = engine.now
    xs, ys, vxs, vys, ts = cols.xs, cols.ys, cols.vxs, cols.vys, cols.ts
    # The window clamp of ``_predicted_in_region``, in the same float
    # operations: start no earlier than the report, end no later than
    # the trusted extrapolation span.
    start = np.maximum(now, ts)
    trusted_end = ts + engine.prediction_horizon
    start_x = xs + vxs * (start - ts)
    start_y = ys + vys * (start - ts)
    bounds = _region_bounds(queries)
    horizons = np.array([q.horizon for q in queries], dtype=np.float64)
    states, oid_list = cols.states, cols.oid_list
    for lo, hi in _row_chunks(len(queries), len(xs)):
        end = np.minimum(now + horizons[lo:hi, None], trusted_end)
        end_x = xs + vxs * (end - ts)
        end_y = ys + vys * (end - ts)
        b = bounds[lo:hi]
        slack = _SLACK * (
            1.0 + _magnitude(b, start_x, start_y, end_x, end_y)
        )
        # The window segment's bounding box against the slack-grown
        # region: a miss here is a miss for the exact clip as well.
        maybe = (
            (end >= start)
            & (np.minimum(start_x, end_x) <= b[:, 2:3] + slack)
            & (np.maximum(start_x, end_x) >= b[:, 0:1] - slack)
            & (np.minimum(start_y, end_y) <= b[:, 3:4] + slack)
            & (np.maximum(start_y, end_y) >= b[:, 1:2] - slack)
        )
        for row, query in enumerate(queries[lo:hi]):
            answers[query.qid] = frozenset(
                oid_list[i]
                for i in np.flatnonzero(maybe[row]).tolist()
                if engine._predicted_in_region(query, states[i])
            )
