"""Columnar (struct-of-arrays) stores for objects and queries.

The engine's per-object dataclasses are the right shape for scalar
incremental maintenance but the wrong shape for batch kernels: a
containment test over a million (query, object) pairs wants the four
query bounds and the four object coordinates as flat ``float64``
columns, not attribute chases through ``ObjectState.location.x``.

These stores keep that flat mirror **incrementally** — every ingestion
phase of :class:`repro.core.engine.IncrementalEngine` writes through to
them, so building a batch kernel's input is array slicing, never a
rebuild.  Two design rules:

* Columns are stdlib ``array.array`` buffers.  Scalar writes (one
  report, one query move) cost an index assignment, and the numpy
  kernels view the very same buffers zero-copy through
  ``np.frombuffer``.  Views must be re-taken after any append
  (``array`` reallocates); the kernels take them fresh per batch.
* Rows are dense and unordered, with swap-remove deletion.  An
  identifier's row can change on *any* removal, so row handles are only
  valid between store mutations — the evaluator resolves rows per
  evaluation and caches them keyed on :attr:`ColumnarQueryStore.version`.

Object rows also carry the **previous** coordinates (``old_xs`` /
``old_ys``): the batch membership kernel classifies enter/leave/still
transitions by recomputing prior membership *geometrically* (a range
answer is exactly the set of objects inside the region, so "was a
member" == "old location inside current bounds"), which is what lets
the kernel run without any per-pair membership lookup.  New objects get
NaN old coordinates — every containment test on NaN is False, exactly
the "was not a member of anything" a fresh object needs.

Query rows are descriptors ``(kind, min_x, min_y, max_x, max_y)`` with
zeroed bounds for k-NN and predictive kinds.

:class:`ColumnarAnswerStore` completes the mirror set: answer
membership as sorted per-query oid arrays, lazily rebuilt from the
live ``set`` objects and explicitly invalidated by the engine whenever
it mutates an answer outside the array paths.  The evaluator's
predictive refresh reads and writes these arrays directly (one
``searchsorted`` delta instead of per-candidate set probes), the
answered sweep derives its k-NN member union from them, and
:meth:`ColumnarAnswerStore.csr` snapshots any qid subset as CSR
offsets + values for batch consumers.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

#: Query-kind codes.
KIND_RANGE = 0
KIND_KNN = 1
KIND_PREDICTIVE = 2

_NAN = float("nan")


def _f64_view(column: array):
    """Zero-copy float64 numpy view over an ``array('d')`` column."""
    if not column:
        return np.empty(0, dtype=np.float64)
    return np.frombuffer(column, dtype=np.float64)


class ColumnarObjectStore:
    """Parallel arrays of object state: oid, x, y, old x/y, velocity,
    report time, and home cell.

    ``apply_report`` is the single write path for position state (the
    engine calls it from its report-grouping phase), ``remove`` the
    single delete path.  ``row_of`` maps an oid to its current row.
    """

    __slots__ = (
        "oids",
        "xs",
        "ys",
        "old_xs",
        "old_ys",
        "vxs",
        "vys",
        "ts",
        "cells",
        "_row_of",
    )

    def __init__(self) -> None:
        self.oids = array("q")
        self.xs = array("d")
        self.ys = array("d")
        self.old_xs = array("d")
        self.old_ys = array("d")
        self.vxs = array("d")
        self.vys = array("d")
        self.ts = array("d")
        self.cells = array("q")
        self._row_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.oids)

    def __contains__(self, oid: int) -> bool:
        return oid in self._row_of

    def row_of(self, oid: int) -> int:
        """The current row of ``oid`` (valid until the next mutation)."""
        return self._row_of[oid]

    def apply_report(
        self,
        oid: int,
        x: float,
        y: float,
        vx: float,
        vy: float,
        t: float,
        cell: int,
    ) -> int:
        """Write one location report through; returns the object's row.

        An existing object's current coordinates become its old
        coordinates; a new object gets NaN old coordinates (member of
        nothing under every containment test).
        """
        row = self._row_of.get(oid)
        if row is None:
            row = len(self.oids)
            self._row_of[oid] = row
            self.oids.append(oid)
            self.xs.append(x)
            self.ys.append(y)
            self.old_xs.append(_NAN)
            self.old_ys.append(_NAN)
            self.vxs.append(vx)
            self.vys.append(vy)
            self.ts.append(t)
            self.cells.append(cell)
        else:
            xs = self.xs
            ys = self.ys
            self.old_xs[row] = xs[row]
            self.old_ys[row] = ys[row]
            xs[row] = x
            ys[row] = y
            self.vxs[row] = vx
            self.vys[row] = vy
            self.ts[row] = t
            self.cells[row] = cell
        return row

    def batch_apply(self, oids, xs, ys, vxs, vys, ts, cells) -> None:
        """Apply one whole report buffer in a few array passes.

        Equivalent to ``apply_report`` once per element — the oids must
        be **distinct** within the batch (the engine's report buffer is
        a dict, so they are).  Columns may be any aligned sequences;
        they are lifted to ndarrays (float64 coordinates/velocities/
        times, int64 oids and cells).  New rows are bulk-appended via
        ``frombytes`` and existing rows updated by gather/scatter
        through zero-copy ``frombuffer`` views (``array.array`` buffers
        are writable, so scatters write through).
        """
        oids = np.asarray(oids, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        vxs = np.asarray(vxs, dtype=np.float64)
        vys = np.asarray(vys, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.float64)
        cells = np.asarray(cells, dtype=np.int64)
        row_of = self._row_of
        get = row_of.get
        count = len(oids)
        # tolist() + map keeps the lookup loop in C and avoids boxing
        # one np.int64 per element.
        rows = np.fromiter(
            map(get, oids.tolist(), repeat(-1)), dtype=np.int64, count=count
        )
        fresh = np.flatnonzero(rows < 0)
        if len(fresh):
            # Bulk-append new rows first so the scatter views below are
            # taken after the last reallocation.
            base = len(self.oids)
            for offset, oid in enumerate(oids[fresh].tolist()):
                row_of[oid] = base + offset
            self.oids.frombytes(oids[fresh].tobytes())
            self.xs.frombytes(xs[fresh].tobytes())
            self.ys.frombytes(ys[fresh].tobytes())
            nan_block = np.full(len(fresh), _NAN).tobytes()
            self.old_xs.frombytes(nan_block)
            self.old_ys.frombytes(nan_block)
            self.vxs.frombytes(vxs[fresh].tobytes())
            self.vys.frombytes(vys[fresh].tobytes())
            self.ts.frombytes(ts[fresh].tobytes())
            self.cells.frombytes(cells[fresh].tobytes())
        known = (
            np.flatnonzero(rows >= 0) if len(fresh) else np.arange(count)
        )
        if len(known):
            target = rows[known]
            xs_v = np.frombuffer(self.xs, dtype=np.float64)
            ys_v = np.frombuffer(self.ys, dtype=np.float64)
            old_xs_v = np.frombuffer(self.old_xs, dtype=np.float64)
            old_ys_v = np.frombuffer(self.old_ys, dtype=np.float64)
            old_xs_v[target] = xs_v[target]
            old_ys_v[target] = ys_v[target]
            xs_v[target] = xs[known]
            ys_v[target] = ys[known]
            np.frombuffer(self.vxs, dtype=np.float64)[target] = vxs[known]
            np.frombuffer(self.vys, dtype=np.float64)[target] = vys[known]
            np.frombuffer(self.ts, dtype=np.float64)[target] = ts[known]
            np.frombuffer(self.cells, dtype=np.int64)[target] = cells[known]

    def remove(self, oid: int) -> None:
        """Swap-remove ``oid``'s row; unknown oids raise ``KeyError``."""
        row = self._row_of.pop(oid)
        last = len(self.oids) - 1
        if row != last:
            moved = self.oids[last]
            self.oids[row] = moved
            self.xs[row] = self.xs[last]
            self.ys[row] = self.ys[last]
            self.old_xs[row] = self.old_xs[last]
            self.old_ys[row] = self.old_ys[last]
            self.vxs[row] = self.vxs[last]
            self.vys[row] = self.vys[last]
            self.ts[row] = self.ts[last]
            self.cells[row] = self.cells[last]
            self._row_of[moved] = row
        self.oids.pop()
        self.xs.pop()
        self.ys.pop()
        self.old_xs.pop()
        self.old_ys.pop()
        self.vxs.pop()
        self.vys.pop()
        self.ts.pop()
        self.cells.pop()

    def coord_views(self):
        """Fresh zero-copy numpy views ``(x, y, old_x, old_y)``.

        Only valid until the next append/remove.
        """
        return (
            _f64_view(self.xs),
            _f64_view(self.ys),
            _f64_view(self.old_xs),
            _f64_view(self.old_ys),
        )

    def xy_views(self):
        """Fresh zero-copy numpy views ``(x, y)``."""
        return _f64_view(self.xs), _f64_view(self.ys)


class ColumnarQueryStore:
    """Parallel arrays of query descriptors: qid, kind code, and range
    bounds (zeroed for k-NN and predictive kinds).

    ``version`` increments on **every** mutation; downstream caches
    (the evaluator's per-cell candidate entries, whose contents embed
    store rows and range bounds) key their validity on it.  k-NN
    footprint re-placements in the grid index do *not* touch this store
    — deliberately, since they happen every evaluation and never affect
    a cached range/predictive entry.
    """

    __slots__ = (
        "qids",
        "kinds",
        "min_xs",
        "min_ys",
        "max_xs",
        "max_ys",
        "_row_of",
        "version",
    )

    def __init__(self) -> None:
        self.qids = array("q")
        self.kinds = array("b")
        self.min_xs = array("d")
        self.min_ys = array("d")
        self.max_xs = array("d")
        self.max_ys = array("d")
        self._row_of: dict[int, int] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self.qids)

    def __contains__(self, qid: int) -> bool:
        return qid in self._row_of

    def row_of(self, qid: int) -> int:
        """The current row of ``qid`` (valid until the next mutation)."""
        return self._row_of[qid]

    def put(
        self,
        qid: int,
        kind: int,
        min_x: float = 0.0,
        min_y: float = 0.0,
        max_x: float = 0.0,
        max_y: float = 0.0,
    ) -> int:
        """Insert or update one query's descriptor row; returns the row."""
        self.version += 1
        row = self._row_of.get(qid)
        if row is None:
            row = len(self.qids)
            self._row_of[qid] = row
            self.qids.append(qid)
            self.kinds.append(kind)
            self.min_xs.append(min_x)
            self.min_ys.append(min_y)
            self.max_xs.append(max_x)
            self.max_ys.append(max_y)
        else:
            self.kinds[row] = kind
            self.min_xs[row] = min_x
            self.min_ys[row] = min_y
            self.max_xs[row] = max_x
            self.max_ys[row] = max_y
        return row

    def remove(self, qid: int) -> None:
        """Swap-remove ``qid``'s row; unknown qids raise ``KeyError``."""
        self.version += 1
        row = self._row_of.pop(qid)
        last = len(self.qids) - 1
        if row != last:
            moved = self.qids[last]
            self.qids[row] = moved
            self.kinds[row] = self.kinds[last]
            self.min_xs[row] = self.min_xs[last]
            self.min_ys[row] = self.min_ys[last]
            self.max_xs[row] = self.max_xs[last]
            self.max_ys[row] = self.max_ys[last]
            self._row_of[moved] = row
        self.qids.pop()
        self.kinds.pop()
        self.min_xs.pop()
        self.min_ys.pop()
        self.max_xs.pop()
        self.max_ys.pop()

    def descriptor(self, qid: int) -> tuple[int, float, float, float, float]:
        """``(kind, min_x, min_y, max_x, max_y)`` for ``qid``."""
        row = self._row_of[qid]
        return (
            self.kinds[row],
            self.min_xs[row],
            self.min_ys[row],
            self.max_xs[row],
            self.max_ys[row],
        )

    def bounds_views(self):
        """Fresh zero-copy numpy views ``(min_x, min_y, max_x, max_y)``.

        Only valid until the next ``put`` of a new qid or ``remove``.
        """
        return (
            _f64_view(self.min_xs),
            _f64_view(self.min_ys),
            _f64_view(self.max_xs),
            _f64_view(self.max_ys),
        )


class _NoopCounter:
    """Stands in for registry counters when no registry is wired."""

    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        pass


_NOOP_COUNTER = _NoopCounter()


class ColumnarAnswerStore:
    """Answer membership as sorted per-query oid arrays.

    Each entry mirrors one query's live ``answer`` set as an ascending
    ``int64`` ndarray.
    Entries are built lazily on :meth:`get` and stay valid until the
    engine **invalidates** them: a length check catches most drift
    defensively, but same-length membership swaps (one oid out, one
    in) are invisible to it, so every code path that mutates a
    mirrored answer outside the array paths must call
    :meth:`invalidate` — the engine does this for removals,
    unregistrations, query moves, scalar predictive refreshes, and
    k-NN re-solves.

    ``version`` increments on every write (put, rebuild, invalidate);
    derived snapshots — the evaluator's k-NN member union, CSR views —
    key their validity on it.  Hit/miss/invalidation counters surface
    the cache's churn (``engine_answer_cache_*_total``).
    """

    __slots__ = (
        "_arrays",
        "version",
        "_m_hits",
        "_m_misses",
        "_m_invalidations",
    )

    def __init__(self, registry=None) -> None:
        self._arrays: dict[int, object] = {}
        self.version = 0
        if registry is not None:
            counter = registry.counter
            self._m_hits = counter("engine_answer_cache_hits_total")
            self._m_misses = counter("engine_answer_cache_misses_total")
            self._m_invalidations = counter(
                "engine_answer_cache_invalidations_total"
            )
        else:
            self._m_hits = _NOOP_COUNTER
            self._m_misses = _NOOP_COUNTER
            self._m_invalidations = _NOOP_COUNTER

    def __len__(self) -> int:
        return len(self._arrays)

    def __contains__(self, qid: int) -> bool:
        return qid in self._arrays

    def get(self, qid: int, live) -> object:
        """``qid``'s sorted oid array, coherent with the ``live`` set.

        A cached array whose length matches the live set is served as a
        hit; anything else (absent, or a missed invalidation caught by
        the length check) rebuilds from ``live`` and counts a miss.
        """
        arr = self._arrays.get(qid)
        if arr is not None and len(arr) == len(live):
            self._m_hits.inc()
            return arr
        self._m_misses.inc()
        arr = np.fromiter(live, dtype=np.int64, count=len(live))
        arr.sort()
        self._arrays[qid] = arr
        self.version += 1
        return arr

    def peek(self, qid: int):
        """The cached array, or ``None`` — never rebuilds."""
        return self._arrays.get(qid)

    def put(self, qid: int, arr) -> None:
        """Install a known-sorted answer array (the predictive refresh
        writes ``candidates[inside]`` back directly)."""
        self._arrays[qid] = arr
        self.version += 1

    def invalidate(self, qid: int) -> None:
        """Drop ``qid``'s array after an out-of-band answer mutation.

        Always bumps ``version`` — derived snapshots may depend on the
        *live* set even when no array was cached for ``qid``.
        """
        self.version += 1
        self._m_invalidations.inc()
        self._arrays.pop(qid, None)

    def csr(self, qids, live_of):
        """CSR snapshot ``(offsets, values)`` over ``qids`` (in order).

        ``live_of(qid)`` supplies each query's live answer set; rows
        come from :meth:`get`, so repeated snapshots are cache hits.
        Both outputs are ``int64`` ndarrays.
        """
        parts = [self.get(qid, live_of(qid)) for qid in qids]
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        if parts:
            np.cumsum(
                np.fromiter(map(len, parts), dtype=np.int64, count=len(parts)),
                out=offsets[1:],
            )
            values = np.concatenate(parts)
        else:
            values = np.empty(0, dtype=np.int64)
        return offsets, values
