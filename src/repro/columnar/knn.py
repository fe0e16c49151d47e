"""Columnar k-NN search: ring expansion with batch distance filtering.

Same algorithm and *identical results* as :func:`repro.core.knn.knn_search`
— expanding ring over the grid, max-heap of the k best ``(distance,
oid)`` candidates, stop once the k-th best distance beats the next
ring's lower bound — but the per-candidate distance work is split in
two:

1. a vectorized squared-distance pass over the ring's whole candidate
   batch, pruning every candidate that provably cannot enter the heap
   (``d² > kth² · (1 + 1e-12)`` — the relative margin covers the few-ulp
   disagreement between the squared form and the exact distance, and
   the heap's k-th distance only shrinks within a ring, so a candidate
   the ring-start bound rejects could never have displaced anything);
2. an exact ``math.hypot`` for the survivors only.  CPython's ``hypot``
   is correctly rounded and is what :meth:`Point.distance_to` uses, so
   ranked distances — and therefore the maintained k-NN circle radius —
   stay bit-identical to the scalar search.

Tiny rings skip the vectorized pass entirely (numpy call overhead
exceeds the work below ~8 candidates).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

#: Below this many ring candidates the scalar path wins.
MIN_VECTOR_CANDIDATES = 8

#: Relative safety margin for squared-distance pruning.
PRUNE_MARGIN = 1.0 + 1e-12


def knn_search_columnar(index, ostore, center, k: int):
    """The ``(distance, oid)`` list of the k nearest stored objects.

    Drop-in equivalent of :func:`repro.core.knn.knn_search` over a
    :class:`~repro.columnar.store.ColumnarObjectStore`.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    grid = index.grid
    home = grid.cell_of(center)
    max_radius = grid.max_ring_radius(home)
    cell_extent = min(grid.cell_width, grid.cell_height)
    cx = center.x
    cy = center.y
    xs = ostore.xs
    ys = ostore.ys
    row_of = ostore._row_of

    heap: list[tuple[float, int]] = []
    seen: set[int] = set()
    candidates: list[int] = []
    for radius in range(max_radius + 1):
        if len(heap) == k and (radius - 1) * cell_extent > -heap[0][0]:
            break
        candidates.clear()
        for cell in grid.ring_around(home, radius):
            bucket = index.bucket(cell)
            if bucket is None:
                continue
            for oid in bucket.objects:
                if oid in seen:
                    continue
                seen.add(oid)
                candidates.append(oid)
        if not candidates:
            continue
        if len(heap) == k and len(candidates) >= MIN_VECTOR_CANDIDATES:
            # Batch filter: squared distances for the whole ring, keep
            # only candidates that could still enter the heap.
            rows = np.fromiter(
                (row_of[oid] for oid in candidates),
                dtype=np.int64,
                count=len(candidates),
            )
            x_view, y_view = ostore.xy_views()
            dx = x_view[rows] - cx
            dy = y_view[rows] - cy
            d2 = dx * dx + dy * dy
            kth = -heap[0][0]
            survivors = np.nonzero(d2 <= kth * kth * PRUNE_MARGIN)[0]
            pool = [candidates[i] for i in survivors.tolist()]
        else:
            pool = candidates
        for oid in pool:
            row = row_of[oid]
            distance = math.hypot(xs[row] - cx, ys[row] - cy)
            candidate = (-distance, -oid)
            if len(heap) < k:
                heapq.heappush(heap, candidate)
            elif candidate > heap[0]:
                heapq.heapreplace(heap, candidate)
    return sorted((-d, -negated_oid) for d, negated_oid in heap)
