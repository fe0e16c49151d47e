"""Scalar/batch home-cell bit-identity (the shared cellmath kernel).

``Grid.cell_of`` and the batch kernel ``point_cells_batch`` must agree
bit for bit on every coordinate — including cell-boundary points, the
world edge, and out-of-world coordinates that clamp — because the batch
ingest path substitutes one for the other and the equivalence contract
is byte-identical update streams.  Hypothesis hunts the boundary cases;
a deterministic sweep pins exact cell-edge multiples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point, Rect
from repro.grid import Grid
from repro.grid.cellmath import clamp_axis_index, point_cell, point_cells_batch

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

# Coordinates straddling the world: in-world, clamped, and boundary.
coords = st.floats(
    min_value=-0.5, max_value=1.5, allow_nan=False, allow_infinity=False
)
grid_sizes = st.integers(min_value=1, max_value=64)


@given(grid_sizes, coords, coords)
def test_scalar_kernel_matches_grid_cell_of(n, x, y):
    grid = Grid(UNIT, n)
    p = Point(min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0))
    assert (
        point_cell(p.x, p.y, 0.0, 0.0, grid.cell_width, grid.cell_height, n)
        == grid.cell_of(p)
    )


@given(grid_sizes, st.lists(st.tuples(coords, coords), min_size=1, max_size=64))
def test_batch_kernel_matches_scalar_on_arbitrary_points(n, points):
    grid = Grid(UNIT, n)
    xs = np.asarray([x for x, _ in points])
    ys = np.asarray([y for _, y in points])
    got = point_cells_batch(xs, ys, grid).tolist()
    want = [
        point_cell(x, y, 0.0, 0.0, grid.cell_width, grid.cell_height, n)
        for x, y in points
    ]
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64])
def test_batch_kernel_bit_identical_on_cell_boundaries(n):
    """Exact cell-edge multiples: k/n for every k, plus the nearest
    floats on either side — where truncate-vs-floor or rounding drift
    between the scalar and vectorized forms would first show."""
    grid = Grid(UNIT, n)
    edges = []
    for k in range(n + 1):
        edge = k / n
        edges.extend(
            (
                max(0.0, min(1.0, v))
                for v in (
                    edge,
                    float(np.nextafter(edge, -1.0)),
                    float(np.nextafter(edge, 2.0)),
                )
            )
        )
    xs = np.asarray([x for x in edges for _ in edges])
    ys = np.asarray([y for _ in edges for y in edges])
    got = point_cells_batch(xs, ys, grid).tolist()
    want = [grid.cell_of(Point(x, y)) for x, y in zip(xs.tolist(), ys.tolist())]
    assert got == want


@given(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    grid_sizes,
)
def test_clamp_axis_index_stays_in_range(value, n):
    idx = clamp_axis_index(value, 0.0, 1.0 / n, n)
    assert 0 <= idx <= n - 1
