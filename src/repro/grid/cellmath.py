"""Home-cell arithmetic shared by every pipeline, scalar and batch.

The clamped truncate-divide below is the *definition* of a point's home
cell: ``Grid.cell_of`` uses the scalar form, and the columnar batch
ingest applies the vectorized form to a whole report buffer.  Both live
here so the two can never drift — the batch kernel's cohort keys must be
bit-identical to the serial pipelines' or update streams diverge.

Truncation parity: Python's ``int()`` on a float and numpy's
``.astype(np.int64)`` both truncate toward zero (C cast semantics), so
a marginally out-of-world coordinate like ``x = min_x - 0.3`` yields
``-0`` either way before clamping pins it to the border cell.  The
hypothesis suite (``tests/grid/test_cellmath.py``) pins this on
boundary coordinates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["clamp_axis_index", "point_cell", "point_cells_batch"]


def clamp_axis_index(value: float, origin: float, step: float, n: int) -> int:
    """The clamped index of ``value`` along one grid axis.

    Points on shared cell boundaries land in the higher-index cell
    (truncate-divide), except on the world's outer maximum edge which
    folds back into the last row/column via the clamp.
    """
    index = int((value - origin) / step)
    if index < 0:
        return 0
    last = n - 1
    return last if index > last else index


def point_cell(
    x: float,
    y: float,
    min_x: float,
    min_y: float,
    cell_w: float,
    cell_h: float,
    n: int,
) -> int:
    """Flattened home-cell index ``row * n + col`` of one point."""
    return (
        clamp_axis_index(y, min_y, cell_h, n) * n
        + clamp_axis_index(x, min_x, cell_w, n)
    )


def point_cells_batch(xs, ys, grid):
    """Home cells of a whole coordinate batch, bit-identical to
    :func:`point_cell` element for element.

    ``xs``/``ys`` are float64 ndarrays of finite coordinates (report
    ingestion clamps to the world, but any value within int64 cast
    range is handled identically to the scalar path).  Returns an int64
    ndarray of cell ids.
    """
    world = grid.world
    n = grid.n
    cols = ((xs - world.min_x) / grid.cell_width).astype(np.int64)
    np.clip(cols, 0, n - 1, out=cols)
    rows = ((ys - world.min_y) / grid.cell_height).astype(np.int64)
    np.clip(rows, 0, n - 1, out=rows)
    rows *= n
    rows += cols
    return rows
