"""Columnar (struct-of-arrays) stores and batch kernels.

The ``pipeline="columnar"`` evaluation core: object and query state
mirrored into parallel arrays (:mod:`repro.columnar.store`), batch
kernels for the cell-range join and cohort membership classification
(:mod:`repro.columnar.kernels`) and k-NN candidate distance filtering
(:mod:`repro.columnar.knn`), orchestrated per evaluation by
:class:`~repro.columnar.evaluate.ColumnarEvaluator`.  Kernels run on
numpy, a declared runtime dependency.
"""

from repro.columnar.evaluate import ColumnarEvaluator
from repro.columnar.ingest import MULTI_CELL, NOT_INDEXED, BatchIngest
from repro.columnar.kernels import PairPlan, classify_transitions
from repro.columnar.knn import knn_search_columnar
from repro.columnar.store import (
    KIND_KNN,
    KIND_PREDICTIVE,
    KIND_RANGE,
    ColumnarAnswerStore,
    ColumnarObjectStore,
    ColumnarQueryStore,
)

__all__ = [
    "BatchIngest",
    "MULTI_CELL",
    "NOT_INDEXED",
    "ColumnarAnswerStore",
    "ColumnarEvaluator",
    "ColumnarObjectStore",
    "ColumnarQueryStore",
    "KIND_KNN",
    "KIND_PREDICTIVE",
    "KIND_RANGE",
    "PairPlan",
    "classify_transitions",
    "knn_search_columnar",
]
