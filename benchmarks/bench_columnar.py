"""Columnar SoA evaluation core vs the serial cell-batched pipeline.

``pipeline="columnar"`` replaces the cell-batched pipeline's per-pair
Python membership loop with batch array kernels over struct-of-arrays
mirrors (see ``repro/columnar/``).  This benchmark drives both pipelines
through the same buffered move rounds and checks two things:

* **golden equivalence** — the columnar pipeline's ordered update
  stream must be byte-identical to the cell-batched stream, every
  round;
* **speedup** — at full scale (100K objects / 10K queries) the
  columnar pipeline must deliver >= 1.5x the cell-batched report
  throughput end-to-end *and* >= 1.3x on the report-ingest phase
  alone (the batch ingest kernel vs the serial grouping loop, read
  from each engine's ``engine_ingest_seconds_total`` counter).

Per-round phase seconds (ingest on both engines; plan/join/emit on the
columnar evaluator) are sampled from the engines' own counters and
written into the JSON summary, so regressions can be localised to a
phase without re-profiling.  The emit phase's throughput
(``emit_updates_per_sec``) is recorded for the CI history gate.

Methodology: the two engines are measured **paired and interleaved** —
round k of the serial engine, then round k of the columnar engine, then
their streams are compared and dropped.  A per-round ratio is taken and
the median ratio is the verdict.  Sequential whole-run timing is *not*
comparable on shared hosts: minutes-apart measurements see different
machine load, and retaining both full update streams (~10^6 updates per
round at full scale) distorts allocator behaviour for whichever engine
runs second.  The first round is a warm-up (the columnar evaluator's
candidate caches are cold) and is excluded from the ratio.

Runs two ways:

* under pytest (with pytest-benchmark)::

      PYTHONPATH=src pytest benchmarks/bench_columnar.py --benchmark-only

* as a plain script (used by CI's smoke job)::

      PYTHONPATH=src python benchmarks/bench_columnar.py --quick

``--quick`` shrinks the workload and checks equivalence only.  Both
modes write a ``BENCH_columnar.json`` summary at the repo root.
"""

from __future__ import annotations

import gc
import statistics
import time

from bench_bulk_pipeline import (
    GRID_SIZE,
    SEED,
    buffer_round,
    build_workload,
)
from conftest import scaled, write_bench_json

from repro.core.engine import IncrementalEngine
from repro.obs import MetricsRegistry
from repro.stats import format_table

FULL_OBJECTS = 100_000
FULL_QUERIES = 10_000
QUICK_OBJECTS = 4_000
QUICK_QUERIES = 400
#: Timed paired rounds (after one untimed warm-up round).
TIMED_ROUNDS = 5
SPEEDUP_TARGET = 1.5
#: Paired report-ingest phase speedup gate (batch ingest kernel vs the
#: serial grouping loop), same applicability rules as SPEEDUP_TARGET.
INGEST_SPEEDUP_TARGET = 1.3


def build_engines(n_objects: int, n_queries: int):
    """A (cell-batched, columnar) engine pair over identical workloads."""
    initial, queries, move_rounds = build_workload(n_objects, n_queries)
    engines = []
    for pipeline in ("cell-batched", "columnar"):
        engine = IncrementalEngine(
            grid_size=GRID_SIZE,
            prediction_horizon=60.0,
            pipeline=pipeline,
            registry=MetricsRegistry(),
        )
        for oid, location in initial:
            engine.report_object(oid, location, 0.0)
        for spec in queries:
            if spec[0] == "range":
                engine.register_range_query(spec[1], spec[2])
            elif spec[0] == "knn":
                engine.register_knn_query(spec[1], spec[2], spec[3])
            else:
                engine.register_predictive_query(spec[1], spec[2], spec[3])
        engine.evaluate(0.0)
        engines.append(engine)
    return engines[0], engines[1], move_rounds


#: Phase counters sampled per round: (key, metric name, labels).
_PHASE_COUNTERS = (
    ("ingest", "engine_ingest_seconds_total", None),
    ("plan", "engine_columnar_phase_seconds_total", {"phase": "plan"}),
    ("join", "engine_columnar_phase_seconds_total", {"phase": "join"}),
    ("emit", "engine_columnar_phase_seconds_total", {"phase": "emit"}),
)


def _phase_snapshot(engine) -> dict[str, float]:
    """Current cumulative phase-seconds counters for one engine.

    Counters an engine never touches (the cell-batched engine has no
    plan/join/emit phases) read as 0.0, so deltas stay well-defined.
    """
    registry = engine.registry
    return {
        key: registry.counter(name, labels=labels).value
        for key, name, labels in _PHASE_COUNTERS
    }


#: Per-round evaluation orders: the engines alternate positions,
#: cancelling monotonic load drift within a round.
_EVAL_ORDERS = (("serial", "columnar"), ("columnar", "serial"))


def _updates_emitted(engine) -> float:
    return engine.registry.counter("engine_updates_emitted_total").value


def run_paired(serial, columnar, move_rounds, timed_rounds: int):
    """Interleaved paired rounds; returns per-round (serial s, columnar s)
    plus per-round phase seconds from each engine's counters.

    Every round — including the untimed warm-up — asserts byte-identical
    ordered update streams across both engines, then discards them so
    neither engine's later rounds are measured under the other's garbage.

    Phase seconds come from the engines' own counters
    (``engine_ingest_seconds_total`` on both pipelines,
    ``engine_columnar_phase_seconds_total{phase=...}`` on the columnar
    engine), sampled before and after each round — the same paired,
    per-round deltas as the wall clock, so the phase ratios share the
    wall-clock ratio's robustness to drifting machine load.
    ``emit_updates`` counts ``engine_updates_emitted_total`` deltas on
    the columnar engine, giving an emission throughput per round.

    The engines alternate through :data:`_EVAL_ORDERS` round to round:
    within a round they run seconds apart, so a monotonic load drift
    would otherwise consistently tax whichever engine always ran
    last.  Alternation flips the bias round to round and the median
    absorbs it.
    """
    engines = {"serial": serial, "columnar": columnar}
    pairs: list[tuple[float, float]] = []
    phases: dict[str, list[float]] = {
        "serial_ingest": [],
        "columnar_ingest": [],
        "plan": [],
        "join": [],
        "emit": [],
        "emit_updates": [],
    }
    now = 0.0
    for round_no in range(timed_rounds + 1):
        now += 1.0
        moves = move_rounds[round_no % len(move_rounds)]
        for engine in engines.values():
            buffer_round(engine, moves, now)
        gc.collect()
        gc.disable()
        try:
            before = {
                name: _phase_snapshot(engine)
                for name, engine in engines.items()
            }
            updates_before = _updates_emitted(columnar)
            seconds: dict[str, float] = {}
            streams: dict[str, object] = {}
            for name in _EVAL_ORDERS[round_no % len(_EVAL_ORDERS)]:
                started = time.perf_counter()
                streams[name] = engines[name].evaluate(now)
                seconds[name] = time.perf_counter() - started
            after = {
                name: _phase_snapshot(engine)
                for name, engine in engines.items()
            }
            updates_after = _updates_emitted(columnar)
        finally:
            gc.enable()
        assert streams["columnar"] == streams["serial"], (
            f"columnar stream diverged from cell-batched in round {round_no}"
        )
        del streams
        if round_no > 0:  # round 0 is the cache warm-up
            pairs.append((seconds["serial"], seconds["columnar"]))
            phases["serial_ingest"].append(
                after["serial"]["ingest"] - before["serial"]["ingest"]
            )
            phases["columnar_ingest"].append(
                after["columnar"]["ingest"] - before["columnar"]["ingest"]
            )
            for key in ("plan", "join", "emit"):
                phases[key].append(
                    after["columnar"][key] - before["columnar"][key]
                )
            phases["emit_updates"].append(updates_after - updates_before)
    return pairs, phases


def run_comparison(
    n_objects: int,
    n_queries: int,
    timed_rounds: int,
    assert_speedup: bool,
):
    serial, columnar, move_rounds = build_engines(n_objects, n_queries)
    pairs, phases = run_paired(serial, columnar, move_rounds, timed_rounds)
    ratios = [s / c for s, c in pairs]
    speedup = statistics.median(ratios)
    serial_times = [s for s, _ in pairs]
    columnar_times = [c for _, c in pairs]
    columnar_round = statistics.median(columnar_times)
    serial_round = statistics.median(serial_times)

    # Paired ingest-phase ratio: serial grouping loop vs batch kernel.
    ingest_ratios = [
        s / c if c > 0.0 else 1.0
        for s, c in zip(phases["serial_ingest"], phases["columnar_ingest"])
    ]
    ingest_speedup = statistics.median(ingest_ratios)
    emit_rates = [
        u / s for u, s in zip(phases["emit_updates"], phases["emit"]) if s > 0.0
    ]
    emit_updates_per_sec = statistics.median(emit_rates) if emit_rates else 0.0
    phase_medians = {
        key: statistics.median(values) if values else 0.0
        for key, values in phases.items()
    }

    rows = [
        ["cell-batched", serial_round * 1e3, n_objects / serial_round, 1.0],
        [
            "columnar",
            columnar_round * 1e3,
            n_objects / columnar_round,
            speedup,
        ],
    ]
    table = format_table(
        ["pipeline", "median round ms", "reports/s", "median paired speedup"],
        rows,
    )
    other = columnar_round - sum(
        phase_medians[key] for key in ("columnar_ingest", "plan", "join", "emit")
    )
    # The ingest row's baseline is the cell-batched grouping loop.
    # Throughput is the phase's natural unit: reports/s for ingest,
    # updates/s for emit.
    nan = float("nan")
    phase_rows = [
        [
            "ingest",
            phase_medians["columnar_ingest"] * 1e3,
            phase_medians["serial_ingest"] * 1e3,
            ingest_speedup,
            (
                n_objects / phase_medians["columnar_ingest"]
                if phase_medians["columnar_ingest"] > 0.0
                else nan
            ),
        ],
        ["plan", phase_medians["plan"] * 1e3, nan, nan, nan],
        ["join", phase_medians["join"] * 1e3, nan, nan, nan],
        [
            "emit",
            phase_medians["emit"] * 1e3,
            nan,
            nan,
            emit_updates_per_sec if emit_updates_per_sec > 0.0 else nan,
        ],
        ["other", max(other, 0.0) * 1e3, nan, nan, nan],
    ]
    phase_table = format_table(
        [
            "phase",
            "columnar median ms",
            "baseline median ms",
            "paired speedup",
            "throughput/s",
        ],
        phase_rows,
    )

    if assert_speedup:
        assert speedup >= SPEEDUP_TARGET, (
            f"columnar pipeline managed only {speedup:.2f}x over "
            f"cell-batched at {n_objects} objects / {n_queries} queries "
            f"(paired per-round ratios: "
            f"{', '.join(f'{r:.3f}' for r in ratios)})"
        )
        assert ingest_speedup >= INGEST_SPEEDUP_TARGET, (
            f"batch ingest managed only {ingest_speedup:.2f}x over the "
            f"serial grouping loop at {n_objects} objects / {n_queries} "
            f"queries (paired per-round ingest ratios: "
            f"{', '.join(f'{r:.3f}' for r in ingest_ratios)})"
        )

    return {
        "table": table,
        "phase_table": phase_table,
        "serial_times": serial_times,
        "columnar_times": columnar_times,
        "ratios": ratios,
        "speedup": speedup,
        "phases": phases,
        "phase_medians": phase_medians,
        "ingest_ratios": ingest_ratios,
        "ingest_speedup": ingest_speedup,
        "emit_updates_per_sec": emit_updates_per_sec,
        "registry": columnar.registry,
    }


def gate_applies(n_objects: int, n_queries: int) -> bool:
    """The 1.5x end-to-end and 1.3x ingest-phase gates engage only
    where they are meaningful: at full populations."""
    return n_objects >= FULL_OBJECTS and n_queries >= FULL_QUERIES


def test_columnar_pipeline(benchmark, record_series, request):
    n_objects = scaled(FULL_OBJECTS)
    n_queries = scaled(FULL_QUERIES)
    result = run_comparison(
        n_objects,
        n_queries,
        timed_rounds=3,
        assert_speedup=gate_applies(n_objects, n_queries),
    )
    record_series("columnar_pipeline", result["table"])

    # Hand one columnar bulk evaluation to pytest-benchmark.
    __, engine, move_rounds = build_engines(n_objects, n_queries)
    request.node.bench_registry = engine.registry
    clock = [0.0]

    def setup():
        clock[0] += 1.0
        buffer_round(engine, move_rounds[0], clock[0])
        return (clock[0],), {}

    benchmark.extra_info["seed"] = SEED
    benchmark.extra_info["objects"] = n_objects
    benchmark.extra_info["queries"] = n_queries
    benchmark.extra_info["grid_size"] = GRID_SIZE
    benchmark.extra_info["speedup_vs_cell_batched"] = round(
        result["speedup"], 3
    )
    benchmark.extra_info["ingest_speedup_vs_cell_batched"] = round(
        result["ingest_speedup"], 3
    )
    benchmark.pedantic(engine.evaluate, setup=setup, rounds=3)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    n_objects = QUICK_OBJECTS if quick else FULL_OBJECTS
    n_queries = QUICK_QUERIES if quick else FULL_QUERIES
    timed_rounds = 2 if quick else TIMED_ROUNDS
    label = "quick" if quick else "full"
    gated = not quick and gate_applies(n_objects, n_queries)
    print(
        f"columnar pipeline benchmark ({label}): "
        f"{n_objects} objects, {n_queries} queries, "
        f"{timed_rounds} paired rounds + warm-up"
    )
    result = run_comparison(
        n_objects,
        n_queries,
        timed_rounds=timed_rounds,
        assert_speedup=gated,
    )
    print()
    print(result["table"])
    print()
    print(result["phase_table"])
    print(
        f"\nreport-ingest phase: {result['ingest_speedup']:.2f}x paired "
        f"(batch kernel vs serial grouping loop)"
    )
    print(
        f"delta-emit phase: {result['emit_updates_per_sec']:,.0f} updates/s"
    )

    path = write_bench_json(
        "columnar",
        result["columnar_times"],
        seed=SEED,
        params={
            "mode": label,
            "objects": n_objects,
            "queries": n_queries,
            "grid_size": GRID_SIZE,
            "timed_rounds": timed_rounds,
        },
        extra={
            "cell_batched_round_seconds": result["serial_times"],
            "paired_round_ratios": result["ratios"],
            "speedup_vs_cell_batched": result["speedup"],
            "speedup_gate_applied": gated,
            "phase_round_seconds": result["phases"],
            "phase_median_seconds": result["phase_medians"],
            "ingest_round_ratios": result["ingest_ratios"],
            "ingest_speedup_vs_cell_batched": result["ingest_speedup"],
            "ingest_reports_per_sec": (
                n_objects / result["phase_medians"]["columnar_ingest"]
                if result["phase_medians"]["columnar_ingest"] > 0.0
                else 0.0
            ),
            "emit_updates_per_sec": result["emit_updates_per_sec"],
        },
        registry=result["registry"],
    )
    print(f"\nwrote {path}")
    print(
        f"golden equivalence held every round; columnar "
        f"{result['speedup']:.2f}x vs cell-batched (median paired ratio)"
        + ("" if gated else " (speedup gate not applicable for this run)")
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
