"""Telemetry overhead gate: instrumented engines vs no-op registry/tracer.

The observability plane promises an ~O(1) hot path cheap enough to leave
on in production runs — metrics, tracing, freshness stamping AND the
armed flight recorder.  This benchmark holds every bulk pipeline to
that: the same bulk workload (the 100K-object / 10K-query batch from
``bench_bulk_pipeline``) is evaluated twice per pipeline — once with a
live :class:`~repro.obs.MetricsRegistry` + :class:`~repro.obs.Tracer`
+ a :class:`~repro.obs.FlightRecorder` armed at its default ring size,
once with ``NULL_REGISTRY`` + ``NULL_TRACER`` (which also compiles the
freshness tracker and recorder down to their no-op twins) — and at full
scale the instrumented throughput must stay within 5% of the no-op
baseline for **each** of cell-batched and columnar.

Runs two ways:

* under pytest (with pytest-benchmark)::

      PYTHONPATH=src pytest benchmarks/bench_obs_overhead.py --benchmark-only

* as a plain script (used by CI's smoke job)::

      PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick

``--quick`` (or REPRO_BENCH_SCALE<1 under pytest) shrinks the workload
and drops the <5% assertion: at small scale a round is a few
milliseconds and the gate would be all jitter.  Both modes write
``BENCH_obs_overhead.json`` at the repo root via the shared reporter,
with the instrumented cell-batched engine's metrics snapshot embedded
and one ``overhead_fraction`` per gated pipeline.
"""

from __future__ import annotations

import gc
import statistics
import time

from bench_bulk_pipeline import (
    FULL_OBJECTS,
    FULL_QUERIES,
    GRID_SIZE,
    QUICK_OBJECTS,
    QUICK_QUERIES,
    SEED,
    buffer_round,
    build_engine,
    build_workload,
)
from conftest import scaled, write_bench_json

from repro.obs import (
    DEFAULT_RING_SIZE,
    NULL_REGISTRY,
    NULL_TRACER,
    FlightRecorder,
)
from repro.stats import format_table

#: Maximum tolerated throughput loss with telemetry on, at full scale.
MAX_OVERHEAD_FRACTION = 0.05

#: Every bulk pipeline the gate covers (per-object is the reference
#: path, not a production pipeline — it is not held to the budget).
GATED_PIPELINES = ("cell-batched", "columnar")

#: Interleaved rounds per arm.  Move deltas cycle through the shared
#: workload's rounds, so both arms drift through identical trajectories.
OVERHEAD_ROUNDS = 6


def timed_evaluation(engine, moves, now: float):
    """Buffer one move round and time its bulk evaluation (GC parked)."""
    buffer_round(engine, moves, now)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        updates = engine.evaluate(now)
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    return elapsed, frozenset((u.qid, u.oid, u.sign) for u in updates)


def run_overhead_comparison(
    pipeline: str, n_objects: int, n_queries: int, assert_overhead: bool
):
    initial, queries, move_rounds = build_workload(n_objects, n_queries)

    # Two engines over the identical workload and pipeline: "on" keeps
    # the defaults every caller gets (private registry, live tracer,
    # live freshness tracker) plus a flight recorder armed at its
    # default ring size; "off" compiles the whole plane out via the
    # null objects.  The arms are interleaved round by round,
    # alternating which evaluates first within a round — a sequential
    # A/B run at this scale measures machine drift (allocator state,
    # frequency scaling over minutes) more than it measures telemetry,
    # and the drift dwarfs a single-digit-percent effect.
    on_engine = build_engine(
        pipeline,
        initial,
        queries,
        recorder=FlightRecorder(capacity=DEFAULT_RING_SIZE),
    )
    off_engine = build_engine(
        pipeline, initial, queries, NULL_REGISTRY, NULL_TRACER
    )
    arms = {"on": on_engine, "off": off_engine}
    times: dict[str, list[float]] = {"on": [], "off": []}
    now = 0.0
    for round_no in range(OVERHEAD_ROUNDS):
        moves = move_rounds[round_no % len(move_rounds)]
        now += 1.0
        order = ("on", "off") if round_no % 2 == 0 else ("off", "on")
        results = {}
        for key in order:
            elapsed, update_keys = timed_evaluation(arms[key], moves, now)
            times[key].append(elapsed)
            results[key] = update_keys
        # Telemetry must be purely observational.
        assert results["on"] == results["off"], (
            f"telemetry changed the {pipeline} update set in round "
            f"{round_no}"
        )
    on_times, off_times = times["on"], times["off"]

    on_round = statistics.median(on_times)
    off_round = statistics.median(off_times)
    on_rps = n_objects / on_round
    off_rps = n_objects / off_round
    overhead = 1.0 - on_rps / off_rps  # positive = telemetry is slower

    if assert_overhead:
        assert overhead < MAX_OVERHEAD_FRACTION, (
            f"telemetry costs {overhead:.1%} throughput on the "
            f"{pipeline} pipeline at {n_objects} objects / {n_queries} "
            f"queries (budget {MAX_OVERHEAD_FRACTION:.0%})"
        )

    return {
        "pipeline": pipeline,
        "overhead": overhead,
        "on_times": on_times,
        "off_times": off_times,
        "on_rps": on_rps,
        "off_rps": off_rps,
        "on_round": on_round,
        "off_round": off_round,
        "registry": on_engine.registry,
        "trace_events": len(on_engine.tracer.events),
        "flight_events": len(on_engine.recorder.events()),
    }


def run_all_pipelines(n_objects: int, n_queries: int, assert_overhead: bool):
    """Gate every bulk pipeline; return per-pipeline results + a table."""
    results = [
        run_overhead_comparison(
            pipeline, n_objects, n_queries, assert_overhead
        )
        for pipeline in GATED_PIPELINES
    ]
    rows = []
    for result in results:
        rows.append(
            [
                f"{result['pipeline']} off",
                result["off_round"] * 1e3,
                result["off_rps"],
                0.0,
            ]
        )
        rows.append(
            [
                f"{result['pipeline']} on",
                result["on_round"] * 1e3,
                result["on_rps"],
                result["overhead"],
            ]
        )
    table = format_table(
        ["telemetry", "median round ms", "reports/s", "overhead"], rows
    )
    return results, table


def test_obs_overhead(benchmark, record_series, request):
    n_objects = scaled(FULL_OBJECTS)
    n_queries = scaled(FULL_QUERIES)
    full_scale = n_objects >= FULL_OBJECTS and n_queries >= FULL_QUERIES
    results, table = run_all_pipelines(
        n_objects, n_queries, assert_overhead=full_scale
    )

    record_series("obs_overhead", table)
    request.node.bench_registry = results[0]["registry"]

    benchmark.extra_info["seed"] = SEED
    benchmark.extra_info["objects"] = n_objects
    benchmark.extra_info["queries"] = n_queries
    benchmark.extra_info["grid_size"] = GRID_SIZE
    for result in results:
        benchmark.extra_info[
            f"overhead_fraction_{result['pipeline']}"
        ] = round(result["overhead"], 4)

    # The timed operation is one instrumented cell-batched bulk
    # evaluation (recorder armed); the comparison above already
    # established the off-baselines for every pipeline.
    initial, queries, move_rounds = build_workload(n_objects, n_queries)
    engine = build_engine(
        "cell-batched",
        initial,
        queries,
        recorder=FlightRecorder(capacity=DEFAULT_RING_SIZE),
    )
    clock = [0.0]

    def setup():
        clock[0] += 1.0
        buffer_round(engine, move_rounds[0], clock[0])
        return (clock[0],), {}

    benchmark.pedantic(engine.evaluate, setup=setup, rounds=3)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    n_objects = QUICK_OBJECTS if quick else FULL_OBJECTS
    n_queries = QUICK_QUERIES if quick else FULL_QUERIES
    label = "quick" if quick else "full"
    print(
        f"telemetry overhead benchmark ({label}): "
        f"{n_objects} objects, {n_queries} queries, "
        f"{OVERHEAD_ROUNDS} interleaved rounds, "
        f"pipelines={', '.join(GATED_PIPELINES)}, "
        f"flight recorder armed (ring={DEFAULT_RING_SIZE})"
    )
    results, table = run_all_pipelines(
        n_objects, n_queries, assert_overhead=not quick
    )
    print()
    print(table)
    primary = results[0]  # cell-batched carries the timing series
    path = write_bench_json(
        "obs_overhead",
        primary["on_times"],
        seed=SEED,
        params={
            "mode": label,
            "objects": n_objects,
            "queries": n_queries,
            "grid_size": GRID_SIZE,
            "rounds": OVERHEAD_ROUNDS,
            "budget_fraction": MAX_OVERHEAD_FRACTION,
            "pipelines": list(GATED_PIPELINES),
            "flight_ring_size": DEFAULT_RING_SIZE,
        },
        extra={
            "reports_per_sec_on": primary["on_rps"],
            "reports_per_sec_off": primary["off_rps"],
            "overhead_fraction": primary["overhead"],
            "overhead_fractions": {
                r["pipeline"]: r["overhead"] for r in results
            },
            "trace_events": primary["trace_events"],
            "flight_events": primary["flight_events"],
        },
        registry=primary["registry"],
    )
    print(f"\nwrote {path}")
    for result in results:
        print(
            f"telemetry overhead [{result['pipeline']}]: "
            f"{result['overhead']:.2%} "
            f"(budget {MAX_OVERHEAD_FRACTION:.0%})"
        )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
