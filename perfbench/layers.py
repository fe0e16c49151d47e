"""Where the benchmark attaches to the system, and the per-layer table.

``instrument_server`` wraps the public entry points of one
:class:`repro.core.server.LocationAwareServer` (and its engine) in a
:class:`spans.Recorder`; ``probe`` reads the registry counters the
stack already keeps, so engine phases, link traffic and service
counters come out as per-cycle deltas without touching ``src/``.
``per_layer`` turns both into the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from statistics import median

from spans import CycleTable, Recorder

UPLINK_METHODS = (
    "receive_object_report",
    "receive_range_query_move",
    "receive_knn_query_move",
    "receive_predictive_query_move",
    "receive_commit",
)

ENGINE_PHASES = (
    "registrations",
    "query_moves",
    "object_reports",
    "knn_repair",
    "predictive_refresh",
)

#: probe key -> (registry series name, labels)
COUNTERS: dict[str, tuple[str, dict | None]] = {
    **{
        f"phase.{p}": ("engine_phase_seconds_total", {"phase": p})
        for p in ENGINE_PHASES
    },
    "ingest": ("engine_ingest_seconds_total", None),
    "updates_emitted": ("engine_updates_emitted_total", None),
    **{
        f"columnar.{p}": ("engine_columnar_phase_seconds_total", {"phase": p})
        for p in ("plan", "join", "emit")
    },
    "cache_hits": ("engine_answer_cache_hits_total", None),
    "cache_misses": ("engine_answer_cache_misses_total", None),
    "net.messages": ("net_delivered_messages_total", None),
    "net.bytes": ("net_delivered_bytes_total", None),
    "net.dropped": ("net_dropped_messages_total", None),
    "recovery_updates": ("server_recovery_updates_total", None),
    "incremental_bytes": ("server_incremental_bytes_total", None),
    "complete_bytes": ("server_complete_bytes_total", None),
    "uplink_errors": ("service_uplink_errors_total", None),
    **{
        f"rejected.{r}": ("service_admission_rejections_total", {"reason": r})
        for r in ("sessions", "clients", "backpressure")
    },
    "flushed": ("service_downlink_flushed_total", None),
}


def probe(registry) -> dict[str, float]:
    """Current value of every probed counter (0 for absent series)."""
    return {
        key: registry.value_of(name, labels)
        for key, (name, labels) in COUNTERS.items()
    }


def delta(after: dict, before: dict) -> dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def instrument_server(rec: Recorder, server) -> None:
    """Wrap the server's uplink, wakeup, cycle and engine entry points."""
    for method in UPLINK_METHODS:
        rec.leaf(server, method, "server.uplink")
    rec.span(server, "receive_wakeup", "server.wakeup")
    rec.span(server, "evaluate_cycle", "server.evaluate_cycle")
    rec.span(server, "complete_answer_bytes", "server.complete_answer_bytes")
    rec.span(server.engine, "evaluate", "engine.evaluate")


def _med(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def absent_reason(
    name: str, value: float, *, in_process: bool, oracle: bool, columnar: bool
) -> str | None:
    """Why ``name`` reads 0 on this workload, or ``None`` when the layer
    ran (a measured 0, such as zero divergences, is not absent)."""
    if name.startswith("columnar.") and not columnar:
        return (
            "0 under the default pipeline (cell-batched): the columnar phase "
            "and answer-cache counters exist only under pipeline='columnar'"
        )
    if in_process and name.startswith(("service.", "driver.", "obs.")):
        return "in-process workload: no service process, wire or load driver"
    if not oracle and name.startswith("check."):
        return "no consistency oracle is attached on this workload"
    if value:
        return None
    if name.startswith(("server.wakeup", "server.recovery_updates")):
        return "no client woke up in the traced cycles (no outages)"
    if name == "net.downlink.dropped":
        return "no link dropped a message in the traced cycles"
    return None


#: Metrics the runner supplies itself; 0 where its workload has no
#: such layer (see ``absent_reason``).
EXTRA_DEFAULTS = {
    "engine.phase.registrations_ms": 0.0,
    "check.divergences": 0,
    "service.uplink.wait_ms": 0.0,
    "service.uplink.backlog": 0.0,
    "service.tick.overhead_ms": 0.0,
    "obs.metrics_series": 0,
    "obs.metrics_scrape_ms": 0.0,
    "driver.send_ms": 0.0,
    "driver.tick_rtt_ms": 0.0,
    "driver.read_ms": 0.0,
    "driver.build_ms": 0.0,
    "cycle.unexplained_ms": 0.0,
    "trace_overhead_pct": 0.0,
}


def per_layer(
    table: CycleTable,
    deltas: dict[int, dict[str, float]],
    cycles: list[int],
    extra: dict[str, float],
) -> dict[str, float]:
    """The traced run's per-layer metrics.

    Times are per-cycle medians in ms; counts are per-cycle means (a
    median would read 0 for events that happen in fewer than half the
    cycles); ratios are taken over all traced cycles.
    """

    def busy(name):
        return _med(v * 1e3 for v in table.per_cycle("busy", name, cycles))

    def own(name):
        return _med(v * 1e3 for v in table.per_cycle("own", name, cycles))

    def calls(name):
        return _mean(table.per_cycle("calls", name, cycles))

    def d_ms(key):
        return _med(deltas[c][key] * 1e3 for c in cycles)

    def d_mean(key):
        return _mean(deltas[c][key] for c in cycles)

    def d_sum(key):
        return sum(deltas[c][key] for c in cycles)

    hits, misses = d_sum("cache_hits"), d_sum("cache_misses")
    complete = d_sum("complete_bytes")
    out = {
        "server.uplink.calls": calls("server.uplink"),
        "server.uplink.busy_ms": busy("server.uplink"),
        "server.evaluate_cycle.busy_ms": busy("server.evaluate_cycle"),
        "server.downlink.self_ms": own("server.evaluate_cycle"),
        "server.complete_answer_bytes.busy_ms": busy(
            "server.complete_answer_bytes"
        ),
        "server.wakeup.calls": calls("server.wakeup"),
        "server.wakeup.busy_ms": busy("server.wakeup"),
        "server.recovery_updates": d_mean("recovery_updates"),
        "server.savings_ratio": (
            d_sum("incremental_bytes") / complete if complete else 0.0
        ),
        "engine.evaluate.busy_ms": busy("engine.evaluate"),
        "engine.phase.object_reports_ms": d_ms("phase.object_reports"),
        "engine.ingest_ms": d_ms("ingest"),
        "engine.phase.query_moves_ms": d_ms("phase.query_moves"),
        "engine.phase.knn_repair_ms": d_ms("phase.knn_repair"),
        "engine.phase.predictive_refresh_ms": d_ms("phase.predictive_refresh"),
        "engine.updates_emitted": d_mean("updates_emitted"),
        "columnar.plan_ms": d_ms("columnar.plan"),
        "columnar.join_ms": d_ms("columnar.join"),
        "columnar.emit_ms": d_ms("columnar.emit"),
        "columnar.answer_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "net.downlink.messages": d_mean("net.messages"),
        "net.downlink.bytes": d_mean("net.bytes"),
        "net.downlink.dropped": d_mean("net.dropped"),
        "check.begin_cycle.busy_ms": busy("check.begin_cycle"),
        "check.end_cycle.busy_ms": busy("check.end_cycle"),
        "check.observers.busy_ms": busy("check.observers"),
        "service.decode.calls": calls("service.decode"),
        "service.decode.busy_ms": busy("service.decode"),
        "service.uplink.rejected": _mean(
            deltas[c]["uplink_errors"]
            + sum(deltas[c][f"rejected.{r}"] for r in ("sessions", "clients", "backpressure"))
            for c in cycles
        ),
        "service.run_cycle.busy_ms": busy("service.run_cycle"),
        "service.run_cycle.self_ms": own("service.run_cycle"),
        "service.flush.busy_ms": busy("service.flush"),
        "service.flush.messages": d_mean("flushed"),
        "service.encode.calls": calls("service.encode"),
        "service.encode.busy_ms": busy("service.encode"),
        "service.encode.bytes": _mean(
            table.per_cycle("bytes", "service.encode", cycles)
        ),
    }
    out.update(EXTRA_DEFAULTS)
    out.update(extra)
    return out
