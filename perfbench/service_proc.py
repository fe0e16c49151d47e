"""The service process: one ``ServiceRuntime`` on ephemeral ports.

Launched by ``service.py``; prints ``{"tcp": [host, port], "http": ...}``
once bound, then reads commands on standard input:

* ``trace`` — wrap the runtime's layers in a :class:`spans.Recorder`
  from now on (the first half of a traced run stays untraced);
* ``stop`` (or end of input) — stop the runtime, print the process's
  peak RSS, the oracle's verdict and any recorded spans, and exit.

The runtime is built from ``ServiceConfig`` defaults; only the
workload's own settings (oracle on/off, the seeded fault plan) are set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def instrument(runtime, samples: dict, deltas: dict):
    """Wrap the runtime's layers; per-cycle extras land in ``samples``
    (FIFO backlog and decode-to-apply wait) and ``deltas`` (counters)."""
    import repro.service.runtime as runtime_module
    import repro.service.session as session_module
    from layers import delta, instrument_server, probe
    from repro.service.protocol import IMMEDIATE_OPS
    from spans import Recorder

    rec = Recorder(tid=10)
    clock = rec.clock
    registry = runtime.registry
    instrument_server(rec, runtime.server)
    rec.span(runtime, "_drain_uplinks", "service.apply")
    rec.span(runtime, "_flush_sessions", "service.flush")
    rec.leaf(session_module, "encode", "service.encode", size=len)
    oracle = runtime.oracle
    if oracle is not None:
        rec.span(oracle, "begin_cycle", "check.begin_cycle")
        rec.span(oracle, "end_cycle", "check.end_cycle")
        for hook in ("on_commit", "on_wakeup_begin", "on_wakeup_end"):
            rec.leaf(oracle, hook, "check.observers")
    if runtime.injector is not None:
        rec.span(runtime.injector, "begin_cycle", "faults.begin_cycle")

    decoded: list[float] = []
    rec.leaf(runtime_module, "decode_line", "service.decode")
    timed_decode = runtime_module.decode_line

    def decode_line(line):
        op = timed_decode(line)
        if op["op"] not in IMMEDIATE_OPS and op["op"] != "bye":
            decoded.append(clock())
        return op

    runtime_module.decode_line = decode_line

    run_cycle = runtime.run_cycle

    def traced_run_cycle(now=None):
        cycle = runtime.cycle_count
        rec.cycle = cycle
        start = clock()
        waits = [start - t for t in decoded]
        decoded.clear()
        samples[cycle] = {
            "backlog": len(runtime._pending),
            "wait_median": median(waits) if waits else 0.0,
        }
        before = probe(registry)
        result = rec.call("service.run_cycle", run_cycle, now)
        deltas[cycle] = delta(probe(registry), before)
        rec.cycle = runtime.cycle_count
        return result

    runtime.run_cycle = traced_run_cycle
    return rec


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--oracle", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument("--disconnect-rate", type=float, default=0.0)
    parser.add_argument("--reconnect-after", type=int, default=2)
    args = parser.parse_args()
    common.use_program_source()
    from repro.faults.plan import FaultPlan
    from repro.service.runtime import ServiceConfig, ServiceRuntime

    plan = None
    if args.disconnect_rate > 0:
        plan = FaultPlan(
            seed=args.fault_seed,
            disconnect_rate=args.disconnect_rate,
            reconnect_after=args.reconnect_after,
        )
    runtime = ServiceRuntime(
        ServiceConfig(oracle=bool(args.oracle), fault_plan=plan)
    ).start()
    print(
        json.dumps({"tcp": runtime.tcp_address, "http": runtime.http_address}),
        flush=True,
    )
    rec, samples, deltas = None, {}, {}
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                rec = instrument(runtime, samples, deltas)
                registrations = runtime.registry.value_of(
                    "engine_phase_seconds_total", {"phase": "registrations"}
                )
                print(json.dumps({"registrations_s": registrations}), flush=True)
            elif command == "stop":
                break
    finally:
        runtime.stop()
    oracle = runtime.oracle
    print(
        json.dumps(
            {
                "peak_rss_mb": common.peak_rss_mb(),
                "divergences": len(oracle.divergences) if oracle else 0,
                "divergence_sample": [str(d) for d in oracle.divergences[:5]]
                if oracle
                else [],
                "recorder": rec.export() if rec is not None else None,
                "samples": samples,
                "deltas": deltas,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
