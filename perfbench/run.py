"""The location-aware server's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload reports-skewed --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --smoke                 # toy scale, checks names/units

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload, untraced for the first half of its
cycles and traced for the second, and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
(provenance, sample counts, correctness detail, why a layer reads 0)
goes to ``perfbench/out/``; a traced run also writes a Chrome trace
there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

IN_PROCESS = ("reports-skewed", "queries-moving")
SERVICE = ("service-outage",)
WORKLOADS = IN_PROCESS + SERVICE
#: Cycles whose inputs the recorded fingerprints cover.
FINGERPRINT_CYCLES = 20


def contract() -> dict:
    with (common.ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def module_of(name: str):
    """The module that defines and runs workload ``name``."""
    common.use_program_source()
    import inproc
    import service

    return inproc if name in IN_PROCESS else service


def spec_of(name: str, toy: bool):
    module = module_of(name)
    spec = module.SPECS[name]
    return module.toy(spec) if toy else spec


def fingerprint(name: str, seed: int) -> str:
    return module_of(name).fingerprint(spec_of(name, False), seed, FINGERPRINT_CYCLES)


def run_one(args) -> int:
    bench = contract()
    prints = common.load_fingerprints()
    spec = spec_of(args.workload, args.toy)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common.OUT.mkdir(exist_ok=True)
    trace_path = common.OUT / f"{args.workload}-seed{args.seed}.trace.json"
    result = module_of(args.workload).run(
        spec, args.seed, args.seconds, bool(args.trace), trace_path
    )

    # The recorded inputs must still be what this code generates.
    expected = prints["workloads"].get(args.workload)
    got = fingerprint(args.workload, prints["default_seed"])
    inputs_ok = args.toy or got == expected
    result["fingerprint"] = {
        "default_seed": prints["default_seed"],
        "expected": expected,
        "got": got,
        "checked": not args.toy,
        "ok": inputs_ok,
    }
    result.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        toy=args.toy,
        params=repr(spec),
        provenance=common.provenance(),
    )
    failed = result["ops_failed"] + (0 if inputs_ok else 1)
    section = "per_layer" if args.trace else "end_to_end"
    values = result["per_layer"] if args.trace else result["metrics"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in bench[section]
    }
    notes = {}
    if args.trace:
        from layers import absent_reason

        context = {
            "in_process": args.workload in IN_PROCESS,
            "oracle": getattr(spec, "oracle", False),
            "columnar": result["provenance"]["server_pipeline"] == "columnar",
        }
        notes = {
            name: reason
            for name, entry in metrics.items()
            if (reason := absent_reason(name, entry["value"], **context))
        }
        result["absent"] = notes
    path = common.write_result(label, result)

    cycles = result["cycles"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"warm-up={cycles['warmup']} samples={cycles['untraced']} "
          f"traced={cycles['traced']} set-ups={len(result['setup_samples'])} "
          f"-> {path.relative_to(common.ROOT)}")
    if not inputs_ok:
        print(f"# INPUT FINGERPRINT MISMATCH: expected {expected}, got {got}")
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {entry['value']:14.4f} {entry['unit']}{note}")
    print(f"{'ops_attempted':40s} {result['ops_attempted']:14d} count")
    print(f"{'ops_failed':40s} {failed:14d} count")
    summary = {
        "correct": failed == 0,
        "attempted": result["ops_attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


def run_children(workloads, seed, seconds, trace, toy, echo=True) -> list[dict]:
    """Run each workload in its own process; return their summaries."""
    results = []
    for name in workloads:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ] + (["--toy"] if toy else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        failed = done.returncode != 0 or not done.stdout.strip()
        if echo or failed:
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
        if failed:
            raise SystemExit(f"perfbench: {name} exited {done.returncode}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def smoke() -> int:
    """Toy scale, every workload, both modes: each metric of
    BENCHMARK.json must be printed with its unit, and runs must pass."""
    common.use_program_source()
    bench = contract()
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[section]}
        for name, summary in zip(
            WORKLOADS, run_children(WORKLOADS, 1, 1, trace, toy=True, echo=False)
        ):
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={trace}: metrics/units differ")
            if not summary["correct"]:
                problems.append(f"{name} trace={trace}: not correct")
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-scale self-test of every workload")
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="rewrite perfbench/fingerprints.json")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    common.use_program_source()
    if args.record_fingerprints:
        prints = common.load_fingerprints()
        prints["workloads"] = {
            name: fingerprint(name, prints["default_seed"]) for name in WORKLOADS
        }
        common.FINGERPRINTS.write_text(json.dumps(prints, indent=2) + "\n")
        print(json.dumps(prints, indent=2))
        return 0
    if args.seed is None:
        args.seed = common.load_fingerprints()["default_seed"]
    if args.seconds is None:
        args.seconds = contract()["run_seconds"]
    if args.workload == "all":
        summaries = run_children(
            WORKLOADS, args.seed, args.seconds, args.trace, args.toy
        )
        return 0 if all(s["correct"] for s in summaries) else 1
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
