"""Append-only benchmark history and regression diffing.

Every benchmark writes a ``BENCH_<name>.json`` summary at the repo root
whose ``environment.git_sha`` records the commit it was measured at.
This tool folds those summaries into ``benchmarks/history/<name>.jsonl``
— one JSON line per recording, keyed by that SHA — and diffs any two
recordings with a noise threshold, so "did this PR slow the engine
down?" is answerable from the log instead of from memory.

Stdlib only; runs standalone::

    python benchmarks/compare.py append              # all BENCH_*.json
    python benchmarks/compare.py append BENCH_columnar.json
    python benchmarks/compare.py list columnar
    python benchmarks/compare.py diff columnar                 # last two
    python benchmarks/compare.py diff columnar --base <sha> --head <sha>
    python benchmarks/compare.py diff columnar \
        --head-file BENCH_columnar.json --metric ingest_reports_per_sec

``diff`` exits non-zero when head throughput is below base by more than
the threshold (default 15% — round-to-round noise on a shared host is
real; see the paired methodology in bench_columnar.py).  Entries taken
at different workload scales are never compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY_DIR = Path(__file__).resolve().parent / "history"
DEFAULT_THRESHOLD = 0.15


def entry_from_bench(path: Path) -> dict:
    """One history line distilled from a BENCH_*.json summary."""
    data = json.loads(path.read_text())
    latency = data.get("latency_seconds", {})
    entry = {
        "sha": data.get("environment", {}).get("git_sha", "unknown"),
        "name": data["name"],
        "ops_per_sec": data.get("ops_per_sec"),
        "latency_p50": latency.get("p50"),
        "latency_p95": latency.get("p95"),
        "scale": data.get("scale", 1.0),
        "rounds": data.get("rounds"),
        "params": data.get("params", {}),
    }
    # Benchmark-specific headline numbers ride along when present.
    for key in (
        "speedup_vs_cell_batched",
        "speedup_gate_applied",
        "ingest_speedup_vs_cell_batched",
        "ingest_reports_per_sec",
        "emit_updates_per_sec",
    ):
        if key in data:
            entry[key] = data[key]
    return entry


def append_entries(paths: list[Path], history_dir: Path) -> list[Path]:
    history_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for path in paths:
        entry = entry_from_bench(path)
        target = history_dir / f"{entry['name']}.jsonl"
        with target.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        written.append(target)
    return written


def read_history(name: str, history_dir: Path) -> list[dict]:
    target = history_dir / f"{name}.jsonl"
    if not target.exists():
        raise SystemExit(f"no history for '{name}' at {target}")
    return [
        json.loads(line)
        for line in target.read_text().splitlines()
        if line.strip()
    ]


def pick(entries: list[dict], sha: str | None, default_index: int) -> dict:
    if sha is None:
        return entries[default_index]
    matches = [e for e in entries if e["sha"].startswith(sha)]
    if not matches:
        raise SystemExit(f"no history entry with sha prefix '{sha}'")
    return matches[-1]  # latest recording at that commit


def diff_entries(
    base: dict,
    head: dict,
    threshold: float,
    metric: str = "ops_per_sec",
) -> tuple[str, str]:
    """Classify head vs base: 'regression', 'improvement', or 'ok'.

    ``metric`` names any higher-is-better per-entry number (default
    whole-run throughput; e.g. ``ingest_reports_per_sec`` isolates the
    report-ingest phase).
    """
    if base.get("scale") != head.get("scale"):
        raise SystemExit(
            f"refusing to compare different workload scales "
            f"({base.get('scale')} vs {head.get('scale')})"
        )
    base_ops = base.get(metric) or 0.0
    head_ops = head.get(metric) or 0.0
    if not base_ops or not head_ops:
        raise SystemExit(f"entry missing {metric}; cannot diff")
    ratio = head_ops / base_ops
    lines = [
        f"base  {base['sha'][:12]}  {base_ops:12.1f} {metric}  "
        f"p50 {(base.get('latency_p50') or 0.0) * 1e3:9.3f} ms",
        f"head  {head['sha'][:12]}  {head_ops:12.1f} {metric}  "
        f"p50 {(head.get('latency_p50') or 0.0) * 1e3:9.3f} ms",
        f"{metric} ratio {ratio:.3f} (threshold ±{threshold:.0%})",
    ]
    if ratio < 1.0 - threshold:
        status = "regression"
    elif ratio > 1.0 + threshold:
        status = "improvement"
    else:
        status = "ok"
    return status, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser("append", help="fold BENCH_*.json into history")
    p_append.add_argument("files", nargs="*", type=Path)
    p_append.add_argument("--history", type=Path, default=HISTORY_DIR)

    p_list = sub.add_parser("list", help="show a benchmark's history")
    p_list.add_argument("name")
    p_list.add_argument("--history", type=Path, default=HISTORY_DIR)

    p_diff = sub.add_parser("diff", help="compare two history entries")
    p_diff.add_argument("name")
    p_diff.add_argument("--base", help="sha prefix (default: second-latest)")
    p_diff.add_argument("--head", help="sha prefix (default: latest)")
    p_diff.add_argument(
        "--head-file", type=Path,
        help="BENCH_*.json to diff as head against the last same-scale "
        "history entry (CI pre-merge gate; skips cleanly with no history)",
    )
    p_diff.add_argument(
        "--metric", default="ops_per_sec",
        help="higher-is-better entry field to compare "
        "(default: ops_per_sec; e.g. ingest_reports_per_sec)",
    )
    p_diff.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative throughput change treated as noise",
    )
    p_diff.add_argument("--history", type=Path, default=HISTORY_DIR)

    args = parser.parse_args(argv)

    if args.command == "append":
        paths = args.files or sorted(REPO_ROOT.glob("BENCH_*.json"))
        if not paths:
            raise SystemExit("no BENCH_*.json summaries found")
        for target in append_entries(paths, args.history):
            print(f"appended to {target}")
        return 0

    if args.command == "list":
        for entry in read_history(args.name, args.history):
            print(
                f"{entry['sha'][:12]}  scale {entry.get('scale', 1.0):<5}  "
                f"{entry.get('ops_per_sec', 0.0):12.1f} ops/s  "
                f"p50 {(entry.get('latency_p50') or 0.0) * 1e3:9.3f} ms"
            )
        return 0

    if args.head_file is not None:
        # Working-tree summary vs the last recorded entry at the same
        # workload scale — the shape CI uses before history is appended.
        head = entry_from_bench(args.head_file)
        try:
            entries = read_history(args.name, args.history)
        except SystemExit:
            entries = []
        # "Same scale" means the BENCH_SCALE knob *and* the recorded
        # workload populations: quick and full runs share scale=1.0 and
        # differ only in params, so scale alone would cross-compare them.
        def _workload(entry: dict) -> tuple:
            params = entry.get("params", {})
            return (
                entry.get("scale"),
                params.get("objects"),
                params.get("queries"),
            )

        same_scale = [
            e for e in entries if _workload(e) == _workload(head)
        ]
        if args.base is None and not same_scale:
            print("no same-scale history entry; nothing to diff")
            return 0
        base = pick(same_scale or entries, args.base, -1)
        if not base.get(args.metric):
            print(
                f"last same-scale entry predates {args.metric}; "
                f"nothing to diff"
            )
            return 0
    else:
        entries = read_history(args.name, args.history)
        if args.base is None and len(entries) < 2:
            print("only one history entry; nothing to diff")
            return 0
        base = pick(entries, args.base, -2)
        head = pick(entries, args.head, -1)
    status, report = diff_entries(base, head, args.threshold, args.metric)
    print(report)
    print(status.upper())
    return 1 if status == "regression" else 0


if __name__ == "__main__":
    sys.exit(main())
