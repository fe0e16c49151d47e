"""Shared helpers: locating the program, statistics, provenance, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"


def use_program_source() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero.

    The benchmark measures the program it ships next to; it must never
    pick up another copy, and it refuses to run without one.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: Untimed cycles run before the measured ones, so that lazily built
#: state and the interpreter's caches settle first.
WARMUP_CYCLES = 10


class CyclePlan:
    """Which cycles of a run are warm-up, measured untraced, or traced.

    A run has ``WARMUP_CYCLES`` warm-up cycles, then ``ceil(measured)``
    measured ones; a traced run traces the second half of those, so
    one run gives both the untraced and the traced cycle time.
    """

    def __init__(self, measured: float, trace: bool):
        count = max(4, math.ceil(measured))
        self.total = WARMUP_CYCLES + count
        split = WARMUP_CYCLES + (count // 2 if trace else count)
        self.plain = range(WARMUP_CYCLES + 1, split + 1)
        self.traced = range(split + 1, self.total + 1)

    def describe(self) -> dict:
        return {
            "total": self.total,
            "warmup": WARMUP_CYCLES,
            "untraced": len(self.plain),
            "traced": len(self.traced),
        }

    def overhead_pct(self, walls: dict[int, float]) -> float:
        """Traced minus untraced median cycle time, % of untraced."""
        plain = median(walls[c] for c in self.plain)
        return (median(walls[c] for c in self.traced) / plain - 1) * 100


#: Median time of one ``calibration_work()`` call on the reference host
#: (2-vCPU KVM guest, Intel Xeon, Python 3.11.7), in seconds.
REFERENCE_CALIBRATION_S = 0.0020


def calibration_work() -> float:
    """A fixed ~2 ms of the interpreter work the server is made of:
    dict and set updates, membership tests, float arithmetic, a sort."""
    table = {}
    members = set()
    for i in range(3000):
        table[i] = (i * 0.618) % 1.0
        if i % 3:
            members.add(i)
    total = 0.0
    for key, value in table.items():
        if key in members:
            total += value * value
    ordered = sorted(table.values())
    return total + ordered[len(ordered) // 2]


def calibrate(repeat: int = 1) -> list[float]:
    """Seconds taken by ``repeat`` calls of ``calibration_work``."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        calibration_work()
        times.append(time.perf_counter() - start)
    return times


def at_reference_speed(seconds: float, calibrations) -> float:
    """``seconds`` as the reference host would have measured them.

    A shared host's speed drifts by a quarter over minutes; the same
    drift slows the calibration loop, so dividing by the loop's median
    time, measured next to the timed work, cancels it and leaves the
    program's own speed.
    """
    return seconds * REFERENCE_CALIBRATION_S / median(calibrations)


def scale_cycles(walls: dict, calibrations: dict) -> dict:
    """Each cycle's wall time at reference speed.

    ``calibrations[c]`` is taken just before cycle ``c``; a cycle is
    scaled by the two that bracket it (``c`` and ``c + 1``, or ``c``
    alone for the last), so a burst of load from another tenant that
    slows the cycle slows its calibrations too.
    """
    scaled = {}
    for c, wall in walls.items():
        around = [calibrations[c]]
        if c + 1 in calibrations:
            around.append(calibrations[c + 1])
        scaled[c] = at_reference_speed(wall, around)
    return scaled


def end_to_end(cycles, setup_times, walls, ops, updates, wire_bytes, rss) -> dict:
    """The end-to-end metrics over ``cycles`` (untraced, measured).

    Throughputs are the mean work per cycle over the median cycle time,
    so a burst of load from another tenant moves them no more than it
    moves ``cycle_p50_ms``.
    """
    times = [walls[c] for c in cycles]
    typical = median(times)
    return {
        "setup_s": median(setup_times),
        "cycle_p50_ms": typical * 1e3,
        "cycle_p95_ms": percentile(times, 95) * 1e3,
        "uplink_ops_per_s": sum(ops[c] for c in cycles) / len(times) / typical,
        "updates_per_s": sum(updates[c] for c in cycles) / len(times) / typical,
        "downlink_bytes_per_cycle": sum(wire_bytes[c] for c in cycles)
        / len(times),
        "peak_rss_mb": rss,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*parts) -> str:
    """SHA-256 over a sequence of byte strings / JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray, memoryview)):
            h.update(bytes(part))
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\x00")
    return h.hexdigest()


def load_fingerprints() -> dict:
    with FINGERPRINTS.open(encoding="utf-8") as handle:
        return json.load(handle)


def git_sha() -> str | None:
    """HEAD's commit id, read from ``.git`` inside the checkout only
    (``None`` when the checkout is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    """Where and on what a result was measured."""
    import numpy

    from repro.core.server import LocationAwareServer
    from repro.service.runtime import ServiceConfig

    server = LocationAwareServer()
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "server_pipeline": server.engine.pipeline,
        "server_columnar_backend": server.engine.columnar_backend,
        "server_emit_mode": server.engine.emit_mode,
        "service_pipeline": ServiceConfig().pipeline,
    }


def write_result(name: str, result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path
