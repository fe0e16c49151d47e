"""Span recording around calls into the system's public functions.

The benchmark never edits the program: it rebinds an instance or module
attribute to a wrapper that times the call.  Two kinds of wrapper exist:

* ``span`` records one span per call (name, start, end, self time,
  parent, cycle id, thread) — for calls made a few times per cycle;
* ``leaf`` adds the call into a per-cycle aggregate (calls, busy, self
  time, bytes) — for calls made thousands of times per cycle, whose
  individual spans would cost more to keep than to make.

A wrapper's self time is its duration minus the time of the wrapped
calls made inside it, on the same thread.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class Recorder:
    """In-memory spans plus per-cycle aggregates of leaf calls."""

    def __init__(self, tid: int = 0, clock=time.perf_counter):
        self.clock = clock
        self.tid = tid
        #: The cycle id stamped on every record; its owner advances it.
        self.cycle = 0
        #: (name, start, end, self, span_id, parent_id, cycle, tid)
        self.spans: list[tuple] = []
        #: (cycle, name) -> [calls, busy, self, bytes]
        self.leaves: dict[tuple[int, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0, 0]
        )
        self._local = threading.local()
        self._next_id = 1
        self._lock = threading.Lock()
        self._threads: dict[int, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._threads[threading.get_ident()] = self.tid + len(
                    self._threads
                )
        return stack

    def _run(self, name: str, is_span: bool, size, fn, args, kwargs):
        stack = self._stack()
        cycle = self.cycle
        # frame: [child time, span id]
        frame = [0.0, 0]
        if is_span:
            with self._lock:
                frame[1] = self._next_id
                self._next_id += 1
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            own = duration - frame[0]
            if is_span:
                parent = next(
                    (f[1] for f in reversed(stack) if f[1]), 0
                )
                self.spans.append(
                    (
                        name,
                        start,
                        end,
                        own,
                        frame[1],
                        parent,
                        cycle,
                        self._threads[threading.get_ident()],
                    )
                )
        if not is_span:
            entry = self.leaves[(cycle, name)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            if size is not None:
                entry[3] += size(result)
        return result

    def _wrap(self, owner, attr: str, name: str, is_span: bool, size=None):
        original = getattr(owner, attr)
        run = self._run

        def wrapper(*args, **kwargs):
            return run(name, is_span, size, original, args, kwargs)

        setattr(owner, attr, wrapper)

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside one span named ``name``."""
        return self._run(name, True, None, fn, args, {})

    def span(self, owner, attr: str, name: str):
        """Record one span per call of ``owner.attr``."""
        return self._wrap(owner, attr, name, True)

    def leaf(self, owner, attr: str, name: str, size=None):
        """Aggregate calls of ``owner.attr`` per cycle; ``size(result)``
        adds to the cycle's byte count."""
        return self._wrap(owner, attr, name, False, size)

    # -- reading back --------------------------------------------------

    def export(self) -> dict:
        """JSON-ready records (for shipping out of a child process)."""
        return {
            "spans": self.spans,
            "leaves": [[c, n, *v] for (c, n), v in self.leaves.items()],
        }


class CycleTable:
    """Per-cycle busy/self/calls/bytes by layer name, from recorders."""

    def __init__(self) -> None:
        self.busy: dict[str, dict[int, float]] = defaultdict(dict)
        self.own: dict[str, dict[int, float]] = defaultdict(dict)
        self.calls: dict[str, dict[int, int]] = defaultdict(dict)
        self.bytes: dict[str, dict[int, int]] = defaultdict(dict)
        self.spans: list[tuple] = []

    def add(self, exported: dict, pid: int = 0) -> None:
        for name, start, end, own, sid, parent, cycle, tid in exported["spans"]:
            self._bump(name, cycle, end - start, own, 1, 0)
            self.spans.append((pid, name, start, end, sid, parent, cycle, tid))
        for cycle, name, calls, busy, own, size in exported["leaves"]:
            self._bump(name, cycle, busy, own, calls, size)

    def _bump(self, name, cycle, busy, own, calls, size) -> None:
        self.busy[name][cycle] = self.busy[name].get(cycle, 0.0) + busy
        self.own[name][cycle] = self.own[name].get(cycle, 0.0) + own
        self.calls[name][cycle] = self.calls[name].get(cycle, 0) + calls
        self.bytes[name][cycle] = self.bytes[name].get(cycle, 0) + size

    def per_cycle(self, table: str, name: str, cycles) -> list[float]:
        """One value per cycle in ``cycles`` (0 where the layer was idle)."""
        column = getattr(self, table)[name]
        return [column.get(c, 0) for c in cycles]

    def breakdown(self, cycles) -> dict[str, list[float]]:
        """Busy ms of every layer in each of ``cycles`` (which layer made
        cycle N slow)."""
        return {
            name: [round(v * 1e3, 3) for v in self.per_cycle("busy", name, cycles)]
            for name in sorted(self.busy)
        }

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON, the format of
        :func:`repro.obs.export.write_chrome_trace` (complete events,
        microsecond times), with the cycle id in each event's args."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "cat": "perfbench",
                "args": {"id": sid, "parent": parent, "cycle": cycle},
            }
            for pid, name, start, end, sid, parent, cycle, tid in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
