"""The black-box flight recorder.

A fixed-size ring buffer of structured protocol events — uplinks,
downlinks, commits, wakeups, columnar batches, fault injections,
oracle checks — that costs almost nothing while armed (one deque append
per event, old events silently overwritten) and tells the last-N-cycles
story when something goes wrong.  Chaos failures ship their recorder
dump inside ``CHAOS_REPORT.json`` instead of just a counter delta; an
oracle :class:`~repro.check.Divergence` can :meth:`trigger` a dump
automatically.

The ring-size/overhead trade: each slot holds one small tuple, so the
default 4096-slot ring is a few hundred KB at worst and the append cost
is independent of capacity.  A bigger ring only buys a longer look-back
window — it never slows the hot path — while a smaller one bounds dump
size for embedding in reports.

Telemetry-off mode is a type: :data:`NULL_RECORDER` no-ops every call.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

#: Default ring capacity — roughly 25-100 chaos cycles of look-back.
DEFAULT_RING_SIZE = 4096


class FlightRecorder:
    """Bounded ring of ``(seq, t, cycle, kind, data)`` events."""

    enabled = True

    def __init__(
        self, capacity: int = DEFAULT_RING_SIZE, clock=time.monotonic
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._clock = clock
        self.cycle = 0
        self.recorded = 0
        #: The first trigger reason, if any (a run is dumped only once).
        self.triggered: str | None = None
        #: Optional path prefix; when set, :meth:`trigger` writes the
        #: dump immediately (``<prefix>.jsonl`` + ``<prefix>.trace.json``).
        self.auto_dump_prefix: str | Path | None = None

    # -- hot path -------------------------------------------------------

    def record(self, kind: str, /, **data) -> None:
        """Append one event.  O(1); old events fall off the ring."""
        self.recorded += 1
        self._ring.append(
            (self.recorded, self._clock(), self.cycle, kind, data)
        )

    def advance_cycle(self) -> None:
        """Stamp subsequent events with the next evaluation cycle."""
        self.cycle += 1

    # -- triggering -----------------------------------------------------

    def trigger(self, reason: str, /, **data) -> "list[Path] | None":
        """Mark the run as needing a dump (oracle divergence, chaos
        failure, explicit call).  Records the trigger as an
        event; if :attr:`auto_dump_prefix` is set, writes the dump on
        the *first* trigger and returns the written paths."""
        payload = {"reason": reason}
        payload.update(data)  # a caller's own "reason" key wins
        self.record("trigger", **payload)
        if self.triggered is not None:
            return None
        self.triggered = reason
        if self.auto_dump_prefix is not None:
            return self.dump(self.auto_dump_prefix)
        return None

    # -- read side ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def overwritten(self) -> int:
        """Events that fell off the ring before any dump."""
        return self.recorded - len(self._ring)

    def events(self) -> list[dict[str, object]]:
        """The ring's events, oldest first, as JSON-ready dicts.

        The envelope keys (``seq``/``t``/``cycle``/``kind``) win over
        same-named data keys, so an event can never masquerade as a
        different kind in a dump."""
        return [
            {**data, "seq": seq, "t": t, "cycle": cycle, "kind": kind}
            for seq, t, cycle, kind, data in self._ring
        ]

    def clear(self) -> None:
        self._ring.clear()
        self.recorded = 0
        self.triggered = None

    # -- dumps ----------------------------------------------------------

    def write_jsonl(self, path: str | Path) -> Path:
        """One JSON object per event, oldest first; returns the path."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events():
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return path

    def to_chrome_trace(self) -> dict[str, object]:
        """The ring as Chrome instant events ("ph": "i"), so a recorder
        dump overlays on the tracer's span view in the same viewer."""
        ring = list(self._ring)
        origin = ring[0][1] if ring else 0.0
        trace_events = [
            {
                "name": kind,
                "ph": "i",
                "s": "g",
                "ts": (t - origin) * 1e6,
                "pid": 0,
                "tid": 0,
                "cat": "flight",
                "args": {**data, "seq": seq, "cycle": cycle},
            }
            for seq, t, cycle, kind, data in ring
        ]
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def dump(self, prefix: str | Path) -> list[Path]:
        """Write ``<prefix>.jsonl`` + ``<prefix>.trace.json``; returns
        both paths."""
        prefix = Path(prefix)
        jsonl = self.write_jsonl(prefix.with_suffix(".jsonl"))
        trace = prefix.with_suffix(".trace.json")
        trace.write_text(json.dumps(self.to_chrome_trace()), encoding="utf-8")
        return [jsonl, trace]


class NullFlightRecorder(FlightRecorder):
    """Recorder off: every call is a no-op, nothing is retained."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def record(self, kind: str, /, **data) -> None:  # type: ignore[override]
        pass

    def advance_cycle(self) -> None:  # type: ignore[override]
        pass

    def trigger(self, reason: str, /, **data):  # type: ignore[override]
        return None


NULL_RECORDER = NullFlightRecorder()
