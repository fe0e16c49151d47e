"""Seeded fault plans and their deterministic schedules.

A :class:`FaultPlan` is a frozen description of *how hostile* the run
is — per-dimension probabilities plus one seed.  A
:class:`FaultSchedule` turns the plan into streams of decisions, one
independent :class:`random.Random` per fault dimension (keyed
``"{seed}:{dimension}"``), so the downlink dice never consume the
disconnect dice: adding a fault dimension, or changing one rate, does
not scramble the decisions of the others.  Same plan, same decisions,
every run — chaos failures replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from repro.net.link import DELIVER, DROP, DUPLICATE, REORDER

_RATE_FIELDS = (
    "disconnect_rate",
    "drop_rate",
    "duplicate_rate",
    "reorder_rate",
    "uplink_delay_rate",
    "worker_crash_rate",
)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Probabilities for each fault dimension, plus the master seed.

    Rates are per decision point: ``disconnect_rate`` per client per
    cycle, ``drop_rate`` / ``duplicate_rate`` / ``reorder_rate`` per
    downlink delivery attempt (mutually exclusive, in that precedence),
    ``uplink_delay_rate`` per uplink call.  ``reconnect_after`` is how
    many cycles a disconnected client stays dark before its wakeup.

    ``worker_crash_rate`` is validated but has no effect: the engine
    no longer has a worker pool to crash.  The field stays so that
    existing plans, and :meth:`to_dict` output that callers hash or
    store, keep their exact shape.
    """

    seed: int = 0
    disconnect_rate: float = 0.0
    reconnect_after: int = 2
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    uplink_delay_rate: float = 0.0
    worker_crash_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.drop_rate + self.duplicate_rate + self.reorder_rate > 1.0:
            raise ValueError(
                "drop_rate + duplicate_rate + reorder_rate must not "
                "exceed 1.0 (they partition one roll)"
            )
        if self.reconnect_after < 1:
            raise ValueError(
                f"reconnect_after must be >= 1, got {self.reconnect_after}"
            )

    def schedule(self) -> "FaultSchedule":
        return FaultSchedule(self)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultSchedule:
    """The plan's decision streams (one seeded RNG per dimension)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._downlink = random.Random(f"{plan.seed}:downlink")
        self._disconnect = random.Random(f"{plan.seed}:disconnect")
        self._uplink = random.Random(f"{plan.seed}:uplink")

    def downlink_action(self) -> str:
        """The fate of one delivery attempt (a :data:`FAULT_ACTIONS`)."""
        plan = self.plan
        roll = self._downlink.random()
        if roll < plan.drop_rate:
            return DROP
        roll -= plan.drop_rate
        if roll < plan.duplicate_rate:
            return DUPLICATE
        roll -= plan.duplicate_rate
        if roll < plan.reorder_rate:
            return REORDER
        return DELIVER

    def should_disconnect(self) -> bool:
        return self._disconnect.random() < self.plan.disconnect_rate

    def should_delay_uplink(self) -> bool:
        return self._uplink.random() < self.plan.uplink_delay_rate
