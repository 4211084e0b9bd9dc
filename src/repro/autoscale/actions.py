"""Scale actions and the autoscale event log.

The currency of the propose → verify → schedule stages: the policy
emits ranked :class:`ScaleAction` proposals, the verifier admits a
subset, and the simulator applies them — recording every application
(and every informative rejection) as an :class:`AutoscaleEvent` on the
fleet report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ScaleAction", "AutoscaleEvent", "ACTION_KINDS"]

#: scale_out adds one replica (live after the cold start); scale_in
#: drains one replica and retires it once idle; replace drains its
#: target *and* adds a fresh replacement (a dead target stays drained,
#: so if it recovers it retires at once instead of rejoining the pool);
#: reweight adjusts one replica's routing weight without changing the
#: pool.
ACTION_KINDS = ("scale_out", "scale_in", "replace", "reweight")


@dataclass(frozen=True)
class ScaleAction:
    """One proposed (or admitted) control action.

    ``replica`` names the target for ``scale_in``/``replace``/
    ``reweight`` and is ``None`` for ``scale_out`` (the simulator
    assigns the new index). ``score`` is the policy's ranking value —
    expected P99 improvement per GPU-second, before the verifier's
    aging bonus. ``weight`` is only meaningful for ``reweight``.
    """

    kind: str
    replica: int | None = None
    weight: float = 1.0
    score: float = 0.0
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"kind must be one of {ACTION_KINDS}, got {self.kind!r}")
        if self.kind in ("scale_in", "replace", "reweight") \
                and self.replica is None:
            raise ValueError(f"a {self.kind} action must name a replica")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError("weight must be finite and > 0")


@dataclass(frozen=True)
class AutoscaleEvent:
    """One entry of the fleet report's autoscale action log."""

    time_s: float
    kind: str
    replica: int | None = None
    detail: str = ""
