"""Verify + schedule stages: the :class:`Autoscaler` control loop.

One :class:`Autoscaler` instance is the closed loop the fleet simulator
drives: every ``epoch_s`` of simulated time it receives replica
snapshots and fresh TTFT samples, folds them through its
:class:`~repro.autoscale.signals.SignalCollector`, asks its
:class:`~repro.autoscale.policy.ScalePolicy` for ranked proposals, and
admits a subset against the GPU budget (``min_replicas`` ..
``max_replicas``) and the hysteresis cooldowns. Actions blocked by a
cooldown accrue an aging bonus so persistent pressure eventually wins
over a recent scaling decision.

The cold-start price of a new replica is derived from the deployment's
own :class:`~repro.engine.costs.StepCostModel`: ``warmup_prompts``
prompt passes at the workload's mean prompt length — the same pricing
the simulator charges before the new replica serves traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..engine.costs import BatchState, PromptShape, StepCostModel
from ..model.config import _as_index
from .actions import ScaleAction
from .policy import ScalePolicy
from .signals import FleetSignals, ReplicaSnapshot, SignalCollector

__all__ = ["AutoscaleConfig", "Autoscaler", "resolve_autoscaler"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs of the control loop.

    ``epoch_s`` is the control interval (how often signals are read and
    actions admitted); ``window_s`` the rolling TTFT window (defaults to
    eight epochs). ``ttft_slo_s`` + ``queue_high_depth`` define
    overload, ``queue_low_depth`` (with P99 at half the SLO) defines
    headroom; both must hold ``sustain_epochs`` consecutive epochs
    before the policy reacts. The cooldowns are the hysteresis band —
    ``scale_in_cooldown_s`` applies after *any* scale action, so the
    loop never sheds a replica it just paid to boot. ``cold_start_s``
    overrides the derived boot price (``warmup_prompts`` prompt passes
    at ``mean_prompt`` tokens via the fleet's cost model).
    """

    min_replicas: int
    max_replicas: int
    ttft_slo_s: float
    epoch_s: float = 1.0
    window_s: float | None = None
    queue_high_depth: float = 4.0
    queue_low_depth: float = 0.5
    scale_out_cooldown_s: float | None = None
    scale_in_cooldown_s: float | None = None
    sustain_epochs: int = 2
    cold_start_s: float | None = None
    warmup_prompts: int = 8
    mean_prompt: int = 128
    slow_replica_ratio: float = 0.4
    aging_bonus: float = 0.25
    ema_alpha: float = 0.3

    def __post_init__(self) -> None:
        # Integers only: ``< 1`` alone lets NaN through, and a NaN
        # sustain count or warm-up size silently disables the loop or
        # its joins.
        for name in ("min_replicas", "max_replicas", "sustain_epochs",
                     "warmup_prompts", "mean_prompt"):
            _as_index(name, getattr(self, name))
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        # ``not x > 0`` rather than ``x <= 0``: NaN fails every comparison.
        if not (math.isfinite(self.ttft_slo_s) and self.ttft_slo_s > 0):
            raise ValueError("ttft_slo_s must be finite and > 0")
        if not (math.isfinite(self.epoch_s) and self.epoch_s > 0):
            raise ValueError("epoch_s must be finite and > 0")
        if self.window_s is not None and not (
                math.isfinite(self.window_s) and self.window_s > 0):
            raise ValueError("window_s must be finite and > 0 when given")
        for name in ("queue_high_depth", "queue_low_depth", "aging_bonus"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.queue_low_depth > self.queue_high_depth:
            raise ValueError(
                "queue_low_depth must not exceed queue_high_depth "
                "(the hysteresis band would invert)")
        if self.sustain_epochs < 1:
            raise ValueError("sustain_epochs must be >= 1")
        if self.cold_start_s is not None and not (
                math.isfinite(self.cold_start_s) and self.cold_start_s >= 0):
            raise ValueError("cold_start_s must be finite and >= 0 when given")
        if self.warmup_prompts < 1 or self.mean_prompt < 1:
            raise ValueError("warmup_prompts and mean_prompt must be >= 1")
        if not 0.0 < self.slow_replica_ratio < 1.0:
            raise ValueError("slow_replica_ratio must be in (0, 1)")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")

    @property
    def resolved_window_s(self) -> float:
        """Rolling TTFT window: explicit, or eight control epochs."""
        return self.window_s if self.window_s is not None \
            else 8.0 * self.epoch_s

    @property
    def resolved_out_cooldown_s(self) -> float:
        """Scale-out cooldown: explicit, or four control epochs."""
        return self.scale_out_cooldown_s \
            if self.scale_out_cooldown_s is not None else 4.0 * self.epoch_s

    @property
    def resolved_in_cooldown_s(self) -> float:
        """Scale-in cooldown: explicit, or twelve control epochs (shrink
        must be much lazier than growth)."""
        return self.scale_in_cooldown_s \
            if self.scale_in_cooldown_s is not None else 12.0 * self.epoch_s


class Autoscaler:
    """The verify + schedule stages, bound to one fleet run.

    Construct from an :class:`AutoscaleConfig`, then the simulator calls
    :meth:`bind` once (deriving the cold-start price from the fleet's
    cost model) and :meth:`epoch` every control interval. An instance
    carries run state (cooldown clocks, aging, sustain counters) and
    must not be shared across runs — :meth:`bind` enforces this.
    """

    def __init__(self, config: AutoscaleConfig) -> None:
        self.config = config
        self.policy = ScalePolicy(config)
        self.collector = SignalCollector(
            window_s=config.resolved_window_s, ema_alpha=config.ema_alpha)
        self.cold_start_s: float | None = config.cold_start_s
        self._bound = False
        self._last_out_s = -math.inf
        self._last_in_s = -math.inf
        self._aging: dict[str, int] = {}
        self._replaced: set[int] = set()

    def bind(self, *, costs: StepCostModel, initial_replicas: int) -> None:
        """Attach to one fleet run; derives ``cold_start_s`` when the
        config left it ``None``."""
        if self._bound:
            raise RuntimeError(
                "an Autoscaler instance carries per-run state and may "
                "not be reused; construct a fresh one (or pass the "
                "AutoscaleConfig and let simulate_fleet construct it)")
        self._bound = True
        cfg = self.config
        if not cfg.min_replicas <= initial_replicas <= cfg.max_replicas:
            raise ValueError(
                f"num_replicas={initial_replicas} outside the autoscale "
                f"budget [{cfg.min_replicas}, {cfg.max_replicas}]")
        if self.cold_start_s is None:
            warm = costs.prompt_cost(
                BatchState(0, 0), PromptShape(cfg.mean_prompt))
            self.cold_start_s = cfg.warmup_prompts * warm

    # -- the control epoch ---------------------------------------------------

    def epoch(
        self,
        now: float,
        snapshots: list[ReplicaSnapshot],
        *,
        pending_joins: int,
        max_batch: int,
        ttft_samples: list[tuple[float, float]] = (),
    ) -> tuple[FleetSignals, list[ScaleAction]]:
        """Run one detect → propose → verify pass.

        Returns the epoch's signals (for telemetry) and the *admitted*
        actions in application order; the simulator schedules them.
        """
        if not self._bound:
            raise RuntimeError("call bind() before epoch()")
        signals = self.collector.observe(
            now, snapshots, max_batch=max_batch, ttft_samples=ttft_samples)
        dead_unreplaced = [
            s.index for s in snapshots
            if not s.alive and not s.retired and s.index not in self._replaced
        ]
        capacity_replicas = signals.routable_replicas + pending_joins
        proposals = self.policy.propose(
            signals, snapshots,
            capacity_replicas=capacity_replicas,
            dead_unreplaced=dead_unreplaced,
            cold_start_s=self.cold_start_s,
        )
        admitted = self._verify(now, proposals, capacity_replicas)
        for action in admitted:
            self.policy.notify_admitted(action)
        return signals, admitted

    # -- verify --------------------------------------------------------------

    def _aging_key(self, action: ScaleAction) -> str:
        return f"{action.kind}:{action.replica}"

    def _verify(
        self,
        now: float,
        proposals: list[ScaleAction],
        capacity_replicas: int,
    ) -> list[ScaleAction]:
        """Admit proposals against budget, cooldowns and aging.

        Proposals are considered in aged-score order; each admission
        updates the working capacity so one epoch cannot blow through
        the budget with a burst of actions.
        """
        cfg = self.config
        bonus = cfg.aging_bonus

        def aged_score(action: ScaleAction) -> float:
            return action.score + bonus * self._aging.get(
                self._aging_key(action), 0)

        admitted: list[ScaleAction] = []
        proposed_keys: set[str] = set()
        for action in sorted(
                proposals,
                key=lambda a: (-aged_score(a), a.kind, a.replica or -1)):
            key = self._aging_key(action)
            proposed_keys.add(key)
            if action.kind == "reweight":
                admitted.append(action)  # budget-neutral, never blocked
                continue
            if action.kind == "scale_out":
                if capacity_replicas >= cfg.max_replicas:
                    continue  # hard budget: no aging, pressure is moot
                if now - self._last_out_s < cfg.resolved_out_cooldown_s:
                    self._aging[key] = self._aging.get(key, 0) + 1
                    continue
                self._last_out_s = now
                capacity_replicas += 1
            elif action.kind == "replace":
                if action.replica in self._replaced:
                    continue  # replacement already in flight
                if capacity_replicas >= cfg.max_replicas + 1:
                    continue  # the drain/boot overlap has a ceiling too
                self._replaced.add(action.replica)
                self._last_out_s = now  # a boot is a boot: arms hysteresis
            elif action.kind == "scale_in":
                if capacity_replicas <= cfg.min_replicas:
                    continue
                # Shrink sits behind BOTH cooldowns: never shed capacity
                # the loop just paid to boot (hysteresis), nor twice in
                # quick succession.
                if (now - self._last_out_s < cfg.resolved_in_cooldown_s
                        or now - self._last_in_s
                        < cfg.resolved_in_cooldown_s):
                    self._aging[key] = self._aging.get(key, 0) + 1
                    continue
                self._last_in_s = now
                capacity_replicas -= 1
            self._aging.pop(key, None)
            admitted.append(action)
        # Ambient pressure only ages while it is still being proposed.
        for key in [k for k in self._aging if k not in proposed_keys]:
            del self._aging[key]
        return admitted


def resolve_autoscaler(
    autoscaler: Autoscaler | AutoscaleConfig | None,
) -> Autoscaler | None:
    """Accept an :class:`Autoscaler`, a bare :class:`AutoscaleConfig`
    (wrapped in a fresh controller), or ``None``."""
    if autoscaler is None or isinstance(autoscaler, Autoscaler):
        return autoscaler
    if isinstance(autoscaler, AutoscaleConfig):
        return Autoscaler(autoscaler)
    raise TypeError(
        f"autoscaler must be an Autoscaler, AutoscaleConfig or None, "
        f"got {type(autoscaler).__name__}")
