"""Propose stage: turn fleet signals into ranked scale actions.

The policy is deliberately mechanical — every number it emits is a
function of the signals and the config, with two pieces of internal
state (the sustain counters) that implement "don't react to one bad
epoch". Ranking follows the fix-scheduler shape: each action carries a
score in *expected P99 improvement per GPU-second spent*, so remediation
(replacing a dead replica: restores capacity for only the cold-start
cost) naturally outranks growth (scale-out: same cold start, smaller
marginal gain), which outranks shrink (scale-in: saves money, improves
nothing). The verifier adds an aging bonus on top for actions repeatedly
blocked by cooldowns.
"""

from __future__ import annotations

from .actions import ScaleAction
from .signals import FleetSignals, ReplicaSnapshot

__all__ = ["ScalePolicy"]


class ScalePolicy:
    """Emits ranked :class:`ScaleAction` proposals each control epoch.

    Holds the hysteresis *detection* state (how many consecutive epochs
    the fleet has looked overloaded/underloaded, which routing weights
    were last proposed); the *admission* state (cooldowns, budget,
    aging) lives in the verifier.
    """

    def __init__(self, config) -> None:
        self.cfg = config
        self._high_epochs = 0
        self._low_epochs = 0
        self._slow_epochs: dict[int, int] = {}
        self._weights_set: dict[int, float] = {}

    # -- load classification -------------------------------------------------

    def _overloaded(self, signals: FleetSignals) -> bool:
        cfg = self.cfg
        slo_breach = (signals.ttft_p99_s is not None
                      and signals.ttft_p99_s > cfg.ttft_slo_s)
        return slo_breach or signals.mean_queue_depth > cfg.queue_high_depth

    def _underloaded(self, signals: FleetSignals) -> bool:
        cfg = self.cfg
        slo_headroom = (signals.ttft_p99_s is None
                        or signals.ttft_p99_s < 0.5 * cfg.ttft_slo_s)
        return slo_headroom and signals.mean_queue_depth <= cfg.queue_low_depth

    # -- proposal ------------------------------------------------------------

    def propose(
        self,
        signals: FleetSignals,
        snapshots: list[ReplicaSnapshot],
        *,
        capacity_replicas: int,
        dead_unreplaced: list[int],
        cold_start_s: float,
    ) -> list[ScaleAction]:
        """Ranked actions for this epoch (highest score first).

        ``capacity_replicas`` counts routable replicas plus pending
        joins; ``dead_unreplaced`` lists crashed replicas for which no
        replacement has been admitted yet.
        """
        cfg = self.cfg
        actions: list[ScaleAction] = []

        if self._overloaded(signals):
            self._high_epochs += 1
            self._low_epochs = 0
        elif self._underloaded(signals):
            self._low_epochs += 1
            self._high_epochs = 0
        else:
            self._high_epochs = 0
            self._low_epochs = 0

        # Marginal P99 gain of one more replica, per GPU-second spent
        # bringing it up: queueing delay scales roughly with 1/capacity,
        # so adding a replica to n of them claws back ~p99/(n+1); the
        # spend is the cold start plus the epoch of lead time.
        pressure_s = (signals.ttft_p99_s
                      if signals.ttft_p99_s is not None else cfg.ttft_slo_s)
        gain_per_gpu_second = (
            pressure_s / (capacity_replicas + 1)
        ) / (cfg.epoch_s + cold_start_s)

        # Remediation: a dead replica costs capacity we already budgeted
        # for; replacing it is the highest-value action regardless of
        # sustain counters (an outage is not noise to be smoothed).
        for index in dead_unreplaced:
            actions.append(ScaleAction(
                kind="replace", replica=index,
                score=2.0 * gain_per_gpu_second + 1.0,
                reason=f"replica {index} is down"))

        # Slow-replica remediation: a replica producing well under its
        # *peers'* service rate drags the tail even while technically
        # alive. Detection is deliberately conservative — the replica
        # must be busy (an idle replica is not slow), must have been up
        # for a full measurement window (a just-booted replica's
        # partial-interval rate reads as near-zero, and replacing it
        # would churn the fleet forever), and must stay under the ratio
        # for ``sustain_epochs`` consecutive epochs — so a healthy
        # fleet's natural rate spread never triggers it. Once
        # confirmed, the weight shift shields the tail immediately
        # while the drain-and-replace boots fresh capacity.
        grace_s = cfg.resolved_window_s
        routable = [s for s in snapshots if s.routable]
        busy = [s for s in routable
                if s.active_depth > 0
                and signals.time_s - s.up_since_s >= grace_s
                and signals.service_rate.get(s.index, 0.0) > 0.0]
        for snap in routable:
            rate = signals.service_rate.get(snap.index, 0.0)
            peers = [signals.service_rate[s.index] for s in busy
                     if s.index != snap.index]
            if (snap.active_depth == 0 or rate <= 0.0 or not peers
                    or signals.time_s - snap.up_since_s < grace_s):
                self._slow_epochs.pop(snap.index, None)
                self._propose_weight(actions, snap.index, 1.0)
                continue
            peer_total = 0  # a left fold: ``sum`` compensates from 3.12
            for peer in peers:
                peer_total += peer
            rel = rate / (peer_total / len(peers))
            if rel < cfg.slow_replica_ratio:
                seen = self._slow_epochs.get(snap.index, 0) + 1
                self._slow_epochs[snap.index] = seen
                if seen >= cfg.sustain_epochs:
                    self._propose_weight(
                        actions, snap.index, max(0.25, rel))
                    actions.append(ScaleAction(
                        kind="replace", replica=snap.index,
                        score=gain_per_gpu_second * (1.0 - rel) + 0.5,
                        reason=(f"replica {snap.index} serves at "
                                f"{rel:.2f}x the peer rate")))
            else:
                self._slow_epochs.pop(snap.index, None)
                self._propose_weight(actions, snap.index, 1.0)

        # Growth: sustained overload.
        if self._high_epochs >= cfg.sustain_epochs:
            p99 = signals.ttft_p99_s
            actions.append(ScaleAction(
                kind="scale_out", score=gain_per_gpu_second,
                reason=(f"p99={'none' if p99 is None else f'{p99:.3f}s'}, "
                        f"queue={signals.queue_depth} "
                        f"over {self._high_epochs} epochs")))

        # Shrink: sustained headroom. Target the routable replica with
        # the least smoothed outstanding work (cheapest drain).
        if self._low_epochs >= cfg.sustain_epochs and routable:
            victim = min(
                routable,
                key=lambda s: (signals.outstanding_ema.get(s.index, 0.0),
                               s.index))
            actions.append(ScaleAction(
                kind="scale_in", replica=victim.index, score=0.1,
                reason=(f"queue={signals.queue_depth} under floor "
                        f"over {self._low_epochs} epochs")))

        actions.sort(key=lambda a: (-a.score, a.kind, a.replica or -1))
        return actions

    def notify_admitted(self, action: ScaleAction) -> None:
        """Reset the relevant sustain counter once an action is actually
        scheduled, so the next proposal re-observes from scratch instead
        of compounding on stale pressure."""
        if action.kind in ("scale_out", "replace"):
            self._high_epochs = 0
        elif action.kind == "scale_in":
            self._low_epochs = 0

    def _propose_weight(self, actions: list[ScaleAction], index: int,
                        weight: float) -> None:
        """Emit a reweight only when it moves the needle (>0.1 change)."""
        current = self._weights_set.get(index, 1.0)
        if abs(weight - current) > 0.1:
            self._weights_set[index] = weight
            actions.append(ScaleAction(
                kind="reweight", replica=index, weight=weight, score=0.2,
                reason=f"weight {current:.2f} -> {weight:.2f}"))
