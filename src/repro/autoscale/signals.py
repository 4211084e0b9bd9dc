"""Signal collection: what the autoscaler sees each control epoch.

The detect stage of the detect → propose → verify → schedule pipeline.
The fleet simulator snapshots every replica's scheduler-visible state
(:class:`ReplicaSnapshot`) once per control epoch and hands the batch to
a :class:`SignalCollector`, which maintains the *derived* signals the
policy actually ranks on:

* rolling-window P99 time-to-first-token (the SLO metric);
* per-replica outstanding-work EMA (routing pressure, smoothed);
* per-replica service rate in tokens/s (a throttled or dying replica
  shows up here long before its queue visibly backs up);
* fleet-wide queue depth and slot utilization.

This module deliberately imports nothing from :mod:`repro.fleet`: the
fleet layer constructs the snapshots and calls the collector, so the
dependency arrow points fleet → autoscale only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

__all__ = ["ReplicaSnapshot", "FleetSignals", "SignalCollector"]


def _p99(values) -> float:
    """``float(np.percentile(values, 99))`` of a non-empty sequence, in
    floats: NumPy's default "linear" rule on the sorted values, with its
    virtual index and its two-sided interpolation replayed operation for
    operation, so every result is the same float."""
    xs = sorted(values)
    n = len(xs)
    v = (n - 1) * 0.99
    if v >= n - 1:
        return float(xs[-1])
    i = math.floor(v)
    g = v - i
    a, b = xs[i], xs[i + 1]
    if g >= 0.5:
        return float(b - (b - a) * (1 - g))
    return float(a + (b - a) * g)


@dataclass(frozen=True)
class ReplicaSnapshot:
    """One replica's scheduler-visible state at a control epoch.

    ``queue_depth`` counts requests waiting for a slot (including those
    routed but not yet enqueued); ``active_depth`` counts requests
    holding slots; ``outstanding_tokens`` is the router's
    token-denominated view of work assigned and unfinished;
    ``done_tokens`` is the monotone count of tokens the replica has
    produced across all its incarnations (service-rate numerator).
    ``up_since_s`` is when the *current* incarnation came up (its join,
    or its latest recovery) — rate comparisons must ignore replicas
    younger than the measurement window, whose partial-interval rates
    read as arbitrarily slow.
    """

    index: int
    alive: bool
    draining: bool
    retired: bool
    queue_depth: int
    active_depth: int
    outstanding_tokens: int
    done_tokens: int
    up_since_s: float = 0.0

    @property
    def routable(self) -> bool:
        """Whether the router may send this replica new work."""
        return self.alive and not self.draining and not self.retired


@dataclass(frozen=True)
class FleetSignals:
    """Derived fleet-health signals for one control epoch.

    ``ttft_p99_s`` is ``None`` until the rolling window holds at least
    one first-token sample. ``service_rate`` maps replica index to
    tokens/s produced since the previous epoch (0.0 for idle or dead
    replicas); ``outstanding_ema`` maps replica index to the smoothed
    outstanding-token load.
    """

    time_s: float
    live_replicas: int
    routable_replicas: int
    queue_depth: int
    mean_queue_depth: float
    ttft_p99_s: float | None
    slot_util: float
    outstanding_ema: dict[int, float]
    service_rate: dict[int, float]
    window_samples: int


class SignalCollector:
    """Maintains rolling/derived signals across control epochs.

    ``window_s`` bounds the TTFT percentile window; ``ema_alpha`` is the
    smoothing weight for per-replica outstanding work (1.0 = no
    smoothing). State is purely a function of the ``observe`` call
    sequence — no clocks, no RNG — so fleet replays stay bit-for-bit.
    """

    def __init__(self, *, window_s: float, ema_alpha: float = 0.3) -> None:
        if not 0 < window_s < math.inf:
            raise ValueError("window_s must be finite and > 0")
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")
        self.window_s = window_s
        self.ema_alpha = ema_alpha
        self._ttft_window: deque[tuple[float, float]] = deque()
        self._outstanding_ema: dict[int, float] = {}
        self._done_tokens: dict[int, int] = {}
        self._last_time_s: float | None = None

    def observe(
        self,
        now: float,
        snapshots: list[ReplicaSnapshot],
        *,
        max_batch: int,
        ttft_samples: list[tuple[float, float]] = (),
    ) -> FleetSignals:
        """Fold one epoch's snapshots into the rolling state.

        ``ttft_samples`` are ``(first_token_time, ttft)`` pairs recorded
        since the previous epoch; they enter the rolling window and ones
        older than ``window_s`` fall out.
        """
        for sample in ttft_samples:
            self._ttft_window.append(sample)
        cutoff = now - self.window_s
        while self._ttft_window and self._ttft_window[0][0] < cutoff:
            self._ttft_window.popleft()

        dt = (0.0 if self._last_time_s is None
              else now - self._last_time_s)
        service_rate: dict[int, float] = {}
        outstanding_ema: dict[int, float] = {}
        alpha = self.ema_alpha
        for snap in snapshots:
            prev_done = self._done_tokens.get(snap.index, 0)
            made = snap.done_tokens - prev_done
            self._done_tokens[snap.index] = snap.done_tokens
            service_rate[snap.index] = (made / dt if dt > 0 else 0.0)
            prev_ema = self._outstanding_ema.get(
                snap.index, float(snap.outstanding_tokens))
            ema = alpha * snap.outstanding_tokens + (1.0 - alpha) * prev_ema
            self._outstanding_ema[snap.index] = ema
            outstanding_ema[snap.index] = ema
        self._last_time_s = now

        live = [s for s in snapshots if s.alive and not s.retired]
        routable = [s for s in snapshots if s.routable]
        total_queue_depth = sum(s.queue_depth for s in live)
        active = sum(s.active_depth for s in live)
        capacity_slots = len(live) * max_batch
        p99 = (_p99(t for _, t in self._ttft_window)
               if self._ttft_window else None)
        return FleetSignals(
            time_s=now,
            live_replicas=len(live),
            routable_replicas=len(routable),
            queue_depth=total_queue_depth,
            mean_queue_depth=(total_queue_depth / len(routable)
                              if routable else float(total_queue_depth)),
            ttft_p99_s=p99,
            slot_util=(active / capacity_slots if capacity_slots else 0.0),
            outstanding_ema=outstanding_ema,
            service_rate=service_rate,
            window_samples=len(self._ttft_window),
        )
