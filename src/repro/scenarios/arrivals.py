"""Arrival-process synthesis: the shapes requests arrive in.

Extracted from ``engine/serving_sim.py`` so the scenario zoo can build
arbitrary workloads on the same primitives; ``synthesize_trace`` now
delegates here. Every shape draws through a fixed-chunk thinning scheme
(or, for plain Poisson, the historical direct cumsum), so a trace is a
pure function of its seed — moving the code did not move a single draw.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["ARRIVAL_SHAPES", "draw_arrivals", "thinned_arrivals"]

#: Supported ``arrival_shape`` values, in documentation order.
ARRIVAL_SHAPES = ("poisson", "diurnal", "flash_crowd")

# Candidate arrivals per thinning round. Fixed (never adaptive) so the
# accept/reject stream — and therefore the trace — is a pure function of
# the seed, independent of how many rounds the target count takes.
_THINNING_CHUNK = 4096


def thinned_arrivals(
    rng: np.random.Generator,
    num_requests: int,
    rate_of: Callable[[np.ndarray], np.ndarray],
    rate_max: float,
) -> np.ndarray:
    """First ``num_requests`` arrivals of the inhomogeneous Poisson
    process with intensity ``rate_of(t) <= rate_max``, by chunked
    vectorized thinning (Lewis-Shedler): candidates arrive at the
    homogeneous ``rate_max`` and survive with probability
    ``rate_of(t) / rate_max``."""
    kept: list[np.ndarray] = []
    total = 0
    t = 0.0
    while total < num_requests:
        gaps = rng.exponential(1.0 / rate_max, size=_THINNING_CHUNK)
        cand = t + np.cumsum(gaps)
        t = float(cand[-1])
        u = rng.random(size=_THINNING_CHUNK)
        keep = cand[u * rate_max < rate_of(cand)]
        kept.append(keep)
        total += len(keep)
    return np.concatenate(kept)[:num_requests]


def draw_arrivals(
    rng: np.random.Generator,
    num_requests: int,
    arrival_rate: float,
    *,
    arrival_shape: str = "poisson",
    diurnal_amplitude: float = 0.8,
    diurnal_period: float | None = None,
    burst_factor: float = 8.0,
    num_bursts: int = 2,
) -> np.ndarray:
    """Draw ``num_requests`` sorted arrival times under a named shape.

    * ``"poisson"`` — homogeneous Poisson at ``arrival_rate``; the
      historical behavior, bit-for-bit (same rng state, same draws).
    * ``"diurnal"`` — inhomogeneous Poisson with a sinusoidal intensity
      ``arrival_rate * (1 + diurnal_amplitude * sin(2*pi*t / period))``:
      a day/night load cycle. The *mean* rate stays ``arrival_rate``
      (the sine averages out). ``diurnal_period`` defaults to half the
      nominal trace span (two full cycles per trace).
    * ``"flash_crowd"`` — ``arrival_rate`` baseline with ``num_bursts``
      evenly spaced windows at ``burst_factor`` times the base rate
      (each 4% of the nominal span wide): a link-from-the-frontpage
      spike.
    """
    if num_requests < 1 or not (math.isfinite(arrival_rate)
                                and arrival_rate > 0):
        raise ValueError(
            "num_requests >= 1 and a finite arrival_rate > 0 required")
    if arrival_shape not in ARRIVAL_SHAPES:
        raise ValueError(
            f"unknown arrival_shape {arrival_shape!r}; "
            f"choose from {ARRIVAL_SHAPES}")
    nominal_span = num_requests / arrival_rate
    if arrival_shape == "poisson":
        # Historical draw order, preserved verbatim: existing seeds must
        # keep producing the same traces.
        gaps = rng.exponential(1.0 / arrival_rate, size=num_requests)
        return np.cumsum(gaps)
    if arrival_shape == "diurnal":
        if not 0.0 <= diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        period = (nominal_span / 2.0 if diurnal_period is None
                  else diurnal_period)
        if not (math.isfinite(period) and period > 0):
            raise ValueError(
                "diurnal_period must be finite and > 0 when given")
        omega = 2.0 * np.pi / period

        def rate_of(t: np.ndarray) -> np.ndarray:
            return arrival_rate * (1.0 + diurnal_amplitude * np.sin(omega * t))

        return thinned_arrivals(
            rng, num_requests, rate_of,
            arrival_rate * (1.0 + diurnal_amplitude))
    # flash_crowd
    if not (math.isfinite(burst_factor) and burst_factor > 1.0):
        raise ValueError("burst_factor must be finite and > 1")
    if num_bursts < 1:
        raise ValueError("num_bursts must be >= 1")
    centers = np.array([(j + 0.5) / num_bursts * nominal_span
                        for j in range(num_bursts)])
    half_width = 0.02 * nominal_span

    def rate_of(t: np.ndarray) -> np.ndarray:
        in_burst = (np.abs(t[:, None] - centers[None, :])
                    <= half_width).any(axis=1)
        return arrival_rate * np.where(in_burst, burst_factor, 1.0)

    return thinned_arrivals(
        rng, num_requests, rate_of, arrival_rate * burst_factor)
