"""Predictive prefetch of streamed experts and the skewed dispatch spec.

Experts demoted to the streamed tier (:func:`~repro.moe_placement.plan_placement`)
live off-GPU and must be fetched over PCIe before they can run. The
predictor names next step's likely-hot streamed experts; those are
prefetched into spare weight buffers while the dense layers compute.
A prefetch *hit* hides the fetch; a *miss* stalls dispatch for one
expert fetch.

:func:`simulate_expert_stream` replays a gate stream against the
predictor to measure the achievable hit rate (a hit/miss count, with no
timing); :class:`SkewedDispatchSpec` packages the resulting pricing
hooks — ``load_ratio`` and ``stall_time`` — that
:class:`~repro.engine.costs.MoEStepCost` consumes without importing
this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model.config import _as_index
from .placement import ExpertPlacement, PlacementPlan
from .predictor import GateHistoryPredictor

__all__ = ["PrefetchReport", "SkewedDispatchSpec", "calibrated_dispatch",
           "simulate_expert_stream"]

# A predicted load ratio this close to 1.0 is summation noise, not skew —
# snap it so uniform placements price bit-for-bit like the mean-load model.
_RATIO_SNAP = 1e-9


@dataclass(frozen=True)
class PrefetchReport:
    """Outcome of replaying a gate stream through the prefetcher."""

    steps: int
    prefetch_hits: int
    prefetch_misses: int

    @property
    def hit_rate(self) -> float:
        """Fraction of streamed-expert demands covered by prefetch."""
        demand = self.prefetch_hits + self.prefetch_misses
        return self.prefetch_hits / demand if demand else 1.0


def simulate_expert_stream(
    stream: np.ndarray,
    streamed: tuple[int, ...],
    *,
    prefetch_slots: int = 8,
) -> PrefetchReport:
    """Replay a ``(steps, num_experts)`` gate stream through the prefetcher.

    Each step, the predictor's EMA (built from *previous* steps only)
    ranks the streamed experts; the ``prefetch_slots`` hottest are
    prefetched. Streamed experts the step actually routes tokens to are
    *hits* if prefetched, *misses* otherwise. The stall a miss costs is
    priced by :meth:`SkewedDispatchSpec.stall_time`, not here.
    """
    counts = np.asarray(stream, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] < 1:
        raise ValueError("stream must be (steps, num_experts) with >= 1 step")
    if _as_index("prefetch_slots", prefetch_slots) < 0:
        raise ValueError("prefetch_slots must be >= 0")
    num_experts = counts.shape[1]
    streamed_ids = np.asarray(sorted(set(int(e) for e in streamed)),
                              dtype=np.int64)
    if streamed_ids.size and not (
        0 <= streamed_ids.min() and streamed_ids.max() < num_experts
    ):
        raise ValueError("streamed expert id out of range")
    predictor = GateHistoryPredictor(num_experts)

    hits = misses = 0
    for row in counts:
        predicted = predictor.predicted_loads()[streamed_ids]
        order = np.argsort(-predicted, kind="stable")
        prefetched = set(streamed_ids[order[:prefetch_slots]].tolist())
        needed = set(streamed_ids[row[streamed_ids] > 0].tolist())
        n_hit = len(needed & prefetched)
        hits += n_hit
        misses += len(needed) - n_hit
        predictor.update(row)
    return PrefetchReport(
        steps=counts.shape[0],
        prefetch_hits=hits,
        prefetch_misses=misses,
    )


@dataclass(frozen=True)
class SkewedDispatchSpec:
    """Everything the pricing layer needs to know about skewed dispatch.

    Duck-typed contract with :class:`~repro.engine.costs.MoEStepCost`
    (which never imports this package): ``load_ratio(tokens)`` scales
    the expert-FFN capacity and all-to-all volume by the straggler
    rank's share, ``stall_time(tokens)`` is the expected per-MoE-layer
    prefetch-miss stall.
    """

    probs: np.ndarray
    placement: ExpertPlacement
    top_k: int = 1
    streamed: tuple[int, ...] = ()
    prefetch_hit_rate: float = 0.0
    expert_fetch_time: float = 0.0

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (self.placement.num_experts,):
            raise ValueError("probs must have one entry per expert")
        # Range form: a NaN entry fails every comparison, and a NaN
        # load ratio would read as no skew (``max(1.0, nan)`` is 1.0).
        if not ((probs >= 0).all() and 0 < probs.sum() < math.inf):
            raise ValueError(
                "probs must be finite, non-negative and sum > 0")
        object.__setattr__(self, "probs", probs / probs.sum())
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= self.prefetch_hit_rate <= 1.0:
            raise ValueError("prefetch_hit_rate must be in [0, 1]")
        if not 0.0 <= self.expert_fetch_time < math.inf:
            raise ValueError("expert_fetch_time must be finite and >= 0")
        for ex in self.streamed:
            if not 0 <= ex < self.placement.num_experts:
                raise ValueError(f"streamed expert {ex} out of range")

    def expert_loads(self, tokens: int) -> np.ndarray:
        """Expected per-expert routed-token counts for one step."""
        return self.probs * (tokens * self.top_k)

    def load_ratio(self, tokens: int) -> float:
        """Straggler factor: max per-rank load over the mean (>= 1.0).

        Uniform gates on a balanced placement give exactly 1.0 — the
        compat guarantee that keeps unskewed pricing bit-for-bit
        identical to the mean-load model.
        """
        if tokens < 1:
            return 1.0
        ratio = self.placement.load_imbalance(self.expert_loads(tokens))
        return 1.0 if ratio < 1.0 + _RATIO_SNAP else ratio

    def expected_misses(self, tokens: int) -> float:
        """Expected prefetch misses per MoE layer per rank.

        A streamed expert is demanded when at least one of the step's
        ``tokens * top_k`` routed slots lands on it; ranks fetch their
        own streamed experts concurrently over independent PCIe links,
        so the per-layer stall scales with the mean per-rank miss count.
        """
        if not self.streamed or tokens < 1:
            return 0.0
        p = self.probs[list(self.streamed)]
        demand = 1.0 - np.power(1.0 - p, tokens * self.top_k)
        per_rank = demand.sum() / self.placement.ep_degree
        return float((1.0 - self.prefetch_hit_rate) * per_rank)

    def stall_time(self, tokens: int) -> float:
        """Expected per-MoE-layer dispatch stall from prefetch misses."""
        return self.expected_misses(tokens) * self.expert_fetch_time


def calibrated_dispatch(
    probs: np.ndarray,
    plan: PlacementPlan,
    stream: np.ndarray,
    *,
    top_k: int = 1,
    expert_fetch_time: float = 0.0,
    prefetch_slots: int = 8,
) -> SkewedDispatchSpec:
    """Build a dispatch spec whose hit rate is *measured*, not assumed.

    Replays ``stream`` through the predictor against the plan's streamed
    set and bakes the achieved hit rate into the returned spec — the
    honest number the pricing layer then applies to every step.
    """
    report = simulate_expert_stream(stream, plan.streamed,
                                    prefetch_slots=prefetch_slots)
    return SkewedDispatchSpec(
        probs=probs,
        placement=plan.placement,
        top_k=top_k,
        streamed=plan.streamed,
        prefetch_hit_rate=report.hit_rate,
        expert_fetch_time=expert_fetch_time,
    )
