"""Skew-aware expert placement, replication, and predictive prefetch.

The paper's MoE pricing (Sec. V) assumes tokens spread evenly over
experts; measured gate distributions are Zipf-skewed, making the rank
that owns the hottest expert the dispatch straggler. This package holds
the counter-measures from "Fast MoE Inference via Predictive Prefetching
and Expert Replication": synthesize the skew (:mod:`.skew`), predict it
(:mod:`.predictor`), place and replicate experts against it
(:mod:`.placement`), and hide the streamed-expert fetches behind compute
(:mod:`.prefetch`). The resulting :class:`SkewedDispatchSpec` plugs into
:class:`~repro.engine.costs.MoEStepCost` to price skewed dispatch
end-to-end through the serving simulator.
"""

from .placement import (
    ExpertPlacement,
    PlacementPlan,
    plan_placement,
    uniform_placement,
)
from .predictor import GateHistoryPredictor
from .prefetch import (
    PrefetchReport,
    SkewedDispatchSpec,
    calibrated_dispatch,
    simulate_expert_stream,
)
from .skew import synthesize_gate_stream, zipf_expert_probs, zipf_gate_logits

__all__ = [
    "ExpertPlacement",
    "GateHistoryPredictor",
    "PlacementPlan",
    "PrefetchReport",
    "SkewedDispatchSpec",
    "calibrated_dispatch",
    "plan_placement",
    "simulate_expert_stream",
    "synthesize_gate_stream",
    "uniform_placement",
    "zipf_expert_probs",
    "zipf_gate_logits",
]
