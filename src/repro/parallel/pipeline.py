"""Pipeline parallelism: stage partitioning and functional staged execution.

Sec. IV-B: when a model exceeds a node's aggregate memory, its layers
split *vertically* into stages placed on different nodes; only adjacent
stages communicate (one activation tensor per micro-batch), which is why
PP scales across the slow inter-node fabric where tensor slicing cannot.

This module owns the *partitioning* (which layers live where, and their
memory footprints) and a functional staged executor used to verify that
stage-by-stage execution reproduces the dense reference. *When* each
stage runs — the schedules of Fig. 2/3 — lives in
:mod:`repro.parallel.schedules`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model.dense import DenseTransformer, cached_attention, lm_head, run_layers
from ..model.kvcache import KVCache

__all__ = ["StagePlan", "partition_layers", "staged_forward"]


@dataclass(frozen=True)
class StagePlan:
    """Layer assignment of one pipeline stage: layers [start, end)."""

    stage: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("a stage must own at least one layer")

    @property
    def num_layers(self) -> int:
        """Layers resident on this stage."""
        return self.end - self.start


def partition_layers(num_layers: int, num_stages: int) -> list[StagePlan]:
    """Split ``num_layers`` into ``num_stages`` contiguous, balanced stages.

    Remainder layers go to the *earliest* stages so the last stage (which
    also computes logits) is never the largest.
    """
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    if num_layers < num_stages:
        raise ValueError(
            f"cannot split {num_layers} layers into {num_stages} stages"
        )
    base, extra = divmod(num_layers, num_stages)
    plans = []
    start = 0
    for s in range(num_stages):
        n = base + (1 if s < extra else 0)
        plans.append(StagePlan(stage=s, start=start, end=start + n))
        start += n
    assert start == num_layers
    return plans


def staged_forward(
    model: DenseTransformer,
    stages: list[StagePlan],
    token_ids: np.ndarray,
    caches: list[KVCache] | None = None,
) -> np.ndarray:
    """Execute the model stage by stage, passing the activation tensor at
    each boundary — the data movement a pipeline engine performs, run
    sequentially here to pin down the semantics."""
    if stages[0].start != 0 or stages[-1].end != model.config.layers:
        raise ValueError("stages must cover all layers")
    token_ids = np.atleast_2d(token_ids)
    if caches is not None and len(caches) != len(stages):
        raise ValueError("one cache per stage required")
    pos0 = caches[0].seq_len(stages[0].start) if caches is not None else 0
    x = model.embed(token_ids, pos0)
    for plan in stages:
        cache = caches[plan.stage] if caches is not None else None
        x = run_layers(model, x, range(plan.start, plan.end),
                       cached_attention(model.config, cache))
    return lm_head(model, x)
