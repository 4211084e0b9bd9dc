"""Gate-history prediction: who is hot next step, from who was hot so far.

Gate distributions drift slowly relative to the decode cadence, so an
exponential moving average over per-expert token counts is a strong
next-step predictor ("Fast MoE Inference via Predictive Prefetching and
Expert Replication" uses exactly this family). The predictor consumes
raw per-expert count vectors, one per iteration (e.g. rows of
:func:`~repro.moe_placement.synthesize_gate_stream`), and answers the
two questions the placement and prefetch layers ask: *expected
per-expert load next step* and *the n hottest experts*.
"""

from __future__ import annotations

import numpy as np

from ..model.config import _as_index

__all__ = ["GateHistoryPredictor"]


class GateHistoryPredictor:
    """EMA over per-expert token counts; predicts next-step expert load.

    ``alpha`` is the EMA weight of the newest observation: high values
    chase bursts, low values smooth them. The first update seeds the EMA
    directly (no zero-bias warm-up), so a single observed step already
    yields a usable prediction.
    """

    def __init__(self, num_experts: int, *, alpha: float = 0.25) -> None:
        num_experts = _as_index("num_experts", num_experts)
        if num_experts < 1:
            raise ValueError("num_experts must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.num_experts = num_experts
        self.alpha = alpha
        self.steps_observed = 0
        self._ema_tokens = np.zeros(num_experts)

    def update(self, counts: np.ndarray) -> None:
        """Fold one iteration's per-expert token counts into the history."""
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (self.num_experts,):
            raise ValueError(
                f"expected {self.num_experts} per-expert counts, got shape "
                f"{counts.shape}")
        # Written as a range test so that NaN fails it too.
        if not ((0 <= counts) & (counts < np.inf)).all():
            raise ValueError("token counts must be finite and >= 0")
        if self.steps_observed == 0:
            self._ema_tokens = counts.copy()
        else:
            self._ema_tokens = (
                self.alpha * counts + (1.0 - self.alpha) * self._ema_tokens)
        self.steps_observed += 1

    def predicted_loads(self) -> np.ndarray:
        """Expected per-expert token counts next step (EMA state)."""
        return self._ema_tokens.copy()

    def hot_experts(self, n: int | None = None) -> np.ndarray:
        """Expert ids sorted hottest-first (ties broken by lower id),
        truncated to the ``n`` hottest when given."""
        order = np.argsort(-self._ema_tokens, kind="stable")
        return order if n is None else order[: max(0, _as_index("n", n))]
