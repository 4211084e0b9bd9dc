"""Step-cost models: one pricing interface for every model family.

The serving ladder — :class:`~repro.engine.scheduler.Scheduler` →
:func:`~repro.engine.serving_sim.simulate_serving` →
:func:`~repro.fleet.sim.simulate_fleet` → the tuners — makes *lifecycle*
decisions; what turns those decisions into seconds is a pricing model.
This module is that seam: one interface, so any model family (dense,
sparse/MoE, ZeRO-offloaded — the paper's three pillars, Secs. IV-VI)
plugs into the same serving/fleet/tuning stack with one adapter, passed
to every simulator as its required ``costs=`` argument:

* :class:`BatchState` — the live batch at pricing time: one KV length
  per running sequence (prompt + tokens generated so far);
* :class:`StepCostModel` — ``prompt_cost(state, request)`` prices
  admitting one prompt while ``state`` (the sequences already live)
  rides along in the same iteration (Sec. IV-C1's hybrid prompt+token
  scheduling); ``decode_cost(state)`` prices one decode iteration that
  generates one token for every sequence in ``state``;
* :class:`DenseStepCost` — wraps :class:`~repro.engine.latency
  .DenseLatencyModel`. ``representative_kv`` prices every step at one
  fixed KV length (the tuners' sizing mode); the default true-KV mode
  prices each decode at the batch's actual KV lengths;
* :class:`MoEStepCost` — wraps :class:`~repro.engine.moe
  .MoELatencyModel` (gating + all-to-all + expert FFN per step);
* :class:`ZeroStepCost` — wraps :class:`~repro.zero.inference
  .ZeroInferenceEngine`'s streamed forward pass;
* :class:`ClosureStepCost` — wraps a plain ``(prompt_time,
  step_time)`` function pair, for hand-written costs in tests and
  examples.

Adapters memoize on the (batch, kv, prompt_len) shapes they price —
a serving replay re-prices the same few shapes thousands of times.

Beyond the two scalar methods, every model prices whole *runs*:
:meth:`StepCostModel.decode_run_cost` returns the per-iteration costs of
``steps`` consecutive decode iterations in one NumPy evaluation. Between
scheduler-relevant events the live batch's composition is frozen — every
KV length just grows by one per iteration — so the event-compressed
serving loop (:class:`~repro.engine.replica._Replica`) prices
a whole stretch with one call instead of ``steps`` Python round-trips.
The ABC ships a per-step reference fallback; the shipped adapters
override it with an evaluate-once, slice-forever scheme (a per-batch
cost-vs-KV array, :class:`_KvRunCache`) whose entries are produced by the
*same* scalar routine ``decode_cost`` uses, so run pricing is bit-for-bit
identical to the per-step path.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "BatchState",
    "PromptShape",
    "StepCostModel",
    "ClosureStepCost",
    "DenseStepCost",
    "MoEStepCost",
    "ZeroStepCost",
]


@runtime_checkable
class _HasPromptLen(Protocol):
    prompt_len: int


@dataclass(frozen=True)
class PromptShape:
    """Minimal request stand-in for pricing: just the prompt shape.

    Any object with a ``prompt_len`` attribute (``SchedRequest``, a
    trace ``Request``) works where a "request" is expected; this class
    exists for callers that have only the numbers.

    ``shared_prefix_len`` marks the leading tokens whose KV already
    lives in a shared cache (a chat turn forked from its conversation):
    the prefix-aware adapters prefill only the remaining suffix, priced
    attending over the *full* context (cached prefix included).
    """

    prompt_len: int
    shared_prefix_len: int = 0

    def __post_init__(self) -> None:
        if self.prompt_len < 1:
            raise ValueError("prompt_len must be >= 1")
        if not 0 <= self.shared_prefix_len < self.prompt_len:
            raise ValueError(
                "shared_prefix_len must satisfy 0 <= prefix < prompt_len")


@dataclass(frozen=True)
class BatchState:
    """The live batch at pricing time.

    ``kv_lens[i]`` is sequence ``i``'s context length — its prompt plus
    every token generated so far. An empty state is legal (pricing a
    prompt pass that joins an idle server has no riders).
    """

    kv_lens: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(kv < 1 for kv in self.kv_lens):
            raise ValueError("KV lengths must be >= 1")

    @property
    def batch(self) -> int:
        """Number of live sequences."""
        return len(self.kv_lens)

    @property
    def total_kv(self) -> int:
        """Sum of context lengths — the attention work of one decode."""
        return sum(self.kv_lens)

    @property
    def mean_kv(self) -> int:
        """Ceiling of the mean context length (0 for an empty state).

        Per-step attention cost is linear in each sequence's KV length,
        so a uniform batch at the mean prices the same attention work as
        the ragged batch; the ceiling keeps the pricing conservative.
        """
        if not self.kv_lens:
            return 0
        return math.ceil(self.total_kv / self.batch)

    @property
    def max_kv(self) -> int:
        """Longest context in the batch (0 for an empty state)."""
        return max(self.kv_lens, default=0)

    @classmethod
    def uniform(cls, batch: int, kv_len: int) -> "BatchState":
        """A batch of ``batch`` sequences all at ``kv_len``."""
        if batch < 0:
            raise ValueError("batch must be >= 0")
        return cls((kv_len,) * batch)

    def advanced(self, steps: int = 1) -> "BatchState":
        """The state after ``steps`` decode iterations with this exact
        batch composition: every sequence's KV length grows by one per
        iteration (each generates one token per step)."""
        if steps < 0:
            raise ValueError("steps must be >= 0")
        if steps == 0:
            return self
        return BatchState(tuple(kv + steps for kv in self.kv_lens))


class _KvRunCache:
    """Growable cost-vs-KV arrays, one per cache key (e.g. batch size).

    The adapters' decode cost is a pure function of a small shape key
    plus the (mean) KV length, and a decode run walks a *contiguous* KV
    range — so the natural vectorized store is an array indexed by KV.
    Each missing entry is evaluated exactly once via the ``fill``
    callback (the adapter's scalar pricing routine, so the stored floats
    are bit-for-bit the scalar path's); after warm-up a whole run prices
    as one NumPy slice.
    """

    def __init__(self) -> None:
        self._arrays: dict = {}

    def run(self, key, kv0: int, steps: int, fill: Callable[[int], float]) -> np.ndarray:
        """Costs for KV lengths ``kv0 .. kv0+steps-1`` under ``key``."""
        need = kv0 + steps
        arr = self._arrays.get(key)
        if arr is None:
            arr = self._arrays[key] = np.full(max(need, 64), np.nan)
        elif arr.size < need:
            grown = np.full(max(need, 2 * arr.size), np.nan)
            grown[: arr.size] = arr
            arr = self._arrays[key] = grown
        seg = arr[kv0:need]
        for i in np.nonzero(np.isnan(seg))[0]:
            seg[i] = fill(kv0 + int(i))
        return seg.copy()


class StepCostModel(ABC):
    """Prices a continuous-batching server's two iteration kinds.

    The serving/fleet simulators call these with states built from the
    shared scheduler, so every model family sees exactly the decisions
    the dense path sees — only the seconds differ.
    """

    @abstractmethod
    def prompt_cost(self, state: BatchState, request: _HasPromptLen) -> float:
        """Seconds to admit ``request`` (its full prompt pass) while the
        ``state`` sequences — the batch *excluding* the newcomer — each
        ride along for one decode token in the same iteration."""

    @abstractmethod
    def decode_cost(self, state: BatchState) -> float:
        """Seconds for one decode iteration generating one token for
        every sequence in ``state`` (``state.batch >= 1``)."""

    def decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        """Per-iteration seconds of ``steps`` consecutive decode
        iterations starting from ``state``, as a float64 array.

        Element ``i`` equals ``decode_cost(state.advanced(i))``
        bit-for-bit — the batch's composition is frozen across the run
        and every KV length grows by one per iteration, which is exactly
        the situation between two scheduler-relevant events. The base
        implementation is the per-step reference loop; the shipped
        adapters override :meth:`_decode_run_cost` with vectorized
        evaluation.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        if steps == 0:
            return np.empty(0)
        if state.batch < 1:
            raise ValueError("decode_run_cost needs a non-empty batch")
        return self._decode_run_cost(state, steps)

    def _decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        # Per-step reference fallback: correct for any model, one Python
        # round-trip per iteration.
        out = np.empty(steps)
        for i in range(steps):
            out[i] = self.decode_cost(state)
            state = state.advanced()
        return out


class ClosureStepCost(StepCostModel):
    """Adapter over a plain ``(prompt_time, step_time)`` function pair.

    ``prompt_time(batch, prompt_len)`` takes the batch size *including*
    the admitted request; ``step_time(batch)`` the live batch size.
    State KV contents are ignored — the functions never see them.
    Likewise prefix-blind: a prompt with
    ``shared_prefix_len`` set still pays ``prompt_time`` on its full
    length, because the closure signature has no slot for the split
    (use :class:`DenseStepCost` and friends for prefix-aware pricing).
    """

    def __init__(
        self,
        prompt_time: Callable[[int, int], float],
        step_time: Callable[[int], float],
    ) -> None:
        self._prompt_time = prompt_time
        self._step_time = step_time

    def prompt_cost(self, state: BatchState, request: _HasPromptLen) -> float:
        return self._prompt_time(state.batch + 1, request.prompt_len)

    def decode_cost(self, state: BatchState) -> float:
        return self._step_time(state.batch)

    def _decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        # KV-blind: the run is one closure call broadcast across steps.
        return np.full(steps, self._step_time(state.batch))


class DenseStepCost(StepCostModel):
    """Price serving steps with a :class:`DenseLatencyModel`.

    ``representative_kv`` selects the compat mode: every decode (and
    every rider folded into a prompt pass) is priced at that one KV
    length (the tuners pass ``mean_prompt + mean_gen // 2``, which
    keeps their historical numbers bit-for-bit). With the
    default ``None``, each call is priced at the live batch's actual
    KV-length distribution (the ceiling-mean, exact for the
    linear-in-KV attention term).
    """

    def __init__(self, latency_model, *, representative_kv: int | None = None) -> None:
        if representative_kv is not None and representative_kv < 1:
            raise ValueError("representative_kv must be >= 1 when given")
        self.latency_model = latency_model
        self.representative_kv = representative_kv
        self._memo: dict[tuple, float] = {}
        self._pass_memo: dict[tuple, tuple[float, float]] = {}
        self._runs = _KvRunCache()

    def _rider_kv(self, state: BatchState) -> int:
        if self.representative_kv is not None:
            return self.representative_kv
        return max(1, state.mean_kv)

    def _fwd_pass(self, batch: int, tokens_per_seq: int, kv: int) -> tuple[float, float]:
        """Memoized ``step_time`` — a prompt pass and a decode pass reuse
        the same sub-results across thousands of distinct cache keys."""
        key = (batch, tokens_per_seq, kv)
        got = self._pass_memo.get(key)
        if got is None:
            got = self._pass_memo[key] = self.latency_model.step_time(
                batch, tokens_per_seq, kv)
        return got

    def prompt_cost(self, state: BatchState, request: _HasPromptLen) -> float:
        riders = state.batch
        kv = self._rider_kv(state) if riders else 0
        plen = request.prompt_len
        # A prefix-hit prompt prefills only its unshared suffix, attending
        # over the full context (the cached prefix is KV, not new tokens).
        spl = getattr(request, "shared_prefix_len", 0)
        key = ("prompt", plen, spl, riders, kv)
        got = self._memo.get(key)
        if got is None:
            k, c = self._fwd_pass(1, plen - spl, plen)
            if riders:  # the live batch rides along in the same iteration
                dk, dc = self._fwd_pass(riders, 1, kv)
                k, c = k + dk, c + dc
            got = self._memo[key] = k + c
        return got

    def decode_cost(self, state: BatchState) -> float:
        kv = self._rider_kv(state)
        key = ("decode", state.batch, kv)
        got = self._memo.get(key)
        if got is None:
            k, c = self._fwd_pass(max(1, state.batch), 1, kv)
            got = self._memo[key] = k + c
        return got

    def _decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        if self.representative_kv is not None:
            # Compat mode pins KV, so the whole run costs one value.
            return np.full(steps, self.decode_cost(state))
        batch = state.batch
        # mean_kv grows exactly +1 per iteration (every sequence gains one
        # token, so the ceiling-mean shifts by one).
        def fill(kv: int) -> float:
            k, c = self._fwd_pass(batch, 1, kv)
            return k + c
        return self._runs.run(batch, max(1, state.mean_kv), steps, fill)


class MoEStepCost(StepCostModel):
    """Price serving steps with a :class:`MoELatencyModel`.

    The MoE model is token-count driven — gating, the two all-to-alls,
    and the expert FFN all scale with the tokens flowing through a step
    — so a prompt pass of ``L`` tokens is priced as a step carrying
    ``L`` tokens attending over the prompt, and a decode iteration as a
    step carrying one token per live sequence at the batch's KV lengths.

    ``skew`` opts into skew-aware dispatch pricing: any object with
    ``load_ratio(tokens)`` and ``stall_time(tokens)`` (duck-typed so the
    engine never imports :mod:`repro.moe_placement`, e.g. a
    :class:`~repro.moe_placement.SkewedDispatchSpec`). Both hooks depend
    only on the step's token count, so the memoized ``(tokens, kv)``
    pricing — and with it the vectorized :meth:`decode_run_cost` fast
    path — survives intact. A spec whose ratio is 1.0 and stall 0.0
    prices bit-for-bit like ``skew=None``.
    """

    def __init__(self, moe_model, *, skew=None) -> None:
        if skew is not None and (
            not callable(getattr(skew, "load_ratio", None))
            or not callable(getattr(skew, "stall_time", None))
        ):
            raise TypeError(
                "skew must expose load_ratio(tokens) and stall_time(tokens)")
        self.moe_model = moe_model
        self.skew = skew
        self._memo: dict[tuple, float] = {}
        self._skew_memo: dict[int, tuple[float, float]] = {}
        self._runs = _KvRunCache()

    def _skew_terms(self, tokens: int) -> tuple[float, float]:
        got = self._skew_memo.get(tokens)
        if got is None:
            got = self._skew_memo[tokens] = (
                self.skew.load_ratio(tokens),
                self.skew.stall_time(tokens),
            )
        return got

    def _step(self, tokens: int, kv: int) -> float:
        key = (tokens, kv)
        got = self._memo.get(key)
        if got is None:
            if self.skew is None:
                total = self.moe_model.token_step(tokens, kv).total
            else:
                ratio, stall = self._skew_terms(tokens)
                total = self.moe_model.skewed_token_step(
                    tokens, kv, load_ratio=ratio, stall_time=stall
                ).total
            got = self._memo[key] = total
        return got

    def prompt_cost(self, state: BatchState, request: _HasPromptLen) -> float:
        spl = getattr(request, "shared_prefix_len", 0)
        # Prefix-hit prompts route only the unshared suffix tokens through
        # gating/all-to-all/FFN, attending over the full context.
        cost = self._step(request.prompt_len - spl, request.prompt_len)
        if state.batch:  # the live batch rides along in the same iteration
            cost += self._step(state.batch, max(1, state.mean_kv))
        return cost

    def decode_cost(self, state: BatchState) -> float:
        return self._step(max(1, state.batch), max(1, state.mean_kv))

    def _decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        tokens = max(1, state.batch)
        return self._runs.run(tokens, max(1, state.mean_kv), steps,
                              lambda kv: self._step(tokens, kv))


class ZeroStepCost(StepCostModel):
    """Price serving steps with a :class:`ZeroInferenceEngine`.

    Every iteration streams the full weight set through the GPUs (Sec.
    VI-A), so per-step cost is dominated by the fetch/compute overlap
    the engine's prefetch pipeline models. This is a throughput-oriented
    backend: sensible traces batch aggressively, and the tuners treat it
    as such.
    """

    def __init__(self, zero_engine) -> None:
        self.zero_engine = zero_engine
        self._memo: dict[tuple, float] = {}
        self._runs = _KvRunCache()

    def _pass(self, batch: int, tokens_per_seq: int, kv: int) -> float:
        key = (batch, tokens_per_seq, kv)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self.zero_engine.forward_pass(
                batch=batch, tokens_per_seq=tokens_per_seq, kv_len=kv).time
        return got

    def prompt_cost(self, state: BatchState, request: _HasPromptLen) -> float:
        spl = getattr(request, "shared_prefix_len", 0)
        # Weights stream regardless, but only the unshared suffix runs
        # through the pass; it attends over the full context.
        cost = self._pass(1, request.prompt_len - spl, request.prompt_len)
        if state.batch:  # riders pay a decode pass in the same round
            cost += self._pass(state.batch, 1, max(1, state.mean_kv))
        return cost

    def decode_cost(self, state: BatchState) -> float:
        return self._pass(max(1, state.batch), 1, max(1, state.mean_kv))

    def _decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        batch = max(1, state.batch)
        return self._runs.run(batch, max(1, state.mean_kv), steps,
                              lambda kv: self._pass(batch, 1, kv))

