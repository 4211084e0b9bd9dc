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
  .DenseLatencyModel`;
* :class:`MoEStepCost` — wraps :class:`~repro.engine.moe
  .MoELatencyModel` (gating + all-to-all + expert FFN per step);
* :class:`ZeroStepCost` — wraps :class:`~repro.zero.inference
  .ZeroInferenceEngine`'s streamed forward pass;
* :class:`ClosureStepCost` — wraps a plain ``(prompt_time,
  step_time)`` function pair, for hand-written costs in tests and
  examples.

Every iteration is a forward pass of shape ``(batch, tokens_per_seq,
kv)``, and the three model adapters differ only in what one pass costs.
They share :class:`_PassPricedCost`, which prices both iteration kinds
from a subclass's ``_price(batch, tokens_per_seq, kv)`` hook and
memoizes on that shape — a serving replay re-prices the same few shapes
thousands of times. Each freshly priced pass is checked finite and
non-negative once, so a broken latency model fails at its first bad
shape instead of poisoning simulated time.

Beyond the two scalar methods, every model prices whole *runs*:
:meth:`StepCostModel.decode_run_cost` returns the per-iteration costs of
``steps`` consecutive decode iterations in one NumPy evaluation. Between
scheduler-relevant events the live batch's composition is frozen — every
KV length just grows by one per iteration — so the event-compressed
serving loop (:class:`~repro.engine.replica._Replica`) prices
a whole stretch with one call instead of ``steps`` Python round-trips.
The ABC ships a per-step reference fallback; the pass-priced adapters
override it with an evaluate-once, slice-forever scheme (a per-batch
cost-vs-KV array and a bytemask of its priced entries) whose entries
come from the *same* memoized pass ``decode_cost`` uses, so run pricing
is bit-for-bit identical to the per-step path. Every run is a fresh
array the caller may overwrite.
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
        iterations starting from ``state``, as a fresh float64 array.

        Element ``i`` equals ``decode_cost(state.advanced(i))``
        bit-for-bit — the batch's composition is frozen across the run
        and every KV length grows by one per iteration, which is exactly
        the situation between two scheduler-relevant events. The serving
        loop prices every step up to the next retirement, past where an
        arrival may end the stretch, turns the run into step end times
        in place and binary-searches them: an override of
        :meth:`_decode_run_cost` must return a fresh float64 array (never
        a view of a cache) of finite costs ``>= 0``. The base
        implementation is the per-step reference loop, one
        ``decode_cost`` call per step; the shipped adapters vectorize.
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
            c = out[i] = self.decode_cost(state)
            if not 0.0 <= c < math.inf:
                raise ValueError(f"decode step {i} of a run priced at {c!r} "
                                 "s; step costs must be finite and >= 0")
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
        # KV-blind: one closure call broadcast across steps, as float64
        # even when ``step_time`` returns an int.
        return np.full(steps, self._step_time(state.batch), np.float64)


class _PassPricedCost(StepCostModel):
    """Shared pricing for adapters whose iterations are forward passes.

    Every iteration of the hybrid prompt+token schedule (Sec. IV-C1) is a
    forward pass of shape ``(batch, tokens_per_seq, kv)``: a prompt pass
    is ``(1, suffix, prompt_len)``, the live batch riding along or
    decoding is ``(batch, 1, kv)`` at the batch's ceiling-mean KV length
    (exact for the linear-in-KV attention term). Model families differ
    only in what one pass costs, so a subclass implements :meth:`_price`
    and this class does the rest: the two iteration kinds, one memo
    keyed on the pass shape, and the vectorized decode runs.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[int, int, int], float] = {}
        # batch -> (decode-pass cost indexed by KV length, and a bytemask
        # over the same indices: 1 = that entry is priced)
        self._kv_runs: dict[int, tuple[np.ndarray, bytearray]] = {}

    @abstractmethod
    def _price(self, batch: int, tokens_per_seq: int, kv: int) -> float:
        """Seconds for one forward pass of this shape (unmemoized)."""

    def _pass(self, batch: int, tokens_per_seq: int, kv: int) -> float:
        key = (batch, tokens_per_seq, kv)
        got = self._memo.get(key)
        if got is None:
            got = self._price(batch, tokens_per_seq, kv)
            if not 0.0 <= got < math.inf:
                raise ValueError(
                    f"{type(self).__name__} priced a pass of shape (batch="
                    f"{batch}, tokens_per_seq={tokens_per_seq}, kv={kv}) at "
                    f"{got!r} s; costs must be finite and >= 0")
            self._memo[key] = got
        return got

    def prompt_cost(self, state: BatchState, request: _HasPromptLen) -> float:
        plen = request.prompt_len
        # A prefix-hit prompt prefills only its unshared suffix, attending
        # over the full context (the cached prefix is KV, not new tokens).
        spl = getattr(request, "shared_prefix_len", 0)
        cost = self._pass(1, plen - spl, plen)
        if state.batch:  # the live batch rides along in the same iteration
            cost += self._pass(state.batch, 1, max(1, state.mean_kv))
        return cost

    def decode_cost(self, state: BatchState) -> float:
        return self._pass(max(1, state.batch), 1, max(1, state.mean_kv))

    def _decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        # Every sequence gains one token per iteration, so the ceiling-mean
        # KV grows exactly +1 per step: the run is a contiguous slice of
        # this batch size's cost-vs-KV array, each entry priced once by the
        # same ``_pass`` that ``decode_cost`` uses.
        batch = state.batch
        kv0 = max(1, state.mean_kv)
        need = kv0 + steps
        entry = self._kv_runs.get(batch)
        if entry is None or entry[0].size < need:
            old, priced = entry or (np.empty(0), bytearray())
            arr = np.empty(max(need, 64, 2 * old.size))
            arr[: old.size] = old
            priced.extend(bytes(arr.size - old.size))
            entry = self._kv_runs[batch] = (arr, priced)
        arr, priced = entry
        # Stretches of one batch size overlap, continue and jump back, so
        # the unpriced entries are found by a C scan over the bytemask.
        kv = priced.find(0, kv0, need)
        while kv != -1:
            arr[kv] = self._pass(batch, 1, kv)
            priced[kv] = 1
            kv = priced.find(0, kv + 1, need)
        return arr[kv0:need].copy()


class DenseStepCost(_PassPricedCost):
    """Price serving steps with a :class:`DenseLatencyModel`: each pass
    is its ``step_time`` kernel plus communication seconds, at the live
    batch's true KV lengths."""

    def __init__(self, latency_model) -> None:
        super().__init__()
        self.latency_model = latency_model

    def _price(self, batch: int, tokens_per_seq: int, kv: int) -> float:
        k, c = self.latency_model.step_time(batch, tokens_per_seq, kv)
        return k + c


class MoEStepCost(_PassPricedCost):
    """Price serving steps with a :class:`MoELatencyModel`.

    The MoE model is token-count driven — gating, the two all-to-alls,
    and the expert FFN all scale with the tokens flowing through a step
    — so a pass of shape ``(batch, tokens_per_seq, kv)`` is priced as
    one step carrying ``batch * tokens_per_seq`` tokens at KV ``kv``.

    ``skew`` opts into skew-aware dispatch pricing: any object with
    ``load_ratio(tokens)`` and ``stall_time(tokens)`` (duck-typed so the
    engine never imports :mod:`repro.moe_placement`, e.g. a
    :class:`~repro.moe_placement.SkewedDispatchSpec`), passed through to
    :meth:`~repro.engine.moe.MoELatencyModel.token_step`. A spec whose
    ratio is 1.0 and stall 0.0 prices bit-for-bit like ``skew=None``.
    """

    def __init__(self, moe_model, *, skew=None) -> None:
        if skew is not None and (
            not callable(getattr(skew, "load_ratio", None))
            or not callable(getattr(skew, "stall_time", None))
        ):
            raise TypeError(
                "skew must expose load_ratio(tokens) and stall_time(tokens)")
        super().__init__()
        self.moe_model = moe_model
        self.skew = skew
        self._skew_memo: dict[int, tuple[float, float]] = {}

    def _price(self, batch: int, tokens_per_seq: int, kv: int) -> float:
        tokens = batch * tokens_per_seq
        if self.skew is None:
            return self.moe_model.token_step(tokens, kv).total
        terms = self._skew_memo.get(tokens)
        if terms is None:
            # The hooks see only the token count, which every KV length of
            # a decode run shares; re-evaluating them per pass shape costs
            # a quarter of skewed pricing time.
            terms = self._skew_memo[tokens] = (
                self.skew.load_ratio(tokens), self.skew.stall_time(tokens))
        ratio, stall = terms
        return self.moe_model.token_step(
            tokens, kv, load_ratio=ratio, stall_time=stall).total


class ZeroStepCost(_PassPricedCost):
    """Price serving steps with a :class:`ZeroInferenceEngine`.

    Every iteration streams the full weight set through the GPUs (Sec.
    VI-A), so per-step cost is dominated by the fetch/compute overlap
    the engine's prefetch pipeline models. Weights stream regardless,
    but only a prompt's unshared suffix runs through its pass. This is a
    throughput-oriented backend: sensible traces batch aggressively, and
    the tuners treat it as such.
    """

    def __init__(self, zero_engine) -> None:
        super().__init__()
        self.zero_engine = zero_engine

    def _price(self, batch: int, tokens_per_seq: int, kv: int) -> float:
        return self.zero_engine.forward_pass(
            batch=batch, tokens_per_seq=tokens_per_seq, kv_len=kv).time
