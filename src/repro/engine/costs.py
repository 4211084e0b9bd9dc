"""Step-cost models: one pricing interface for every model family.

The serving ladder — :class:`~repro.engine.scheduler.Scheduler` →
:func:`~repro.engine.serving_sim.simulate_serving` →
:func:`~repro.fleet.sim.simulate_fleet` → the tuners — makes *lifecycle*
decisions; what turns those decisions into seconds is a pricing model.
This module is that seam: one interface, so any model family (dense,
sparse/MoE, ZeRO-offloaded — the paper's three pillars, Secs. IV-VI)
plugs into the same serving/fleet/tuning stack with one adapter, passed
to every simulator as its required ``costs=`` argument:

* :class:`BatchState` — the live batch at pricing time: its size and
  the sum of its KV lengths (each one prompt + tokens generated so
  far), the two numbers per-step attention work depends on;
* :class:`StepCostModel` — ``prompt_cost(state, request)`` prices
  admitting one prompt while ``state`` (the sequences already live)
  rides along in the same iteration (Sec. IV-C1's hybrid prompt+token
  scheduling); ``decode_run_cost(state, steps)`` prices ``steps``
  consecutive decode iterations, each generating one token for every
  sequence in ``state``, and ``decode_cost(state)`` is a run of one;
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
from a subclass's ``_price(batch, tokens_per_seq, kv)`` hook into one
store: per pass shape ``(batch, tokens_per_seq)``, a cost array indexed
by the context before the pass's own tokens, ``kv - tokens_per_seq``,
with a bytemask of its priced entries — a serving replay re-prices the
same few shapes thousands of times, and an unshared prompt's pass is
entry 0 of its shape. Each freshly priced pass is checked finite and
non-negative once, so a broken latency model fails at its first bad
shape instead of poisoning simulated time.

Decode is priced in whole *runs* by :meth:`StepCostModel
.decode_run_cost`, the only decode method a cost model implements:
between scheduler-relevant events the live batch's composition is
frozen — every KV length just grows by one per iteration — so the
event-compressed serving loop (:class:`~repro.engine.replica._Replica`)
prices a whole stretch with one call. A pass-priced adapter's run is a
slice of its batch size's decode array, which a prompt's riders read
too. A miss of either kind prices every unpriced entry of its shape's
array in one ``_price_kvs(batch, tokens_per_seq, kvs)`` call: the dense
and MoE adapters evaluate it as one NumPy expression over the kernel
model's compiled closed forms (equal by IEEE bits to pricing each entry
alone), so a shape is priced on its first miss and once per doubling,
and a later chat turn with the same suffix length over another cached
prefix finds its pass priced. Without that hook only the asked entries
are priced, one ``_price`` call each. A prompt miss's own pass always
goes through ``_price``. Every run is a fresh array the caller may
overwrite.
A pass-priced adapter can also give a stretch's step end times with no
run at all, off its decode grid (``_PassPricedCost._decode_grid``).
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..model.config import _as_index

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

    Any object with a ``prompt_len`` attribute (a trace ``Request``)
    works where a "request" is expected; this class exists for callers
    that have only the numbers.

    ``shared_prefix_len`` marks the leading tokens whose KV already
    lives in a shared cache (a chat turn forked from its conversation):
    the prefix-aware adapters prefill only the remaining suffix, priced
    attending over the *full* context (cached prefix included).
    """

    prompt_len: int
    shared_prefix_len: int = 0

    def __post_init__(self) -> None:
        # Integers only: the range tests alone let fractional lengths
        # through. One try block keeps a prefix hit to two calls.
        try:
            prompt_len = operator.index(self.prompt_len)
            prefix = operator.index(self.shared_prefix_len)
        except TypeError:
            for name in ("prompt_len", "shared_prefix_len"):
                _as_index(name, getattr(self, name))
            raise
        if prompt_len < 1:
            raise ValueError("prompt_len must be >= 1")
        if not 0 <= prefix < prompt_len:
            raise ValueError(
                "shared_prefix_len must satisfy 0 <= prefix < prompt_len")


@dataclass(frozen=True, slots=True)
class BatchState:
    """The live batch at pricing time: ``batch`` running sequences whose
    context lengths — each one's prompt plus every token generated so
    far — sum to ``total_kv``.

    Per-step attention work is linear in each sequence's KV length, so
    the two numbers are all any pricing needs, and a replica keeps them
    as running counts. Every sequence holds at least one token, so
    ``0 <= batch <= total_kv``, and ``total_kv`` is 0 exactly when the
    batch is empty (legal: a prompt pass that joins an idle server has
    no riders). :meth:`of` builds a state from explicit lengths.
    """

    batch: int
    total_kv: int

    def __post_init__(self) -> None:
        batch, total = self.batch, self.total_kv
        if not (isinstance(batch, int) and isinstance(total, int)):
            raise TypeError("batch and total_kv must be ints")
        if not 0 <= batch <= total or (total and not batch):
            raise ValueError(
                f"need 0 <= batch <= total_kv, with total_kv == 0 only for "
                f"an empty batch; got batch={batch}, total_kv={total}")

    @classmethod
    def of(cls, kv_lens) -> "BatchState":
        """The state of sequences with these context lengths (each
        ``>= 1``)."""
        kv_lens = tuple(kv_lens)
        if any(kv < 1 for kv in kv_lens):
            raise ValueError("KV lengths must be >= 1")
        return cls(len(kv_lens), sum(kv_lens))

    @property
    def mean_kv(self) -> int:
        """Ceiling of the mean context length (0 for an empty state).

        Per-step attention cost is linear in each sequence's KV length,
        so a uniform batch at the mean prices the same attention work as
        the ragged batch; the ceiling keeps the pricing conservative.
        """
        if not self.batch:
            return 0
        return -(-self.total_kv // self.batch)  # exact past 2**53

    @classmethod
    def uniform(cls, batch: int, kv_len: int) -> "BatchState":
        """A batch of ``batch`` sequences all at ``kv_len``."""
        return cls(batch, batch * kv_len)

    def advanced(self, steps: int = 1) -> "BatchState":
        """The state after ``steps`` decode iterations with this exact
        batch composition: every sequence's KV length grows by one per
        iteration (each generates one token per step)."""
        steps = _as_index("steps", steps)
        if steps < 0:
            raise ValueError("steps must be >= 0")
        if steps == 0:
            return self
        return BatchState(self.batch, self.total_kv + self.batch * steps)


def _run_steps(state: BatchState, steps) -> int:
    """``steps`` as an int, checked as every shipped ``decode_run_cost``
    checks it: an integer ``>= 0``, over a non-empty batch unless 0."""
    if type(steps) is not int:  # the serving loop's exact ints skip it
        steps = _as_index("steps", steps)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps and state.batch < 1:
        raise ValueError("decode_run_cost needs a non-empty batch")
    return steps


class StepCostModel(ABC):
    """Prices a continuous-batching server's two iteration kinds.

    The serving/fleet simulators call these with states built from the
    shared scheduler, so every model family sees exactly the decisions
    the dense path sees — only the seconds differ. A subclass implements
    :meth:`prompt_cost` and :meth:`decode_run_cost`; :meth:`decode_cost`
    is a run of one.
    """

    @abstractmethod
    def prompt_cost(self, state: BatchState, request: _HasPromptLen) -> float:
        """Seconds to admit ``request`` (its full prompt pass) while the
        ``state`` sequences — the batch *excluding* the newcomer — each
        ride along for one decode token in the same iteration."""

    def decode_cost(self, state: BatchState) -> float:
        """Seconds for one decode iteration generating one token for
        every sequence in ``state`` (``state.batch >= 1``): the first
        entry of a one-step :meth:`decode_run_cost`."""
        return self.decode_run_cost(state, 1).item(0)

    @abstractmethod
    def decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        """Per-iteration seconds of ``steps`` consecutive decode
        iterations starting from ``state``, as a fresh float64 array.

        Element ``i`` prices the iteration at ``state.advanced(i)``: the
        batch's composition is frozen across the run, which is exactly
        the situation between two scheduler-relevant events. ``steps ==
        0`` gives an empty array; any other run needs ``state.batch >=
        1``. Unless the model's decode grid gives the stretch's clock
        (the pass-priced adapters, :meth:`_PassPricedCost._decode_grid`),
        the serving loop folds the run into step end times in place and
        binary-searches them, so its costs must be finite and ``>= 0``,
        in a float64 array that no cache shares.
        """


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

    def decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        if not _run_steps(state, steps):
            return np.empty(0)
        # KV-blind: one closure call broadcast across steps, as float64
        # even when ``step_time`` returns an int.
        return np.full(steps, self._step_time(state.batch), np.float64)


# A shape not in the store: an empty cost array, fully priced.
_UNPRICED = (np.empty(0), None)
# Decode grids serve starts whose binade has a normal spacing and a
# finite top, and sums that float64 holds exactly.
_GRID_MIN, _GRID_MAX, _EXACT = 2.0 ** -970, 2.0 ** 1023, 2.0 ** 53


class _PassPricedCost(StepCostModel):
    """Shared pricing for adapters whose iterations are forward passes.

    Every iteration of the hybrid prompt+token schedule (Sec. IV-C1) is a
    forward pass of shape ``(batch, tokens_per_seq, kv)``: a prompt pass
    is ``(1, suffix, prompt_len)``, the live batch riding along or
    decoding is ``(batch, 1, kv)`` at the batch's ceiling-mean KV length
    (exact for the linear-in-KV attention term). Model families differ
    only in what one pass costs, so a subclass implements :meth:`_price`
    and this class does the rest: the two iteration kinds over one store,
    a cost array per pass shape ``(batch, tokens_per_seq)`` indexed by
    ``kv - tokens_per_seq`` and grown by doubling. A subclass may also
    override :meth:`_price_kvs` to price many of one shape's KV lengths
    at once. A miss then prices every unpriced entry of its shape's array
    in one call: a bad asked entry raises, naming the first, and keeps
    none of the asked ones; a bad unasked one keeps none of the rest. A
    prompt miss's own pass is priced alone through :meth:`_price` first.
    Without the vector hook a miss prices just the asked entries.
    """

    def __init__(self) -> None:
        # (batch, tokens_per_seq) -> (pass cost indexed by the context
        # before the pass's own tokens, kv - tokens_per_seq, and a
        # bytemask over the same indices, 1 = that entry is priced, or
        # None once every entry is)
        self._spans: dict[tuple[int, int], tuple] = {}
        # batch -> the decode clock grid of one binade (_decode_grid)
        self._grids: dict[int, tuple] = {}

    @abstractmethod
    def _price(self, batch: int, tokens_per_seq: int, kv: int) -> float:
        """Seconds for one forward pass of this shape (unmemoized)."""

    def _price_kvs(self, batch: int, tokens_per_seq: int,
                   kvs: np.ndarray) -> np.ndarray | None:
        """Seconds of the passes ``(batch, tokens_per_seq, kv)`` for each
        ``kv`` in ``kvs``, as a float64 array (unmemoized), or ``None``
        when this adapter has no vector pricing: :meth:`_price` then
        prices one entry at a time."""
        return None

    def _bad(self, batch: int, tokens_per_seq: int, kv: int,
             got: float) -> ValueError:
        return ValueError(
            f"{type(self).__name__} priced a pass of shape (batch={batch}, "
            f"tokens_per_seq={tokens_per_seq}, kv={kv}) at {got!r} s; "
            f"costs must be finite and >= 0")

    def _passes(self, batch: int, tokens_per_seq: int, c0: int, end: int,
                own: float | None = None) -> np.ndarray:
        """This pass shape's cost array, priced over ``[c0, end)``;
        ``own`` is entry ``c0``'s price if the caller took it already."""
        key = (batch, tokens_per_seq)
        arr, priced = self._spans.get(key, _UNPRICED)
        if arr.size < end:  # grow by doubling, the new tail unpriced
            grow = max(end - arr.size, arr.size)
            priced = bytearray(priced or b"\x01" * arr.size) + bytes(grow)
            arr = np.concatenate((arr, np.empty(grow)))
        elif priced is None or priced.find(0, c0, end) == -1:
            return arr
        if own is not None:
            arr[c0], priced[c0] = own, 1
        # The vector path prices every unpriced entry in one call, so a
        # shape is filled on its first miss and again once per doubling;
        # without it, only the asked entries are priced, one by one.
        todo = np.flatnonzero(np.frombuffer(priced, np.uint8) == 0)
        i, j = todo.searchsorted((c0, end)).tolist()
        got = (self._price_kvs(batch, tokens_per_seq, todo + tokens_per_seq)
               if todo.size else None)
        if got is None:
            todo, i, j = todo[i:j], 0, j - i
            got = np.array([self._price(batch, tokens_per_seq, kv)
                            for kv in (todo + tokens_per_seq).tolist()],
                           np.float64)
        ok = (got >= 0.0) & (got < math.inf)
        if not ok[i:j].all():  # keep none of the asked entries
            k = i + int(ok[i:j].argmin())
            raise self._bad(batch, tokens_per_seq,
                            todo.item(k) + tokens_per_seq, got.item(k))
        if not ok.all():  # a bad unasked entry: keep only the asked ones
            todo, got = todo[i:j], got[i:j]
        arr[todo] = got
        np.frombuffer(priced, np.uint8)[todo] = 1
        # Once every entry is priced the mask goes, and hits skip the scan.
        self._spans[key] = arr, (priced if priced.find(0) != -1 else None)
        return arr

    def prompt_cost(self, state: BatchState, request: _HasPromptLen) -> float:
        # A prefix-hit prompt prefills only its unshared suffix, attending
        # over the full context (the cached prefix is KV, not new tokens):
        # its pass is entry ``c`` of the suffix's shape.
        c = getattr(request, "shared_prefix_len", 0)
        t = request.prompt_len - c
        arr, priced = self._spans.get((1, t), _UNPRICED)
        if arr.size > c and (priced is None or priced[c]):
            cost = arr.item(c)
        else:  # the asked pass on the scalar path, then the shared rule
            cost = self._price(1, t, t + c)
            if not 0.0 <= cost < math.inf:
                raise self._bad(1, t, t + c, cost)
            self._passes(1, t, c, c + 1, cost)
        if state.batch:  # the live batch rides along in the same iteration
            c = state.mean_kv - 1
            arr, priced = self._spans.get((state.batch, 1), _UNPRICED)
            if arr.size <= c or priced is not None:
                arr = self._passes(state.batch, 1, c, c + 1)
            cost += arr.item(c)
        return cost

    def decode_run_cost(self, state: BatchState, steps: int) -> np.ndarray:
        batch = state.batch
        # The serving loop's exact ints >= 1 over a live batch skip the
        # check; everything else goes through it.
        if type(steps) is not int or steps < 1 or batch < 1:
            steps = _run_steps(state, steps)
            if not steps:
                return np.empty(0)
        # Every sequence gains one token per iteration, so the ceiling-mean
        # KV grows exactly +1 per step: the run is a contiguous slice of
        # this batch size's cost array, which a prompt's riders read too.
        # ``total_kv >= batch`` keeps the ceiling mean >= 1 (entry >= 0).
        c0 = -(-state.total_kv // batch) - 1
        end = c0 + steps
        arr, priced = self._spans.get((batch, 1), _UNPRICED)
        if arr.size < end or priced is not None:
            arr = self._passes(batch, 1, c0, end)
        return arr[c0:end].copy()

    def _decode_grid(self, batch: int, total_kv: int, steps: int,
                     start: float) -> tuple | None:
        """The clock of a ``steps``-step decode stretch of the live batch
        ``(batch, total_kv)`` from ``start``: ``(P, c0, P[c0], u, end)``,
        step ``j`` ending at ``start + (P[c0 + j + 1] - P[c0]) * u``, bit
        for bit the per-step ``now += cost`` fold; else ``None``.

        Every double of ``start``'s binade ``[2**(e-1), 2**e)`` is a
        multiple of ``u = 2**(e-53)``, so while the clock stays in it each
        add is ``now + u * rint(cost / u)`` exactly, unless ``cost / u`` is
        a rounding tie. ``P`` sums ``rint(cost / u)`` over the batch size's
        cost array (exact in float64 below ``2**53``). Each batch size
        keeps one grid, ``(P, binade low, binade top, u, tie entries)``,
        built from a fully priced array; priced entries never change (the
        array only grows), so it holds until its binade or size does. A
        subclass that reprices ``decode_run_cost`` must override this."""
        c0 = -(-total_kv // batch) - 1
        stop = c0 + steps
        grid = self._grids[batch] if batch in self._grids else None
        if (grid is None or not grid[1] <= start < grid[2]
                or stop >= grid[0].size):
            arr, priced = self._spans.get((batch, 1), _UNPRICED)
            if arr.size < stop or priced is not None:
                arr = self._passes(batch, 1, c0, stop)
                if self._spans[batch, 1][1] is not None:
                    return None
            if not _GRID_MIN <= start < _GRID_MAX:
                return None
            top = math.ldexp(1.0, math.frexp(start)[1])
            u = top * 2.0 ** -53
            q = arr / u
            sums = np.zeros(arr.size + 1)
            np.add.accumulate(np.rint(q), out=sums[1:])
            ties = (q - np.floor(q) == 0.5).nonzero()[0].tolist()
            grid = self._grids[batch] = (sums, top * 0.5, top, u, ties)
        sums, _, top, u, ties = grid
        last, base = sums[stop], sums[c0]
        if not last < _EXACT or ties and (
                bisect_left(ties, c0) != bisect_left(ties, stop)):
            return None
        end = start + float(last - base) * u
        return (sums, c0, base, u, end) if end < top else None


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

    def _price_kvs(self, batch: int, tokens_per_seq: int,
                   kvs: np.ndarray) -> np.ndarray | None:
        # Vectorized only when the model offers it: a duck-typed latency
        # model with just ``step_time`` is priced one entry at a time.
        times = getattr(self.latency_model, "decode_pass_times", None)
        if times is None:
            return None
        return times(batch, kvs, tokens_per_seq)


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

    def _skew_terms(self, tokens: int) -> tuple[float, float]:
        """``(load_ratio, stall_time)`` of a step carrying ``tokens``."""
        if self.skew is None:
            return 1.0, 0.0
        terms = self._skew_memo.get(tokens)
        if terms is None:
            # The hooks see only the token count, which every KV length of
            # a decode run shares; re-evaluating them per pass shape costs
            # a quarter of skewed pricing time.
            terms = self._skew_memo[tokens] = (
                self.skew.load_ratio(tokens), self.skew.stall_time(tokens))
        return terms

    def _price(self, batch: int, tokens_per_seq: int, kv: int) -> float:
        tokens = batch * tokens_per_seq
        ratio, stall = self._skew_terms(tokens)
        return self.moe_model.token_step(
            tokens, kv, load_ratio=ratio, stall_time=stall).total

    def _price_kvs(self, batch: int, tokens_per_seq: int,
                   kvs: np.ndarray) -> np.ndarray:
        tokens = batch * tokens_per_seq
        ratio, stall = self._skew_terms(tokens)
        return self.moe_model.token_step_times(
            tokens, kvs, load_ratio=ratio, stall_time=stall)


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
