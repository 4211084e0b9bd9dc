"""Workload scenario zoo: traces that exercise real serving mechanisms.

:func:`~repro.engine.serving_sim.synthesize_trace` produces one shape —
independent requests, Poisson-ish lengths — which prices every prompt at
full prefill and holds every KV cache for exactly one request. The
generators here produce the workloads the paper's serving discussion
(Sec. I's online scenarios, Sec. IV-B's KV-capacity limit) actually
implies:

* :func:`chat_scenario` — multi-turn conversations. A turn's prompt
  *contains* the previous turn's full context, so ``shared_prefix_len``
  marks what a parked KV cache can serve; turn arrivals are *causal*
  (a user replies only after the previous turn finishes, estimated from
  supplied per-token service rates, plus exponential think time).
* :func:`agentic_scenario` — agent loops: a long context re-submitted
  many times with short generations and tool-call gaps; the extreme
  prefix-sharing (and KV-pinning) workload.
* :func:`heavy_tailed_scenario` — independent requests with lognormal
  prompts and Zipf generation lengths: a few giants dominate the work,
  stressing admission fairness far harder than Poisson lengths.
* :func:`multi_tenant_scenario` — a mix of per-tenant sub-workloads
  (rates, shapes, fair-share weights, slot caps, per-tenant SLOs), the
  input to the scheduler's tenant-aware admission policies.

All generators return plain :class:`~repro.engine.serving_sim
.WorkloadTrace` objects — every downstream consumer (serving simulator,
fleet, functional engine, tuners) takes them unchanged — and are pure
functions of their seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..engine.scheduler import TenantFairShare
from ..engine.serving_sim import WorkloadTrace
from ..model.config import _as_index
from ..rng import SeedLike, as_generator
from .arrivals import draw_arrivals

__all__ = [
    "TenantSpec",
    "chat_scenario",
    "agentic_scenario",
    "heavy_tailed_scenario",
    "multi_tenant_scenario",
    "strip_prefix_sharing",
    "tenant_policy",
    "tenant_slo_summary",
    "SCENARIOS",
    "make_scenario",
]


def _check_integers(**values: int | None) -> None:
    """Reject a count or length that is not an integer (2.5 and NaN
    included), naming it; ``None`` means not given."""
    for name, value in values.items():
        if value is not None:
            _as_index(name, value)


def _check_positive(**values: float) -> None:
    """Reject a NaN, infinite or non-positive value, naming it."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _check_times(**times: float) -> None:
    """Reject a NaN, infinite or negative time estimate, naming it."""
    for name, value in times.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _causal_sessions(
    rng: np.random.Generator,
    *,
    session_rate: float,
    num_sessions: int,
    min_requests: int | None,
    mean_turns: float,
    first_prompt_mean: int,
    extension_mean: int,
    gen_mean: int,
    est_prefill_s: float,
    est_step_s: float,
    mean_think_time: float,
    session_base: int,
) -> list[tuple[float, int, int, int, int, int]]:
    """Raw causal session turns: ``(arrival, session, turn, prompt,
    gen, shared_prefix_len)`` tuples, unsorted.

    Sessions open at Poisson(``session_rate``) arrivals; each runs
    ``max(1, Poisson(mean_turns))`` turns. Turn ``t+1``'s prompt is turn
    ``t``'s full context (prompt + generation) plus a fresh extension,
    its ``shared_prefix_len`` is that context, and it arrives only after
    turn ``t``'s *estimated* completion (``est_prefill_s + gen *
    est_step_s`` — an a-priori service estimate, deliberately not tied
    to any cost model) plus exponential think time. Generation lengths
    are floored at 2 so every turn enters the decode phase: a turn
    retiring inside its own admission round would make intra-round
    admission ordering observable, needlessly complicating cross-backend
    equivalence.

    When ``min_requests`` is set, extra sessions are drawn past
    ``num_sessions`` (arrivals continuing the same Poisson process)
    until the turn count reaches it.
    """
    raw: list[tuple[float, int, int, int, int, int]] = []
    opens = 0.0
    s = 0
    while s < num_sessions or (min_requests is not None
                               and len(raw) < min_requests):
        opens += float(rng.exponential(1.0 / session_rate))
        turns = max(1, int(rng.poisson(mean_turns)))
        arrival = opens
        prompt = max(1, int(rng.poisson(first_prompt_mean)))
        shared = 0
        for t in range(turns):
            gen = max(2, int(rng.poisson(gen_mean)))
            raw.append((arrival, session_base + s, t, prompt, gen, shared))
            if t + 1 < turns:
                est_done = arrival + est_prefill_s + gen * est_step_s
                arrival = est_done + float(rng.exponential(mean_think_time))
                shared = prompt + gen
                prompt = shared + max(1, int(rng.poisson(extension_mean)))
        s += 1
    return raw


def _assemble(
    raw: list[tuple[float, int | None, int, int, int, int]],
    tenants: list[str | None],
    *,
    num_requests: int | None,
    expert_skew: float | None,
) -> WorkloadTrace:
    """Sort raw turns by arrival, renumber ids, truncate, build the
    trace. ``tenants`` is parallel to ``raw``."""
    order = sorted(range(len(raw)), key=lambda i: (raw[i][0], i))
    if num_requests is not None:
        order = order[:num_requests]
    arrival, session, turn, prompt, gen, shared = zip(*(raw[i] for i in order))
    return WorkloadTrace.from_columns(
        arrival, prompt, gen, session=session,
        tenant=[tenants[i] for i in order], turn_index=turn,
        shared_prefix_len=shared, expert_skew=expert_skew)


def chat_scenario(
    *,
    num_sessions: int,
    session_rate: float,
    mean_turns: float = 4.0,
    mean_prompt: int = 128,
    mean_utterance: int | None = None,
    mean_gen: int = 32,
    mean_think_time: float = 2.0,
    est_prefill_s: float = 0.5,
    est_step_s: float = 0.05,
    num_requests: int | None = None,
    tenant: str | None = None,
    expert_skew: float | None = None,
    seed: SeedLike = 0,
) -> WorkloadTrace:
    """Multi-turn chat: sessions of causally ordered turns with shared
    conversation prefixes.

    ``num_sessions`` conversations open at Poisson(``session_rate``);
    each runs ``max(1, Poisson(mean_turns))`` turns. The opening prompt
    averages ``mean_prompt`` tokens; each follow-up prompt is the full
    previous context plus a ``mean_utterance``-token user message
    (default ``max(1, mean_prompt // 4)``) and declares that context as
    its ``shared_prefix_len``. A follow-up arrives after the previous
    turn's estimated completion (``est_prefill_s + gen * est_step_s``,
    an a-priori estimate independent of any cost model) plus
    Exponential(``mean_think_time``) think time — so load is *closed
    loop*: turns cannot pile up faster than the service estimate lets
    sessions advance.

    ``num_requests`` (optional) is a hard target: extra sessions are
    drawn until that many turns exist, then the trace is truncated to
    exactly that many earliest-arriving turns. Generations are floored
    at 2 tokens (see :func:`_causal_sessions`).
    """
    _check_integers(num_sessions=num_sessions, mean_prompt=mean_prompt,
                    mean_utterance=mean_utterance, mean_gen=mean_gen,
                    num_requests=num_requests)
    if num_sessions < 1 or not (math.isfinite(session_rate)
                                and session_rate > 0):
        raise ValueError(
            "num_sessions >= 1 and a finite session_rate > 0 required")
    if mean_prompt < 1 or mean_gen < 1:
        raise ValueError("mean lengths >= 1 required")
    _check_positive(mean_turns=mean_turns)
    _check_times(est_prefill_s=est_prefill_s, est_step_s=est_step_s,
                 mean_think_time=mean_think_time)
    if num_requests is not None and num_requests < 1:
        raise ValueError("num_requests must be >= 1 when given")
    if mean_utterance is None:
        mean_utterance = max(1, mean_prompt // 4)
    rng = as_generator(seed)
    raw = _causal_sessions(
        rng,
        session_rate=session_rate,
        num_sessions=num_sessions,
        min_requests=num_requests,
        mean_turns=mean_turns,
        first_prompt_mean=mean_prompt,
        extension_mean=mean_utterance,
        gen_mean=mean_gen,
        est_prefill_s=est_prefill_s,
        est_step_s=est_step_s,
        mean_think_time=mean_think_time,
        session_base=0,
    )
    return _assemble(raw, [tenant] * len(raw),
                     num_requests=num_requests, expert_skew=expert_skew)


def agentic_scenario(
    *,
    num_agents: int,
    agent_rate: float,
    mean_iterations: float = 12.0,
    context_len: int = 512,
    mean_observation: int = 24,
    mean_gen: int = 16,
    tool_time: float = 0.2,
    est_prefill_s: float = 0.5,
    est_step_s: float = 0.05,
    num_requests: int | None = None,
    tenant: str | None = None,
    seed: SeedLike = 0,
) -> WorkloadTrace:
    """Agentic loops: a long context re-submitted many times with short
    generations.

    Each of ``num_agents`` agents opens with a ``context_len``-token
    prompt (instructions + tools + task) and iterates ``max(1,
    Poisson(mean_iterations))`` times: generate a short action
    (``mean_gen`` tokens), run the tool (Exponential(``tool_time``)),
    and re-submit the whole transcript plus a ``mean_observation``-token
    tool result. Every iteration past the first shares its entire
    previous transcript as prefix — the dedup-heaviest workload the zoo
    has, and the one where *without* sharing the KV pool refills the
    same context dozens of times.
    """
    _check_integers(num_agents=num_agents, context_len=context_len,
                    mean_observation=mean_observation, mean_gen=mean_gen,
                    num_requests=num_requests)
    if num_agents < 1 or not (math.isfinite(agent_rate) and agent_rate > 0):
        raise ValueError(
            "num_agents >= 1 and a finite agent_rate > 0 required")
    _check_positive(mean_iterations=mean_iterations)
    if context_len < 1 or mean_observation < 1 or mean_gen < 1:
        raise ValueError("context_len and mean lengths must be >= 1")
    _check_times(tool_time=tool_time, est_prefill_s=est_prefill_s,
                 est_step_s=est_step_s)
    if num_requests is not None and num_requests < 1:
        raise ValueError("num_requests must be >= 1 when given")
    rng = as_generator(seed)
    raw = _causal_sessions(
        rng,
        session_rate=agent_rate,
        num_sessions=num_agents,
        min_requests=num_requests,
        mean_turns=mean_iterations,
        first_prompt_mean=context_len,
        extension_mean=mean_observation,
        gen_mean=mean_gen,
        est_prefill_s=est_prefill_s,
        est_step_s=est_step_s,
        mean_think_time=tool_time,
        session_base=0,
    )
    return _assemble(raw, [tenant] * len(raw),
                     num_requests=num_requests, expert_skew=None)


def heavy_tailed_scenario(
    *,
    num_requests: int,
    arrival_rate: float,
    median_prompt: int = 128,
    prompt_sigma: float = 1.0,
    gen_zipf_a: float = 2.5,
    max_gen: int = 2048,
    seed: SeedLike = 0,
) -> WorkloadTrace:
    """Independent untagged requests with heavy-tailed lengths and
    Poisson arrivals.

    Prompts are lognormal — ``median_prompt`` sets the median,
    ``prompt_sigma`` the log-space spread (1.0 gives a ~7x P99/median
    ratio) — and generation lengths are Zipf(``gen_zipf_a``) clipped to
    ``max_gen``: most requests are tiny, a few are enormous, so mean-
    based capacity planning and naive FCFS admission both misbehave.
    """
    _check_integers(num_requests=num_requests, median_prompt=median_prompt,
                    max_gen=max_gen)
    # draw_arrivals range-checks num_requests and arrival_rate.
    if median_prompt < 1 or not (math.isfinite(prompt_sigma)
                                 and prompt_sigma > 0):
        raise ValueError(
            "median_prompt >= 1 and a finite prompt_sigma > 0 required")
    if gen_zipf_a <= 1.0:
        raise ValueError("gen_zipf_a must be > 1")
    if max_gen < 1:
        raise ValueError("max_gen must be >= 1")
    rng = as_generator(seed)
    arrivals = draw_arrivals(rng, num_requests, arrival_rate)
    prompts = np.maximum(1, np.rint(rng.lognormal(
        np.log(median_prompt), prompt_sigma, size=num_requests)).astype(int))
    gens = np.minimum(max_gen, rng.zipf(gen_zipf_a, size=num_requests))
    return WorkloadTrace.from_columns(arrivals, prompts, gens)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's slice of a multi-tenant mix.

    ``workload`` picks the sub-generator: ``"independent"`` (Poisson
    arrivals/lengths, no sessions) or ``"chat"``
    (:func:`chat_scenario` sessions; ``arrival_rate`` then counts
    *sessions* per second). ``weight``/``slot_cap`` feed
    :func:`tenant_policy`'s fair-share admission;
    ``p99_ttft_slo_s`` is the tenant's service objective, read by
    :func:`tenant_slo_summary` (``None`` = no SLO).
    """

    name: str
    arrival_rate: float
    num_requests: int
    workload: str = "independent"
    mean_prompt: int = 128
    mean_gen: int = 32
    mean_turns: float = 4.0
    weight: float = 1.0
    slot_cap: int | None = None
    p99_ttft_slo_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        _check_integers(num_requests=self.num_requests,
                        mean_prompt=self.mean_prompt, mean_gen=self.mean_gen,
                        slot_cap=self.slot_cap)
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate > 0) \
                or self.num_requests < 1:
            raise ValueError(
                "a finite arrival_rate > 0 and num_requests >= 1 required")
        if self.workload not in ("independent", "chat"):
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                "choose 'independent' or 'chat'")
        if self.mean_prompt < 1 or self.mean_gen < 1:
            raise ValueError("mean lengths >= 1 required")
        _check_positive(mean_turns=self.mean_turns, weight=self.weight)
        if self.slot_cap is not None and self.slot_cap < 1:
            raise ValueError("slot_cap must be >= 1 when given")
        if self.p99_ttft_slo_s is not None:
            _check_positive(p99_ttft_slo_s=self.p99_ttft_slo_s)


# Session-id namespacing: tenant ``i``'s sessions live in
# ``[i * _SESSION_STRIDE, (i+1) * _SESSION_STRIDE)`` so mixes never
# collide session ids across tenants.
_SESSION_STRIDE = 1 << 24


def multi_tenant_scenario(
    tenants: Sequence[TenantSpec],
    *,
    seed: SeedLike = 0,
) -> WorkloadTrace:
    """Merge per-tenant sub-workloads into one tagged trace.

    Each spec's sub-trace is drawn in declaration order from one rng
    stream (the mix is a pure function of the seed), tagged with the
    tenant's name, session-namespaced, merged by arrival, and renumbered
    0..N-1. Duplicate tenant names are rejected — per-tenant report
    views and admission weights key on the name.
    """
    if not tenants:
        raise ValueError("need at least one TenantSpec")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError("tenant names must be unique")
    rng = as_generator(seed)
    raw: list[tuple[float, int | None, int, int, int, int]] = []
    tags: list[str | None] = []
    for ti, spec in enumerate(tenants):
        if spec.workload == "independent":
            arrivals = draw_arrivals(rng, spec.num_requests,
                                     spec.arrival_rate)
            prompts = np.maximum(1, rng.poisson(spec.mean_prompt,
                                                size=spec.num_requests))
            gens = np.maximum(1, rng.poisson(spec.mean_gen,
                                             size=spec.num_requests))
            part = [(float(arrivals[i]), None, 0,
                     int(prompts[i]), int(gens[i]), 0)
                    for i in range(spec.num_requests)]
        else:  # chat
            sessions = max(1, round(spec.num_requests / spec.mean_turns))
            part = _causal_sessions(
                rng,
                session_rate=spec.arrival_rate,
                num_sessions=sessions,
                min_requests=spec.num_requests,
                mean_turns=spec.mean_turns,
                first_prompt_mean=spec.mean_prompt,
                extension_mean=max(1, spec.mean_prompt // 4),
                gen_mean=spec.mean_gen,
                est_prefill_s=0.5,
                est_step_s=0.05,
                mean_think_time=2.0,
                session_base=ti * _SESSION_STRIDE,
            )
            # Per-tenant truncation: keep the earliest num_requests turns.
            part.sort(key=lambda rec: rec[0])
            part = part[:spec.num_requests]
        raw.extend(part)
        tags.extend([spec.name] * len(part))
    return _assemble(raw, tags, num_requests=None, expert_skew=None)


def tenant_policy(tenants: Sequence[TenantSpec]) -> TenantFairShare:
    """The weighted fair-share admission policy a tenant mix implies
    (weights and slot caps lifted straight off the specs); pass it as
    ``policy=`` to any scheduler-backed entry point."""
    return TenantFairShare(
        weights={t.name: t.weight for t in tenants},
        slot_caps={t.name: t.slot_cap for t in tenants
                   if t.slot_cap is not None},
    )


def tenant_slo_summary(report, trace, tenants: Sequence[TenantSpec]) -> dict:
    """Per-tenant SLO scorecard over a finished replay.

    Returns ``{name: {"p99_ttft_s": ..., "slo_s": ..., "met": ...}}``;
    ``slo_s``/``met`` are ``None`` for tenants without an SLO.
    """
    out: dict[str, dict] = {}
    for spec in tenants:
        p99 = report.tenant_ttft_percentile(trace, spec.name, 99)
        slo = spec.p99_ttft_slo_s
        out[spec.name] = {
            "p99_ttft_s": p99,
            "slo_s": slo,
            "met": None if slo is None else bool(p99 <= slo),
        }
    return out


def strip_prefix_sharing(trace: WorkloadTrace) -> WorkloadTrace:
    """The same trace with every ``shared_prefix_len`` zeroed — the
    sharing-off ablation leg: identical arrivals, prompts, sessions and
    tenants, but every prompt pays full prefill and full KV residency."""
    return WorkloadTrace(
        tuple(dataclasses.replace(r, shared_prefix_len=0)
              for r in trace.requests),
        expert_skew=trace.expert_skew,
    )


#: Scenario registry: name -> generator, for config-driven callers.
SCENARIOS = {
    "chat": chat_scenario,
    "agentic": agentic_scenario,
    "heavy_tailed": heavy_tailed_scenario,
    "multi_tenant": multi_tenant_scenario,
}


def make_scenario(name: str, /, **kwargs) -> WorkloadTrace:
    """Build a registered scenario by name (see :data:`SCENARIOS`)."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    return SCENARIOS[name](**kwargs)
