"""Functional fleet backend: the simulated fleet replayed on real sessions.

:func:`run_fleet_functional` replays the analytical run's per-replica
enqueue schedule (:func:`~repro.fleet.sim.simulate_fleet` is the
control plane) into one real
:class:`~repro.engine.generation.GenerationSession` per replica. The
sessions' own schedulers re-make every admission/retirement decision
and must coincide with the analytical ones (the fleet-level extension
of one session's decision equivalence with the simulator), and every
completed request's output is exactly ``model.generate`` on its prompt
alone — including requests retried after a crash, which restart from
scratch so no token from a dead replica survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine.costs import StepCostModel
from ..engine.generation import GenerationSession
from ..engine.scheduler import Scheduler
from ..engine.serving_sim import WorkloadTrace
from ..rng import SeedLike, as_generator
from .faults import FaultPlan
from .policies import RoutingPolicy
from .report import FleetReport
from .sim import simulate_fleet

__all__ = ["FleetFunctionalResult", "run_fleet_functional",
           "synthesize_prompts"]


def synthesize_prompts(trace: WorkloadTrace, *, vocab: int,
                       seed: SeedLike = 0) -> dict[int, np.ndarray]:
    """Deterministic token prompts matching each request's prompt_len."""
    rng = as_generator(seed)
    return {r.request_id: rng.integers(0, vocab, size=r.prompt_len)
            for r in trace.requests}


@dataclass
class FleetFunctionalResult:
    """Outcome of a functional fleet run.

    ``past_sessions`` holds the replayed *pre-crash incarnations* of
    replicas that recovered mid-run (oldest first); requests that
    finished before the crash have their outputs there.
    """

    report: FleetReport                       # the shared control plane
    outputs: dict[int, np.ndarray]            # request -> final output ids
    sessions: tuple[GenerationSession, ...]   # one per replica (final)
    past_sessions: dict[int, tuple[GenerationSession, ...]] = field(
        default_factory=dict)


def run_fleet_functional(
    model,
    trace: WorkloadTrace,
    *,
    num_replicas: int,
    costs: StepCostModel,
    max_batch: int,
    policy: str = "fcfs",
    routing: str | RoutingPolicy = "round_robin",
    fault_plan: FaultPlan | None = None,
    prompts: dict[int, np.ndarray] | None = None,
    kv_block_size: int = 16,
    kv_pool_blocks: int | None = None,
    prefix_sharing: bool = False,
) -> FleetFunctionalResult:
    """Serve ``trace`` on real :class:`GenerationSession` replicas.

    The analytical backend runs first as the control plane (routing and
    per-replica enqueue schedules are placement decisions, shared by
    construction); each replica's schedule then replays into its own
    session, whose scheduler independently re-makes — and must agree on
    — every admission and retirement. Greedy decoding keeps the
    correctness contract checkable: every completed request's output
    equals solo ``model.generate``, and a request retried after a crash
    restarts from scratch (no dead replica's token can leak).

    ``prompts`` maps request id to token ids (lengths must match the
    trace); omitted, they are synthesized deterministically from seed 0.

    ``prefix_sharing`` turns on copy-on-write prefix reuse in *both*
    backends at once: each functional session parks and forks real
    session caches (a prefix-hit request's leading tokens are adopted
    from the parked turn, so its exact-output contract is against the
    adopted prompt — see :meth:`GenerationSession.submit`), and the
    analytical control plane runs the matching block ledger
    (``kv_num_layers`` pinned to the model's layer count so the two
    backends' block counters are directly comparable). It defaults off,
    like :class:`GenerationSession` — the analytical-only
    :func:`simulate_fleet` defaults on because there accounting is free
    and changes no behavior.
    """
    report = simulate_fleet(
        trace, num_replicas=num_replicas, costs=costs, max_batch=max_batch,
        policy=policy, routing=routing, fault_plan=fault_plan,
        kv_block_size=kv_block_size, kv_num_layers=model.config.layers,
        prefix_sharing=prefix_sharing,
    )
    if prompts is None:
        prompts = synthesize_prompts(trace, vocab=model.config.vocab)
    else:
        for r in trace.requests:
            got = np.asarray(prompts[r.request_id]).size
            if got != r.prompt_len:
                raise ValueError(
                    f"prompt for request {r.request_id} has {got} tokens, "
                    f"trace says {r.prompt_len}")

    requests = trace.requests
    find = requests.locator()

    def replay(sched: Scheduler, crash_step: int | None) -> GenerationSession:
        """Re-enqueue one analytical incarnation's requests into a real
        session at the recorded scheduler steps, stopping at its crash
        step; the session's own scheduler then re-makes every
        admission/retirement decision."""
        # enqueue_steps iterates in enqueue order, so each step's list
        # keeps the analytical enqueue order.
        enq: dict[int, list[int]] = {}
        for rid, step in sched.enqueue_steps.items():
            enq.setdefault(step, []).append(rid)
        steps = sorted(enq)
        session = GenerationSession(
            model, max_concurrency=max_batch, policy=policy,
            kv_block_size=kv_block_size, kv_pool_blocks=kv_pool_blocks,
            prefix_sharing=prefix_sharing)
        qi = 0
        while True:
            step = session.scheduler.step
            if crash_step is not None and step >= crash_step:
                break  # the replica died at this boundary; discard the rest
            while qi < len(steps) and steps[qi] <= step:
                for rid in enq[steps[qi]]:
                    r = requests[find(rid)]
                    session.submit(prompts[rid],
                                   max_new_tokens=r.gen_tokens,
                                   request_id=rid, session=r.session,
                                   tenant=r.tenant,
                                   shared_prefix_len=r.shared_prefix_len)
                qi += 1
            if not (session.num_active or session.num_waiting
                    or qi < len(steps)):
                break
            session.step()
        return session

    sessions = tuple(replay(sched, report.crash_steps.get(i))
                     for i, sched in enumerate(report.schedulers))
    # Pre-crash incarnations of recovered replicas replay the same way;
    # each died at its recorded crash step.
    past_sessions = {
        i: tuple(replay(sched, crash_step)
                 for sched, crash_step in incarnations)
        for i, incarnations in report.past_schedulers.items()
    }

    def output_of(rid: int, i: int) -> np.ndarray:
        # The final incarnation usually served it; a request that
        # finished before a crash-and-recover lives in a past session.
        candidates = [sessions[i]] + list(reversed(past_sessions.get(i, ())))
        for session in candidates:
            try:
                return session.result(rid).output_ids
            except KeyError:
                continue
        raise KeyError(
            f"request {rid} finished on replica {i} analytically but no "
            f"incarnation completed it functionally")

    outputs = {
        rid: output_of(rid, i)
        for rid, i in report.replica_of.items()
        if rid in report.finish_times
    }
    return FleetFunctionalResult(report=report, outputs=outputs,
                                 sessions=sessions,
                                 past_sessions=past_sessions)
