"""Functional fleet runs: real sessions, exact-output guarantees.

The fleet-level extension of PR 1's decision-equivalence tests: the
analytical run is the control plane, and each replica's real
:class:`GenerationSession` re-makes every admission/retirement decision,
which must coincide with the analytical scheduler's — then every
completed output must equal solo ``model.generate``.
"""

import numpy as np
import pytest

from repro.engine import (
    ClosureStepCost,
    Request,
    WorkloadTrace,
    synthesize_trace,
)
from repro.engine.replica import _Replica
from repro.fleet import FaultPlan, ReplicaFault
from repro.fleet.functional import run_fleet_functional, synthesize_prompts
from repro.model import ModelConfig
from repro.model.dense import DenseTransformer

CFG = ModelConfig(name="fleet-eq", hidden=32, layers=2, heads=4, vocab=53,
                  max_seq=64)
COSTS = ClosureStepCost(prompt_time=lambda b, p: 0.02 + 0.001 * p,
                        step_time=lambda b: 0.01 + 0.001 * b)


@pytest.fixture(scope="module")
def model():
    return DenseTransformer(CFG, seed=7)


def _trace(n=16, rate=200.0, seed=0):
    return synthesize_trace(num_requests=n, arrival_rate=rate,
                            mean_prompt=5, mean_gen=4, seed=seed)


def _streams(sched, crash_step=None):
    """Per-kind event streams (enqueue order; admit/retire with steps and
    reasons). Within a step the analytical loop enqueues arrivals between
    admit actions while the functional session submits them all up front,
    so the *interleaving* differs by construction — the per-kind streams
    must not."""
    events = [e for e in sched.events
              if crash_step is None or e.step < crash_step]
    return {
        "enqueue": [e.request_id for e in events if e.kind == "enqueue"],
        "admit": [(e.step, e.request_id) for e in events
                  if e.kind == "admit"],
        "retire": [(e.step, e.request_id, e.reason) for e in events
                   if e.kind == "retire"],
    }


def _check_equivalence(result, model, trace, prompts):
    """Decision equivalence plus exact-output equality for one run."""
    report = result.report
    for i, analytical in enumerate(report.schedulers):
        functional = result.sessions[i].scheduler
        crash = report.crash_steps.get(i)
        assert _streams(functional, crash) == _streams(analytical, crash), (
            f"replica {i} decision streams diverge")
    assert set(result.outputs) == set(report.finish_times)
    for r in trace.requests:
        expected = model.generate(prompts[r.request_id][None, :],
                                  r.gen_tokens)[0]
        np.testing.assert_array_equal(result.outputs[r.request_id], expected)


@pytest.mark.parametrize("routing", ["round_robin", "least_outstanding"])
def test_healthy_fleet_matches_solo_generate(model, routing):
    trace = _trace()
    prompts = synthesize_prompts(trace, vocab=CFG.vocab, seed=1)
    result = run_fleet_functional(
        model, trace, num_replicas=3, max_batch=3, routing=routing,
        prompts=prompts, costs=COSTS)
    assert result.report.num_completed == len(trace.requests)
    _check_equivalence(result, model, trace, prompts)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crash_retries_match_solo_generate(model, seed):
    """The acceptance test: kill a replica mid-trace; every request —
    including the requeued victims — completes with output exactly equal
    to solo ``model.generate``, and the dead replica contributes no
    token (victims restart from scratch on a survivor)."""
    trace = _trace(n=20, rate=400.0, seed=seed)
    t_crash = trace.requests[-1].arrival + 0.05
    plan = FaultPlan((ReplicaFault(seed % 3, t_crash),))
    prompts = synthesize_prompts(trace, vocab=CFG.vocab, seed=seed)
    result = run_fleet_functional(
        model, trace, num_replicas=3, max_batch=3,
        routing="least_outstanding", fault_plan=plan, prompts=prompts,
        costs=COSTS)
    report = result.report
    assert report.num_completed == len(trace.requests)
    assert report.retried, "the crash must have produced victims"
    # Victims were re-served by a survivor, never the dead replica.
    dead = seed % 3
    assert all(report.replica_of[rid] != dead for rid in report.retried)
    _check_equivalence(result, model, trace, prompts)


def test_one_replica_functional_run(model):
    trace = _trace(n=8)
    prompts = synthesize_prompts(trace, vocab=CFG.vocab)
    result = run_fleet_functional(model, trace, num_replicas=1, max_batch=2,
                                  prompts=prompts, costs=COSTS)
    _check_equivalence(result, model, trace, prompts)


def _check_past_equivalence(result):
    """Each pre-crash incarnation's session re-makes its analytical
    scheduler's decisions up to that incarnation's crash step."""
    report = result.report
    assert report.past_schedulers.keys() == result.past_sessions.keys()
    for i, incarnations in report.past_schedulers.items():
        sessions = result.past_sessions[i]
        assert len(sessions) == len(incarnations)
        for session, (analytical, crash) in zip(sessions, incarnations):
            assert _streams(session.scheduler, crash) \
                == _streams(analytical, crash), (
                f"replica {i}: a past incarnation's streams diverge")


def test_recovered_replica_replays_every_incarnation(model):
    """Replica 0 crashes and recovers twice, finishing requests before
    each crash: those outputs live only in its past sessions, and each
    past session re-makes its incarnation's decisions."""
    trace = _trace(n=24, rate=40.0, seed=3)
    plan = FaultPlan((ReplicaFault(0, 0.15),
                      ReplicaFault(0, 0.25, kind="recover"),
                      ReplicaFault(0, 0.4),
                      ReplicaFault(0, 0.5, kind="recover")))
    prompts = synthesize_prompts(trace, vocab=CFG.vocab, seed=1)
    result = run_fleet_functional(
        model, trace, num_replicas=2, max_batch=2, routing="round_robin",
        fault_plan=plan, prompts=prompts, costs=COSTS)
    assert result.report.num_completed == len(trace.requests)
    _check_equivalence(result, model, trace, prompts)
    _check_past_equivalence(result)
    past = result.past_sessions[0]
    assert len(past) == 2
    assert all(s.scheduler.retirement_order for s in past)
    # Finished before a crash: read from a past session, not the final.
    past_done = {rid for s in past for rid in s.scheduler.retirement_order}
    assert past_done <= set(result.outputs)
    assert past_done.isdisjoint(result.sessions[0].scheduler.retirement_order)


def test_crash_after_prompt_pass_retirements_only(model):
    """A crash whose in-flight round cannot reach a decode, because its
    admissions all retired in their prompt passes (one token each),
    closes the scheduler step itself; the functional replay must still
    agree at that crash step."""
    trace = WorkloadTrace(tuple(
        Request(i, t, 4, 1) for i, t in enumerate(
            (0.0, 0.01, 0.2, 0.21, 0.22, 0.3))))
    plan = FaultPlan((ReplicaFault(0, 0.1),
                      ReplicaFault(0, 0.15, kind="recover"),
                      ReplicaFault(0, 0.35)))
    seen = []
    crash = _Replica.crash

    def spying_crash(self, *args):
        sched = self.sched
        seen.append(self._mid_round
                    and not (sched.num_active or sched.num_waiting))
        return crash(self, *args)

    prompts = synthesize_prompts(trace, vocab=CFG.vocab, seed=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Replica, "crash", spying_crash)
        result = run_fleet_functional(
            model, trace, num_replicas=2, max_batch=2,
            routing="round_robin", fault_plan=plan, prompts=prompts,
            costs=COSTS)
    assert seen == [True, True]
    assert result.report.num_completed == len(trace.requests)
    _check_equivalence(result, model, trace, prompts)
    _check_past_equivalence(result)


def test_prompt_length_mismatch_rejected(model):
    trace = WorkloadTrace((Request(0, 0.0, 4, 2),))
    with pytest.raises(ValueError, match="trace says 4"):
        run_fleet_functional(model, trace, num_replicas=1, max_batch=1,
                             prompts={0: np.array([1, 2])}, costs=COSTS)


def test_synthesize_prompts_deterministic():
    trace = _trace(n=6)
    a = synthesize_prompts(trace, vocab=31, seed=4)
    b = synthesize_prompts(trace, vocab=31, seed=4)
    for rid in a:
        np.testing.assert_array_equal(a[rid], b[rid])
        assert a[rid].size == trace.requests[rid].prompt_len
        assert a[rid].max() < 31
