"""Tests for fleet-level deployment tuning (replicas x TP x batch)."""

import pytest

from repro.engine import synthesize_trace
from repro.fleet import FaultPlan, ReplicaFault, tune_fleet_deployment
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO

CFG = DENSE_ZOO["gpt-13b"]
CLUSTER = dgx_a100_cluster(1)


def _trace(n=12, rate=4.0, seed=0):
    return synthesize_trace(num_requests=n, arrival_rate=rate,
                            mean_prompt=64, mean_gen=16, seed=seed)


def test_meets_sla_within_budget():
    trace = _trace()
    best = tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=4,
                                 ttft_sla=1.0)
    assert best.num_gpus == best.replicas * best.tp <= 4
    assert best.ttft_p99 <= 1.0
    assert best.tokens_per_second > 0


def test_budget_caps_the_search():
    trace = _trace()
    small = tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=1)
    assert small.replicas == 1 and small.tp == 1 and small.num_gpus == 1
    big = tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=4)
    assert big.tokens_per_second >= small.tokens_per_second


def test_infeasible_sla_raises():
    trace = _trace()
    with pytest.raises(ValueError, match="no fleet deployment"):
        tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=2,
                              ttft_sla=1e-6)
    with pytest.raises(ValueError, match="gpu_budget"):
        tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=0)


def test_fault_plan_constrains_fleet_shapes():
    """Tuning under a crash plan only considers fleets the plan leaves a
    survivor in — and the winner still completes the whole trace."""
    trace = _trace(rate=8.0)
    plan = FaultPlan((ReplicaFault(1, trace.requests[4].arrival),))
    best = tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=4,
                                 fault_plan=plan)
    # The crash names replica 1, so a single-replica fleet is excluded.
    assert best.replicas >= 2
    assert best.routing == "least_outstanding"


@pytest.mark.parametrize("sla", [float("nan"), 0.0, -1.0])
def test_bad_ttft_sla_rejected(sla):
    """A NaN SLA failed every ``ttft > sla`` test, so it read as no
    bound and the tuner returned a winner."""
    with pytest.raises(ValueError, match="ttft_sla must be"):
        tune_fleet_deployment(CFG, CLUSTER, _trace(), gpu_budget=2,
                              ttft_sla=sla)


@pytest.mark.parametrize("budget", [2.5, float("nan")])
def test_non_integer_gpu_budget_rejected(budget):
    """It used to raise from inside ``range()`` without naming it."""
    with pytest.raises(TypeError, match="gpu_budget"):
        tune_fleet_deployment(CFG, CLUSTER, _trace(), gpu_budget=budget)
