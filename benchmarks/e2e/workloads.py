"""The benchmark's four workloads.

Each workload is two functions of one seeded generator: ``make_trace``
draws the request trace (the ``scenarios`` layer) and ``deploy`` builds
everything else the simulator is handed — the step-cost model and, for
fleets, the routing policy, fault plan and autoscaler. The simulator
receives only these generated inputs. The seed reaches every generator:
trace arrivals and lengths, the power-of-two router's samples, and the
MoE gate skew and gate stream that calibrate expert placement.

Why these four: they stress different layers, so a change aimed at one
layer has one workload that exercises it and one that bypasses it.

* ``decode_long`` — long generations at a small batch. Decode stretches
  between scheduler events are long, so the serving loop and the
  compressed ``decode_run_cost`` dominate and pricing misses are rare.
* ``chat_prefix`` — multi-turn chat with prefix sharing. Many distinct
  prompt shapes make the pricing layer (latency and kernel models) the
  bulk of wall time, and most turns hit a parked prefix in the KV ledger.
* ``fleet_faults`` — 32 replicas behind a power-of-two router with a
  crash, a recovery and a slowdown. The fleet event loop dominates and
  decode stretches are short.
* ``moe_autoscale`` — a skewed trillion-parameter MoE deployment under a
  diurnal load with the autoscaler in the loop: token-driven MoE
  pricing, replica joins and drains.

Arrivals: ``decode_long`` and ``fleet_faults`` are open-loop Poisson,
``moe_autoscale`` is open-loop diurnal Poisson, ``chat_prefix`` opens
sessions open-loop and runs each session's turns closed-loop (a turn
follows the previous turn's estimated completion plus think time). All
schedules are fixed before the run in simulated time, so no generator
can run late. Loads sit where the modeled tail metrics are steady from
seed to seed; README.md records what moved them elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from repro.autoscale import AutoscaleConfig, Autoscaler
from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    MoELatencyModel,
    MoEStepCost,
    StepCostModel,
    WorkloadTrace,
    simulate_serving,
    synthesize_trace,
)
from repro.fleet import (
    FaultPlan,
    LeastOutstanding,
    PowerOfTwoChoices,
    ReplicaFault,
    RoutingPolicy,
    simulate_fleet,
)
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO, MOE_PARALLELISM, MOE_ZOO
from repro.moe_placement import (
    calibrated_dispatch,
    plan_placement,
    synthesize_gate_stream,
    zipf_expert_probs,
)
from repro.scenarios import chat_scenario

# The service-level objective every workload is judged against: a
# request meets it when it completes with TTFT and TPOT within these.
TTFT_LIMIT_S = 1.0
TPOT_LIMIT_S = 0.050


@dataclass
class Run:
    """One workload instance: its trace and the objects the simulator is
    handed. The probes replace ``costs``, ``routing`` and ``autoscaler``
    with timing proxies before :meth:`simulate`."""

    trace: WorkloadTrace
    costs: StepCostModel
    options: dict
    fleet: bool = False
    routing: RoutingPolicy | None = None
    autoscaler: Autoscaler | None = None

    def simulate(self):
        """Serve the trace; returns the simulator's report."""
        if not self.fleet:
            return simulate_serving(self.trace, costs=self.costs,
                                    **self.options)
        return simulate_fleet(self.trace, costs=self.costs,
                              routing=self.routing,
                              autoscaler=self.autoscaler, **self.options)


@dataclass(frozen=True)
class Workload:
    """A named workload: sizes, rates and the two builders."""

    name: str
    seed: int
    num_requests: int
    rate: float  # nominal arrival (sessions: opening) rate, per second
    make_trace: Callable[[np.random.Generator, int, float], WorkloadTrace]
    deploy: Callable[[np.random.Generator, WorkloadTrace, float], Run]

    def size(self, scale: float = 1.0) -> int:
        """Request count at ``scale`` of the full size."""
        return max(50, round(self.num_requests * scale))

    def build(self, seed: int, part: int = 0, *, scale: float = 1.0,
              num_requests: int | None = None,
              on_trace: Callable[[float], None] | None = None) -> Run:
        """Generate the inputs of trace ``part`` of a run seeded with
        ``seed``. ``on_trace`` receives the trace-generation wall time."""
        rng = np.random.default_rng([seed, part])
        n = num_requests if num_requests is not None else self.size(scale)
        t0 = perf_counter()
        trace = self.make_trace(rng, n, self.rate)
        if on_trace is not None:
            on_trace(perf_counter() - t0)
        return self.deploy(rng, trace, self.rate)


def _dense_costs() -> DenseStepCost:
    # gpt-13b, tensor-parallel over four GPUs of one DGX-A100 node.
    return DenseStepCost(
        DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4))


def _poisson(mean_prompt: int, mean_gen: int, **extra):
    def make(rng, n, rate):
        return synthesize_trace(num_requests=n, arrival_rate=rate,
                                mean_prompt=mean_prompt, mean_gen=mean_gen,
                                seed=rng, **extra)
    return make


def _deploy_decode_long(rng, trace, rate):
    return Run(trace, _dense_costs(), dict(max_batch=4, detail="summary"))


def _chat_trace(rng, n, rate):
    return chat_scenario(num_sessions=1280, session_rate=rate,
                         mean_prompt=128, mean_gen=32, num_requests=n,
                         seed=rng)


def _deploy_chat_prefix(rng, trace, rate):
    return Run(trace, _dense_costs(),
               dict(max_batch=8, prefix_sharing=True, detail="summary"))


FLEET_REPLICAS = 32


def _deploy_fleet_faults(rng, trace, rate):
    span = len(trace.requests) / rate  # nominal trace span
    # The slowdown starts early so the slowed replica serves well over 1%
    # of requests: from 0.5 * span its share sat near 1%, right where
    # P99 TPOT is read, and it moved ~20% between seeds.
    plan = FaultPlan((
        ReplicaFault(0, 0.3 * span, kind="crash"),
        ReplicaFault(0, 0.6 * span, kind="recover"),
        ReplicaFault(1, 0.1 * span, kind="slowdown", factor=2.0),
    ))
    return Run(trace, _dense_costs(),
               dict(num_replicas=FLEET_REPLICAS, max_batch=8,
                    fault_plan=plan, detail="summary"),
               fleet=True, routing=PowerOfTwoChoices(seed=rng))


MOE_MODEL = "24b-moe-128"
MOE_MAX_BATCH = 32


def _deploy_moe_autoscale(rng, trace, rate):
    # Table II's trillion-parameter deployment (256 GPUs) under a Zipf
    # gate skew: replicate the 8 hottest experts 4 ways, stream the
    # coldest, and price the prefetch hit rate measured on a gate stream.
    config, par = MOE_ZOO[MOE_MODEL], MOE_PARALLELISM[MOE_MODEL]
    model = MoELatencyModel(config, dgx_a100_cluster(par.num_gpus // 8), par)
    top_k = config.moe.top_k
    probs = zipf_expert_probs(config.moe.num_experts, trace.expert_skew,
                              seed=rng)
    stream = synthesize_gate_stream(64, MOE_MAX_BATCH * top_k, probs,
                                    seed=rng)
    plan = plan_placement(probs, par.ep_degree, replication=4, num_hot=8)
    skew = calibrated_dispatch(probs, plan, stream, top_k=top_k,
                               expert_fetch_time=model.expert_fetch_time(),
                               prefetch_slots=8)
    # One-second control epochs and a low queue trigger keep scale-out
    # transitions short; with 5 s epochs they held 0.2-1.5% of requests,
    # right where P99 TTFT sits, and it moved ~30% between seeds.
    scaler = Autoscaler(AutoscaleConfig(
        min_replicas=1, max_replicas=6, ttft_slo_s=TTFT_LIMIT_S,
        epoch_s=1.0, sustain_epochs=3, queue_high_depth=0.5,
        scale_in_cooldown_s=300.0))
    return Run(trace, MoEStepCost(model, skew=skew),
               dict(num_replicas=1, max_batch=MOE_MAX_BATCH,
                    detail="summary"),
               fleet=True, routing=LeastOutstanding(), autoscaler=scaler)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="decode_long",
        seed=33, num_requests=15_000, rate=0.2,
        make_trace=_poisson(128, 1024), deploy=_deploy_decode_long),
    Workload(
        name="chat_prefix",
        seed=33, num_requests=15_000, rate=4.0,
        make_trace=_chat_trace, deploy=_deploy_chat_prefix),
    Workload(
        name="fleet_faults",
        seed=33, num_requests=8_000, rate=0.6 * 27.3 * FLEET_REPLICAS,
        make_trace=_poisson(128, 32), deploy=_deploy_fleet_faults),
    Workload(
        name="moe_autoscale",
        seed=41, num_requests=5_000, rate=5.0,
        make_trace=_poisson(128, 256, arrival_shape="diurnal",
                            diurnal_amplitude=1.0, diurnal_period=1200.0,
                            expert_skew=1.2),
        deploy=_deploy_moe_autoscale),
)}
