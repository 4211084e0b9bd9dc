"""Autoscaling: a closed control loop racing every equal-cost fixed fleet.

A fixed fleet sized for the diurnal peak idles all night; one sized for
the mean melts down every day at noon. The ``repro.autoscale`` loop
rides the cycle instead: every control epoch it reads live fleet
signals (queue depth, rolling P99 TTFT, outstanding-work EMA, replica
health) and scales out, scales in, replaces broken replicas, or shifts
routing weights — under a hard GPU budget.

Demonstrated here:

* :func:`~repro.fleet.simulate_fleet` with ``autoscaler=`` — the
  autoscaled run vs every fixed fleet its average GPU spend could have
  bought, on a full-amplitude diurnal trace;
* SLO remediation — a mid-trace crash absorbed by drain-and-replace,
  narrated by the report's ``autoscale_log``;
* :func:`~repro.autoscale.tune_autoscaler` — the offline knob sweep.

Run:  python examples/autoscale_fleet.py
"""

import math
from collections import Counter

from repro.autoscale import AutoscaleConfig, tune_autoscaler
from repro.engine import ClosureStepCost, synthesize_trace
from repro.fleet import FaultPlan, ReplicaFault, simulate_fleet

COSTS = ClosureStepCost(prompt_time=lambda b, p: 0.02 + 0.001 * p,
                        step_time=lambda b: 0.01 + 0.001 * b)

AUTOSCALE = AutoscaleConfig(
    min_replicas=1, max_replicas=6,   # the GPU budget
    ttft_slo_s=0.3,                   # what "overloaded" means
    epoch_s=1.0, sustain_epochs=2,
    scale_out_cooldown_s=2.0,
    mean_prompt=32,                   # sizes the cold-start price
)


def diurnal_demo() -> None:
    print("=== diurnal load: closed loop vs equal-cost fixed fleets ===")
    # Mean 30 req/s, peak 60, trough ~0 — one replica sustains ~13 req/s
    # of this workload, so no single fixed size fits the whole day.
    trace = synthesize_trace(num_requests=4000, arrival_rate=30.0,
                             mean_prompt=32, mean_gen=16,
                             arrival_shape="diurnal",
                             diurnal_amplitude=1.0, seed=13)

    auto = simulate_fleet(trace, num_replicas=1, costs=COSTS, max_batch=4,
                          routing="least_outstanding", autoscaler=AUTOSCALE)
    assert auto.num_completed == len(trace.requests)
    p99_auto = auto.ttft_percentile(trace, 99)
    kinds = Counter(e.kind for e in auto.autoscale_log)
    print(f"  autoscaled: avg {auto.avg_replicas:.2f} replicas "
          f"({auto.num_replicas} distinct over the run), "
          f"TTFT p99 {p99_auto * 1e3:7.1f} ms, "
          f"actions {dict(kinds)}")

    # Every fixed fleet the same average GPU spend could have bought.
    budget = math.floor(auto.avg_replicas)
    for k in range(1, budget + 1):
        fixed = simulate_fleet(trace, num_replicas=k, costs=COSTS,
                               max_batch=4, routing="least_outstanding")
        p99 = fixed.ttft_percentile(trace, 99)
        verdict = "beaten" if p99_auto < p99 else "NOT beaten"
        print(f"  fixed x{k}  : avg {k:.2f} replicas,              "
              f"TTFT p99 {p99 * 1e3:7.1f} ms  ({verdict})")

    # The scaling story, straight off the report.
    first_out = next(e for e in auto.autoscale_log if e.kind == "scale_out")
    print(f"  first scale-out at t={first_out.time_s:.1f}s "
          f"({first_out.detail}); BENCH_autoscale.json pins this race "
          f"at 100k requests in CI.")


def remediation_demo() -> None:
    print("\n=== SLO remediation: crash absorbed by drain-and-replace ===")
    trace = synthesize_trace(num_requests=1200, arrival_rate=35.0,
                             mean_prompt=32, mean_gen=16, seed=5)
    t_crash = trace.duration / 2
    plan = FaultPlan((ReplicaFault(replica=1, time=t_crash),))
    kwargs = dict(costs=COSTS, max_batch=4, routing="least_outstanding",
                  fault_plan=plan)

    bare = simulate_fleet(trace, num_replicas=3, **kwargs)
    # Pin the budget: min == max means the loop may only *remediate* —
    # replace the dead replica — never grow past the paid-for size.
    healed = simulate_fleet(
        trace, num_replicas=3, **kwargs,
        autoscaler=AutoscaleConfig(min_replicas=3, max_replicas=3,
                                   ttft_slo_s=0.3, epoch_s=0.5,
                                   mean_prompt=32))
    for name, rep in (("no loop", bare), ("healed", healed)):
        print(f"  {name:8s}: TTFT p99 "
              f"{rep.ttft_percentile(trace, 99) * 1e3:7.1f} ms, "
              f"{rep.num_completed}/{len(trace.requests)} done")
    replaces = [e for e in healed.autoscale_log if e.kind == "replace"]
    joins = [e for e in healed.autoscale_log if e.kind == "join"]
    print(f"  replica 1 died at t={t_crash:.1f}s; the loop replaced it at "
          f"t={replaces[0].time_s:.1f}s and the replacement came up at "
          f"t={joins[0].time_s:.1f}s (after its cold start).")


def tuning_demo() -> None:
    print("\n=== tune_autoscaler: cheapest knobs that meet the SLO ===")
    trace = synthesize_trace(num_requests=800, arrival_rate=20.0,
                             mean_prompt=32, mean_gen=16,
                             arrival_shape="diurnal",
                             diurnal_amplitude=1.0, seed=21)
    base = AutoscaleConfig(min_replicas=1, max_replicas=5, ttft_slo_s=1.0,
                           epoch_s=1.0, mean_prompt=32)
    # Seed the fleet at 3 replicas: the tuner sizes the *steady* loop,
    # not the cold start against the first diurnal peak.
    result = tune_autoscaler(trace, base, costs=COSTS, max_batch=4,
                             num_replicas=3,
                             epoch_grid=(0.5, 1.0, 2.0),
                             queue_high_grid=(2.0, 4.0),
                             sustain_grid=(1, 2))
    best = result.best
    print(f"  swept {len(result.candidates)} configs; best: "
          f"epoch={best.config.epoch_s}s, "
          f"queue_high={best.config.queue_high_depth}, "
          f"sustain={best.config.sustain_epochs} -> "
          f"avg {best.avg_replicas:.2f} replicas, "
          f"TTFT p99 {best.ttft_p99_s * 1e3:.1f} ms "
          f"(meets SLO: {best.meets_slo})")
    print("  preference order: meet the SLO, then fewest GPU-seconds, "
          "then tail latency.")


if __name__ == "__main__":
    diurnal_demo()
    remediation_demo()
    tuning_demo()
