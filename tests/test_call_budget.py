"""Call budgets of the serving loop.

The simulators' wall time is mostly Python calls per action (one
admission with its prompt pass, or one decode stretch), so this gate
profiles two small fixed runs with ``cProfile`` and holds:

* Python calls per action (``cProfile``'s total call count divided by
  ``_Replica.perform_action`` calls) and per request (divided by the
  requests served) to the committed figures plus 2%, slack for
  call-count drift inside NumPy's Python wrappers. The per-request
  figure fails on a new per-request object or call even when the
  action count moves with it;
* the per-request entries that decode commits walk (the scheduler's
  retiring ``record_tokens`` scans plus the KV ledger's growth syncs)
  to the committed count: a stretch that retires nobody walks none.

Each run is profiled after one warm-up run on the same cost model, so
the pricing memo is full and the counts are exact from run to run.
"""

import cProfile
import functools
import pstats

import pytest

from repro.autoscale import AutoscaleConfig, Autoscaler
from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    MoELatencyModel,
    MoEStepCost,
    simulate_serving,
    synthesize_trace,
)
from repro.engine.replica import _KvTracker
from repro.engine.scheduler import Scheduler
from repro.fleet import LeastOutstanding, simulate_fleet
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO, MOE_PARALLELISM, MOE_ZOO

# Slack on call counts for NumPy wrapper drift across versions.
_SLACK = 1.02


def _dense_serving():
    """gpt-13b at TP=4 on one DGX-A100 node, batch 4, 600 requests."""
    trace = synthesize_trace(num_requests=600, arrival_rate=0.5,
                             mean_prompt=128, mean_gen=128, seed=3)
    costs = DenseStepCost(DenseLatencyModel(
        DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4))
    return lambda: simulate_serving(trace, costs=costs, max_batch=4,
                                    detail="summary")


def _moe_autoscaled_fleet():
    """Table II's 24b-moe-128 on 256 GPUs, batch 32, under a diurnal load
    with the autoscaler growing the fleet from one replica."""
    name = "24b-moe-128"
    config, par = MOE_ZOO[name], MOE_PARALLELISM[name]
    costs = MoEStepCost(MoELatencyModel(
        config, dgx_a100_cluster(par.num_gpus // 8), par))
    trace = synthesize_trace(num_requests=800, arrival_rate=5.0,
                             mean_prompt=128, mean_gen=128,
                             arrival_shape="diurnal", diurnal_amplitude=1.0,
                             diurnal_period=120.0, seed=5)

    def run():
        scaler = Autoscaler(AutoscaleConfig(
            min_replicas=1, max_replicas=4, ttft_slo_s=1.0, epoch_s=1.0,
            sustain_epochs=3, queue_high_depth=0.5, scale_in_cooldown_s=30.0))
        return simulate_fleet(trace, costs=costs, routing=LeastOutstanding(),
                              autoscaler=scaler, num_replicas=1,
                              max_batch=32, detail="summary")
    return run


@functools.cache
def _calls(name: str) -> tuple[float, float]:
    """Python calls per action and per request of one run of ``name``
    (profiled once for both tests)."""
    run = _BUDGETS[name][0]()
    run()  # warm the pricing memo
    profile = cProfile.Profile()
    profile.enable()
    report = run()
    profile.disable()
    stats = pstats.Stats(profile)
    actions = sum(calls for (_, _, func), (_, calls, *_)
                  in stats.stats.items() if func == "perform_action")
    return (stats.total_calls / actions,
            stats.total_calls / len(report.finish_times))


def _decode_walks(run, monkeypatch) -> int:
    """Per-request entries walked by decode commits in one run."""
    walked = 0
    record_tokens, sync = Scheduler.record_tokens, _KvTracker._sync

    def counting_record_tokens(self, steps):
        nonlocal walked
        if steps >= self.decode_horizon():  # only a retiring stretch scans
            walked += len(self._active)
        return record_tokens(self, steps)

    def counting_sync(self):
        nonlocal walked
        if self._grown:  # only pending growth is walked
            walked += len(self._live)
        sync(self)

    monkeypatch.setattr(Scheduler, "record_tokens", counting_record_tokens)
    monkeypatch.setattr(_KvTracker, "_sync", counting_sync)
    run()
    monkeypatch.undo()
    return walked


# Committed figures: (calls per action, calls per request, decode-commit
# walks), measured on CPython 3.11 with NumPy 2.4. Before
# decode commits kept token counts and KV growth by offset, the same
# runs made 38.33 and 55.82 calls per action and walked 2,000 and
# 42,936 request entries. Before every priced stretch became its step
# end times cut by one ``bisect_left``, they made 32.65 and 49.46 calls
# per action (budgets 32.91 and 50.19). Before each action wrote its log
# row as one packed string and built its batch states inline, with no
# no-op completion callback and no repeat horizon read, the budgets were
# 31.94 and 49.51. Before the scheduler, the KV ledger and the router
# kept per-request state as columns keyed by trace position (no
# per-request scheduler record or routing record, no id -> position
# lookups, the ledger's live count kept as a running figure, the
# cached decode horizon read directly), the
# budgets were 28.51 and 46.58 calls per action (27.82 and 45.62
# measured; 63.34 and 127.69 calls per request). Before a long decode
# stretch read its clock off the dense model's decode grid instead of
# pricing and folding its run, ``dense_serving`` made 22.5 calls per
# action and 51.23 per request.
_BUDGETS = {
    "dense_serving": (_dense_serving, 20.54, 46.76, 1_606),
    "moe_autoscaled_fleet": (_moe_autoscaled_fleet, 40.63, 113.72, 24_484),
}


@pytest.mark.parametrize("name", list(_BUDGETS))
def test_calls_per_action_within_budget(name):
    budget = _BUDGETS[name][1]
    got = _calls(name)[0]
    assert got <= budget * _SLACK, (
        f"{name}: {got:.2f} Python calls per action, budget {budget}")


@pytest.mark.parametrize("name", list(_BUDGETS))
def test_calls_per_request_within_budget(name):
    budget = _BUDGETS[name][2]
    got = _calls(name)[1]
    assert got <= budget * _SLACK, (
        f"{name}: {got:.2f} Python calls per request, budget {budget}")


@pytest.mark.parametrize("name", list(_BUDGETS))
def test_decode_commit_walks_within_budget(name, monkeypatch):
    make, _, _, budget = _BUDGETS[name]
    got = _decode_walks(make(), monkeypatch)
    assert got <= budget, (
        f"{name}: decode commits walked {got} request entries, "
        f"budget {budget}")
