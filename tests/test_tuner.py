"""Tests for the deployment auto-tuner (throughput under latency SLA)."""

import pytest

import repro.fleet.tuning as fleet_tuning
from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    Workload,
    synthesize_trace,
    tune_dense_deployment,
)
from repro.fleet import simulate_fleet, tune_fleet_deployment
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO


CLUSTER = dgx_a100_cluster(2)


class TestTuner:
    def test_result_is_feasible_and_consistent(self):
        r = tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                  prompt_len=128, gen_tokens=8, max_gpus=8,
                                  hybrid_factors=(1, 2))
        assert r.num_gpus == r.tp * r.pp <= CLUSTER.num_gpus
        # Re-evaluate the chosen point and confirm the numbers match.
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], CLUSTER, tp=r.tp,
                                  pp=r.pp, hybrid_prompt_factor=r.hybrid_prompt_factor)
        rep = model.estimate(Workload(batch=r.batch, prompt_len=128,
                                      gen_tokens=8))
        assert rep.tokens_per_second == pytest.approx(r.tokens_per_second)
        assert rep.token_latency == pytest.approx(r.token_latency)

    def test_sla_is_respected(self):
        sla = 0.02
        r = tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                  prompt_len=128, gen_tokens=8,
                                  latency_sla=sla, max_gpus=8,
                                  hybrid_factors=(1, 2))
        assert r.token_latency <= sla

    def test_tighter_sla_costs_throughput(self):
        loose = tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                      prompt_len=128, gen_tokens=8,
                                      max_gpus=8, hybrid_factors=(1,))
        tight = tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                      prompt_len=128, gen_tokens=8,
                                      latency_sla=0.015, max_gpus=8,
                                      hybrid_factors=(1,))
        assert tight.tokens_per_second <= loose.tokens_per_second
        assert tight.token_latency <= 0.015

    def test_impossible_sla_raises(self):
        with pytest.raises(ValueError, match="no feasible"):
            tune_dense_deployment(DENSE_ZOO["lm-175b"], CLUSTER,
                                  prompt_len=128, gen_tokens=8,
                                  latency_sla=1e-6, hybrid_factors=(1,))

    def test_max_gpus_cap(self):
        r = tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                  prompt_len=128, gen_tokens=8, max_gpus=4)
        assert r.num_gpus <= 4

    def test_big_model_forces_multi_gpu(self):
        r = tune_dense_deployment(DENSE_ZOO["lm-175b"], CLUSTER,
                                  prompt_len=128, gen_tokens=8,
                                  hybrid_factors=(1,))
        assert r.num_gpus >= 16  # 350 GB of weights need at least 10 GPUs

    def test_validation(self):
        with pytest.raises(ValueError):
            tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                  prompt_len=0, gen_tokens=8)
        with pytest.raises(ValueError):
            tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                  prompt_len=1, gen_tokens=1, max_gpus=0)

    @pytest.mark.parametrize("sla", [float("nan"), 0.0, -1.0])
    def test_bad_latency_sla_rejected(self, sla):
        """A NaN SLA failed every ``latency > sla`` test, so it read as
        no bound: the tuner returned a winner at batch 20,011."""
        with pytest.raises(ValueError, match="latency_sla must be"):
            tune_dense_deployment(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  prompt_len=8, gen_tokens=8,
                                  latency_sla=sla)

    def test_infinite_latency_sla_is_no_bound(self):
        kw = dict(prompt_len=8, gen_tokens=8, max_gpus=2,
                  hybrid_factors=(1,))
        assert tune_dense_deployment(
            DENSE_ZOO["gpt-13b"], CLUSTER, latency_sla=float("inf"),
            **kw) == tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                           **kw)

    @pytest.mark.parametrize("field", ["prompt_len", "gen_tokens",
                                       "max_gpus"])
    @pytest.mark.parametrize("bad", [2.5, float("nan")])
    def test_non_integer_sizes_rejected(self, field, bad):
        """These raised from inside ``range()`` or ``int()`` without
        naming the argument."""
        kw = dict(prompt_len=8, gen_tokens=8, max_gpus=2)
        kw[field] = bad
        with pytest.raises(TypeError, match=field):
            tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER, **kw)


class TestServingTuner:
    """Trace-level tuning (the fleet search): throughput under a P99
    TTFT SLA, priced by the same model the simulator runs."""

    TRACE = synthesize_trace(num_requests=25, arrival_rate=10.0,
                             mean_prompt=64, mean_gen=8, seed=9)

    def _resimulate(self, r, policy="fcfs"):
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], CLUSTER, tp=r.tp)
        return simulate_fleet(self.TRACE, num_replicas=r.replicas,
                              costs=DenseStepCost(model),
                              max_batch=r.max_batch, policy=policy,
                              routing=r.routing)

    def test_winner_reproduces_its_numbers(self):
        """The tuner prices what the simulator runs: re-simulating the
        winner at true KV gives its numbers exactly."""
        r = tune_fleet_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                  self.TRACE, gpu_budget=8)
        assert r.num_gpus == r.replicas * r.tp <= 8
        rep = self._resimulate(r)
        assert rep.tokens_per_second == r.tokens_per_second
        assert rep.ttft_percentile(self.TRACE, 99) == r.ttft_p99
        assert rep.latency_percentile(self.TRACE, 99) == r.latency_p99

    def test_sla_respected_and_costs_throughput(self):
        loose = tune_fleet_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                      self.TRACE, gpu_budget=8)
        tight = tune_fleet_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                      self.TRACE, gpu_budget=8,
                                      ttft_sla=loose.ttft_p99 * 0.5)
        assert tight.ttft_p99 <= loose.ttft_p99 * 0.5
        assert tight.tokens_per_second <= loose.tokens_per_second

    def test_impossible_sla_raises(self):
        # Even the whole cluster cannot beat a nanosecond first token.
        with pytest.raises(ValueError, match="no fleet deployment"):
            tune_fleet_deployment(DENSE_ZOO["gpt-13b"], CLUSTER, self.TRACE,
                                  gpu_budget=CLUSTER.num_gpus, ttft_sla=1e-9)

    def test_policy_threads_through(self, monkeypatch):
        seen = []
        real = fleet_tuning.simulate_fleet

        def spy(*args, **kwargs):
            seen.append(kwargs["policy"])
            return real(*args, **kwargs)

        monkeypatch.setattr(fleet_tuning, "simulate_fleet", spy)
        r = tune_fleet_deployment(DENSE_ZOO["gpt-13b"], CLUSTER, self.TRACE,
                                  gpu_budget=4, policy="shortest_prompt")
        assert seen and set(seen) == {"shortest_prompt"}
        rep = self._resimulate(r, policy="shortest_prompt")
        assert rep.ttft_percentile(self.TRACE, 99) == r.ttft_p99

    def test_validation(self):
        # gpu_budget is covered in tests/test_fleet_tuning.py.
        with pytest.raises(ValueError, match="unknown policy"):
            tune_fleet_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                  self.TRACE, gpu_budget=4, policy="nope")
