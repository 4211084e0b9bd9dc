"""Tests for the deployment auto-tuner (throughput under latency SLA)."""

import pytest

from repro.engine import (
    DenseLatencyModel,
    Workload,
    synthesize_trace,
    tune_dense_deployment,
    tune_serving_deployment,
)
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

    def test_per_gpu_metric(self):
        r = tune_dense_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                  prompt_len=128, gen_tokens=8, max_gpus=4,
                                  hybrid_factors=(1,))
        assert r.tokens_per_second_per_gpu == pytest.approx(
            r.tokens_per_second / r.num_gpus
        )


class TestServingTuner:
    """Trace-level tuning: throughput under a P99 TTFT SLA."""

    TRACE = synthesize_trace(num_requests=25, arrival_rate=10.0,
                             mean_prompt=64, mean_gen=8, seed=9)

    def test_winner_reproduces_its_numbers(self):
        r = tune_serving_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                    self.TRACE, max_gpus=8)
        assert r.num_gpus == r.tp <= 8
        from repro.engine import DenseStepCost, simulate_serving

        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], CLUSTER, tp=r.tp)
        costs = DenseStepCost(model, representative_kv=64 + 8 // 2)
        rep = simulate_serving(self.TRACE, costs=costs,
                               max_batch=r.max_batch)
        assert rep.tokens_per_second == pytest.approx(r.tokens_per_second)
        assert rep.ttft_percentile(self.TRACE, 99) == pytest.approx(r.ttft_p99)

    def test_sla_respected_and_costs_throughput(self):
        loose = tune_serving_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                        self.TRACE, max_gpus=8)
        tight = tune_serving_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                        self.TRACE, max_gpus=8,
                                        ttft_sla=loose.ttft_p99 * 0.5)
        assert tight.ttft_p99 <= loose.ttft_p99 * 0.5
        assert tight.tokens_per_second <= loose.tokens_per_second

    def test_impossible_sla_raises(self):
        with pytest.raises(ValueError, match="no serving deployment"):
            tune_serving_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                    self.TRACE, ttft_sla=1e-9)

    def test_policy_threads_through(self):
        r = tune_serving_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                    self.TRACE, max_gpus=4,
                                    policy="shortest_prompt")
        assert r.policy == "shortest_prompt"

    def test_validation(self):
        with pytest.raises(ValueError):
            tune_serving_deployment(DENSE_ZOO["gpt-13b"], CLUSTER,
                                    self.TRACE, max_gpus=0)
