"""Tests for the baseline implementations (every Sec. VII comparator)."""

import pytest

from repro.baselines import (
    CPUOnlyBaseline,
    FasterTransformerBaseline,
    GPUOnlyBaseline,
    encoder_latency,
    et_comparison,
    kernel_ablation_configs,
    layer_latency_sweep,
)
from repro.hardware import A100_40GB, dgx_a100_cluster, lambda_a6000_workstation
from repro.model import BERT_ZOO, DENSE_ZOO, get_model

CLUSTER = dgx_a100_cluster(8)
WS = lambda_a6000_workstation(1)


class TestFasterTransformer:
    def test_estimate_runs(self):
        ft = FasterTransformerBaseline(DENSE_ZOO["gpt-13b"], CLUSTER)
        r = ft.estimate(batch=1, prompt_len=128, gen_tokens=8)
        assert r.total_latency > 0

    def test_slower_than_deepspeed(self):
        from repro.engine import InferenceEngine

        ft = FasterTransformerBaseline(DENSE_ZOO["gpt-13b"], CLUSTER)
        ds = InferenceEngine("gpt-13b", CLUSTER, tp=1, pp=1)
        rf = ft.estimate(batch=1, prompt_len=128, gen_tokens=8)
        rd = ds.estimate(batch=1, prompt_len=128, gen_tokens=8)
        assert rf.token_latency > rd.token_latency

    def test_best_throughput_sweep(self):
        ft = FasterTransformerBaseline(DENSE_ZOO["gpt-13b"], CLUSTER)
        pt = ft.best_throughput(prompt_len=128, gen_tokens=8)
        assert pt.batch >= 1 and pt.tokens_per_second > 0


class TestMegatronAblation:
    def test_three_configs_ordered(self):
        configs = kernel_ablation_configs()
        assert [c.name for c in configs] == [
            "Megatron-FP16",
            "Megatron+DeepFusion",
            "Megatron+DeepFusion+SBI-GeMM",
        ]

    def test_each_step_improves_small_batch(self):
        """Fig. 10a: deep-fusion helps, custom GeMM helps further."""
        sweep = layer_latency_sweep(DENSE_ZOO["gpt2-1.5b"], A100_40GB,
                                    batches=(1, 4, 8))
        base, fused, full = sweep.values()
        for b in (1, 4, 8):
            assert fused[b] < base[b]
            assert full[b] <= fused[b]

    def test_sbi_gain_vanishes_at_large_batch(self):
        sweep = layer_latency_sweep(DENSE_ZOO["gpt2-1.5b"], A100_40GB,
                                    batches=(1, 64))
        _, fused, full = sweep.values()
        gain_small = fused[1] / full[1]
        gain_large = fused[64] / full[64]
        assert gain_small > gain_large
        assert gain_large == pytest.approx(1.0, abs=0.05)


class TestET:
    def test_fig12_shape(self):
        """DeepSpeed faster on both; bigger gain on the smaller model."""
        rows = et_comparison()
        assert rows["distilbert"]["speedup"] > rows["bert-large"]["speedup"]
        assert 1.4 < rows["distilbert"]["speedup"] < 2.3
        assert 1.2 < rows["bert-large"]["speedup"] < 1.8

    def test_decoder_rejected(self):
        with pytest.raises(ValueError, match="decoder"):
            encoder_latency(DENSE_ZOO["gpt-13b"])

    def test_latency_scales_with_layers(self):
        d = encoder_latency(BERT_ZOO["distilbert"])
        b = encoder_latency(BERT_ZOO["bert-base"])
        assert b == pytest.approx(2 * d, rel=0.05)  # 12 vs 6 equal layers


class TestCPUOnly:
    def test_capacity_limit_near_50b_class_on_workstation(self):
        """The 10x claim: CPU-only (FP32, 256 GB) caps below ~60B."""
        c = CPUOnlyBaseline(get_model("gpt-50b"), WS)
        assert c.max_model_params() < 60e9
        assert not CPUOnlyBaseline(get_model("gpt-87b"), WS).fits()

    def test_throughput_orders_of_magnitude_below_gpu(self):
        c = CPUOnlyBaseline(get_model("gpt-neox-20b"), WS)
        assert c.fits()
        t = c.tflops(batch=4, seq_len=2048)
        assert t < 3.0  # vs ~84 on the GPU (>25x, Sec. VII-D2)

    def test_oversized_model_raises(self):
        c = CPUOnlyBaseline(get_model("lm-530b"), WS)
        with pytest.raises(ValueError, match="DRAM"):
            c.forward_pass_time(batch=1, seq_len=128)


class TestGPUOnly:
    def test_20b_is_the_a6000_ceiling(self):
        """The 25x denominator: 20B fits one A6000, 50B does not."""
        assert GPUOnlyBaseline(get_model("gpt-neox-20b"), WS).fits()
        assert not GPUOnlyBaseline(get_model("gpt-50b"), WS).fits()

    def test_max_batch_tiny_for_borderline_model(self):
        g = GPUOnlyBaseline(get_model("gpt-neox-20b"), WS)
        assert 0 <= g.max_batch(2048) <= 3

    def test_forward_and_throughput(self):
        g = GPUOnlyBaseline(get_model("gpt-13b"), WS)
        t = g.forward_pass_time(batch=1, tokens_per_seq=128)
        assert t > 0
        assert g.generation_throughput(prompt_len=128, gen_tokens=8) > 0

    def test_oversized_model_raises(self):
        g = GPUOnlyBaseline(get_model("lm-530b"), WS)
        with pytest.raises(ValueError, match="does not fit"):
            g.forward_pass_time(batch=1, tokens_per_seq=1)
