"""Tests for sampling strategies and roofline analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import A100_40GB
from repro.kernels import (
    LayerShape,
    analyze_layer,
    crossover_batch,
    machine_balance,
)
from repro.model.sampling import SamplingConfig, sample_next_token

RNG = np.random.default_rng(61)


class TestSampling:
    def test_greedy_is_argmax(self):
        logits = RNG.normal(size=(4, 10))
        for cfg in (SamplingConfig(greedy=True), SamplingConfig(temperature=0)):
            np.testing.assert_array_equal(
                sample_next_token(logits, cfg), logits.argmax(-1)
            )

    def test_deterministic_given_seed(self):
        logits = RNG.normal(size=(3, 20))
        cfg = SamplingConfig(temperature=0.8, top_k=5)
        a = sample_next_token(logits, cfg, np.random.default_rng(9))
        b = sample_next_token(logits, cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_top_k_restricts_support(self):
        logits = RNG.normal(size=(1, 50))
        cfg = SamplingConfig(temperature=1.0, top_k=3)
        top3 = set(np.argsort(-logits[0])[:3])
        rng = np.random.default_rng(0)
        draws = {int(sample_next_token(logits, cfg, rng)[0]) for _ in range(200)}
        assert draws <= top3

    def test_top_p_keeps_at_least_one(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 20.0  # one token holds almost all mass
        cfg = SamplingConfig(top_p=0.5)
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert sample_next_token(logits, cfg, rng)[0] == 2

    def test_low_temperature_concentrates(self):
        logits = RNG.normal(size=(1, 30))
        logits[0, 11] = logits.max() + 0.5  # clear winner
        rng = np.random.default_rng(2)
        cold = [int(sample_next_token(logits, SamplingConfig(temperature=0.02),
                                      rng)[0]) for _ in range(50)]
        assert all(t == 11 for t in cold)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(temperature=-1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SamplingConfig(temperature=bad)
        with pytest.raises(ValueError):
            SamplingConfig(top_k=0)
        with pytest.raises(ValueError):
            SamplingConfig(top_p=0.0)
        with pytest.raises(ValueError):
            sample_next_token(np.zeros((1, 4)), SamplingConfig())  # no rng

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_samples_always_in_vocab(self, seed):
        logits = np.random.default_rng(seed).normal(size=(5, 13))
        cfg = SamplingConfig(temperature=1.3, top_p=0.9)
        toks = sample_next_token(logits, cfg, np.random.default_rng(seed))
        assert ((toks >= 0) & (toks < 13)).all()


class TestRooflineAnalysis:
    def test_machine_balance_a100(self):
        # 312 TFLOPS / 1555 GB/s ~ 200 flops/byte.
        assert machine_balance(A100_40GB) == pytest.approx(200.6, rel=0.01)

    def test_decode_regions_memory_bound(self):
        shape = LayerShape(hidden=4096, heads=32, batch=1, tokens_per_seq=1,
                           kv_len=128)
        regions = analyze_layer(A100_40GB, shape)
        gemm_regions = [r for r in regions if "gemm" in r.name]
        assert all(r.bound == "memory" for r in gemm_regions)
        # Batch-1 decode arithmetic intensity sits far below balance.
        assert all(r.arithmetic_intensity < machine_balance(A100_40GB)
                   for r in gemm_regions)

    def test_prompt_regions_compute_bound(self):
        shape = LayerShape(hidden=4096, heads=32, batch=8, tokens_per_seq=512,
                           kv_len=512)
        regions = analyze_layer(A100_40GB, shape)
        gemm_regions = [r for r in regions if "gemm" in r.name]
        assert any(r.bound == "compute" for r in gemm_regions)

    def test_crossover_batch_properties(self):
        b = crossover_batch(A100_40GB, 4096, 32)
        shape_below = LayerShape(hidden=4096, heads=32, batch=max(1, b // 2),
                                 tokens_per_seq=1, kv_len=128)
        regions = analyze_layer(A100_40GB, shape_below)
        gemms = [r for r in regions if "gemm" in r.name]
        assert any(r.bound == "memory" for r in gemms)
        assert 8 <= b <= 4096  # sits in a sane band for fp16 on A100

    def test_crossover_monotone_in_intensity(self):
        """Arithmetic intensity grows with batch, so the crossover exists
        and is unique — both hidden sizes land in similar flop/byte bands."""
        small = crossover_batch(A100_40GB, 1600, 25)
        big = crossover_batch(A100_40GB, 12288, 96)
        assert small > 1 and big > 1
