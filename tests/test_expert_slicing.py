"""Tests: expert-slicing — one expert's FFN tensor-sliced across ranks."""

import numpy as np
import pytest

from repro.comm.functional import spmd
from repro.model.moe import MoELayer
from repro.parallel.expert_parallel import expert_sliced_ffn

RNG = np.random.default_rng(47)


class TestExpertSlicing:
    @pytest.mark.parametrize("slicing", [1, 2, 4])
    def test_matches_unsliced_expert(self, slicing):
        layer = MoELayer(hidden=16, num_experts=4, seed=3)
        tokens = RNG.normal(size=(5, 16))
        want = layer.expert_ffn(2, tokens)

        results = spmd(
            slicing, lambda comm: expert_sliced_ffn(comm, layer, 2, tokens)
        )
        for got in results:
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_all_experts_sliceable(self):
        layer = MoELayer(hidden=8, num_experts=3, seed=5)
        tokens = RNG.normal(size=(2, 8))
        for e in range(3):
            want = layer.expert_ffn(e, tokens)
            got = spmd(2, lambda comm, e=e: expert_sliced_ffn(comm, layer, e, tokens))
            np.testing.assert_allclose(got[0], want, atol=1e-10)

    def test_invalid_expert(self):
        layer = MoELayer(hidden=8, num_experts=2, seed=1)

        def prog(comm):
            return expert_sliced_ffn(comm, layer, 5, np.zeros((1, 8)))

        with pytest.raises(RuntimeError):
            spmd(2, prog)

    def test_indivisible_width(self):
        layer = MoELayer(hidden=8, num_experts=2, seed=1)

        def prog(comm):
            return expert_sliced_ffn(comm, layer, 0, np.zeros((1, 8)))

        # ffn width 32 is not divisible by 5 ranks
        with pytest.raises(RuntimeError):
            spmd(5, prog)
