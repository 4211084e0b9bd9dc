"""Tests for the model zoo (Tables I and II)."""

import numpy as np
import pytest

from repro.hardware import DType
from repro.model import (
    BERT_ZOO,
    DENSE_ZOO,
    MOE_PARALLELISM,
    MOE_ZOO,
    ModelConfig,
    MoESpec,
    expert_capacity,
    expert_partition,
    get_model,
)


class TestTable1DenseZoo:
    """Table I: every architecture column and the parameter accounting."""

    def test_zoo_contains_all_table1_models(self):
        assert set(DENSE_ZOO) == {
            "gpt2-1.5b", "gpt-neo-2.7b", "gpt-j-6b", "gpt-13b",
            "gpt-neox-20b", "gpt-50b", "gpt-87b", "lm-175b", "lm-530b",
        }

    @pytest.mark.parametrize(
        "name,hidden,layers,heads",
        [
            ("gpt2-1.5b", 1600, 48, 25),
            ("gpt-neo-2.7b", 2560, 32, 20),
            ("gpt-j-6b", 4096, 28, 32),
            ("gpt-13b", 5120, 40, 40),
            ("gpt-neox-20b", 6144, 44, 64),
            ("gpt-50b", 8192, 62, 64),
            ("gpt-87b", 12288, 48, 96),
            ("lm-175b", 12288, 96, 96),
            ("lm-530b", 20480, 105, 128),
        ],
    )
    def test_architectures_match_table1(self, name, hidden, layers, heads):
        cfg = DENSE_ZOO[name]
        assert (cfg.hidden, cfg.layers, cfg.heads) == (hidden, layers, heads)

    @pytest.mark.parametrize("name", list(DENSE_ZOO))
    def test_param_estimate_within_15pct_of_listed(self, name):
        cfg = DENSE_ZOO[name]
        assert cfg.listed_params is not None
        assert cfg.total_params == pytest.approx(cfg.listed_params, rel=0.15)

    def test_530b_needs_a_terabyte(self):
        # Sec. I: "inferencing MT-NLG 530B requires about 1TB of GPU memory".
        cfg = DENSE_ZOO["lm-530b"]
        assert 0.9e12 < cfg.param_bytes(DType.FP16) < 1.2e12

    def test_kv_bytes_per_token(self):
        cfg = DENSE_ZOO["lm-175b"]
        assert cfg.kv_bytes_per_token() == 2 * 96 * 12288 * 2

    def test_flops_per_token_roughly_2N(self):
        # Standard rule of thumb: ~2 * params flops per generated token.
        cfg = DENSE_ZOO["lm-175b"]
        assert cfg.flops_per_token() == pytest.approx(2 * cfg.total_params, rel=0.1)

    def test_layer_weight_bytes_530b(self):
        # One 530B layer in fp16 ~ 9.6 GB (ZeRO-Inference streaming unit).
        cfg = DENSE_ZOO["lm-530b"]
        assert cfg.layer_weight_bytes() == pytest.approx(
            12 * 20480**2 * 2, rel=0.01
        )


class TestTable2MoEZoo:
    def test_zoo_matches_table2(self):
        assert set(MOE_ZOO) == {
            "1.3b-moe-128", "2.4b-moe-128", "8b-moe-128",
            "24b-moe-128", "47b-moe-128",
        }

    @pytest.mark.parametrize(
        "name,layers,hidden",
        [
            ("1.3b-moe-128", 24, 2048),
            ("2.4b-moe-128", 16, 3584),
            ("8b-moe-128", 30, 4096),
            ("24b-moe-128", 40, 8192),
            ("47b-moe-128", 58, 8192),
        ],
    )
    def test_architecture_columns(self, name, layers, hidden):
        cfg = MOE_ZOO[name]
        assert (cfg.layers, cfg.hidden) == (layers, hidden)
        assert cfg.moe.num_experts == 128

    @pytest.mark.parametrize("name", list(MOE_ZOO))
    def test_total_params_same_order_as_listed(self, name):
        cfg = MOE_ZOO[name]
        ratio = cfg.total_params / cfg.listed_params
        assert 0.5 < ratio < 2.0  # Table II doesn't decompose exactly; see DESIGN.md

    def test_smallest_moe_is_52b_class(self):
        cfg = MOE_ZOO["1.3b-moe-128"]
        assert cfg.total_params == pytest.approx(52e9, rel=0.15)

    def test_expert_params_dominate(self):
        for cfg in MOE_ZOO.values():
            assert cfg.expert_params > 5 * cfg.base_params

    def test_parallelism_table(self):
        p = MOE_PARALLELISM["24b-moe-128"]
        assert (p.mp_degree, p.ep_degree, p.expert_slicing, p.num_gpus) == (
            8, 128, 2, 256,
        )
        assert MOE_PARALLELISM["1.3b-moe-128"].num_gpus == 128

    def test_trillion_scale_model_present(self):
        # Fig. 7 headline: a >1T model served under 25 ms.
        assert MOE_ZOO["24b-moe-128"].listed_params > 1e12
        assert MOE_ZOO["47b-moe-128"].listed_params > 2e12


class TestValidationAndLookup:
    def test_get_model_across_zoos(self):
        assert get_model("lm-175b").hidden == 12288
        assert get_model("1.3b-moe-128").moe is not None
        assert get_model("bert-base").decoder is False

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("gpt-9000b")

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(name="bad", hidden=100, layers=2, heads=3)
        with pytest.raises(ValueError):
            ModelConfig(name="bad", hidden=0, layers=2, heads=1)

    def test_bad_moe_spec(self):
        with pytest.raises(ValueError):
            MoESpec(num_experts=0)
        with pytest.raises(ValueError):
            MoESpec(num_experts=4, top_k=5)
        with pytest.raises(ValueError):
            MoESpec(num_experts=4, capacity_factor=0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_moe_spec_rejects_non_finite_capacity_factor(self, factor):
        with pytest.raises(ValueError, match="capacity_factor must be finite"):
            MoESpec(num_experts=4, capacity_factor=factor)

    def test_moe_layer_count(self):
        cfg = MOE_ZOO["1.3b-moe-128"]
        assert cfg.num_moe_layers == 12  # every other of 24
        assert DENSE_ZOO["gpt2-1.5b"].num_moe_layers == 0

    def test_bert_zoo(self):
        assert BERT_ZOO["distilbert"].layers == 6
        assert BERT_ZOO["bert-base"].layers == 12


class TestExpertSizing:
    """Expert counts, token counts and EP degrees are integers: a float
    is a TypeError naming the argument, not a fractional capacity."""

    @pytest.mark.parametrize("args, name", [
        ((2.5, 8, 1.0), "num_tokens"),
        ((16, 2.5, 1.0), "num_experts"),
        ((float("nan"), 8, 1.0), "num_tokens"),
        ((16.0, 4, 1.0), "num_tokens"),
    ])
    def test_capacity_rejects_non_integer_sizes(self, args, name):
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            expert_capacity(*args)

    @pytest.mark.parametrize("args, name", [
        ((8, 2.0), "ep_degree"),
        ((8.0, 2), "num_experts"),
        ((8, float("nan")), "ep_degree"),
    ])
    def test_partition_rejects_non_integer_sizes(self, args, name):
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            expert_partition(*args)

    def test_numpy_integers_accepted(self):
        assert expert_capacity(np.int64(17), np.int32(4), 1.0) == 5
        assert expert_partition(np.int64(10), np.int64(4)) == [
            range(0, 3), range(3, 6), range(6, 8), range(8, 10)]
