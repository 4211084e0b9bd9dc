"""Tests for the synthetic model-architecture builder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import scaled_config


class TestScaledConfig:
    @pytest.mark.parametrize("target", [1.5e9, 13e9, 175e9, 530e9])
    def test_hits_budget_within_20pct(self, target):
        cfg = scaled_config(target)
        assert cfg.total_params == pytest.approx(target, rel=0.20)

    def test_matches_table1_shape_at_175b(self):
        # The interpolation recovers GPT-3's published architecture.
        cfg = scaled_config(175e9)
        assert cfg.hidden == 12288
        assert cfg.layers == 96
        assert cfg.heads == 96

    def test_head_dim_respected(self):
        cfg = scaled_config(30e9)
        assert cfg.hidden % 128 == 0
        assert cfg.head_dim == 128

    def test_name_and_listed(self):
        cfg = scaled_config(7e9)
        assert cfg.name == "gpt-7b-synth"
        assert cfg.listed_params == 7e9

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_config(0)

    def test_usable_by_engines(self):
        from repro.engine import InferenceEngine
        from repro.hardware import dgx_a100_cluster

        cfg = scaled_config(30e9)
        eng = InferenceEngine(cfg, dgx_a100_cluster(2))
        assert eng.estimate(batch=1, prompt_len=64, gen_tokens=2).total_latency > 0


@given(target=st.floats(min_value=1e8, max_value=2e12))
@settings(max_examples=40, deadline=None)
def test_scaled_config_monotone_property(target):
    """Properties: valid architecture, budget within 2x, monotone size."""
    cfg = scaled_config(target)
    assert cfg.hidden % cfg.heads == 0
    assert 0.5 < cfg.total_params / target < 2.0
    bigger = scaled_config(target * 4)
    assert bigger.total_params > cfg.total_params
