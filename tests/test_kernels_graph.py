"""Tests for the transformer-layer op graph (shapes, flops, byte accounting)."""

import numpy as np
import pytest

from repro.hardware import DType
from repro.kernels import LayerShape, OpKind, moe_expert_ffn_ops, transformer_layer_ops


def shape(**kw):
    base = dict(hidden=1024, heads=16, batch=2, tokens_per_seq=1, kv_len=128)
    base.update(kw)
    return LayerShape(**base)


class TestLayerShape:
    def test_tokens(self):
        s = shape(batch=4, tokens_per_seq=128, kv_len=128)
        assert s.tokens == 512

    def test_head_dim(self):
        assert shape().head_dim == 64

    def test_act_bytes(self):
        s = shape(batch=1, tokens_per_seq=1)
        assert s.act_bytes == 1024 * 2  # fp16

    def test_validation(self):
        with pytest.raises(ValueError):
            shape(hidden=1000, heads=16)  # not divisible
        with pytest.raises(ValueError):
            shape(kv_len=0)  # kv shorter than processed tokens
        with pytest.raises(ValueError):
            shape(tp_degree=3)  # heads not divisible by tp
        with pytest.raises(ValueError):
            shape(batch=0)

    @pytest.mark.parametrize("field", ["hidden", "heads", "batch",
                                       "tokens_per_seq", "kv_len",
                                       "tp_degree", "ffn_mult"])
    @pytest.mark.parametrize("value", [float("nan"), 128.0, "128"])
    def test_rejects_non_integer_fields(self, field, value):
        # A NaN kv_len passed every comparison and priced a NaN layer.
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            shape(**{field: value})

    def test_accepts_numpy_integers(self):
        assert shape(kv_len=np.int64(300)).kv_len == 300


class TestLayerOps:
    def test_op_chain_structure(self):
        ops = transformer_layer_ops(shape())
        names = [o.name for o in ops]
        assert names[0] == "input_layernorm"
        assert names[-1] == "mlp_bias_residual"
        assert "qkv_gemm" in names and "attention_scores" in names
        assert len(ops) == 15

    def test_weight_bytes_sum_matches_12h2(self):
        # Dense layer parameters: qkv 3h^2 + proj h^2 + mlp 8h^2 = 12h^2
        # (plus biases/ln, which are O(h)).
        s = shape()
        ops = transformer_layer_ops(s)
        w = sum(o.weight_bytes for o in ops if o.kind is OpKind.GEMM)
        assert w == pytest.approx(12 * s.hidden**2 * 2)

    def test_gemm_flops(self):
        s = shape(batch=1, tokens_per_seq=1)
        ops = {o.name: o for o in transformer_layer_ops(s)}
        assert ops["qkv_gemm"].flops == pytest.approx(2 * 1 * s.hidden * 3 * s.hidden)
        assert ops["mlp_h_to_4h_gemm"].flops == pytest.approx(8 * s.hidden**2)

    def test_attention_flops_scale_with_kv_len(self):
        a = transformer_layer_ops(shape(kv_len=128))
        b = transformer_layer_ops(shape(kv_len=256))
        fa = sum(o.flops for o in a if o.kind is OpKind.ATTENTION)
        fb = sum(o.flops for o in b if o.kind is OpKind.ATTENTION)
        assert fb == pytest.approx(2 * fa)

    def test_tensor_parallel_divides_weights_and_flops(self):
        s1, s4 = shape(tp_degree=1), shape(tp_degree=4)
        w1 = sum(o.weight_bytes for o in transformer_layer_ops(s1))
        w4 = sum(o.weight_bytes for o in transformer_layer_ops(s4))
        # GeMM weights divide by 4; ln/bias params mostly do not.
        assert w4 < w1 / 3.5
        f1 = sum(o.flops for o in transformer_layer_ops(s1) if o.is_gemm)
        f4 = sum(o.flops for o in transformer_layer_ops(s4) if o.is_gemm)
        assert f4 == pytest.approx(f1 / 4)

    def test_row_parallel_gemm_blocks_downstream_fusion_under_tp(self):
        ops = {o.name: o for o in transformer_layer_ops(shape(tp_degree=4))}
        assert not ops["attn_output_gemm"].tile_local_dep
        assert not ops["mlp_4h_to_h_gemm"].tile_local_dep
        ops1 = {o.name: o for o in transformer_layer_ops(shape(tp_degree=1))}
        assert ops1["attn_output_gemm"].tile_local_dep

    def test_kv_cache_read_traffic(self):
        # attention reads the whole cached K and V each step.
        s = shape(batch=1, tokens_per_seq=1, kv_len=512)
        ops = {o.name: o for o in transformer_layer_ops(s)}
        kv_half = s.kv_len * s.hidden * 2  # one of K or V in fp16
        assert ops["attention_scores"].act_in_bytes >= kv_half

    def test_int8_not_applied_in_graph(self):
        # Weight dtype scaling is the cost model's job; the graph reports
        # fp16 bytes for the configured dtype.
        s = shape(dtype=DType.FP16)
        ops = transformer_layer_ops(s)
        assert all(o.weight_bytes >= 0 for o in ops)

    def test_negative_footprint_rejected(self):
        from repro.kernels import Op

        with pytest.raises(ValueError):
            Op("bad", OpKind.ELEMENTWISE, flops=-1, weight_bytes=0,
               act_in_bytes=0, act_out_bytes=0)


class TestMoEExpertOps:
    def test_expert_ffn_weights(self):
        s = shape()
        ops = moe_expert_ffn_ops(s)
        w = sum(o.weight_bytes for o in ops if o.kind is OpKind.GEMM)
        assert w == pytest.approx(8 * s.hidden**2 * 2)

    def test_expert_slicing_divides_weights(self):
        s = shape()
        w1 = sum(o.weight_bytes for o in moe_expert_ffn_ops(s, expert_slicing=1)
                 if o.kind is OpKind.GEMM)
        w2 = sum(o.weight_bytes for o in moe_expert_ffn_ops(s, expert_slicing=2)
                 if o.kind is OpKind.GEMM)
        assert w2 == pytest.approx(w1 / 2)

    def test_invalid_slicing(self):
        with pytest.raises(ValueError):
            moe_expert_ffn_ops(shape(), expert_slicing=0)
