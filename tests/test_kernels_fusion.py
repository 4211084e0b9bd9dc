"""Tests for Deep-Fusion region partitioning (Sec. III-B/D)."""

import pytest
from hypothesis import given, strategies as st

from repro.kernels import (
    FusedRegion,
    FusionStrategy,
    LayerShape,
    Op,
    OpKind,
    TOKEN,
    partition,
    transformer_layer_ops,
)


def ops_for(tp=1, tokens=1):
    return transformer_layer_ops(
        LayerShape(hidden=2048, heads=16, batch=tokens, tokens_per_seq=1,
                   kv_len=128, tp_degree=tp)
    )


class TestStrategies:
    def test_none_keeps_every_op_separate(self):
        ops = ops_for()
        regions = partition(ops, FusionStrategy.NONE)
        assert len(regions) == len(ops)

    def test_elementwise_fuses_epilogues_only(self):
        regions = partition(ops_for(), FusionStrategy.ELEMENTWISE)
        # 15 ops, 4 elementwise epilogues (qkv_bias, attn_bias_residual,
        # gelu_bias, mlp_bias_residual) ride on their producers.
        assert len(regions) == 11
        assert all(
            sum(op.kind is not OpKind.ELEMENTWISE for op in r.ops) <= 1
            for r in regions
        )

    def test_attention_strategy_fuses_attention_block(self):
        regions = partition(ops_for(), FusionStrategy.ATTENTION)
        names = [r.name for r in regions]
        block = next(r for r in regions if "attention_scores" in r.name or
                     any(o.name == "attention_scores" for o in r.ops))
        members = {o.name for o in block.ops}
        assert {"head_transpose", "attention_scores", "softmax",
                "attention_context", "context_transpose"} <= members
        assert len(regions) == 7
        assert names  # regions have readable labels

    def test_deep_small_batch_matches_paper_regions(self):
        """Fig. 1c: LN+QKV, transpose+attention, (proj), LN+MLP1, (mlp2)."""
        regions = partition(ops_for(), FusionStrategy.DEEP, small_batch=True)
        grouped = [{o.name for o in r.ops} for r in regions]
        assert grouped[0] == {"input_layernorm", "qkv_gemm", "qkv_bias"}
        assert grouped[1] == {
            "head_transpose", "attention_scores", "softmax",
            "attention_context", "context_transpose",
        }
        assert grouped[2] == {"attn_output_gemm", "attn_bias_residual"}
        assert grouped[3] == {"post_attn_layernorm", "mlp_h_to_4h_gemm", "gelu_bias"}
        assert grouped[4] == {"mlp_4h_to_h_gemm", "mlp_bias_residual"}
        assert len(regions) == 5

    def test_deep_large_batch_leaves_gemms_unfused(self):
        regions = partition(ops_for(), FusionStrategy.DEEP, small_batch=False)
        gemm_regions = [r for r in regions if any(o.kind is OpKind.GEMM for o in r.ops)]
        # Each weight GeMM stands alone (with only elementwise epilogues).
        for r in gemm_regions:
            assert sum(o.kind is OpKind.GEMM for o in r.ops) == 1
            assert r.ops[0].kind is OpKind.GEMM
        assert len(regions) == 7

    def test_deep_respects_tensor_parallel_allreduce_boundary(self):
        """Under TP, row-parallel GeMM outputs need an all-reduce before the
        bias+residual, so region 4 of the paper stays separate."""
        regions = partition(ops_for(tp=4), FusionStrategy.DEEP, small_batch=True)
        grouped = [{o.name for o in r.ops} for r in regions]
        assert {"attn_output_gemm"} in grouped
        assert {"attn_bias_residual"} in grouped
        assert {"mlp_bias_residual"} in grouped
        assert len(regions) == 7

    def test_fewer_kernels_with_more_fusion(self):
        ops = ops_for()
        counts = {
            s: len(partition(ops, s))
            for s in (FusionStrategy.NONE, FusionStrategy.ELEMENTWISE,
                      FusionStrategy.ATTENTION, FusionStrategy.DEEP)
        }
        assert (counts[FusionStrategy.DEEP] < counts[FusionStrategy.ATTENTION]
                < counts[FusionStrategy.ELEMENTWISE] < counts[FusionStrategy.NONE])


class TestOpValidation:
    @pytest.mark.parametrize(
        "field", ["flops", "weight_bytes", "act_in_bytes", "act_out_bytes"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_footprint(self, field, bad):
        # ``< 0`` let NaN through, and a NaN op priced a NaN region.
        sizes = dict(flops=1.0, weight_bytes=0.0, act_in_bytes=1.0,
                     act_out_bytes=1.0)
        sizes[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Op("x", OpKind.ELEMENTWISE, tile_dims=frozenset({TOKEN}),
               **sizes)


class TestFusedRegionAccounting:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            FusedRegion(())

    def test_boundary_bytes_only(self):
        a = Op("a", OpKind.REDUCTION, 10, 0, 100, 50, frozenset({TOKEN}))
        b = Op("b", OpKind.ELEMENTWISE, 10, 0, 50, 20, frozenset({TOKEN}))
        r = FusedRegion((a, b))
        assert r.act_bytes == 120  # 100 in + 20 out; the 50+50 interior is free
        assert r.saved_bytes() == pytest.approx((100 + 50 + 50 + 20) - 120 - 0)

    def test_weights_always_counted(self):
        a = Op("ln", OpKind.REDUCTION, 10, 8, 100, 100, frozenset({TOKEN}))
        g = Op("gemm", OpKind.GEMM, 10, 1000, 100, 10, frozenset({TOKEN}))
        r = FusedRegion((a, g))
        assert r.weight_bytes == 1008
        assert r.hbm_bytes == 1008 + 100 + 10

    def test_flops_additive(self):
        ops = ops_for()
        regions = partition(ops, FusionStrategy.DEEP)
        assert sum(r.flops for r in regions) == pytest.approx(
            sum(o.flops for o in ops)
        )

    def test_single_op_region_name(self):
        ops = ops_for()
        regions = partition(ops, FusionStrategy.NONE)
        assert regions[0].name == "input_layernorm"


@given(small=st.booleans(), tp=st.sampled_from([1, 2, 4]),
       strategy=st.sampled_from(list(FusionStrategy)))
def test_partition_invariants(small, tp, strategy):
    """Properties: partition covers all ops exactly once, in order, and
    never loses flops/weight bytes."""
    ops = ops_for(tp=tp)
    regions = partition(ops, strategy, small_batch=small)
    flat = [o for r in regions for o in r.ops]
    assert flat == ops  # order-preserving exact cover
    assert sum(r.weight_bytes for r in regions) == pytest.approx(
        sum(o.weight_bytes for o in ops)
    )
    # Fusion can only reduce HBM traffic, never increase it.
    assert sum(r.hbm_bytes for r in regions) <= sum(o.total_bytes for o in ops) + 1e-9
    # Legality: adjacent fused ops always share a tile dimension.
    for r in regions:
        for a, b in zip(r.ops, r.ops[1:]):
            assert a.can_fuse_with(b)


def test_partition_empty_chain():
    assert partition([], FusionStrategy.DEEP) == []
