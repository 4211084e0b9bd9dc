"""Tests for GeMM efficiency curves and the roofline kernel cost model."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware import A100_40GB, DType
from repro.kernels import (
    DEEPSPEED_FP16,
    DEEPSPEED_INT8,
    FASTER_TRANSFORMER_FP16,
    KernelCostModel,
    LayerShape,
    PYTORCH_FP16,
    cublas_bw_efficiency,
    cublas_compute_efficiency,
    sbi_bw_efficiency,
    sbi_tile_plan,
)


def shape(tokens=1, hidden=4096, kv=128, tp=1):
    return LayerShape(hidden=hidden, heads=32, batch=tokens, tokens_per_seq=1,
                      kv_len=kv, tp_degree=tp)


class TestGemmCurves:
    def test_cublas_bw_poor_at_batch_1(self):
        # cuBLAS leaves a meaningful fraction of bandwidth unused on
        # batch-1 skinny GeMMs — the gap SBI-GeMM closes.
        assert cublas_bw_efficiency(1) < 0.75
        assert cublas_bw_efficiency(1) < sbi_bw_efficiency(
            A100_40GB, 1, 12288, DType.FP16
        )

    def test_sbi_beats_cublas_at_small_batch(self):
        # The entire point of SBI-GeMM (Sec. III-C).
        for tokens in (1, 2, 4, 8):
            sbi = sbi_bw_efficiency(A100_40GB, tokens, 12288, DType.FP16)
            assert sbi > cublas_bw_efficiency(tokens)

    def test_curves_monotone_and_bounded(self):
        prev = 0.0
        for t in (1, 2, 4, 8, 16, 32, 64, 128, 512):
            e = cublas_bw_efficiency(t)
            assert prev < e <= 0.85
            prev = e
        prev = 0.0
        for t in (1, 16, 128, 1024, 8192):
            e = cublas_compute_efficiency(t)
            assert prev < e < 0.85
            prev = e

    def test_invalid_tokens(self):
        with pytest.raises(ValueError):
            cublas_bw_efficiency(0)
        with pytest.raises(ValueError):
            sbi_bw_efficiency(A100_40GB, 0, 1024, DType.FP16)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 100.5])
    def test_non_integer_sizes_rejected(self, bad):
        # Both ``x < 1`` guards let NaN through, and a float width used to
        # get a one-tile plan.
        with pytest.raises(TypeError, match="out_features must be an int"):
            sbi_tile_plan(A100_40GB, bad, DType.FP16)
        with pytest.raises(TypeError, match="out_features must be an int"):
            sbi_bw_efficiency(A100_40GB, 1, bad, DType.FP16)
        with pytest.raises(TypeError, match="tokens must be an int"):
            sbi_bw_efficiency(A100_40GB, bad, 4096, DType.FP16)

    def test_tile_plan_small_model_splits_input_dim(self):
        small = sbi_tile_plan(A100_40GB, 1024, DType.FP16)
        big = sbi_tile_plan(A100_40GB, 12288, DType.FP16)
        assert small.split_input_dim and small.kernels == 2
        assert not big.split_input_dim and big.kernels == 1
        assert "2-kernel" in small.description

    def test_tile_plan_int8_packs_4_per_thread(self):
        plan = sbi_tile_plan(A100_40GB, 8192, DType.INT8)
        assert plan.elements_per_thread == 4

    def test_small_output_dim_penalized(self):
        e_small = sbi_bw_efficiency(A100_40GB, 1, 512, DType.FP16)
        e_big = sbi_bw_efficiency(A100_40GB, 1, 16384, DType.FP16)
        assert e_small < e_big


class TestCostModel:
    def test_small_batch_is_memory_bound(self):
        cm = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
        cost = cm.layer_cost(shape(tokens=1))
        gemm_regions = [r for r in cost.regions if "gemm" in r.name]
        assert gemm_regions
        assert all(r.bound == "memory" for r in gemm_regions)

    def test_large_batch_gemms_go_compute_bound(self):
        cm = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
        s = LayerShape(hidden=4096, heads=32, batch=64, tokens_per_seq=512,
                       kv_len=512)
        cost = cm.layer_cost(s)
        gemm_regions = [r for r in cost.regions if "gemm" in r.name]
        assert any(r.bound == "compute" for r in gemm_regions)

    def test_latency_lower_bounded_by_weight_read(self):
        cm = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
        s = shape(tokens=1)
        cost = cm.layer_cost(s)
        ideal = A100_40GB.ideal_weight_read_time(12 * s.hidden**2 * 2)
        assert cost.total_time >= ideal

    def test_deepspeed_faster_than_pytorch_at_batch_1(self):
        ds = KernelCostModel(A100_40GB, DEEPSPEED_FP16).layer_cost(shape(1))
        pt = KernelCostModel(A100_40GB, PYTORCH_FP16).layer_cost(shape(1))
        assert ds.total_time < pt.total_time
        assert ds.kernel_count < pt.kernel_count

    def test_deepspeed_faster_than_ft_across_batches(self):
        for tokens in (1, 4, 16, 64):
            ds = KernelCostModel(A100_40GB, DEEPSPEED_FP16).layer_cost(shape(tokens))
            ft = KernelCostModel(A100_40GB, FASTER_TRANSFORMER_FP16).layer_cost(
                shape(tokens))
            assert ds.total_time < ft.total_time, f"tokens={tokens}"

    def test_int8_halves_gemm_weight_traffic(self):
        fp16 = KernelCostModel(A100_40GB, DEEPSPEED_FP16).layer_cost(shape(1))
        int8 = KernelCostModel(A100_40GB, DEEPSPEED_INT8).layer_cost(shape(1))
        # Total traffic includes activations/ln params, so ratio is >0.5.
        assert 0.5 < int8.hbm_bytes / fp16.hbm_bytes < 0.62
        assert int8.total_time < fp16.total_time

    def test_cuda_graph_removes_launch_overhead(self):
        no_graph = DEEPSPEED_FP16.with_(name="ds-nograph", cuda_graph=False)
        with_graph = KernelCostModel(A100_40GB, DEEPSPEED_FP16).layer_cost(shape(1))
        without = KernelCostModel(A100_40GB, no_graph).layer_cost(shape(1))
        assert with_graph.launch_time < without.launch_time
        assert without.launch_time == pytest.approx(
            without.kernel_count
            * A100_40GB.kernel_launch_overhead,
        )

    def test_effective_bandwidth_below_peak(self):
        cm = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
        cost = cm.layer_cost(shape(1))
        assert 0 < cost.effective_bandwidth < A100_40GB.mem_bw

    def test_tp_reduces_layer_time(self):
        cm = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
        t1 = cm.layer_cost(shape(tokens=1, tp=1)).total_time
        t8 = cm.layer_cost(shape(tokens=1, tp=8)).total_time
        assert t8 < t1 / 4  # compute/weights shrink 8x; overheads remain

    def test_invalid_tokens_rejected(self):
        cm = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
        from repro.kernels import FusedRegion, Op, OpKind, TOKEN

        op = Op("x", OpKind.ELEMENTWISE, 1, 0, 1, 1, frozenset({TOKEN}))
        with pytest.raises(ValueError):
            cm.region_time(FusedRegion((op,)), tokens=0)


@given(tokens=st.integers(min_value=1, max_value=512))
def test_layer_throughput_monotone_in_tokens(tokens):
    """More tokens never lowers throughput (tokens/s), and latency can only
    dip transiently where rising GeMM efficiency outpaces byte growth."""
    cm = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
    t_a = cm.layer_cost(shape(tokens=tokens)).total_time
    t_b = cm.layer_cost(shape(tokens=tokens + 32)).total_time
    assert (tokens + 32) / t_b >= tokens / t_a * 0.98
    assert t_b >= t_a * 0.75


@given(tokens=st.sampled_from([1, 2, 4, 8, 16, 64, 256]))
def test_flops_conserved_across_profiles(tokens):
    """The same math runs regardless of implementation profile."""
    s = shape(tokens=tokens)
    costs = [
        KernelCostModel(A100_40GB, p).layer_cost(s).flops
        for p in (PYTORCH_FP16, FASTER_TRANSFORMER_FP16, DEEPSPEED_FP16)
    ]
    assert max(costs) == pytest.approx(min(costs))
