"""Unit tests for hardware specs (Sec. VII-A4 testbeds)."""

import pytest

from repro.hardware import (
    A100_40GB,
    A6000,
    DType,
    GB,
    GPU_REGISTRY,
    INFINIBAND_HDR,
    NVLINK3,
    PCIE4_X16,
    V100_32GB,
    XEON_8280,
)


class TestDType:
    def test_itemsizes(self):
        assert DType.FP32.itemsize == 4
        assert DType.FP16.itemsize == 2
        assert DType.INT8.itemsize == 1

    def test_cacheline_pack_matches_paper(self):
        # Sec. III-C3: M=2 for half precision, M=4 for INT8.
        assert DType.FP16.cacheline_pack == 2
        assert DType.INT8.cacheline_pack == 4

    def test_pack_times_itemsize_is_constant(self):
        # Every dtype fills the same number of bytes per thread-read.
        packs = {d.itemsize * d.cacheline_pack for d in DType}
        assert packs == {4}


class TestGPUSpec:
    def test_registry_contains_all_testbed_gpus(self):
        assert set(GPU_REGISTRY) == {"A100-40GB", "A6000-48GB", "V100-32GB-SXM"}

    def test_a100_published_numbers(self):
        assert A100_40GB.memory_bytes == pytest.approx(40 * GB)
        assert A100_40GB.mem_bw == pytest.approx(1555 * GB)
        assert A100_40GB.fp16_flops == pytest.approx(312e12)
        assert A100_40GB.int8_ops == pytest.approx(2 * A100_40GB.fp16_flops)

    def test_a6000_peak_matches_paper_quote(self):
        # Paper: "84 TFLOPS, 54% of theoretical peak (158.4 TFLOPS)".
        assert A6000.fp16_flops == pytest.approx(158.4e12)

    def test_peak_flops_dispatch(self):
        assert V100_32GB.peak_flops(DType.FP16) == V100_32GB.fp16_flops
        assert V100_32GB.peak_flops(DType.FP32) == V100_32GB.fp32_flops
        assert A100_40GB.peak_flops(DType.INT8) == A100_40GB.int8_ops

    def test_ideal_weight_read_time(self):
        t = A100_40GB.ideal_weight_read_time(1555 * GB)
        assert t == pytest.approx(1.0)

    def test_with_overrides_returns_new_spec(self):
        fast = A100_40GB.with_overrides(mem_bw=2000 * GB)
        assert fast.mem_bw == 2000 * GB
        assert A100_40GB.mem_bw == pytest.approx(1555 * GB)
        assert fast.name == A100_40GB.name

    def test_launch_overhead_is_microseconds(self):
        assert 1e-6 <= A100_40GB.kernel_launch_overhead <= 20e-6


class TestLinks:
    def test_transfer_time_is_alpha_beta(self):
        t = PCIE4_X16.transfer_time(25 * GB)
        assert t == pytest.approx(PCIE4_X16.latency + 1.0)

    def test_zero_bytes_costs_latency_only(self):
        assert NVLINK3.transfer_time(0) == pytest.approx(NVLINK3.latency)

    def test_hierarchy_of_bandwidths(self):
        # NVLink >> PCIe >= IB share: the premise of topology-aware
        # parallelism placement (Sec. II, IV-A).
        assert NVLINK3.bandwidth > 5 * PCIE4_X16.bandwidth
        assert PCIE4_X16.bandwidth >= INFINIBAND_HDR.bandwidth * 0.5


class TestHostAndNVMe:
    def test_dram_slower_than_hbm(self):
        assert XEON_8280.dram_bw < V100_32GB.mem_bw
