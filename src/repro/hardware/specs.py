"""Hardware specifications for the devices used in the paper's evaluation.

The paper (Sec. VII-A4) evaluates on three testbeds:

* a cluster of up to 256 NVIDIA A100-40GB GPUs (32 DGX boxes, 8 GPUs each),
* a Lambda workstation with 2x A6000-48GB, 256 GB DRAM and 2 TB NVMe,
* a DGX-2 with 16x V100-32GB-SXM, 1.5 TB DRAM and 30 TB NVMe.

This module records the published hardware numbers those systems expose to
the performance model: memory capacity and bandwidth, peak math throughput
per datatype, interconnect bandwidths and latencies, and the kernel-launch
overhead that Sec. III identifies as a first-order latency term at small
batch sizes.

All bandwidths are *unidirectional effective* bandwidths in bytes/second,
all times in seconds, all capacities in bytes, so arithmetic downstream
never needs unit conversions.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

__all__ = [
    "DType",
    "GPUSpec",
    "LinkSpec",
    "CPUSpec",
    "NVMeSpec",
    "A100_40GB",
    "A6000",
    "V100_32GB",
    "NVLINK3",
    "NVLINK2",
    "PCIE3_X16",
    "PCIE4_X16",
    "INFINIBAND_HDR",
    "XEON_8280",
    "NVME_RAID",
    "NVME_SINGLE",
    "GPU_REGISTRY",
    "GB",
    "GiB",
    "USABLE_FRACTION",
    "US",
    "MS",
]

GB = 1e9
GiB = 2**30
US = 1e-6
MS = 1e-3

#: Share of a device's memory that capacity planning may fill. The rest
#: is left to the runtime (allocator fragmentation, workspaces, the CUDA
#: context). Every batch cap and fit check reads it through
#: :attr:`GPUSpec.usable_bytes` or :attr:`CPUSpec.usable_dram_bytes`.
USABLE_FRACTION = 0.9


class DType(enum.Enum):
    """Numeric datatypes supported by the inference kernels (Sec. III-D).

    Each member carries two constants, plain attributes so the pricing
    hot path reads them without hashing the member:

    * ``itemsize`` — size of one element in bytes;
    * ``cacheline_pack`` — elements per thread read to fill a 128-byte
      L1 cache line. Sec. III-C3: the SBI-GeMM weight layout transposes
      M rows per column so each thread reads M contiguous elements; the
      paper sets M=2 for FP16 and M=4 for INT8 against a 128-byte line.
    """

    FP32 = "fp32", 4, 1
    FP16 = "fp16", 2, 2
    INT8 = "int8", 1, 4

    def __new__(cls, value: str, itemsize: int, cacheline_pack: int) -> "DType":
        member = object.__new__(cls)
        member._value_ = value
        member.itemsize = itemsize
        member.cacheline_pack = cacheline_pack
        return member


@dataclass(frozen=True)
class GPUSpec:
    """Performance-relevant description of one GPU.

    Attributes
    ----------
    name:
        Marketing name, used in reports.
    memory_bytes:
        HBM/GDDR capacity available to the inference engine.
    mem_bw:
        Peak DRAM bandwidth in bytes/s.
    fp16_flops / fp32_flops / int8_ops:
        Peak dense math throughput (tensor cores where applicable), in
        operations per second.
    sm_count:
        Number of streaming multiprocessors; bounds the number of parallel
        tiles the SBI-GeMM scheduler can spread work over.
    kernel_launch_overhead:
        CPU-side cost of launching one kernel, in seconds. Sec. III-D
        eliminates this via CUDA graphs.
    """

    name: str
    memory_bytes: float
    mem_bw: float
    fp16_flops: float
    fp32_flops: float
    int8_ops: float
    sm_count: int
    kernel_launch_overhead: float = 3.5 * US

    def peak_flops(self, dtype: DType) -> float:
        """Peak math throughput for ``dtype`` in ops/s."""
        if dtype is DType.FP16:
            return self.fp16_flops
        if dtype is DType.INT8:
            return self.int8_ops
        if dtype is DType.FP32:
            return self.fp32_flops
        raise KeyError(dtype)

    @property
    def usable_bytes(self) -> float:
        """Device memory that weights, KV cache and buffers may fill."""
        return self.memory_bytes * USABLE_FRACTION

    def ideal_weight_read_time(self, nbytes: float) -> float:
        """Lower bound on reading ``nbytes`` of weights from device memory.

        Small-batch inference latency is bounded below by this quantity
        (Sec. I, "Latency Challenges").
        """
        return nbytes / self.mem_bw

    def with_overrides(self, **kw) -> "GPUSpec":
        """Return a copy with selected fields replaced."""
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point or shared interconnect link.

    ``bandwidth`` is the effective unidirectional bandwidth in bytes/s and
    ``latency`` the per-message latency in seconds (the alpha term of the
    alpha-beta model used by :mod:`repro.comm.primitives`).
    """

    name: str
    bandwidth: float
    latency: float

    def transfer_time(self, nbytes: float) -> float:
        """alpha-beta time to move ``nbytes`` across this link."""
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class CPUSpec:
    """Host CPU + DRAM subsystem used by offloading paths."""

    name: str
    dram_bytes: float
    dram_bw: float
    # Effective GEMM throughput of the host for the CPU-only baseline
    # (Sec. VII-D compares against a CPU-only solution).
    fp32_flops: float

    @property
    def usable_dram_bytes(self) -> float:
        """DRAM that pinned weights or offloaded KV cache may fill."""
        return self.dram_bytes * USABLE_FRACTION


@dataclass(frozen=True)
class NVMeSpec:
    """NVMe storage tier (ZeRO-Inference weight store, Sec. VI)."""

    name: str
    capacity_bytes: float
    read_bw: float
    latency: float = 80 * US


# --------------------------------------------------------------------------
# Published device numbers.
# --------------------------------------------------------------------------

A100_40GB = GPUSpec(
    name="A100-40GB",
    memory_bytes=40 * GB,
    mem_bw=1555 * GB,
    fp16_flops=312e12,
    fp32_flops=19.5e12,
    int8_ops=624e12,
    sm_count=108,
)

A6000 = GPUSpec(
    name="A6000-48GB",
    memory_bytes=48 * GB,
    mem_bw=768 * GB,
    fp16_flops=158.4e12,  # paper quotes 158.4 TFLOPS theoretical peak
    fp32_flops=38.7e12,
    int8_ops=316.8e12,
    sm_count=84,
)

V100_32GB = GPUSpec(
    name="V100-32GB-SXM",
    memory_bytes=32 * GB,
    mem_bw=900 * GB,
    fp16_flops=125e12,
    fp32_flops=15.7e12,
    int8_ops=125e12,  # V100 has no INT8 tensor cores; DP4A roughly matches FP16
    sm_count=80,
)

GPU_REGISTRY = {g.name: g for g in (A100_40GB, A6000, V100_32GB)}

# NVLink generation 3 (A100, NVSwitch-connected DGX A100): 600 GB/s total
# bidirectional per GPU => ~300 GB/s unidirectional, of which NCCL
# typically realises ~80%.
NVLINK3 = LinkSpec(name="NVLink3", bandwidth=240 * GB, latency=1.5 * US)

# NVLink generation 2 (V100 DGX-2 with NVSwitch): 300 GB/s bidirectional.
NVLINK2 = LinkSpec(name="NVLink2", bandwidth=120 * GB, latency=1.8 * US)

PCIE3_X16 = LinkSpec(name="PCIe3x16", bandwidth=12.5 * GB, latency=4 * US)
PCIE4_X16 = LinkSpec(name="PCIe4x16", bandwidth=25 * GB, latency=3 * US)

# HDR InfiniBand, 8 NICs per DGX A100 node aggregated by NCCL; we model the
# per-GPU share of inter-node bandwidth.
INFINIBAND_HDR = LinkSpec(name="IB-HDR", bandwidth=22 * GB, latency=5 * US)

XEON_8280 = CPUSpec(
    name="Xeon-8280-host",
    dram_bytes=1500 * GB,
    dram_bw=140 * GB,
    fp32_flops=3.0e12,
)

NVME_RAID = NVMeSpec(
    name="NVMe-RAID (DGX-2)",
    capacity_bytes=30e12,
    read_bw=25 * GB,
)

NVME_SINGLE = NVMeSpec(
    name="NVMe (workstation)",
    capacity_bytes=2e12,
    read_bw=6.5 * GB,
)
