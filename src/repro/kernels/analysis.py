"""Roofline analysis: where each kernel region sits and why.

Sec. III's whole argument is a roofline argument: small-batch inference
is bandwidth-bound (latency = bytes / bandwidth), prompt processing is
compute-bound, and the crossover batch is where an implementation's
character changes. This module turns the cost model's per-region numbers
into that analysis: arithmetic intensity, the machine balance point, the
bound classification, and the batch size at which a deployment's token
step crosses from bandwidth- to compute-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.specs import DType, GPUSpec
from .costmodel import KernelCostModel
from .graph import LayerShape
from .profiles import DEEPSPEED_FP16

__all__ = ["RegionAnalysis", "machine_balance", "analyze_layer", "crossover_batch"]


def machine_balance(gpu: GPUSpec) -> float:
    """FP16 flops per byte at which the roofline's two regimes meet."""
    return gpu.peak_flops(DType.FP16) / gpu.mem_bw


@dataclass(frozen=True)
class RegionAnalysis:
    """One fused region's position on the roofline."""

    name: str
    flops: float
    hbm_bytes: float
    bound: str
    time: float

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per HBM byte."""
        return self.flops / self.hbm_bytes if self.hbm_bytes > 0 else float("inf")


def analyze_layer(gpu: GPUSpec, shape: LayerShape) -> list[RegionAnalysis]:
    """Roofline placement of each fused region of one layer invocation
    under DeepSpeed kernels."""
    model = KernelCostModel(gpu, DEEPSPEED_FP16)
    cost = model.layer_cost(shape)
    out = []
    for r in cost.regions:
        out.append(
            RegionAnalysis(
                name=r.name,
                flops=r.flops,
                hbm_bytes=r.hbm_bytes,
                bound=r.bound,
                time=r.total,
            )
        )
    return out


def crossover_batch(
    gpu: GPUSpec,
    hidden: int,
    heads: int,
) -> int:
    """Smallest token-generation batch whose layer is compute-bound at
    KV length 128 under DeepSpeed kernels.

    Below this batch the paper's bandwidth-centric kernels (Sec. III)
    set the latency; above it, GeMM throughput does. Returns ``1 << 16``
    if the layer never crosses within the search range.
    """
    model = KernelCostModel(gpu, DEEPSPEED_FP16)
    lo, hi = 1, 1 << 16
    def bound_at(b: int) -> str:
        shape = LayerShape(hidden=hidden, heads=heads, batch=b,
                           tokens_per_seq=1, kv_len=128)
        cost = model.layer_cost(shape)
        # The layer is compute-bound when its GeMM time is.
        gemm_regions = [r for r in cost.regions if "gemm" in r.name]
        mem = sum(r.memory_time for r in gemm_regions)
        cmp = sum(r.compute_time for r in gemm_regions)
        return "compute" if cmp > mem else "memory"

    if bound_at(1) == "compute":
        return 1
    if bound_at(hi) == "memory":
        return hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if bound_at(mid) == "compute":
            hi = mid
        else:
            lo = mid
    return hi
