"""GeMM efficiency models: cuBLAS/CUTLASS vs the paper's SBI-GeMM.

Sec. III-A observes that library GeMMs are tuned for large training
batches: at inference batch sizes they neither saturate memory bandwidth
(skinny problems leave SMs idle and waste cache lines) nor compute. SBI
(Small-Batch-Inference) GeMM (Sec. III-C) instead:

* tiles the *output* dimension so one kernel suffices (falling back to a
  two-kernel input-dimension split when the output dim is too small to
  occupy the SMs),
* replaces tree reductions in shared memory with a single transpose plus
  cooperative-group register reduction,
* transposes the weight layout at init so each thread reads a full
  128-byte cache line (M=2 elements for FP16, M=4 for INT8).

The functions below return *efficiency fractions* in (0, 1]: achieved
fraction of peak memory bandwidth for bandwidth-bound GeMMs, and of peak
math throughput for compute-bound ones. They are smooth, monotone
calibration curves — the constants are pinned by the paper's measured
speedups (see tests/test_calibration.py), not derived from hardware
counters we do not have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hardware.specs import DType, GPUSpec
from ..model.config import _as_index

__all__ = [
    "cublas_bw_efficiency",
    "cublas_compute_efficiency",
    "cutlass_int8_compute_efficiency",
    "sbi_bw_efficiency",
    "sbi_tile_plan",
    "SBITilePlan",
]


def cublas_bw_efficiency(tokens: int) -> float:
    """Fraction of peak HBM bandwidth a cuBLAS GeMM achieves on a skinny
    ``tokens x K @ K x N`` problem.

    Library kernels pick tile shapes for throughput; at tokens ~ 1-8 they
    read weights with poor cache-line utilization and too few CTAs
    (Sec. III-A "neither cuBLAS nor CUTLASS ... can achieve good
    memory-bandwidth utilization"). Efficiency climbs with tokens and
    saturates around 0.8.
    """
    if tokens < 1:
        raise ValueError("tokens must be >= 1")
    return 0.68 + 0.14 * (1.0 - math.exp(-(tokens - 1) / 16.0))


def cublas_compute_efficiency(tokens: int) -> float:
    """Fraction of peak math throughput for compute-bound cuBLAS GeMMs.

    Rises with the token count (more parallel rows amortize the weight
    reads across tensor-core work), saturating near 0.78 of peak for the
    prompt-processing regime of thousands of tokens.
    """
    if tokens < 1:
        raise ValueError("tokens must be >= 1")
    return 0.80 * tokens / (tokens + 96.0)


def cutlass_int8_compute_efficiency(tokens: int) -> float:
    """CUTLASS INT8 GeMM compute efficiency (Sec. III-D, tuned per batch)."""
    if tokens < 1:
        raise ValueError("tokens must be >= 1")
    return 0.72 * tokens / (tokens + 96.0)


@dataclass(frozen=True)
class SBITilePlan:
    """Resolved SBI-GeMM schedule for one skinny GeMM (Sec. III-C1)."""

    output_tiles: int
    split_input_dim: bool  # two-kernel fallback for small output dims
    elements_per_thread: int  # M of Sec. III-C3
    kernels: int

    @property
    def description(self) -> str:
        """One-line human-readable schedule summary."""
        mode = "2-kernel input-split" if self.split_input_dim else "1-kernel"
        return (
            f"{mode}, {self.output_tiles} output tiles, "
            f"M={self.elements_per_thread}/thread"
        )


def sbi_tile_plan(gpu: GPUSpec, out_features: int, dtype: DType) -> SBITilePlan:
    """Choose the SBI-GeMM tiling for ``out_features`` outputs.

    One thread block produces 64 outputs. When that yields too few tiles
    to occupy the SMs (small models), the input dimension is split across
    a second kernel with an inter-tile reduction (Sec. III-C1).
    """
    if _as_index("out_features", out_features) < 1:
        raise ValueError("out_features must be >= 1")
    tiles = max(1, out_features // 64)
    split = tiles < gpu.sm_count
    return SBITilePlan(
        output_tiles=tiles,
        split_input_dim=split,
        elements_per_thread=dtype.cacheline_pack,
        kernels=2 if split else 1,
    )


def sbi_bw_efficiency(gpu: GPUSpec, tokens: int, out_features: int, dtype: DType) -> float:
    """Fraction of peak HBM bandwidth achieved by SBI-GeMM.

    The full-cache-line weight layout (Sec. III-C3) keeps reads coalesced
    regardless of batch, so efficiency starts high (~0.87). Two penalties
    apply: the two-kernel input split (extra partial-result round trip)
    for small output dims, and a mild occupancy ramp when output tiles
    barely cover the SMs.
    """
    if _as_index("tokens", tokens) < 1:
        raise ValueError("tokens must be >= 1")
    plan = sbi_tile_plan(gpu, out_features, dtype)
    eff = 0.87
    if dtype is DType.INT8:
        # One-byte elements leave cache lines harder to fill even with the
        # M=4 packing; measured INT8 kernels land below their FP16 twins.
        eff *= 0.70
    if plan.split_input_dim:
        eff *= 0.93
    occupancy = min(1.0, plan.output_tiles * plan.kernels / gpu.sm_count)
    eff *= 0.75 + 0.25 * occupancy
    # Very large token counts leave the SBI regime; the caller should have
    # switched to cuBLAS, but degrade gracefully rather than extrapolate.
    if tokens > 64:
        eff *= 64.0 / tokens
    return eff
