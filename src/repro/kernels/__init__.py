"""Inference-optimized transformer kernels (Sec. III): op graphs,
Deep-Fusion partitioning, SBI-GeMM models and the roofline cost model.
The functional NumPy kernels, INT8 quantization and CUDA-graph capture
live in :mod:`.functional`, :mod:`.quant` and :mod:`.cuda_graph`."""

from .analysis import RegionAnalysis, analyze_layer, crossover_batch, machine_balance
from .costmodel import KernelCostModel, LayerCost, RegionTime
from .fusion import FusedRegion, FusionStrategy, partition
from .gemm import (
    SBITilePlan,
    cublas_bw_efficiency,
    cublas_compute_efficiency,
    cutlass_int8_compute_efficiency,
    sbi_bw_efficiency,
    sbi_tile_plan,
)
from .graph import LayerShape, moe_expert_ffn_ops, transformer_layer_ops
from .ops import HEAD, HIDDEN, Op, OpKind, SEQUENCE, TOKEN
from .profiles import (
    DEEPSPEED_FP16,
    DEEPSPEED_INT8,
    ET_FP16,
    FASTER_TRANSFORMER_FP16,
    MEGATRON_FP16,
    PROFILE_REGISTRY,
    PYTORCH_FP16,
    ImplementationProfile,
)

__all__ = [
    "DEEPSPEED_FP16",
    "DEEPSPEED_INT8",
    "ET_FP16",
    "FASTER_TRANSFORMER_FP16",
    "FusedRegion",
    "FusionStrategy",
    "HEAD",
    "HIDDEN",
    "ImplementationProfile",
    "RegionAnalysis",
    "analyze_layer",
    "crossover_batch",
    "machine_balance",
    "KernelCostModel",
    "LayerCost",
    "LayerShape",
    "MEGATRON_FP16",
    "Op",
    "OpKind",
    "PROFILE_REGISTRY",
    "PYTORCH_FP16",
    "RegionTime",
    "SBITilePlan",
    "SEQUENCE",
    "TOKEN",
    "cublas_bw_efficiency",
    "cublas_compute_efficiency",
    "cutlass_int8_compute_efficiency",
    "moe_expert_ffn_ops",
    "partition",
    "sbi_bw_efficiency",
    "sbi_tile_plan",
    "transformer_layer_ops",
]
