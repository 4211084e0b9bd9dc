"""Inference-optimized transformer kernels (Sec. III): op graphs,
Deep-Fusion partitioning, SBI-GeMM models, the roofline cost model,
functional NumPy kernels and INT8 quantization."""

from .analysis import RegionAnalysis, analyze_layer, crossover_batch, machine_balance
from .costmodel import KernelCostModel, LayerCost, RegionTime
from .cuda_graph import CapturedGraph, GraphMismatch, GraphRunner
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
from .quant import (
    QuantizedTensor,
    dequantize,
    int8_linear,
    quantization_error_bound,
    quantize_symmetric,
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
    "CapturedGraph",
    "RegionAnalysis",
    "analyze_layer",
    "crossover_batch",
    "machine_balance",
    "GraphMismatch",
    "GraphRunner",
    "KernelCostModel",
    "LayerCost",
    "LayerShape",
    "MEGATRON_FP16",
    "Op",
    "OpKind",
    "PROFILE_REGISTRY",
    "PYTORCH_FP16",
    "QuantizedTensor",
    "RegionTime",
    "SBITilePlan",
    "SEQUENCE",
    "TOKEN",
    "cublas_bw_efficiency",
    "cublas_compute_efficiency",
    "cutlass_int8_compute_efficiency",
    "dequantize",
    "int8_linear",
    "moe_expert_ffn_ops",
    "partition",
    "quantization_error_bound",
    "quantize_symmetric",
    "sbi_bw_efficiency",
    "sbi_tile_plan",
    "transformer_layer_ops",
]
