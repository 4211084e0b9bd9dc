"""Megatron/PyTorch kernel baseline for the Fig. 10a ablation.

Fig. 10a compares, for GPT-2 across batch sizes: the Megatron (eager
PyTorch) kernel path, +Deep-Fusion, and +the custom (SBI) GeMM. This
module produces exactly those three configurations from one profile by
toggling mechanisms, so the attribution of each gap is explicit.
"""

from __future__ import annotations

from ..hardware.specs import GPUSpec
from ..kernels.costmodel import KernelCostModel, LayerCost
from ..kernels.fusion import FusionStrategy
from ..kernels.graph import LayerShape
from ..kernels.profiles import DEEPSPEED_FP16, MEGATRON_FP16
from ..model.config import ModelConfig

__all__ = ["kernel_ablation_configs", "layer_latency_sweep"]


def kernel_ablation_configs():
    """The three Fig. 10a configurations, least to most optimized."""
    baseline = MEGATRON_FP16
    fused = MEGATRON_FP16.with_(
        name="Megatron+DeepFusion",
        fusion=FusionStrategy.DEEP,
        dispatch_overhead=0.0,  # fused regions launch from the runtime
        nongemm_bw_eff=DEEPSPEED_FP16.nongemm_bw_eff,
        cuda_graph=True,
    )
    full = fused.with_(name="Megatron+DeepFusion+SBI-GeMM", sbi_gemm=True)
    return [baseline, fused, full]


def layer_latency_sweep(
    config: ModelConfig,
    gpu: GPUSpec,
    *,
    batches: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> dict[str, dict[int, float]]:
    """Per-token model latency (all layers) at KV length 128 for each
    ablation config and batch size — the data behind Fig. 10a."""
    out: dict[str, dict[int, float]] = {}
    for profile in kernel_ablation_configs():
        model = KernelCostModel(gpu, profile)
        rows: dict[int, float] = {}
        for b in batches:
            shape = LayerShape(
                hidden=config.hidden,
                heads=config.heads,
                batch=b,
                tokens_per_seq=1,
                kv_len=128,
                ffn_mult=config.ffn_mult,
            )
            cost: LayerCost = model.layer_cost(shape)
            rows[b] = cost.total_time * config.layers
        out[profile.name] = rows
    return out
