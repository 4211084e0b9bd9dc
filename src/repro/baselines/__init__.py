"""Every comparator of Sec. VII, as code: FasterTransformer, Megatron
kernels, E.T., CPU-only and GPU-only. The distributed PyTorch MoE is
:class:`repro.engine.moe.MoELatencyModel` with ``optimized=False``."""

from .cpu_only import CPUOnlyBaseline
from .et_kernels import encoder_latency, et_comparison
from .faster_transformer import FasterTransformerBaseline
from .gpu_only import GPUOnlyBaseline
from .megatron_kernels import kernel_ablation_configs, layer_latency_sweep

__all__ = [
    "CPUOnlyBaseline",
    "FasterTransformerBaseline",
    "GPUOnlyBaseline",
    "encoder_latency",
    "et_comparison",
    "kernel_ablation_configs",
    "layer_latency_sweep",
]
