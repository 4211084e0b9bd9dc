"""Implementation profiles: the knobs that separate DeepSpeed Inference
from its comparators.

Every performance gap the paper reports is attributed to a small set of
mechanisms (Sec. III, VII-E): fusion aggressiveness, GeMM implementation
at small batch, CUDA-graph launch elimination, INT8 datapath, and — for
the baselines — framework dispatch overhead. A profile bundles one
setting of each so that baselines are *the same cost model with different
mechanisms switched off*, which keeps comparisons honest and makes
ablations (Fig. 10a) a matter of toggling one field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..hardware.specs import DType
from .fusion import FusionStrategy

__all__ = [
    "ImplementationProfile",
    "PYTORCH_FP16",
    "MEGATRON_FP16",
    "FASTER_TRANSFORMER_FP16",
    "ET_FP16",
    "DEEPSPEED_FP16",
    "DEEPSPEED_INT8",
    "PROFILE_REGISTRY",
]


@dataclass(frozen=True)
class ImplementationProfile:
    """Mechanism settings of one inference implementation.

    Attributes
    ----------
    fusion:
        Operator-fusion strategy (how the layer's op chain partitions
        into kernels).
    sbi_gemm:
        Use the paper's SBI-GeMM for skinny weight GeMMs instead of
        cuBLAS (Sec. III-C).
    cuda_graph:
        Replay the per-token kernel sequence as a CUDA graph, removing
        CPU launch overhead (Sec. III-D).
    weight_dtype / compute_dtype:
        INT8 halves weight traffic and doubles tensor-core peak
        (DeepSpeed-INT8); activations stay FP16.
    dispatch_overhead:
        Per-kernel CPU-side framework overhead *in addition to* the
        driver launch cost — eager PyTorch pays this, compiled runtimes
        do not.
    nongemm_bw_eff:
        Achieved fraction of peak bandwidth for non-GeMM kernels.
    small_batch_tokens:
        Token threshold below which the small-batch path (SBI-GeMM +
        GeMM fusion) is selected (Sec. III-D distinguishes the two
        kernels).
    """

    name: str
    fusion: FusionStrategy
    sbi_gemm: bool
    cuda_graph: bool
    weight_dtype: DType = DType.FP16
    compute_dtype: DType = DType.FP16
    dispatch_overhead: float = 0.0
    nongemm_bw_eff: float = 0.72
    small_batch_tokens: int = 16
    # Fraction of dense weight traffic actually read (E.T.'s pruning
    # shrinks its GeMM weight streams; 1.0 = dense).
    weight_traffic_scale: float = 1.0

    def with_(self, **kw) -> "ImplementationProfile":
        """Derived profile with selected mechanisms toggled (ablations)."""
        return replace(self, **kw)


PYTORCH_FP16 = ImplementationProfile(
    name="PyTorch-FP16",
    fusion=FusionStrategy.NONE,
    sbi_gemm=False,
    cuda_graph=False,
    dispatch_overhead=4.0e-6,  # eager-mode python/dispatcher cost per op
    nongemm_bw_eff=0.62,
)

# The Fig. 10a baseline: Megatron's inference path — eager PyTorch with a
# handful of hand-fused elementwise ops; modeled as unfused kernels at
# slightly better non-GeMM efficiency than stock eager.
MEGATRON_FP16 = PYTORCH_FP16.with_(name="Megatron-FP16", nongemm_bw_eff=0.66)

FASTER_TRANSFORMER_FP16 = ImplementationProfile(
    name="FasterTransformer-FP16",
    fusion=FusionStrategy.ELEMENTWISE,
    sbi_gemm=False,
    cuda_graph=False,
    dispatch_overhead=0.5e-6,  # compiled C++ runtime, negligible dispatch
    nongemm_bw_eff=0.70,
)

ET_FP16 = ImplementationProfile(
    name="E.T.-FP16",
    fusion=FusionStrategy.ATTENTION,
    sbi_gemm=False,
    cuda_graph=False,
    dispatch_overhead=0.5e-6,
    nongemm_bw_eff=0.72,
    weight_traffic_scale=0.70,  # E.T. prunes its GeMM weights
)

DEEPSPEED_FP16 = ImplementationProfile(
    name="DeepSpeed-FP16",
    fusion=FusionStrategy.DEEP,
    sbi_gemm=True,
    cuda_graph=True,
    dispatch_overhead=0.0,
    nongemm_bw_eff=0.80,
)

DEEPSPEED_INT8 = DEEPSPEED_FP16.with_(
    name="DeepSpeed-INT8",
    weight_dtype=DType.INT8,
)

PROFILE_REGISTRY = {
    p.name: p
    for p in (
        PYTORCH_FP16,
        MEGATRON_FP16,
        FASTER_TRANSFORMER_FP16,
        ET_FP16,
        DEEPSPEED_FP16,
        DEEPSPEED_INT8,
    )
}
