"""Model configurations: the dense zoo of Table I and the sparse (MoE)
zoo of Table II.

The dense parameter count follows the standard GPT accounting
``12 * layers * hidden^2`` for transformer blocks plus embeddings; the
paper's Table I model sizes all match it to within rounding. For the MoE
zoo the architecture columns (layers, hidden, experts) do not decompose
exactly to the listed totals (the original models add gating/shared
parameters we cannot see), so each entry also records the paper's listed
total, and tests assert our architectural estimate is consistent with it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from ..hardware.specs import DType

__all__ = [
    "MoESpec",
    "ModelConfig",
    "MoEParallelism",
    "DENSE_ZOO",
    "MOE_ZOO",
    "MOE_PARALLELISM",
    "BERT_ZOO",
    "get_model",
    "scaled_config",
    "expert_capacity",
    "expert_partition",
]


@dataclass(frozen=True)
class MoESpec:
    """Mixture-of-Experts structure (Sec. II-b).

    ``every`` = one MoE layer per ``every`` transformer layers (DeepSpeed
    MoE models replace every other FFN). ``top_k`` experts process each
    token; ``capacity_factor`` bounds tokens per expert.
    """

    num_experts: int
    every: int = 2
    top_k: int = 1
    capacity_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.num_experts < 1 or self.every < 1 or self.top_k < 1:
            raise ValueError("num_experts, every and top_k must be >= 1")
        if self.top_k > self.num_experts:
            raise ValueError("top_k cannot exceed num_experts")
        if not 0 < self.capacity_factor < math.inf:
            raise ValueError("capacity_factor must be finite and positive")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of one GPT-style transformer (decoder unless noted)."""

    name: str
    hidden: int
    layers: int
    heads: int
    vocab: int = 51200
    max_seq: int = 2048
    ffn_mult: int = 4
    moe: MoESpec | None = None
    decoder: bool = True
    listed_params: float | None = None  # paper-reported size, when given
    pos_encoding: str = "learned"  # "learned" (GPT-2/3) or "rotary" (J/NeoX)

    def __post_init__(self) -> None:
        if self.hidden % self.heads:
            raise ValueError(f"{self.name}: hidden must divide into heads")
        if min(self.hidden, self.layers, self.heads, self.vocab) < 1:
            raise ValueError(f"{self.name}: dimensions must be positive")
        if self.pos_encoding not in ("learned", "rotary"):
            raise ValueError(f"{self.name}: unknown pos_encoding "
                             f"{self.pos_encoding!r}")
        if self.pos_encoding == "rotary" and (self.hidden // self.heads) % 2:
            raise ValueError(f"{self.name}: rotary needs an even head_dim")

    # -- parameter accounting ------------------------------------------------

    @property
    def head_dim(self) -> int:
        """Per-head feature width."""
        return self.hidden // self.heads

    @property
    def num_moe_layers(self) -> int:
        """How many layers carry an expert block."""
        return self.layers // self.moe.every if self.moe else 0

    @property
    def params_per_dense_layer(self) -> float:
        """Transformer-block parameters: attention 4h^2 + FFN 8h^2/4*mult."""
        attn = 4 * self.hidden**2
        ffn = 2 * self.ffn_mult * self.hidden**2
        return attn + ffn

    @property
    def params_per_expert(self) -> float:
        """One expert's FFN parameters."""
        return 2 * self.ffn_mult * self.hidden**2

    @property
    def embedding_params(self) -> float:
        """Token + position embeddings (LM head ties the token table)."""
        return (self.vocab + self.max_seq) * self.hidden

    @property
    def base_params(self) -> float:
        """Non-expert parameters (what data parallelism replicates,
        Sec. V-A)."""
        return self.layers * self.params_per_dense_layer + self.embedding_params

    @property
    def expert_params(self) -> float:
        """All expert parameters across all MoE layers."""
        if not self.moe:
            return 0.0
        return self.num_moe_layers * self.moe.num_experts * self.params_per_expert

    @property
    def total_params(self) -> float:
        """Architectural parameter estimate."""
        return self.base_params + self.expert_params

    def param_bytes(self, dtype: DType = DType.FP16) -> float:
        """Model footprint at rest in ``dtype``."""
        return self.total_params * dtype.itemsize

    def layer_weight_bytes(self, dtype: DType = DType.FP16) -> float:
        """Weights of one dense transformer layer (ZeRO-Inference streams
        the model at this granularity, Sec. VI-A)."""
        return self.params_per_dense_layer * dtype.itemsize

    def kv_bytes_per_token(self, dtype: DType = DType.FP16) -> float:
        """KV-cache bytes one token adds across all layers (Sec. IV-B)."""
        return 2 * self.layers * self.hidden * dtype.itemsize

    def flops_per_token(self, kv_len: int = 1) -> float:
        """Forward flops for one token (dense path + attention over
        ``kv_len`` cached positions)."""
        gemm = 2 * self.layers * self.params_per_dense_layer
        attn = 4 * self.layers * kv_len * self.hidden
        return gemm + attn


def _d(name, hidden, layers, heads, **kw) -> ModelConfig:
    return ModelConfig(name=name, hidden=hidden, layers=layers, heads=heads, **kw)


# --------------------------------------------------------------------------
# Table I: dense models.
# --------------------------------------------------------------------------

DENSE_ZOO = {
    cfg.name: cfg
    for cfg in (
        _d("gpt2-1.5b", 1600, 48, 25, listed_params=1.5e9),
        _d("gpt-neo-2.7b", 2560, 32, 20, listed_params=2.7e9),
        _d("gpt-j-6b", 4096, 28, 32, listed_params=6e9,
           pos_encoding="rotary"),
        _d("gpt-13b", 5120, 40, 40, listed_params=13e9),
        _d("gpt-neox-20b", 6144, 44, 64, listed_params=20e9,
           pos_encoding="rotary"),
        _d("gpt-50b", 8192, 62, 64, listed_params=50e9),
        _d("gpt-87b", 12288, 48, 96, listed_params=87e9),
        _d("lm-175b", 12288, 96, 96, listed_params=175e9),
        _d("lm-530b", 20480, 105, 128, listed_params=530e9),
    )
}

# --------------------------------------------------------------------------
# Table II: sparse (MoE) models, with their evaluation parallelism.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MoEParallelism:
    """Table II deployment: MP (tensor), EP (expert), expert-slicing."""

    mp_degree: int
    ep_degree: int
    expert_slicing: int
    num_gpus: int


MOE_ZOO = {
    cfg.name: cfg
    for cfg in (
        _d("1.3b-moe-128", 2048, 24, 16, moe=MoESpec(128), listed_params=52e9),
        _d("2.4b-moe-128", 3584, 16, 28, moe=MoESpec(128), listed_params=107.7e9),
        _d("8b-moe-128", 4096, 30, 32, moe=MoESpec(128), listed_params=349.0e9),
        _d("24b-moe-128", 8192, 40, 64, moe=MoESpec(128), listed_params=1064.9e9),
        _d("47b-moe-128", 8192, 58, 64, moe=MoESpec(128), listed_params=2024.0e9),
    )
}

MOE_PARALLELISM = {
    "1.3b-moe-128": MoEParallelism(1, 128, 1, 128),
    "2.4b-moe-128": MoEParallelism(1, 128, 1, 128),
    "8b-moe-128": MoEParallelism(4, 128, 1, 128),
    "24b-moe-128": MoEParallelism(8, 128, 2, 256),
    "47b-moe-128": MoEParallelism(8, 128, 2, 256),
}

# --------------------------------------------------------------------------
# Encoder models for the E.T. comparison (Fig. 12).
# --------------------------------------------------------------------------

BERT_ZOO = {
    cfg.name: cfg
    for cfg in (
        _d("distilbert", 768, 6, 12, vocab=30522, max_seq=512, decoder=False,
           listed_params=66e6),
        _d("bert-base", 768, 12, 12, vocab=30522, max_seq=512, decoder=False,
           listed_params=110e6),
        _d("bert-large", 1024, 24, 16, vocab=30522, max_seq=512, decoder=False,
           listed_params=340e6),
    )
}


def scaled_config(target_params: float) -> ModelConfig:
    """Synthesize a GPT-family architecture for a parameter budget.

    Follows the empirical shape of Table I: depth and width grow together
    with ``hidden ~ 128 * layers`` (GPT-3 style aspect ratios), hidden
    rounded to a multiple of the 128-wide head. Useful for exploring "what
    would an X-billion model cost on this cluster" beyond the zoo.
    """
    if target_params <= 0:
        raise ValueError("target_params must be positive")
    aspect, head_dim = 128.0, 128
    # params ~ 12 * L * h^2 with h = aspect * L  =>  L = (P / (12 a^2))^(1/3)
    layers = max(1, round((target_params / (12.0 * aspect**2)) ** (1.0 / 3.0)))
    # Round the head count to a multiple of 4 so tensor parallelism has
    # room (Table I's models all satisfy this except GPT-2's 25 heads).
    heads = max(4, int(round(aspect * layers / head_dim / 4.0)) * 4)
    return ModelConfig(
        name=f"gpt-{target_params / 1e9:.3g}b-synth",
        hidden=heads * head_dim,
        layers=layers,
        heads=heads,
        vocab=51200,
        listed_params=target_params,
    )


def get_model(name: str) -> ModelConfig:
    """Look up a model in any zoo by name."""
    for zoo in (DENSE_ZOO, MOE_ZOO, BERT_ZOO):
        if name in zoo:
            return zoo[name]
    known = sorted(list(DENSE_ZOO) + list(MOE_ZOO) + list(BERT_ZOO))
    raise KeyError(f"unknown model {name!r}; known: {', '.join(known)}")


def _as_index(name: str, value) -> int:
    """``value`` as an int; a float (NaN included) is a TypeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def expert_capacity(num_tokens: int, num_experts: int, capacity_factor: float) -> int:
    """Slots per expert: ``ceil(factor * S / E)``, at least 1."""
    if _as_index("num_tokens", num_tokens) < 1 or _as_index(
            "num_experts", num_experts) < 1:
        raise ValueError("num_tokens and num_experts must be >= 1")
    if not 0 < capacity_factor < math.inf:
        raise ValueError("capacity_factor must be finite and positive")
    return max(1, math.ceil(capacity_factor * num_tokens / num_experts))


def expert_partition(num_experts: int, ep_degree: int) -> list[range]:
    """Contiguous expert ranges owned by each of ``ep_degree`` ranks.

    Uneven splits are allowed: the first ``num_experts % ep_degree``
    ranks own one extra expert, so rank sizes differ by at most one.
    """
    num_experts = _as_index("num_experts", num_experts)
    ep_degree = _as_index("ep_degree", ep_degree)
    if ep_degree < 1:
        raise ValueError("ep_degree must be >= 1")
    if ep_degree > num_experts:
        raise ValueError(
            f"cannot spread {num_experts} experts over {ep_degree} ranks"
        )
    base, rem = divmod(num_experts, ep_degree)
    parts: list[range] = []
    start = 0
    for r in range(ep_degree):
        size = base + (1 if r < rem else 0)
        parts.append(range(start, start + size))
        start += size
    return parts
