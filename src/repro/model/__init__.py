"""Model zoo (Tables I & II) and MoE sizing. The functional GPT / MoE
implementations live in the package's other modules (:mod:`.dense`,
:mod:`.moe`, :mod:`.gating`, ...)."""

from .config import (
    BERT_ZOO,
    DENSE_ZOO,
    MOE_PARALLELISM,
    MOE_ZOO,
    ModelConfig,
    MoEParallelism,
    MoESpec,
    expert_capacity,
    expert_partition,
    get_model,
    scaled_config,
)

__all__ = [
    "BERT_ZOO",
    "DENSE_ZOO",
    "MOE_PARALLELISM",
    "MOE_ZOO",
    "ModelConfig",
    "MoEParallelism",
    "MoESpec",
    "expert_capacity",
    "expert_partition",
    "get_model",
    "scaled_config",
]
