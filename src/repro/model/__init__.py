"""Model zoo (Tables I & II) and functional GPT / MoE implementations."""

from .config import (
    BERT_ZOO,
    DENSE_ZOO,
    MOE_PARALLELISM,
    MOE_ZOO,
    ModelConfig,
    MoESpec,
    get_model,
    scaled_config,
)
from .config import MoEParallelism
from .checkpoint import load_checkpoint, save_checkpoint
from .dense import DenseTransformer, LayerWeights, init_layer_weights
from .encoder import EncoderTransformer
from .gating import (
    GatingResult,
    TopKGatingResult,
    build_expert_to_token_table,
    expert_capacity,
    top1_gating,
    topk_gating,
)
from .kvcache import HostOffloadKVCache, KVCache
from .moe import MoELayer
from .paged_kv import BlockAllocator, OutOfBlocks, PagedKVCache, blocks_needed
from .ragged import RaggedDecoder
from .sampling import SamplingConfig, sample_next_token

__all__ = [
    "BERT_ZOO",
    "DENSE_ZOO",
    "DenseTransformer",
    "EncoderTransformer",
    "HostOffloadKVCache",
    "GatingResult",
    "KVCache",
    "LayerWeights",
    "MOE_PARALLELISM",
    "MOE_ZOO",
    "MoELayer",
    "BlockAllocator",
    "OutOfBlocks",
    "PagedKVCache",
    "blocks_needed",
    "RaggedDecoder",
    "SamplingConfig",
    "sample_next_token",
    "MoEParallelism",
    "MoESpec",
    "ModelConfig",
    "TopKGatingResult",
    "build_expert_to_token_table",
    "expert_capacity",
    "get_model",
    "scaled_config",
    "init_layer_weights",
    "load_checkpoint",
    "save_checkpoint",
    "top1_gating",
    "topk_gating",
]
