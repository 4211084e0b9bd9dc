"""E.T. comparison (Fig. 12): encoder kernels on DistilBERT/BERT.

E.T. (Chen et al., SC'21) fuses self-attention and uses custom GeMMs with
pruning, but fuses fewer operators than Deep-Fusion and targets encoders
only (no KV cache, Sec. II-d). The paper measures batch 1, sequence 128
on an A100: DeepSpeed is 1.7x faster on DistilBERT and 1.4x on BERT —
the smaller the model, the more launch overhead and unfused traffic
matter.
"""

from __future__ import annotations

from ..hardware.specs import A100_40GB
from ..kernels.costmodel import KernelCostModel
from ..kernels.graph import LayerShape
from ..kernels.profiles import DEEPSPEED_FP16, ET_FP16
from ..model.config import BERT_ZOO, ModelConfig

__all__ = ["encoder_latency", "et_comparison"]


def encoder_latency(
    config: ModelConfig, *, profile=DEEPSPEED_FP16
) -> float:
    """Full-model encoder latency on an A100 at Fig. 12's batch 1,
    sequence 128 (no KV cache: every token recomputed).

    An encoder layer is the same op chain as a decoder layer with
    ``kv_len == seq_len`` and no causal cache reuse.
    """
    if config.decoder:
        raise ValueError(f"{config.name} is a decoder; Fig. 12 uses encoders")
    model = KernelCostModel(A100_40GB, profile)
    shape = LayerShape(
        hidden=config.hidden,
        heads=config.heads,
        batch=1,
        tokens_per_seq=128,
        kv_len=128,
        ffn_mult=config.ffn_mult,
    )
    return model.layer_cost(shape).total_time * config.layers


def et_comparison() -> dict[str, dict[str, float]]:
    """Fig. 12's rows: per-model latency under E.T. and DeepSpeed kernels."""
    out: dict[str, dict[str, float]] = {}
    for name in ("distilbert", "bert-large"):
        cfg = BERT_ZOO[name]
        et = encoder_latency(cfg, profile=ET_FP16)
        ds = encoder_latency(cfg, profile=DEEPSPEED_FP16)
        out[name] = {"et": et, "deepspeed": ds, "speedup": et / ds}
    return out
