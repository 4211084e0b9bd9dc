"""GPU-only inference baseline (Fig. 9a/9b comparisons).

All weights pinned in GPU memory — the conventional deployment ZeRO-
Inference is measured against. Its two structural limits (Sec. VI-A):

* **model scale**: the model must fit the GPU outright (one A6000 caps
  near the 20B class in FP16 — the denominator of the paper's 25x);
* **batch size**: whatever memory the weights leave over must hold the
  KV cache and activations, so big models run at tiny batches and poor
  efficiency.
"""

from __future__ import annotations

from ..hardware.specs import DType
from ..hardware.topology import ClusterSpec
from ..kernels.costmodel import KernelCostModel
from ..kernels.graph import LayerShape
from ..kernels.profiles import DEEPSPEED_FP16
from ..model.config import ModelConfig

__all__ = ["GPUOnlyBaseline"]


class GPUOnlyBaseline:
    """Single-node FP16 inference with GPU-resident weights."""

    def __init__(self, config: ModelConfig, cluster: ClusterSpec) -> None:
        self.config = config
        self.cluster = cluster
        self.kernel_model = KernelCostModel(cluster.gpu, DEEPSPEED_FP16)

    @property
    def weight_bytes(self) -> float:
        """Resident model footprint."""
        return self.config.param_bytes(DType.FP16)

    def fits(self) -> bool:
        """Whether the weights alone fit one GPU."""
        return self.weight_bytes <= self.cluster.gpu.usable_bytes

    def max_batch(self, seq_len: int) -> int:
        """Largest batch after the weights claim their share."""
        if seq_len < 1:
            raise ValueError("seq_len must be >= 1")
        free = self.cluster.gpu.usable_bytes - self.weight_bytes
        if free <= 0:
            return 0
        per_sample = seq_len * (
            self.config.kv_bytes_per_token(DType.FP16)
            + 12 * self.config.hidden * DType.FP16.itemsize
        )
        return int(free / per_sample)

    def forward_pass_time(self, *, batch: int, tokens_per_seq: int,
                          kv_len: int | None = None) -> float:
        """One forward pass with resident weights."""
        if not self.fits():
            raise ValueError(
                f"{self.config.name} ({self.weight_bytes / 1e9:.0f} GB) does "
                f"not fit a {self.cluster.gpu.name}"
            )
        kv_len = tokens_per_seq if kv_len is None else kv_len
        shape = LayerShape(
            hidden=self.config.hidden,
            heads=self.config.heads,
            batch=batch,
            tokens_per_seq=tokens_per_seq,
            kv_len=kv_len,
            dtype=DType.FP16,
            ffn_mult=self.config.ffn_mult,
        )
        return self.kernel_model.layer_cost(shape).total_time * self.config.layers

    def generation_throughput(self, *, prompt_len: int,
                              gen_tokens: int) -> float:
        """Generated tokens/s at the maximum batch."""
        if gen_tokens < 1:
            raise ValueError("gen_tokens must be >= 1")
        seq = prompt_len + gen_tokens
        batch = self.max_batch(seq)
        if batch < 1:
            raise ValueError(
                f"{self.config.name} leaves no KV room at seq {seq} on a "
                f"{self.cluster.gpu.name}"
            )
        prompt = self.forward_pass_time(batch=batch, tokens_per_seq=prompt_len)
        step = self.forward_pass_time(batch=batch, tokens_per_seq=1, kv_len=seq)
        return batch * gen_tokens / (prompt + gen_tokens * step)

