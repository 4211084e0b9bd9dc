"""ZeRO-Inference engine: heterogeneous-memory inference (Sec. VI).

The design decision the paper motivates (Sec. VI-A): do *not* pin
weights in GPU memory — pin them in DRAM or NVMe and stream one or a few
layers at a time, spending the freed GPU memory on batch size. Large
batches push layer compute past layer fetch, so the PCIe stream hides
behind the math and per-GPU efficiency approaches compute-bound levels
(the paper reports 84 TFLOPS, 54% of an A6000's peak).

This engine does the memory arithmetic (max batch with weights resident
vs streamed), builds per-layer fetch and compute times, runs them through
the prefetch pipeline simulator, and reports throughput in both
tokens/s and TFLOPS — the three panels of Fig. 9 and the prefetch
ablation of Fig. 10c all read from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.specs import DType
from ..hardware.topology import ClusterSpec
from ..kernels.costmodel import KernelCostModel
from ..kernels.graph import LayerShape
from ..kernels.profiles import DEEPSPEED_FP16
from ..model.config import ModelConfig
from .streaming import StreamReport, simulate_layer_stream
from .tiers import Tier, placement_for

__all__ = ["ZeroPassReport", "ZeroInferenceEngine"]

# Calibrated pipeline inefficiency: buffer rotation synchronization,
# imperfect fetch/compute overlap at phase edges, and framework work that
# the idealized stream does not capture. Pinned so that compute-bound
# ZeRO-Inference lands at the paper's ~54% of peak (Fig. 9b/9c).
_PIPELINE_OVERHEAD = 1.45


@dataclass(frozen=True)
class ZeroPassReport:
    """One streamed forward pass at a given batch/sequence shape."""

    batch: int
    tokens: int
    stream: StreamReport
    flops: float
    num_gpus: int

    @property
    def time(self) -> float:
        """Wall time of the pass."""
        return self.stream.makespan

    @property
    def tflops_per_gpu(self) -> float:
        """Achieved compute throughput per GPU — Fig. 9b's metric."""
        if self.time <= 0:
            return 0.0
        return self.flops / self.time / self.num_gpus / 1e12


class ZeroInferenceEngine:
    """Plan and evaluate FP16 ZeRO-Inference for one model on one
    machine."""

    def __init__(
        self,
        config: ModelConfig,
        cluster: ClusterSpec,
        *,
        num_gpus: int = 1,
        prefetch_depth: int = 1,
    ) -> None:
        if num_gpus < 1 or num_gpus > cluster.num_gpus:
            raise ValueError(
                f"num_gpus must be in [1, {cluster.num_gpus}] for this cluster"
            )
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.config = config
        self.cluster = cluster
        self.num_gpus = num_gpus
        self.prefetch_depth = prefetch_depth
        self.kernel_model = KernelCostModel(cluster.gpu, DEEPSPEED_FP16)
        self.placement: Tier = placement_for(config.param_bytes(DType.FP16),
                                             cluster)

    # -- memory arithmetic ---------------------------------------------------

    @property
    def layer_bytes(self) -> float:
        """One transformer layer's weights — the streaming unit."""
        return self.config.layer_weight_bytes(DType.FP16)

    def _buffer_bytes(self) -> float:
        """GPU memory held by weight buffers (prefetch_depth + 1 slots)."""
        return (self.prefetch_depth + 1) * self.layer_bytes

    def per_sample_bytes(self, seq_len: int) -> float:
        """GPU bytes one sequence costs: its KV cache plus working
        activations (hidden + QKV + FFN intermediates per live layer)."""
        kv = seq_len * self.config.kv_bytes_per_token(DType.FP16)
        work = seq_len * 12 * self.config.hidden * DType.FP16.itemsize
        return kv + work

    def max_batch(self, seq_len: int) -> int:
        """Largest batch the freed GPU memory sustains (Sec. VI-A: GPU
        memory buys batch, not pinned weights)."""
        if seq_len < 1:
            raise ValueError("seq_len must be >= 1")
        budget = (
            self.cluster.gpu.usable_bytes * self.num_gpus
            - self._buffer_bytes() * self.num_gpus
        )
        if budget <= 0:
            return 0
        return int(budget / self.per_sample_bytes(seq_len))

    # -- per-layer times -----------------------------------------------------

    def fetch_time_per_layer(self) -> float:
        """Time to stream one layer to the GPUs (partitioned fetch +
        intra-node all-gather when num_gpus > 1, Sec. VI-B)."""
        node = self.cluster.node
        nbytes = self.layer_bytes
        share = nbytes / self.num_gpus
        if self.placement is Tier.DRAM:
            t = node.pcie.latency + share / node.pcie.bandwidth
        else:
            nvme = node.nvme
            if nvme is None:
                raise RuntimeError("NVMe placement on a machine without NVMe")
            bw = min(nvme.read_bw / self.num_gpus, node.pcie.bandwidth)
            t = nvme.latency + share / bw
        if self.num_gpus > 1:
            intra = node.intra_link
            t += intra.latency + nbytes * (self.num_gpus - 1) / (
                self.num_gpus * intra.bandwidth
            )
        return t

    def compute_time_per_layer(self, batch: int, tokens_per_seq: int, kv_len: int) -> float:
        """One layer's kernel time for the given shape, with the pipeline
        overhead folded in."""
        shape = LayerShape(
            hidden=self.config.hidden,
            heads=self.config.heads,
            batch=batch,
            tokens_per_seq=tokens_per_seq,
            kv_len=kv_len,
            dtype=DType.FP16,
            ffn_mult=self.config.ffn_mult,
        )
        base = self.kernel_model.layer_cost(shape).total_time
        return base * _PIPELINE_OVERHEAD / self.num_gpus

    # -- passes ---------------------------------------------------------------

    def forward_pass(
        self, *, batch: int, tokens_per_seq: int, kv_len: int | None = None
    ) -> ZeroPassReport:
        """Stream one forward pass through all layers."""
        if batch < 1 or tokens_per_seq < 1:
            raise ValueError("batch and tokens_per_seq must be >= 1")
        kv_len = tokens_per_seq if kv_len is None else kv_len
        stream = simulate_layer_stream(
            num_layers=self.config.layers,
            fetch_time_per_layer=self.fetch_time_per_layer(),
            compute_time_per_layer=self.compute_time_per_layer(
                batch, tokens_per_seq, kv_len
            ),
            prefetch_depth=self.prefetch_depth,
        )
        tokens = batch * tokens_per_seq
        flops = batch * tokens_per_seq * self.config.flops_per_token(kv_len=kv_len)
        return ZeroPassReport(
            batch=batch,
            tokens=tokens,
            stream=stream,
            flops=flops,
            num_gpus=self.num_gpus,
        )

    def max_batch_pass(self, *, seq_len: int = 2048) -> ZeroPassReport:
        """The Fig. 9b measurement: one token-producing pass at the
        largest feasible batch."""
        batch = self.max_batch(seq_len)
        if batch < 1:
            raise ValueError(
                f"{self.config.name} leaves no room for even batch 1 at "
                f"seq {seq_len}"
            )
        return self.forward_pass(batch=batch, tokens_per_seq=seq_len)

    def generation_throughput(
        self, *, prompt_len: int, gen_tokens: int, batch: int | None = None
    ) -> float:
        """Generated tokens/s for a prompt+generation workload."""
        if gen_tokens < 1:
            raise ValueError("gen_tokens must be >= 1")
        seq = prompt_len + gen_tokens
        if batch is None:
            batch = self.max_batch(seq)
        if batch < 1:
            raise ValueError("no feasible batch for this workload")
        prompt = self.forward_pass(
            batch=batch, tokens_per_seq=prompt_len, kv_len=prompt_len
        )
        step = self.forward_pass(batch=batch, tokens_per_seq=1, kv_len=seq)
        total = prompt.time + gen_tokens * step.time
        return batch * gen_tokens / total
