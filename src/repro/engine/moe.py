"""Massive-scale sparse (MoE) inference latency model (Sec. V).

Per token step, a DeepSpeed-MoE deployment pays, layer by layer:

* the dense components (attention everywhere, dense FFN on non-MoE
  layers), tensor-sliced ``mp`` ways and *replicated* across the
  expert-parallel groups via data parallelism — which is why every GPU
  streams its dense shard each step and the aggregate-bandwidth numbers
  of Fig. 7/11 count all ``num_gpus``;
* the gating function — either the baseline's sparse one-hot pipeline
  (dozens of kernel launches plus ``S x E x M x c_e`` einsum work) or the
  paper's fused dense-table kernels (``S x M x c_e``), Sec. V-C;
* the routed expert FFN, possibly expert-sliced (Table II);
* two all-to-alls per MoE layer — naive ``O(p)`` for the baseline,
  PCC ``O(p/L) (+ O(L))`` for DeepSpeed (Sec. V-B);
* two tensor-parallel all-reduces per layer when ``mp > 1``.

:meth:`MoELatencyModel.token_step` sums these for one step. By default
it is the paper's uniform-gate model; its ``load_ratio`` and
``stall_time`` arguments price skewed gates (the straggler rank
stretches the expert FFN and the all-to-alls) and streamed-expert
prefetch misses, for :class:`~repro.engine.costs.MoEStepCost`'s
``skew=`` hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..comm.hierarchical import CommGroup, hierarchical_allreduce_time
from ..comm.pcc import pcc_alltoall
from ..comm.primitives import naive_alltoall_time
from ..hardware.specs import DType
from ..hardware.topology import ClusterSpec
from ..kernels.costmodel import KernelCostModel
from ..kernels.graph import LayerShape, moe_expert_ffn_ops
from ..kernels.profiles import DEEPSPEED_FP16, PYTORCH_FP16
from ..model.config import ModelConfig, MoEParallelism, expert_capacity

__all__ = ["MoEStepBreakdown", "MoELatencyModel"]

# Kernel-launch counts of the two gating implementations (Sec. V-C): the
# baseline's mask building / top-k / cumsum / sparse einsum chain issues
# dozens of small kernels; the fused dense-table path issues a handful.
_BASELINE_GATING_KERNELS = 48
_OPTIMIZED_GATING_KERNELS = 4
# Framework overhead per peer in the baseline's loop-of-sends all-to-all.
_BASELINE_A2A_PEER_OVERHEAD = 8.0e-6
# Floor execution time of one small kernel (grid launch ramp, final sync).
_MIN_KERNEL_EXEC = 1.5e-6


@dataclass(frozen=True)
class MoEStepBreakdown:
    """Per-token-step latency decomposition of an MoE deployment."""

    dense_time: float
    gating_time: float
    expert_time: float
    alltoall_time: float
    allreduce_time: float
    stall_time: float = 0.0  # streamed-expert prefetch-miss stalls

    @property
    def total(self) -> float:
        """End-to-end per-step latency."""
        return (
            self.dense_time
            + self.gating_time
            + self.expert_time
            + self.alltoall_time
            + self.allreduce_time
            + self.stall_time
        )

    @property
    def moe_kernel_time(self) -> float:
        """Gating + dispatch kernel time — the quantity the paper's MoE
        kernel optimizations cut by ~6x (Sec. V-C)."""
        return self.gating_time


class MoELatencyModel:
    """Latency of one MoE deployment, optimized (DeepSpeed) or baseline.

    ``optimized=False`` is the PyTorch-MoE baseline of Sec. VII-A1 that
    Figs. 7 and 11 compare against: sparse one-hot einsum gating, a
    loop-of-sends all-to-all over all expert-parallel ranks, no expert
    slicing and eager kernels. The functional counterpart of its gating
    path is :meth:`repro.model.moe.MoELayer.forward_sparse_einsum`.
    """

    def __init__(
        self,
        config: ModelConfig,
        cluster: ClusterSpec,
        parallelism: MoEParallelism,
        *,
        optimized: bool = True,
    ) -> None:
        if config.moe is None:
            raise ValueError(f"{config.name} is not an MoE model")
        if parallelism.num_gpus > cluster.num_gpus:
            raise ValueError(
                f"deployment needs {parallelism.num_gpus} GPUs, cluster has "
                f"{cluster.num_gpus}"
            )
        self.config = config
        self.cluster = cluster
        self.par = parallelism
        self.optimized = optimized
        # The baseline (Sec. VII-A1) is "a full-featured distributed
        # PyTorch implementation": eager kernels, no expert slicing.
        self.profile = DEEPSPEED_FP16 if optimized else PYTORCH_FP16
        self.expert_slicing = parallelism.expert_slicing if optimized else 1
        self.kernel_model = KernelCostModel(cluster.gpu, self.profile)
        self._mp_group = (
            CommGroup(cluster, list(range(parallelism.mp_degree)))
            if parallelism.mp_degree > 1
            else None
        )
        self._token_memo: dict[tuple[int, int, int],
                               tuple[float, float, float, float]] = {}

    # -- component times ----------------------------------------------------

    def _shape(self, batch: int, kv_len: int) -> LayerShape:
        return LayerShape(
            hidden=self.config.hidden,
            heads=self.config.heads,
            batch=batch,
            tokens_per_seq=1,
            kv_len=kv_len,
            dtype=DType.FP16,
            tp_degree=self.par.mp_degree,
            ffn_mult=self.config.ffn_mult,
        )

    def dense_layer_time(self, batch: int, kv_len: int, *, with_ffn: bool) -> float:
        """Kernel time of one layer's dense components on one GPU."""
        return self.kernel_model.layer_cost(
            self._shape(batch, kv_len), ffn=with_ffn).total_time

    def gating_time(self, batch: int) -> float:
        """Gating + dispatch/combine kernel time per MoE layer."""
        e = self.config.moe.num_experts
        m = self.config.hidden
        ce = expert_capacity(batch, e, self.config.moe.capacity_factor)
        d = DType.FP16.itemsize
        gpu = self.cluster.gpu
        launch = gpu.kernel_launch_overhead + self.profile.dispatch_overhead
        if self.optimized:
            # Dense-table path: S*M*c_e data movement, a handful of fused
            # kernels (launches removed by CUDA graph). Each kernel still
            # has a floor execution time (grid ramp-up / sync).
            bytes_moved = 2.0 * batch * m * ce * d
            kernels = _OPTIMIZED_GATING_KERNELS
            launch_cost = kernels * (0.3e-6 if self.profile.cuda_graph else launch)
            exec_time = max(bytes_moved / (gpu.mem_bw * 0.7),
                            kernels * _MIN_KERNEL_EXEC)
            return launch_cost + exec_time
        # Sparse one-hot path: every token touches every expert's mask.
        bytes_moved = 2.0 * batch * e * m * ce * d
        flops = 4.0 * batch * e * m * ce
        kernels = _BASELINE_GATING_KERNELS
        return (
            kernels * launch
            + bytes_moved / (gpu.mem_bw * 0.5)
            + flops / (gpu.peak_flops(DType.FP16) * 0.05)
        )

    def expert_time(self, expert_tokens: int) -> float:
        """Critical-path expert FFN time (experts run in parallel on their
        own GPUs) when the slowest expert processes ``expert_tokens``
        tokens — ``c_e`` under uniform gates, the straggler rank's
        actual share under skew."""
        if expert_tokens < 1:
            raise ValueError("expert_tokens must be >= 1")
        shape = LayerShape(
            hidden=self.config.hidden,
            heads=self.config.heads,
            batch=expert_tokens,
            tokens_per_seq=1,
            kv_len=1,
            dtype=DType.FP16,
            tp_degree=1,
            ffn_mult=self.config.ffn_mult,
        )
        ops = moe_expert_ffn_ops(shape, expert_slicing=self.expert_slicing)
        return self.kernel_model.chain_cost(
            ops, tokens=expert_tokens
        ).total_time

    def expert_fetch_time(self) -> float:
        """PCIe time to pull one streamed expert's (sliced) parameters
        into GPU memory — the unit a prefetch miss stalls for."""
        pcie = self.cluster.node.pcie
        nbytes = (
            self.config.params_per_expert
            * DType.FP16.itemsize
            / self.expert_slicing
        )
        return pcie.latency + nbytes / pcie.bandwidth

    def alltoall_time(self, batch: int) -> float:
        """Two all-to-alls per MoE layer (dispatch + combine)."""
        nbytes = batch * self.config.hidden * DType.FP16.itemsize
        p = self.par.ep_degree
        if self.optimized:
            fwd = pcc_alltoall(
                self.cluster, nbytes, p, self.par.mp_degree, direction="tp_to_ep"
            ).total
            back = pcc_alltoall(
                self.cluster, nbytes, p, self.par.mp_degree, direction="ep_to_tp"
            ).total
            return fwd + back
        link = (
            self.cluster.node.intra_link
            if p <= self.cluster.node.gpus_per_node
            else self.cluster.inter_link
        )
        one = naive_alltoall_time(
            link, nbytes, p, overhead_per_peer=_BASELINE_A2A_PEER_OVERHEAD
        ).total
        return 2.0 * one

    def allreduce_time(self, batch: int) -> float:
        """Two tensor-parallel all-reduces per layer."""
        if self._mp_group is None:
            return 0.0
        nbytes = batch * self.config.hidden * DType.FP16.itemsize
        return 2.0 * hierarchical_allreduce_time(self._mp_group, nbytes).total

    # -- end to end ---------------------------------------------------------

    def token_step(
        self,
        batch: int,
        kv_len: int = 228,
        *,
        load_ratio: float = 1.0,
        stall_time: float = 0.0,
    ) -> MoEStepBreakdown:
        """Latency breakdown of one step carrying ``batch`` tokens
        (default kv 128+100, the Sec. VII-A3 sparse workload).

        The defaults are the paper's uniform-gate model: the critical-path
        expert processes ``c_e`` tokens and nothing stalls. Skew-aware
        pricing passes ``load_ratio``, the straggler rank's token load
        over the mean (>= 1.0, e.g. from
        :meth:`repro.moe_placement.SkewedDispatchSpec.load_ratio`): the
        expert-FFN critical path and the all-to-all volume both stretch
        by it, because dispatch waits for the most-loaded rank.
        ``stall_time`` is the expected per-MoE-layer prefetch-miss stall.
        """
        terms = self._step_terms(batch, load_ratio, stall_time)
        n_moe = self.config.num_moe_layers
        dense = (
            (self.config.layers - n_moe)
            * self.dense_layer_time(batch, kv_len, with_ffn=True)
            + n_moe * self.dense_layer_time(batch, kv_len, with_ffn=False)
        )
        return MoEStepBreakdown(dense, *terms)

    def token_step_times(
        self,
        batch: int,
        kv_lens,
        *,
        load_ratio: float = 1.0,
        stall_time: float = 0.0,
    ) -> np.ndarray:
        """``token_step(batch, kv, load_ratio=, stall_time=).total`` at
        each KV length in ``kv_lens``, bit for bit: the dense layers come
        from one vectorized kernel evaluation per layer kind, and the
        terms add in :attr:`MoEStepBreakdown.total`'s order."""
        gating, experts, a2a, ar, stall = self._step_terms(
            batch, load_ratio, stall_time)
        n_moe = self.config.num_moe_layers
        shape = self._shape(batch, 1)
        times = self.kernel_model.layer_times
        dense = ((self.config.layers - n_moe) * times(shape, kv_lens)
                 + n_moe * times(shape, kv_lens, ffn=False))
        return dense + gating + experts + a2a + ar + stall

    def _step_terms(
        self, batch: int, load_ratio: float, stall_time: float
    ) -> tuple[float, float, float, float, float]:
        """A step's KV-independent totals: gating, expert FFN,
        all-to-all, all-reduce and stall seconds over all layers."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if not 1.0 <= load_ratio < math.inf:
            raise ValueError("load_ratio must be finite and >= 1.0")
        if not 0.0 <= stall_time < math.inf:
            raise ValueError("stall_time must be finite and >= 0")
        n_moe = self.config.num_moe_layers
        e = self.config.moe.num_experts
        ce = expert_capacity(batch, e, self.config.moe.capacity_factor)
        gating, experts, a2a, ar = self._token_terms(
            batch, math.ceil(ce * load_ratio), math.ceil(batch * load_ratio))
        return (n_moe * gating, n_moe * experts, n_moe * a2a,
                self.config.layers * ar, n_moe * stall_time)

    def _token_terms(
        self, batch: int, expert_tokens: int, a2a_tokens: int
    ) -> tuple[float, float, float, float]:
        """Per-layer gating, expert FFN, all-to-all and all-reduce
        seconds. They depend on token counts only (not on KV length), so
        each count is priced once."""
        key = (batch, expert_tokens, a2a_tokens)
        terms = self._token_memo.get(key)
        if terms is None:
            terms = self._token_memo[key] = (
                self.gating_time(batch),
                self.expert_time(expert_tokens),
                self.alltoall_time(a2a_tokens),
                self.allreduce_time(batch),
            )
        return terms

    def token_latency(self, batch: int, kv_len: int = 228) -> float:
        """Per generated-token latency (Fig. 7's y-axis)."""
        return self.token_step(batch, kv_len).total

    # -- bandwidth accounting (Fig. 11) --------------------------------------

    def bytes_read_per_gpu(self, batch: int) -> float:
        """Parameter bytes one GPU streams per token step.

        Every GPU reads its tensor-sliced dense shard (data parallelism
        replicates that work); expert GPUs additionally read the shard of
        each locally-activated expert.
        """
        d = DType.FP16.itemsize
        dense_shard = self.config.base_params * d / self.par.mp_degree
        e = self.config.moe.num_experts
        active = min(batch * self.config.moe.top_k, e)
        expert_bytes = (
            self.config.num_moe_layers
            * active
            * self.config.params_per_expert
            * d
            / self.expert_slicing
        )
        # Active experts spread over the expert-parallel ranks.
        per_gpu_expert = expert_bytes / self.par.ep_degree
        return dense_shard + per_gpu_expert

    def effective_bandwidth_per_gpu(self, batch: int) -> float:
        """Achieved bytes/s per GPU at KV length 228 — Fig. 11's metric."""
        return self.bytes_read_per_gpu(batch) / self.token_latency(batch, 228)

    def aggregate_bandwidth(self, batch: int) -> float:
        """Cluster-wide achieved memory bandwidth."""
        return self.effective_bandwidth_per_gpu(batch) * self.par.num_gpus
