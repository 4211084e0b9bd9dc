"""Activation (KV-cache) offloading to host memory (Sec. IV-C2/3).

Two concerns are modeled:

* **capacity**: :func:`max_batch_size` computes the largest batch a
  deployment sustains, with and without offloading cached activations to
  DRAM — the "memory optimization" bar of Fig. 10b, since larger batches
  buy throughput;
* **PCIe contention**: on DGX systems two GPUs share one PCIe link.
  :func:`simulate_offload` queues both GPUs' per-layer offloads on
  the shared link first in, first out, under either the naive schedule
  (both offload every layer, colliding) or the paper's odd/even
  schedule (each GPU offloads alternating layers, staggered so the link
  never sees two requests at once) — Sec. IV-C3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hardware.specs import DType
from ..hardware.topology import ClusterSpec
from ..model.config import ModelConfig, _as_index
from ..parallel.planner import memory_per_gpu

__all__ = [
    "OffloadReport",
    "kv_offload_overflow",
    "kv_offload_stall_per_step",
    "max_batch_size",
    "moe_max_batch_size",
    "simulate_offload",
]


def max_batch_size(
    config: ModelConfig,
    cluster: ClusterSpec,
    *,
    tp: int,
    pp: int,
    seq_len: int,
    offload_activations: bool = False,
) -> int:
    """Largest batch whose weights + resident KV fit per GPU.

    With offloading, cached activations of layers not currently executing
    live in DRAM; only a small working set (two layers' worth) must stay
    resident, so the GPU budget stops limiting the batch — DRAM capacity
    takes over as the binding constraint.
    """
    budget = cluster.gpu.usable_bytes
    weights, kv_per_seq_gpu = memory_per_gpu(
        config, tp, pp, batch=1, seq_len=seq_len)
    if weights >= budget:
        return 0
    if not offload_activations:
        return int((budget - weights) / kv_per_seq_gpu)
    # Offloaded: GPU holds ~2 layers of cache; DRAM holds the rest.
    layers_per_stage = max(1, config.layers // pp)
    resident = kv_per_seq_gpu * min(2, layers_per_stage) / layers_per_stage
    gpu_bound = int((budget - weights) / max(resident, 1e-9))
    kv_per_seq_node = (
        seq_len * config.kv_bytes_per_token(DType.FP16) / pp
    )  # a node holds one stage's TP group
    dram_bound = int(cluster.node.host.usable_dram_bytes / kv_per_seq_node)
    return max(0, min(gpu_bound, dram_bound))


def moe_max_batch_size(
    config: ModelConfig,
    cluster: ClusterSpec,
    parallelism,
    *,
    seq_len: int,
) -> int:
    """Largest batch an MoE deployment's per-GPU memory sustains.

    :func:`max_batch_size` divides the *total* parameter count by
    ``tp * pp``, which is wrong for MoE: the dense trunk is sharded
    ``mp_degree`` ways (and replicated across expert-parallel groups),
    while the expert parameters spread over ``ep_degree *
    expert_slicing`` ranks (Sec. V-A). KV cache lives with the dense
    trunk, so it shards ``mp_degree`` ways.
    """
    if config.moe is None:
        raise ValueError(f"{config.name} is not an MoE model")
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    budget = cluster.gpu.usable_bytes
    weights = (
        config.base_params / parallelism.mp_degree
        + config.expert_params
        / (parallelism.ep_degree * parallelism.expert_slicing)
    ) * DType.FP16.itemsize
    if weights >= budget:
        return 0
    kv_per_seq_gpu = (
        seq_len * config.kv_bytes_per_token(DType.FP16) / parallelism.mp_degree
    )
    return int((budget - weights) / kv_per_seq_gpu)


def kv_offload_overflow(
    config: ModelConfig,
    cluster: ClusterSpec,
    *,
    tp: int,
    pp: int,
    batch: int,
    seq_len: int,
) -> float:
    """Per-GPU KV bytes that exceed GPU capacity and live in DRAM."""
    weights, kv = memory_per_gpu(
        config, tp, pp, batch=batch, seq_len=seq_len)
    return max(0.0, kv - (cluster.gpu.usable_bytes - weights))


def kv_offload_stall_per_step(
    config: ModelConfig,
    cluster: ClusterSpec,
    *,
    tp: int,
    pp: int,
    batch: int,
    seq_len: int,
    step_time: float,
    scheme: str = "odd_even",
) -> float:
    """Extra seconds one token step pays to round-trip offloaded KV.

    Each generation step must read the offloaded portion of the cache
    back for attention and write updates out — ``2 x overflow`` bytes per
    GPU per step, spread across the stage's layers and contending on the
    shared PCIe link. The odd/even schedule (Sec. IV-C3) halves the
    pressure; this is the Fig. 10b "communication optimization" bar.
    """
    overflow = kv_offload_overflow(
        config, cluster, tp=tp, pp=pp, batch=batch, seq_len=seq_len
    )
    if overflow <= 0 or step_time <= 0:
        return 0.0
    layers_per_stage = max(1, config.layers // pp)
    rep = simulate_offload(
        cluster,
        num_layers=layers_per_stage,
        bytes_per_layer=2.0 * overflow / layers_per_stage,
        layer_compute_time=step_time / layers_per_stage,
        scheme=scheme,
    )
    return rep.stall_time


@dataclass(frozen=True)
class OffloadReport:
    """Result of timing one token step's offload traffic."""

    scheme: str
    makespan: float
    link_busy: float
    compute_time: float

    @property
    def stall_time(self) -> float:
        """Time the step ran longer than pure compute — PCIe stalls."""
        return max(0.0, self.makespan - self.compute_time)


def simulate_offload(
    cluster: ClusterSpec,
    *,
    num_layers: int,
    bytes_per_layer: float,
    layer_compute_time: float,
    scheme: str = "odd_even",
) -> OffloadReport:
    """Two GPUs sharing one PCIe link offload per-layer KV chunks while
    computing; return the step makespan under ``scheme``.

    ``naive``: both GPUs offload *every* layer's chunk — each transfer
    contends with its twin. ``odd_even``: GPU0 offloads even layers, GPU1
    odd layers (each GPU's other half remains resident until the next
    step, when roles swap), so transfers interleave without contention
    and each GPU sees the full link bandwidth when it needs it.
    """
    num_layers = _as_index("num_layers", num_layers)
    if scheme not in ("naive", "odd_even"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if (num_layers < 1 or not 0 <= bytes_per_layer < math.inf
            or not 0 < layer_compute_time < math.inf):
        raise ValueError("invalid workload parameters")
    pcie = cluster.node.pcie
    hold = pcie.transfer_time(bytes_per_layer)
    if not 0 <= hold < math.inf:
        raise ValueError(f"invalid PCIe transfer time {hold!r} for "
                         f"{pcie.name}")

    # Offloads are issued asynchronously as each layer's compute ends
    # (Sec. IV-C3 overlaps them with compute), GPU 0's before GPU 1's;
    # the step only stalls if the link cannot drain in time.
    now = link_free = link_busy = 0.0
    for layer in range(num_layers):
        now += layer_compute_time
        for gpu in (0, 1):
            if scheme == "naive" or layer % 2 == gpu:
                link_free = max(now, link_free) + hold
                link_busy += hold
    return OffloadReport(
        scheme=scheme,
        makespan=max(now, link_free),
        link_busy=link_busy,
        compute_time=num_layers * layer_compute_time,
    )
