"""Cluster topology: nodes, GPUs, and the links between them.

The parallelism planner (Sec. IV, V) needs to distinguish three classes of
paths, because the paper's strategies are explicitly topology-aware:

* **intra-node GPU-GPU** over NVLink/NVSwitch — where tensor parallelism is
  confined (Sec. IV-A),
* **inter-node GPU-GPU** over InfiniBand — where pipeline and expert
  parallelism operate (Sec. IV-B, V-A),
* **GPU-host** over PCIe — where activation offload (Sec. IV-C2/3) and
  ZeRO-Inference weight streaming (Sec. VI) run; PCIe links are shared
  between pairs of GPUs on DGX-class systems, which motivates the
  odd/even offload schedule of Sec. IV-C3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import (
    A100_40GB,
    A6000,
    GPUSpec,
    INFINIBAND_HDR,
    LinkSpec,
    NVLINK2,
    NVLINK3,
    NVME_RAID,
    NVME_SINGLE,
    NVMeSpec,
    CPUSpec,
    PCIE3_X16,
    PCIE4_X16,
    V100_32GB,
    XEON_8280,
    GB,
)

__all__ = [
    "DeviceId",
    "NodeSpec",
    "ClusterSpec",
    "dgx_a100_cluster",
    "lambda_a6000_workstation",
    "dgx2_v100",
]


@dataclass(frozen=True, order=True)
class DeviceId:
    """Global identity of one GPU: (node index, local GPU index)."""

    node: int
    local: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"gpu[{self.node}.{self.local}]"


@dataclass(frozen=True)
class NodeSpec:
    """One server: a set of identical GPUs plus host memory and storage.

    ``pcie_group_size`` captures how many GPUs share one PCIe link to the
    host (2 on DGX systems), which the activation-offload scheduler must
    respect to avoid contention (Sec. IV-C3).
    """

    gpu: GPUSpec
    gpus_per_node: int
    intra_link: LinkSpec
    pcie: LinkSpec
    host: CPUSpec
    nvme: NVMeSpec | None = None
    pcie_group_size: int = 2

    @property
    def aggregate_gpu_memory(self) -> float:
        """Total GPU memory on this node, bytes."""
        return self.gpu.memory_bytes * self.gpus_per_node

    def pcie_group(self, local_rank: int) -> int:
        """Index of the PCIe link shared by GPU ``local_rank``."""
        return local_rank // self.pcie_group_size


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of ``num_nodes`` identical nodes."""

    name: str
    node: NodeSpec
    num_nodes: int
    inter_link: LinkSpec = INFINIBAND_HDR

    @property
    def num_gpus(self) -> int:
        """Total GPUs in the cluster."""
        return self.num_nodes * self.node.gpus_per_node

    @property
    def gpu(self) -> GPUSpec:
        """Shortcut to the (homogeneous) GPU spec."""
        return self.node.gpu

    @property
    def aggregate_gpu_memory(self) -> float:
        """Total GPU memory across the cluster, bytes."""
        return self.num_nodes * self.node.aggregate_gpu_memory

    @property
    def aggregate_mem_bw(self) -> float:
        """Sum of per-GPU memory bandwidth — the resource multi-GPU
        inference taps to cut latency (Sec. IV)."""
        return self.num_gpus * self.gpu.mem_bw

    def devices(self) -> list[DeviceId]:
        """Enumerate all GPUs in (node, local) order."""
        return [
            DeviceId(n, l)
            for n in range(self.num_nodes)
            for l in range(self.node.gpus_per_node)
        ]

    def device(self, global_rank: int) -> DeviceId:
        """Map a flat rank to a device, node-major."""
        if not 0 <= global_rank < self.num_gpus:
            raise IndexError(
                f"rank {global_rank} out of range for {self.num_gpus} GPUs"
            )
        g = self.node.gpus_per_node
        return DeviceId(global_rank // g, global_rank % g)


def dgx_a100_cluster(num_nodes: int = 32) -> ClusterSpec:
    """The paper's main cluster: up to 32 DGX A100 boxes (256 GPUs)."""
    node = NodeSpec(
        gpu=A100_40GB,
        gpus_per_node=8,
        intra_link=NVLINK3,
        pcie=PCIE4_X16,
        host=XEON_8280,
        nvme=None,
    )
    return ClusterSpec(name=f"DGX-A100 x{num_nodes}", node=node, num_nodes=num_nodes)


def lambda_a6000_workstation(num_gpus: int = 1) -> ClusterSpec:
    """Lambda workstation: 2x A6000, 256 GB DRAM, 2 TB NVMe (Sec. VII-A4)."""
    if not 1 <= num_gpus <= 2:
        raise ValueError("the Lambda workstation has at most 2 A6000 GPUs")
    host = CPUSpec(name="workstation-host", dram_bytes=256 * GB, dram_bw=80 * GB, fp32_flops=2.0e12)
    node = NodeSpec(
        gpu=A6000,
        gpus_per_node=num_gpus,
        intra_link=PCIE4_X16,  # no NVLink between A6000s in this box
        pcie=PCIE4_X16,
        host=host,
        nvme=NVME_SINGLE,
        pcie_group_size=1,
    )
    return ClusterSpec(name=f"Lambda-A6000 x{num_gpus}", node=node, num_nodes=1)


def dgx2_v100(num_gpus: int = 16) -> ClusterSpec:
    """DGX-2: 16x V100-32GB over NVSwitch, 1.5 TB DRAM, 30 TB NVMe."""
    if not 1 <= num_gpus <= 16:
        raise ValueError("a DGX-2 has at most 16 V100 GPUs")
    node = NodeSpec(
        gpu=V100_32GB,
        gpus_per_node=num_gpus,
        intra_link=NVLINK2,
        pcie=PCIE3_X16,
        host=XEON_8280,
        nvme=NVME_RAID,
    )
    return ClusterSpec(name=f"DGX-2 V100 x{num_gpus}", node=node, num_nodes=1)
