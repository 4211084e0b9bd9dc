"""Hardware substrate: device specs and cluster topologies.

These are the published numbers of the paper's testbeds (Sec. VII-A4); the
performance model consumes them, and substituting different specs lets a
user explore other deployments. Capacity planning fills
``specs.USABLE_FRACTION`` of each device, read through
``GPUSpec.usable_bytes`` and ``CPUSpec.usable_dram_bytes``.
"""

from .specs import (
    A100_40GB,
    A6000,
    CPUSpec,
    DType,
    GB,
    GPU_REGISTRY,
    GPUSpec,
    GiB,
    INFINIBAND_HDR,
    LinkSpec,
    MS,
    NVLINK2,
    NVLINK3,
    NVME_RAID,
    NVME_SINGLE,
    NVMeSpec,
    PCIE3_X16,
    PCIE4_X16,
    US,
    V100_32GB,
    XEON_8280,
)
from .topology import (
    ClusterSpec,
    DeviceId,
    NodeSpec,
    dgx2_v100,
    dgx_a100_cluster,
    lambda_a6000_workstation,
)

__all__ = [
    "A100_40GB",
    "A6000",
    "CPUSpec",
    "ClusterSpec",
    "DType",
    "DeviceId",
    "GB",
    "GPU_REGISTRY",
    "GPUSpec",
    "GiB",
    "INFINIBAND_HDR",
    "LinkSpec",
    "MS",
    "NVLINK2",
    "NVLINK3",
    "NVME_RAID",
    "NVME_SINGLE",
    "NVMeSpec",
    "NodeSpec",
    "PCIE3_X16",
    "PCIE4_X16",
    "US",
    "V100_32GB",
    "XEON_8280",
    "dgx2_v100",
    "dgx_a100_cluster",
    "lambda_a6000_workstation",
]
