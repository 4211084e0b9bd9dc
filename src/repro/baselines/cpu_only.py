"""CPU-only inference baseline (Fig. 9b comparisons).

A host-resident FP32 inference path: weights live in DRAM and the CPU
does the math. It caps at whatever fits DRAM in FP32 (the paper's "10x
larger than CPU-only": 530B vs the ~50B-class ceiling of a 256 GB-1.5 TB
host) and its throughput trails a GPU by the compute ratio — the paper
reports ZeRO-Inference at over 25x CPU-only throughput.
"""

from __future__ import annotations

from ..hardware.specs import DType
from ..hardware.topology import ClusterSpec
from ..model.config import ModelConfig

__all__ = ["CPUOnlyBaseline"]

# Fraction of peak a tuned CPU GEMM library sustains end-to-end across a
# whole transformer stack (threading, NUMA and non-GEMM ops included).
_CPU_COMPUTE_EFF = 0.55


class CPUOnlyBaseline:
    """Throughput model of FP32 CPU inference out of DRAM."""

    def __init__(self, config: ModelConfig, cluster: ClusterSpec) -> None:
        self.config = config
        self.cluster = cluster
        self.host = cluster.node.host

    @property
    def weight_bytes(self) -> float:
        """FP32-resident model footprint."""
        return self.config.param_bytes(DType.FP32)

    def fits(self) -> bool:
        """Whether the model fits host DRAM at all."""
        return self.weight_bytes <= self.host.usable_dram_bytes

    def max_model_params(self) -> float:
        """Largest parameter count this host can serve (FP32)."""
        return self.host.usable_dram_bytes / DType.FP32.itemsize

    def forward_pass_time(self, *, batch: int, seq_len: int) -> float:
        """One forward pass: weight streaming from DRAM overlapped with
        (i.e. bounded below by) the FP32 math."""
        if not self.fits():
            raise ValueError(
                f"{self.config.name} (FP32 {self.weight_bytes / 1e9:.0f} GB) "
                f"exceeds host DRAM"
            )
        if batch < 1 or seq_len < 1:
            raise ValueError("batch and seq_len must be >= 1")
        tokens = batch * seq_len
        flops = tokens * self.config.flops_per_token(kv_len=seq_len)
        compute = flops / (self.host.fp32_flops * _CPU_COMPUTE_EFF)
        stream = self.weight_bytes / self.host.dram_bw
        return max(compute, stream)

    def tflops(self, *, batch: int, seq_len: int) -> float:
        """Achieved compute throughput of the pass."""
        tokens = batch * seq_len
        flops = tokens * self.config.flops_per_token(kv_len=seq_len)
        return flops / self.forward_pass_time(batch=batch, seq_len=seq_len) / 1e12
