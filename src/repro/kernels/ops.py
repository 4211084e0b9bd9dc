"""Operator descriptions for the kernel cost model.

A transformer layer is described as a linear chain of :class:`Op` records
capturing exactly the quantities Sec. III reasons about:

* ``flops`` — math work,
* ``weight_bytes`` — parameter traffic (the term that lower-bounds
  small-batch latency),
* ``act_in_bytes`` / ``act_out_bytes`` — activation traffic between HBM
  and the cores (what Deep-Fusion removes for fused intermediates),
* ``tile_dims`` — iteration-space dimensions along which the op can be
  tiled with *no cross-tile data dependency* (Sec. III-B's fusion
  legality condition),
* ``kind`` — operator class, used by fusion strategies to decide region
  boundaries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

__all__ = ["OpKind", "Op", "TOKEN", "HEAD", "HIDDEN", "SEQUENCE"]

# Canonical iteration-space dimension names.
TOKEN = "token"  # one tile per token (batch x seq position)
HEAD = "head"  # one tile per attention head
HIDDEN = "hidden"  # one tile per slice of the hidden/output dimension
SEQUENCE = "sequence"  # key/value sequence axis (reduction dim of attention)


class OpKind(enum.Enum):
    """Operator classes of a transformer layer (Sec. III-A/B)."""

    GEMM = "gemm"
    ELEMENTWISE = "elementwise"  # bias add, residual add, activation, quantize
    REDUCTION = "reduction"  # layer-norm, softmax (reduce within a tile)
    TRANSPOSE = "transpose"  # head-wise data-layout transformation
    ATTENTION = "attention"  # batched QK^T / PV contraction


@dataclass(frozen=True)
class Op:
    """One logical operator with its resource footprint.

    ``act_in_bytes``/``act_out_bytes`` are the activation bytes the op
    would exchange with global memory *if executed as a standalone
    kernel*. When ops fuse, interior activations stay in registers or
    shared memory and only the region's boundary activations count
    (Sec. III-B, last paragraph).
    """

    name: str
    kind: OpKind
    flops: float
    weight_bytes: float
    act_in_bytes: float
    act_out_bytes: float
    tile_dims: frozenset = field(default_factory=frozenset)
    tile_local_dep: bool = True  # consumer tile depends on exactly one producer tile

    def __post_init__(self) -> None:
        for f in ("flops", "weight_bytes", "act_in_bytes", "act_out_bytes"):
            if not 0 <= getattr(self, f) < math.inf:
                raise ValueError(
                    f"{f} must be finite and >= 0 for op {self.name!r}")

    @property
    def total_bytes(self) -> float:
        """All global-memory traffic of the op run standalone."""
        return self.weight_bytes + self.act_in_bytes + self.act_out_bytes

    @property
    def is_gemm(self) -> bool:
        """True for dense matrix multiplies (incl. attention contractions)."""
        return self.kind in (OpKind.GEMM, OpKind.ATTENTION)

    @property
    def is_weight_gemm(self) -> bool:
        """True only for parameter GeMMs (the weight-streaming ops that
        dominate small-batch latency)."""
        return self.kind is OpKind.GEMM

    def can_fuse_with(self, other: "Op") -> bool:
        """Deep-Fusion legality (Sec. III-B): two adjacent ops fuse when
        they share a tile dimension free of cross-tile dependencies and the
        producer->consumer mapping is tile-local."""
        return bool(self.tile_dims & other.tile_dims) and self.tile_local_dep
