"""Deep-Fusion: partition an operator chain into fused kernel regions.

Sec. III-B: operator fusion in mainstream stacks stops at element-wise
ops because reductions, transposes and GeMMs create cross-thread-block
dependencies. Deep-Fusion tiles the iteration space along dimensions with
no cross-tile dependency and fuses any adjacent ops whose tiles map
one-to-one. Applied to a transformer layer (Fig. 1c) this yields four
main regions: (1) input layer-norm + QKV GeMM (+bias), (2) transpose +
attention (+softmax), (3) post-attention layer-norm + intermediate GeMM
(+activation), (4) bias + residual add.

A :class:`FusedRegion`'s cost differs from the sum of its ops in exactly
two ways, both modeled here:

* one kernel launch instead of one per op,
* interior activations live in registers/shared memory, so only the
  region's boundary activation bytes (plus all weight bytes) touch HBM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .ops import Op, OpKind

__all__ = ["FusionStrategy", "FusedRegion", "partition"]


class FusionStrategy(enum.Enum):
    """How aggressively an implementation fuses (coarse taxonomy of
    Sec. II-d related work plus this paper's Deep-Fusion)."""

    NONE = "none"  # every op is its own kernel (PyTorch/Megatron eager)
    ELEMENTWISE = "elementwise"  # epilogue-fuse elementwise ops (FT, XLA, TVM)
    ATTENTION = "attention"  # ELEMENTWISE + one fused attention kernel (E.T.)
    DEEP = "deep"  # Deep-Fusion tile-level regions (this paper)


@dataclass(frozen=True)
class FusedRegion:
    """A contiguous run of ops executed as a single kernel."""

    ops: tuple[Op, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("a fused region needs at least one op")

    @property
    def name(self) -> str:
        """Human-readable label (first+last op)."""
        if len(self.ops) == 1:
            return self.ops[0].name
        return f"{self.ops[0].name}+...+{self.ops[-1].name}[{len(self.ops)}]"

    @property
    def flops(self) -> float:
        """Total math work of the region."""
        return sum(op.flops for op in self.ops)

    @property
    def weight_bytes(self) -> float:
        """Weights always stream from HBM, fused or not."""
        return sum(op.weight_bytes for op in self.ops)

    @property
    def act_bytes(self) -> float:
        """Boundary activation traffic: first op's input + last op's output.

        Interior producer/consumer tensors stay on-chip (Sec. III-B).
        """
        return self.ops[0].act_in_bytes + self.ops[-1].act_out_bytes

    @property
    def hbm_bytes(self) -> float:
        """Total HBM traffic of the region."""
        return self.weight_bytes + self.act_bytes

    @property
    def unfused_bytes(self) -> float:
        """HBM traffic if each op ran standalone — the savings baseline."""
        return sum(op.total_bytes for op in self.ops)

    def saved_bytes(self) -> float:
        """Activation traffic eliminated by fusing."""
        return self.unfused_bytes - self.hbm_bytes


def _fusable(
    region: list[Op], cur: Op, strategy: FusionStrategy, small_batch: bool
) -> bool:
    """Decide whether ``cur`` joins the open ``region``."""
    prev = region[-1]
    if not prev.can_fuse_with(cur):
        return False
    if strategy is FusionStrategy.NONE:
        return False
    if strategy is FusionStrategy.ELEMENTWISE:
        # Classic epilogue fusion: elementwise op rides on its producer.
        return cur.kind is OpKind.ELEMENTWISE
    if strategy is FusionStrategy.ATTENTION:
        attn_kinds = (OpKind.ATTENTION, OpKind.TRANSPOSE, OpKind.REDUCTION)
        if cur.kind is OpKind.ELEMENTWISE:
            return True
        # Fuse within the attention block: transpose/scores/softmax/context.
        return prev.kind in attn_kinds and cur.kind in attn_kinds
    if strategy is FusionStrategy.DEEP:
        region_has_gemm = any(op.kind is OpKind.GEMM for op in region)
        if cur.kind is OpKind.GEMM:
            # A weight GeMM joins a region via the SM-broadcast trick of
            # Sec. III-D: the region's prior work (layer-norm / bias) is
            # replicated across SMs so the GeMM schedule needs no
            # inter-SM communication. That only pays off at very small
            # batch, and only when the prior work is cheaply replicable
            # (reductions/elementwise) with at most one GeMM per region.
            cheap = all(
                op.kind in (OpKind.REDUCTION, OpKind.ELEMENTWISE) for op in region
            )
            return small_batch and not region_has_gemm and cheap
        if region_has_gemm:
            return cur.kind is OpKind.ELEMENTWISE  # GeMM epilogue only
        # No weight GeMM yet: transposes, attention contractions,
        # reductions and elementwise ops all tile along token/head dims
        # and fuse freely (the "transposition plus attention" region).
        return True
    raise AssertionError(f"unhandled strategy {strategy}")


def partition(
    ops: list[Op], strategy: FusionStrategy, *, small_batch: bool = True
) -> list[FusedRegion]:
    """Greedily partition an op chain into fused regions.

    ``small_batch`` enables GeMM fusion under DEEP (the SM-broadcast trick
    of Sec. III-D is only profitable at very small batch; the large-batch
    kernel keeps cuBLAS GeMMs unfused).
    """
    if not ops:
        return []
    regions: list[list[Op]] = [[ops[0]]]
    for op in ops[1:]:
        if _fusable(regions[-1], op, strategy, small_batch):
            regions[-1].append(op)
        else:
            regions.append([op])
    return [FusedRegion(tuple(r)) for r in regions]
