"""Expert-to-rank placement with replication: balance the straggler away.

Expert parallelism (Sec. V-A) assigns each expert to exactly one rank;
under a skewed gate distribution the rank owning the hottest expert
becomes the dispatch straggler — every all-to-all and every expert-FFN
wave waits for it. The fix from "Fast MoE Inference via Predictive
Prefetching and Expert Replication": *replicate* the hottest experts
across several ranks (each replica serves an equal share of its
tokens), paying for the extra resident copies by demoting the coldest
experts to a *streamed* tier that is fetched on demand (and hidden by
predictive prefetch, :mod:`repro.moe_placement.prefetch`).

:func:`plan_placement` performs the load-balanced bin packing over
predicted per-expert token loads; :class:`ExpertPlacement` answers the
load questions the pricing layer asks (per-rank token loads, the
max/mean imbalance ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model.config import expert_partition

__all__ = ["ExpertPlacement", "PlacementPlan", "plan_placement",
           "uniform_placement"]


@dataclass(frozen=True)
class ExpertPlacement:
    """Which experts each expert-parallel rank serves.

    ``ranks[r]`` is the tuple of expert ids rank ``r`` hosts; an expert
    appearing on several ranks is *replicated* and each replica serves
    an equal share of its tokens. Streamed (non-resident) experts still
    appear on exactly one rank — the rank that fetches and runs them on
    demand; residency is tracked by the dispatch spec, not here.
    """

    ranks: tuple[tuple[int, ...], ...]
    num_experts: int

    def __post_init__(self) -> None:
        if self.num_experts < 1 or not self.ranks:
            raise ValueError("need >= 1 expert and >= 1 rank")
        seen = np.zeros(self.num_experts, dtype=np.int64)
        for hosted in self.ranks:
            if len(set(hosted)) != len(hosted):
                raise ValueError("an expert may appear once per rank")
            for ex in hosted:
                if not 0 <= ex < self.num_experts:
                    raise ValueError(f"expert {ex} out of range")
                seen[ex] += 1
        if (seen < 1).any():
            missing = np.flatnonzero(seen < 1).tolist()
            raise ValueError(f"experts {missing} are assigned to no rank")
        # ``rank_loads`` runs once per distinct token count while pricing:
        # keep the replica counts, and one (ranks, width) index matrix per
        # hosted-expert count, so a call is one division and one row sum
        # per width.
        by_width: dict[int, list[int]] = {}
        for r, hosted in enumerate(self.ranks):
            if hosted:
                by_width.setdefault(len(hosted), []).append(r)
        object.__setattr__(self, "_replicas", seen)
        object.__setattr__(self, "_width_groups", tuple(
            (np.array(rows), np.array([self.ranks[r] for r in rows]))
            for rows in by_width.values()))

    @property
    def ep_degree(self) -> int:
        """Number of expert-parallel ranks."""
        return len(self.ranks)

    @property
    def replicas(self) -> np.ndarray:
        """Per-expert replica count across all ranks (a fresh array)."""
        return self._replicas.copy()

    def replication_of(self, expert: int) -> int:
        """How many ranks host ``expert``."""
        if not 0 <= expert < self.num_experts:
            raise IndexError(f"expert {expert} out of range")
        return int(self._replicas[expert])

    def rank_loads(self, expert_loads: np.ndarray) -> np.ndarray:
        """Per-rank token loads given per-expert token loads.

        A replicated expert's load splits evenly across its replicas —
        the dispatch layer shards its tokens round-robin over the
        hosting ranks. Each rank's load is NumPy's pairwise sum of its
        experts' shares in hosted order, the same float as
        ``share[list(hosted)].sum()``; a rank hosting nothing reads 0.
        """
        loads = np.asarray(expert_loads, dtype=np.float64)
        if loads.shape != (self.num_experts,):
            raise ValueError(
                f"expected {self.num_experts} expert loads, got shape "
                f"{loads.shape}")
        share = loads / self._replicas
        out = np.zeros(self.ep_degree)
        for rows, idx in self._width_groups:
            out[rows] = share[idx].sum(axis=1)
        return out

    def load_imbalance(self, expert_loads: np.ndarray) -> float:
        """Max/mean per-rank load ratio — the straggler factor skew-aware
        pricing applies to the expert-FFN and all-to-all terms. Exactly
        ``1.0`` for a balanced assignment; never below 1."""
        rank = self.rank_loads(expert_loads)
        total = rank.sum()
        if total <= 0:
            return 1.0
        return max(1.0, float(rank.max() * self.ep_degree / total))


@dataclass(frozen=True)
class PlacementPlan:
    """Outcome of :func:`plan_placement`: the assignment plus the
    residency decisions that funded it."""

    placement: ExpertPlacement
    streamed: tuple[int, ...]  # demoted experts, fetched on demand
    replication: int
    num_hot: int
    slots_per_rank: int


def uniform_placement(num_experts: int, ep_degree: int) -> ExpertPlacement:
    """The paper's baseline assignment: contiguous ranges, one replica
    each (uneven remainders spread one-per-rank, matching
    :func:`~repro.model.config.expert_partition`)."""
    parts = expert_partition(num_experts, ep_degree)
    return ExpertPlacement(
        ranks=tuple(tuple(p) for p in parts), num_experts=num_experts)


def plan_placement(
    expert_loads: np.ndarray,
    ep_degree: int,
    *,
    replication: int = 1,
    num_hot: int | None = None,
    slots_per_rank: int | None = None,
) -> PlacementPlan:
    """Assign experts to ranks balancing predicted load, replicating the
    hot head of the distribution.

    The ``num_hot`` hottest experts get ``replication`` replicas each.
    Every rank holds at most ``slots_per_rank`` *resident* experts
    (default ``ceil(E / ep)`` — the same GPU memory a uniform placement
    uses, so replication is memory-neutral); replica copies that exceed
    the free slots are funded by demoting the coldest experts to the
    streamed tier, which consumes no resident slot. Resident instances
    are packed LPT-style (heaviest instance onto the least-loaded rank
    with a free slot); streamed experts then land on the least-loaded
    ranks.
    """
    loads = np.asarray(expert_loads, dtype=np.float64)
    if loads.ndim != 1 or loads.size < 1:
        raise ValueError("expert_loads must be a 1-D vector")
    if not (np.isfinite(loads) & (loads >= 0)).all():
        raise ValueError("expert loads must be finite and non-negative")
    num_experts = loads.size
    if ep_degree < 1 or ep_degree > num_experts:
        raise ValueError("need 1 <= ep_degree <= num_experts")
    if replication < 1 or replication > ep_degree:
        raise ValueError("need 1 <= replication <= ep_degree")
    if slots_per_rank is None:
        slots_per_rank = math.ceil(num_experts / ep_degree)
    if slots_per_rank < 1:
        raise ValueError("slots_per_rank must be >= 1")
    hottest_first = np.argsort(-loads, kind="stable")
    if num_hot is None:
        num_hot = max(1, num_experts // 16) if replication > 1 else 0
    if not 0 <= num_hot <= num_experts:
        raise ValueError("need 0 <= num_hot <= num_experts")
    if replication == 1:
        num_hot = 0

    spare_slots = ep_degree * slots_per_rank - num_experts
    extra_copies = num_hot * (replication - 1)
    demoted = max(0, extra_copies - spare_slots)
    if demoted > num_experts - num_hot:
        raise ValueError(
            f"replicating {num_hot} experts x{replication} needs demoting "
            f"{demoted} of {num_experts - num_hot} cold experts — lower "
            f"num_hot, replication, or raise slots_per_rank")
    hot = set(int(e) for e in hottest_first[:num_hot])
    streamed = tuple(
        int(e) for e in hottest_first[::-1]
        if int(e) not in hot
    )[:demoted]
    streamed_set = set(streamed)

    # Resident instances, heaviest per-instance load first (LPT).
    instances: list[tuple[float, int]] = []
    for ex in range(num_experts):
        if ex in streamed_set:
            continue
        copies = replication if ex in hot else 1
        instances.extend([(loads[ex] / copies, ex)] * copies)
    instances.sort(key=lambda it: (-it[0], it[1]))

    rank_load = np.zeros(ep_degree)
    rank_free = np.full(ep_degree, slots_per_rank, dtype=np.int64)
    hosted: list[list[int]] = [[] for _ in range(ep_degree)]
    for inst_load, ex in instances:
        order = np.argsort(rank_load, kind="stable")
        dest = next(
            (int(r) for r in order if rank_free[r] > 0 and ex not in hosted[r]),
            None)
        if dest is None:  # replication exceeds distinct free ranks
            raise ValueError(
                f"no rank can host another replica of expert {ex}")
        hosted[dest].append(ex)
        rank_free[dest] -= 1
        rank_load[dest] += inst_load

    # Streamed experts ride on the least-loaded ranks (no slot needed).
    for ex in sorted(streamed_set, key=lambda e: (-loads[e], e)):
        dest = int(np.argsort(rank_load, kind="stable")[0])
        hosted[dest].append(ex)
        rank_load[dest] += loads[ex]

    placement = ExpertPlacement(
        ranks=tuple(tuple(h) for h in hosted), num_experts=num_experts)
    return PlacementPlan(
        placement=placement,
        streamed=tuple(sorted(streamed_set)),
        replication=replication,
        num_hot=num_hot,
        slots_per_rank=slots_per_rank,
    )
