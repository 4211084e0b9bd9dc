"""Tests for collective cost models (alpha-beta, hierarchical, PCC)."""

import pytest
from hypothesis import given, strategies as st

from repro.comm import (
    CommGroup,
    allgather_time,
    allreduce_time,
    alltoall_time,
    baseline_alltoall,
    hierarchical_allreduce_time,
    naive_alltoall_time,
    p2p_time,
    pcc_alltoall,
    reduce_scatter_time,
)
from repro.hardware import INFINIBAND_HDR, LinkSpec, NVLINK3, dgx_a100_cluster

LINK = LinkSpec(name="test", bandwidth=100.0, latency=0.01)


class TestAlphaBeta:
    def test_p2p(self):
        assert p2p_time(LINK, 200.0) == pytest.approx(0.01 + 2.0)

    def test_single_rank_collectives_are_free(self):
        for fn in (allreduce_time, allgather_time, alltoall_time):
            assert fn(LINK, 1e6, 1).total == 0.0

    def test_allreduce_moves_2p_minus_1_over_p(self):
        c = allreduce_time(LINK, 100.0, 4)
        assert c.bandwidth_term == pytest.approx(2 * 3 / 4 * 100.0 / 100.0)
        assert c.latency_term == pytest.approx(6 * 0.01)

    def test_allgather_is_half_an_allreduce(self):
        ar = allreduce_time(LINK, 100.0, 8)
        ag = allgather_time(LINK, 100.0, 8)
        assert ag.bandwidth_term == pytest.approx(ar.bandwidth_term / 2)

    def test_reduce_scatter_matches_allgather(self):
        assert reduce_scatter_time(LINK, 64.0, 4).total == pytest.approx(
            allgather_time(LINK, 64.0, 4).total
        )

    def test_alltoall_latency_linear_in_p(self):
        c16 = alltoall_time(LINK, 100.0, 16)
        c64 = alltoall_time(LINK, 100.0, 64)
        assert c64.latency_term == pytest.approx(c16.latency_term * 63 / 15)

    def test_naive_alltoall_adds_per_peer_overhead(self):
        fast = alltoall_time(LINK, 100.0, 8)
        slow = naive_alltoall_time(LINK, 100.0, 8, overhead_per_peer=0.05)
        assert slow.total == pytest.approx(fast.total + 7 * 0.05)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            allreduce_time(LINK, -1.0, 2)
        with pytest.raises(ValueError):
            allreduce_time(LINK, 1.0, 0)

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
    def test_rejects_non_finite_bytes(self, nbytes):
        for fn in (allreduce_time, allgather_time, alltoall_time):
            with pytest.raises(ValueError, match="finite"):
                fn(LINK, nbytes, 4)
        with pytest.raises(ValueError, match="finite"):
            p2p_time(LINK, nbytes)


@given(
    nbytes=st.floats(min_value=1.0, max_value=1e9),
    p=st.integers(min_value=2, max_value=512),
)
def test_allreduce_cost_monotone_in_ranks(nbytes, p):
    """Bandwidth term grows toward 2*nbytes/bw; latency grows linearly."""
    a = allreduce_time(LINK, nbytes, p)
    b = allreduce_time(LINK, nbytes, p + 1)
    assert b.latency_term > a.latency_term
    assert b.bandwidth_term >= a.bandwidth_term
    assert a.bandwidth_term <= 2 * nbytes / LINK.bandwidth + 1e-12


class TestHierarchical:
    def setup_method(self):
        self.cluster = dgx_a100_cluster(4)  # 32 GPUs

    def test_group_structure(self):
        g = CommGroup(self.cluster, list(range(16)))
        assert g.size == 16
        assert g.num_nodes == 2
        assert g.is_balanced
        assert g.ranks_per_node == 8

    def test_single_node_group_uses_nvlink(self):
        g = CommGroup(self.cluster, list(range(8)))
        t = hierarchical_allreduce_time(g, 1e6).total
        expected = allreduce_time(NVLINK3, 1e6, 8).total
        assert t == pytest.approx(expected)

    def test_cross_node_slower_than_intra_node(self):
        intra = hierarchical_allreduce_time(
            CommGroup(self.cluster, list(range(8))), 1e8).total
        inter = hierarchical_allreduce_time(
            CommGroup(self.cluster, list(range(16))), 1e8).total
        assert inter > intra

    def test_hierarchical_beats_flat_ib_ring(self):
        # The point of the 2-level algorithm: only a 1/g shard crosses IB.
        g = CommGroup(self.cluster, list(range(32)))
        hier = hierarchical_allreduce_time(g, 1e8).total
        flat = allreduce_time(INFINIBAND_HDR, 1e8, 32).total
        assert hier < flat

    def test_unbalanced_group_rejected(self):
        g = CommGroup(self.cluster, list(range(8)) + [8])
        with pytest.raises(ValueError):
            hierarchical_allreduce_time(g, 1e6)

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            CommGroup(self.cluster, [0, 0, 1])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            CommGroup(self.cluster, [])

    def test_size_one_group_free(self):
        g = CommGroup(self.cluster, [3])
        assert hierarchical_allreduce_time(g, 1e9).total == 0.0


class TestPCC:
    def setup_method(self):
        self.cluster = dgx_a100_cluster(16)  # 128 GPUs

    def test_pcc_shrinks_latency_by_tp_degree(self):
        """The paper's 128-GPU / 8-way slicing example: 128*C1 -> 16*C1."""
        base = baseline_alltoall(self.cluster, 1e6, 128)
        opt = pcc_alltoall(self.cluster, 1e6, 128, tp_degree=8)
        # latency steps: 127 vs 15
        assert base.alltoall.latency_term == pytest.approx(
            127 * self.cluster.inter_link.latency
        )
        assert opt.alltoall.latency_term == pytest.approx(
            15 * self.cluster.inter_link.latency
        )
        assert opt.total < base.total

    def test_ep_to_tp_adds_allgather(self):
        fwd = pcc_alltoall(self.cluster, 1e6, 128, tp_degree=8, direction="tp_to_ep")
        back = pcc_alltoall(self.cluster, 1e6, 128, tp_degree=8, direction="ep_to_tp")
        assert back.allgather.total > 0.0
        assert fwd.allgather.total == 0.0
        assert back.total > fwd.total

    def test_tp_degree_one_matches_baseline_alltoall(self):
        base = baseline_alltoall(self.cluster, 1e6, 64)
        opt = pcc_alltoall(self.cluster, 1e6, 64, tp_degree=1)
        assert opt.alltoall.total == pytest.approx(base.alltoall.total)

    def test_small_subgroup_falls_back_to_nvlink(self):
        # p/L <= 8 keeps the all-to-all inside one node.
        opt = pcc_alltoall(self.cluster, 1e6, 64, tp_degree=8)
        assert opt.alltoall.latency_term == pytest.approx(
            7 * self.cluster.node.intra_link.latency
        )

    def test_indivisible_tp_degree_rejected(self):
        with pytest.raises(ValueError):
            pcc_alltoall(self.cluster, 1e6, 100, tp_degree=8)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            pcc_alltoall(self.cluster, 1e6, 64, tp_degree=8, direction="sideways")

    @given(tp=st.sampled_from([1, 2, 4, 8]))
    def test_pcc_never_slower_than_baseline_at_scale(self, tp):
        base = baseline_alltoall(self.cluster, 4e6, 128).total
        opt = pcc_alltoall(self.cluster, 4e6, 128, tp_degree=tp).total
        assert opt <= base * 1.05  # allow transform epsilon at tp=1
