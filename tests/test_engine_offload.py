"""Tests for activation offloading: capacity math and PCIe scheduling."""

from dataclasses import replace

import pytest

from repro.engine import max_batch_size, simulate_offload
from repro.hardware import LinkSpec, dgx_a100_cluster
from repro.model import DENSE_ZOO

CLUSTER = dgx_a100_cluster(8)


class TestMaxBatch:
    def test_offload_enables_larger_batches(self):
        cfg = DENSE_ZOO["lm-175b"]
        plain = max_batch_size(cfg, CLUSTER, tp=8, pp=2, seq_len=562)
        offl = max_batch_size(cfg, CLUSTER, tp=8, pp=2, seq_len=562,
                              offload_activations=True)
        assert offl > plain >= 1

    def test_dram_eventually_binds(self):
        cfg = DENSE_ZOO["lm-175b"]
        offl = max_batch_size(cfg, CLUSTER, tp=8, pp=2, seq_len=562,
                              offload_activations=True)
        # bounded by host DRAM, not infinite
        assert offl < 100_000

    def test_zero_when_weights_dont_fit(self):
        cfg = DENSE_ZOO["lm-530b"]
        assert max_batch_size(cfg, CLUSTER, tp=1, pp=1, seq_len=128) == 0

    def test_longer_sequences_smaller_batches(self):
        cfg = DENSE_ZOO["gpt-neox-20b"]
        short = max_batch_size(cfg, CLUSTER, tp=8, pp=1, seq_len=128)
        long = max_batch_size(cfg, CLUSTER, tp=8, pp=1, seq_len=2048)
        assert short > long

    def test_validation(self):
        cfg = DENSE_ZOO["gpt-13b"]
        with pytest.raises(ValueError):
            max_batch_size(cfg, CLUSTER, tp=0, pp=1, seq_len=1)


class TestPCIeScheduling:
    """The odd/even offload schedule of Sec. IV-C3."""

    def test_odd_even_removes_contention(self):
        naive = simulate_offload(CLUSTER, num_layers=48, bytes_per_layer=50e6,
                                 layer_compute_time=1e-3, scheme="naive")
        odd = simulate_offload(CLUSTER, num_layers=48, bytes_per_layer=50e6,
                               layer_compute_time=1e-3, scheme="odd_even")
        assert odd.makespan < naive.makespan
        assert odd.stall_time < naive.stall_time

    def test_odd_even_near_zero_stall_when_compute_covers(self):
        # Per-layer transfer (2 ms) fits within compute (3 ms) when the
        # link is uncontended; odd/even keeps it uncontended.
        rep = simulate_offload(CLUSTER, num_layers=24, bytes_per_layer=50e6,
                               layer_compute_time=3e-3, scheme="odd_even")
        assert rep.stall_time < rep.compute_time * 0.05

    def test_naive_moves_twice_the_bytes(self):
        naive = simulate_offload(CLUSTER, num_layers=10, bytes_per_layer=10e6,
                                 layer_compute_time=1e-3, scheme="naive")
        odd = simulate_offload(CLUSTER, num_layers=10, bytes_per_layer=10e6,
                               layer_compute_time=1e-3, scheme="odd_even")
        # naive offloads the replicated activations from both GPUs.
        assert naive.link_busy == pytest.approx(2 * odd.link_busy, rel=0.01)

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            simulate_offload(CLUSTER, num_layers=2, bytes_per_layer=1.0,
                             layer_compute_time=1.0, scheme="sideways")

    def test_bad_workload(self):
        with pytest.raises(ValueError):
            simulate_offload(CLUSTER, num_layers=0, bytes_per_layer=1.0,
                             layer_compute_time=1.0)

    @pytest.mark.parametrize("kw", [
        {"bytes_per_layer": float("nan")},
        {"bytes_per_layer": float("inf")},
        {"layer_compute_time": float("nan")},
        {"layer_compute_time": float("inf")},
    ])
    def test_rejects_non_finite_workload(self, kw):
        args = {"bytes_per_layer": 1.0, "layer_compute_time": 1.0, **kw}
        with pytest.raises(ValueError, match="invalid workload parameters"):
            simulate_offload(CLUSTER, num_layers=2, **args)

    @pytest.mark.parametrize("scheme, makespan, link_busy", [
        # Two 0.8125 s transfers per 1 s layer: the link falls behind.
        ("naive", 7.5, 6.5),
        # One per layer: each drains before the next layer ends.
        ("odd_even", 4.8125, 3.25),
    ])
    def test_exact_contended_link(self, scheme, makespan, link_busy):
        """A dyadic link (hold = 1/16 s + 768 B / 1024 B/s = 0.8125 s)
        makes every link time exact."""
        pcie = LinkSpec(name="pin", bandwidth=1024.0, latency=0.0625)
        cluster = replace(CLUSTER, node=replace(CLUSTER.node, pcie=pcie))
        rep = simulate_offload(cluster, num_layers=4, bytes_per_layer=768.0,
                               layer_compute_time=1.0, scheme=scheme)
        assert rep.makespan == makespan
        assert rep.link_busy == link_busy
        assert rep.compute_time == 4.0

    @pytest.mark.parametrize("bandwidth, latency", [
        (-1.0, 0.0), (float("nan"), 0.0), (1.0, -2.0), (1.0, float("inf")),
    ])
    def test_rejects_bad_link(self, bandwidth, latency):
        pcie = LinkSpec(name="bad", bandwidth=bandwidth, latency=latency)
        cluster = replace(CLUSTER, node=replace(CLUSTER.node, pcie=pcie))
        with pytest.raises(ValueError, match="invalid PCIe transfer time"):
            simulate_offload(cluster, num_layers=2, bytes_per_layer=1.0,
                             layer_compute_time=1.0)

    def test_rejects_non_integer_layer_count(self):
        with pytest.raises(TypeError, match="num_layers must be an integer"):
            simulate_offload(CLUSTER, num_layers=2.0, bytes_per_layer=1.0,
                             layer_compute_time=1.0)
