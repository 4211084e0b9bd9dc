"""Unit tests for cluster topologies."""

import pytest

from repro.hardware import (
    DeviceId,
    dgx2_v100,
    dgx_a100_cluster,
    lambda_a6000_workstation,
)


class TestDGXA100Cluster:
    def test_full_cluster_has_256_gpus(self):
        c = dgx_a100_cluster(32)
        assert c.num_gpus == 256

    def test_aggregate_memory(self):
        c = dgx_a100_cluster(2)
        assert c.aggregate_gpu_memory == pytest.approx(16 * 40e9)

    def test_aggregate_bandwidth_at_256_gpus(self):
        # Paper: 1T MoE served using "aggregate GPU memory bandwidth of
        # 128 TB/sec" at 33% utilization => peak approx 398 TB/s on 256 GPUs.
        c = dgx_a100_cluster(32)
        assert c.aggregate_mem_bw == pytest.approx(256 * 1555e9)

    def test_device_mapping_node_major(self):
        c = dgx_a100_cluster(2)
        assert c.device(0) == DeviceId(0, 0)
        assert c.device(7) == DeviceId(0, 7)
        assert c.device(8) == DeviceId(1, 0)
        assert c.device(15) == DeviceId(1, 7)

    def test_device_out_of_range(self):
        c = dgx_a100_cluster(1)
        with pytest.raises(IndexError):
            c.device(8)

    def test_devices_enumeration(self):
        c = dgx_a100_cluster(2)
        devs = c.devices()
        assert len(devs) == 16
        assert devs == sorted(devs)

    def test_pcie_sharing_groups(self):
        # DGX boxes share one PCIe link per GPU pair (Sec. IV-C3).
        node = dgx_a100_cluster(1).node
        assert node.pcie_group(0) == node.pcie_group(1)
        assert node.pcie_group(2) != node.pcie_group(1)


class TestWorkstation:
    def test_single_and_dual_gpu(self):
        assert lambda_a6000_workstation(1).num_gpus == 1
        assert lambda_a6000_workstation(2).num_gpus == 2

    def test_too_many_gpus_rejected(self):
        with pytest.raises(ValueError):
            lambda_a6000_workstation(3)

    def test_has_nvme(self):
        c = lambda_a6000_workstation()
        assert c.node.nvme is not None
        assert c.node.nvme.capacity_bytes == pytest.approx(2e12)

    def test_dram_capacity_256gb(self):
        assert lambda_a6000_workstation().node.host.dram_bytes == pytest.approx(256e9)


class TestDGX2:
    def test_sixteen_v100s(self):
        c = dgx2_v100()
        assert c.num_gpus == 16
        assert c.gpu.name == "V100-32GB-SXM"

    def test_partial_allocation(self):
        assert dgx2_v100(4).num_gpus == 4

    def test_bounds(self):
        with pytest.raises(ValueError):
            dgx2_v100(17)
        with pytest.raises(ValueError):
            dgx2_v100(0)

    def test_nvswitch_all_gpus_one_node(self):
        c = dgx2_v100()
        assert c.device(15).node == c.device(0).node
