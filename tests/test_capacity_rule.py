"""The usable-memory rule is stated once: every capacity entry point
plans into ``repro.hardware.specs.USABLE_FRACTION`` of GPU memory and
host DRAM, read through ``GPUSpec.usable_bytes`` and
``CPUSpec.usable_dram_bytes``.

Halving the fraction must price exactly like halving the memory (both
give ``memory * 0.9 / 2`` by IEEE bits), so each entry point on a
cluster at half the fraction equals the same call on a half-memory
cluster at the default fraction.
"""

import dataclasses

import pytest

from repro.baselines import CPUOnlyBaseline, GPUOnlyBaseline
from repro.engine import kv_offload_overflow, max_batch_size, moe_max_batch_size
from repro.hardware import GB, dgx_a100_cluster, lambda_a6000_workstation, specs
from repro.model import MoEParallelism, get_model
from repro.parallel import plan_dense
from repro.zero import ZeroInferenceEngine, placement_for


def _halved(cluster):
    """``cluster`` with half the GPU memory and half the host DRAM."""
    node = cluster.node
    gpu = node.gpu.with_overrides(memory_bytes=node.gpu.memory_bytes / 2)
    host = dataclasses.replace(node.host, dram_bytes=node.host.dram_bytes / 2)
    return dataclasses.replace(
        cluster, node=dataclasses.replace(node, gpu=gpu, host=host))


_MOE_PAR = MoEParallelism(mp_degree=1, ep_degree=64, expert_slicing=1,
                          num_gpus=64)

#: name -> (cluster, entry point). Each case is chosen so that halving
#: the memory changes its answer.
ENTRY_POINTS = {
    "max_batch_size": (dgx_a100_cluster(), lambda c: max_batch_size(
        get_model("gpt-13b"), c, tp=4, pp=1, seq_len=2048)),
    "max_batch_size_offload": (dgx_a100_cluster(), lambda c: max_batch_size(
        get_model("gpt-13b"), c, tp=4, pp=1, seq_len=2048,
        offload_activations=True)),
    "moe_max_batch_size": (dgx_a100_cluster(), lambda c: moe_max_batch_size(
        get_model("1.3b-moe-128"), c, _MOE_PAR, seq_len=2048)),
    "kv_offload_overflow": (dgx_a100_cluster(), lambda c: kv_offload_overflow(
        get_model("gpt-13b"), c, tp=4, pp=1, batch=256, seq_len=2048)),
    "plan_dense": (dgx_a100_cluster(), lambda c: plan_dense(
        get_model("lm-175b"), c, batch=8, seq_len=2048)),
    "ZeroInferenceEngine.max_batch": (
        lambda_a6000_workstation(1),
        lambda c: ZeroInferenceEngine(get_model("gpt-neox-20b"), c)
        .max_batch(2048)),
    "placement_for": (lambda_a6000_workstation(1),
                      lambda c: placement_for(150 * GB, c)),
    "GPUOnlyBaseline.fits": (
        lambda_a6000_workstation(1),
        lambda c: GPUOnlyBaseline(get_model("gpt-neox-20b"), c).fits()),
    "GPUOnlyBaseline.max_batch": (
        lambda_a6000_workstation(1),
        lambda c: GPUOnlyBaseline(get_model("gpt-j-6b"), c).max_batch(2048)),
    "CPUOnlyBaseline.fits": (
        lambda_a6000_workstation(1),
        lambda c: CPUOnlyBaseline(get_model("gpt-50b"), c).fits()),
    "CPUOnlyBaseline.max_model_params": (
        lambda_a6000_workstation(1),
        lambda c: CPUOnlyBaseline(get_model("gpt-13b"), c).max_model_params()),
}


def test_the_rule_is_ninety_percent():
    assert specs.USABLE_FRACTION == 0.9
    gpu, host = specs.A100_40GB, specs.XEON_8280
    assert gpu.usable_bytes == gpu.memory_bytes * 0.9
    assert host.usable_dram_bytes == host.dram_bytes * 0.9


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_follows_the_usable_fraction(name, monkeypatch):
    cluster, entry = ENTRY_POINTS[name]
    at_default = entry(cluster)
    on_half_memory = entry(_halved(cluster))
    assert on_half_memory != at_default  # the case is capacity-bound
    monkeypatch.setattr(specs, "USABLE_FRACTION", specs.USABLE_FRACTION / 2)
    assert entry(cluster) == on_half_memory
