"""Trillion-parameter MoE inference on 256 GPUs (Sec. V, Fig. 7).

Demonstrates:

* per-token latency of the Table II sparse models under DeepSpeed-MoE vs
  the distributed PyTorch baseline, with the component breakdown that
  explains the gap (gating kernels, PCC all-to-all, expert slicing),
* the PCC communication arithmetic: O(p) -> O(p/L) + O(L),
* functional verification that expert-parallel dispatch over all-to-all
  and the dense-table gating reproduce the reference MoE layer exactly.

Run:  python examples/moe_trillion_inference.py
"""

import numpy as np

from repro.comm import baseline_alltoall, pcc_alltoall
from repro.comm.functional import spmd
from repro.engine import MoEInferenceEngine
from repro.hardware import dgx_a100_cluster
from repro.model import MOE_ZOO
from repro.model.moe import MoELayer
from repro.parallel.expert_parallel import ep_moe_forward


def latency_tour() -> None:
    print("=== Table II sparse models: per-token latency (batch 8) ===")
    for name in MOE_ZOO:
        ds = MoEInferenceEngine(name, optimized=True)
        base = MoEInferenceEngine(name, optimized=False)
        l_ds, l_base = ds.token_latency(), base.token_latency()
        size_b = MOE_ZOO[name].listed_params / 1e9
        print(f"  {name:14s} ({size_b:6.0f}B, {ds.parallelism.num_gpus:3d} GPUs)  "
              f"baseline {l_base * 1e3:7.2f} ms   deepspeed {l_ds * 1e3:6.2f} ms   "
              f"{l_base / l_ds:4.1f}x")

    print("\n=== the >1T model's step breakdown (DeepSpeed) ===")
    eng = MoEInferenceEngine("24b-moe-128")
    b = eng.step_breakdown()
    for field in ("dense_time", "gating_time", "expert_time",
                  "alltoall_time", "allreduce_time"):
        print(f"  {field:15s} {getattr(b, field) * 1e3:7.2f} ms")
    print(f"  {'total':15s} {b.total * 1e3:7.2f} ms  "
          f"(paper target: < 25 ms/token)")


def pcc_arithmetic() -> None:
    print("\n=== PCC: all-to-all latency, 128 GPUs, payload 1 MB ===")
    cluster = dgx_a100_cluster(16)
    base = baseline_alltoall(cluster, 1e6, 128)
    for tp in (1, 2, 4, 8):
        opt = pcc_alltoall(cluster, 1e6, 128, tp_degree=tp)
        print(f"  tensor-slicing L={tp}:  "
              f"baseline {base.total * 1e6:7.1f} us  ->  "
              f"PCC {opt.total * 1e6:7.1f} us")


def functional_verification() -> None:
    print("\n=== functional check: 4-way expert parallelism == reference ===")
    layer = MoELayer(hidden=32, num_experts=8, capacity_factor=2.0, seed=3)
    rng = np.random.default_rng(0)
    tokens = rng.normal(size=(24, 32))

    reference = layer.forward_dense_table(tokens)
    sparse_ref = layer.forward_sparse_einsum(tokens)
    np.testing.assert_allclose(reference, sparse_ref, atol=1e-12)

    results = spmd(4, lambda comm: ep_moe_forward(comm, layer, tokens))
    np.testing.assert_allclose(results[0], reference, atol=1e-12)
    print("  dense-table gating == sparse-einsum gating == "
          "distributed all-to-all dispatch.")


if __name__ == "__main__":
    latency_tour()
    pcc_arithmetic()
    functional_verification()
