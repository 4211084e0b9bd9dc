"""ZeRO-Inference: 530B on a single workstation GPU (Sec. VI, Fig. 9).

Demonstrates:

* the placement rule (DRAM if it fits, else NVMe) and the 25x model-scale
  headroom over a GPU-only deployment,
* throughput at max batch for models from 20B to 530B, with the
  fetch/compute overlap pipeline and prefetching,
* multi-GPU PCIe-sharded fetching on a DGX-2 (near-linear scaling),
* the functional tiered weight store streaming a real (tiny) model's
  layers from "DRAM" while producing exact logits.

Run:  python examples/zero_inference_530b.py
"""

import numpy as np

from repro.baselines import CPUOnlyBaseline, GPUOnlyBaseline
from repro.hardware import dgx2_v100, lambda_a6000_workstation
from repro.model import ModelConfig, get_model
from repro.model.dense import (DenseTransformer, cached_attention, lm_head,
                               run_layers)
from repro.zero import Tier, TieredWeightStore, ZeroInferenceEngine


def model_scale_tour() -> None:
    ws = lambda_a6000_workstation(1)
    print("=== one A6000-48GB workstation: who can run what? ===")
    print(f"  {'model':14s} {'gpu-only':9s} {'cpu-only':9s} "
          f"{'zero tier':9s} {'batch':>5s} {'TFLOPS':>7s} {'% peak':>6s}")
    for name in ("gpt-neox-20b", "gpt-50b", "gpt-87b", "lm-175b", "lm-530b"):
        cfg = get_model(name)
        gpu_ok = GPUOnlyBaseline(cfg, ws).fits()
        cpu_ok = CPUOnlyBaseline(cfg, ws).fits()
        eng = ZeroInferenceEngine(cfg, ws)
        rep = eng.max_batch_pass(seq_len=2048)
        pct = 100 * rep.tflops_per_gpu * 1e12 / ws.gpu.fp16_flops
        print(f"  {name:14s} {str(gpu_ok):9s} {str(cpu_ok):9s} "
              f"{eng.placement.value:9s} {rep.batch:5d} "
              f"{rep.tflops_per_gpu:7.1f} {pct:5.1f}%")
    print("  -> 530B runs on one GPU: ~25x beyond the GPU-only ceiling (20B).")


def prefetch_and_scaling() -> None:
    print("\n=== prefetching and multi-GPU scaling (DGX-2, GPT-50B) ===")
    dgx2 = dgx2_v100(16)
    cfg = get_model("gpt-50b")
    for n in (1, 4, 16):
        eng = ZeroInferenceEngine(cfg, dgx2, num_gpus=n)
        rep = eng.max_batch_pass(seq_len=2048)
        print(f"  {n:2d} V100s: batch {rep.batch:4d}  "
              f"{rep.tflops_per_gpu:5.1f} TFLOPS/GPU  "
              f"total {rep.tflops_per_gpu * n:7.1f} TFLOPS")
    eng0 = ZeroInferenceEngine(cfg, dgx2, num_gpus=1, prefetch_depth=0)
    eng1 = ZeroInferenceEngine(cfg, dgx2, num_gpus=1, prefetch_depth=1)
    r0 = eng0.forward_pass(batch=1, tokens_per_seq=2048)
    r1 = eng1.forward_pass(batch=1, tokens_per_seq=2048)
    print(f"  prefetch off/on at batch 1: {r0.time:5.2f} s -> {r1.time:5.2f} s "
          f"({r0.time / r1.time:.2f}x)")


def functional_streaming() -> None:
    print("\n=== functional check: layer streaming preserves the logits ===")
    ws = lambda_a6000_workstation(1)
    cfg = ModelConfig(name="stream-demo", hidden=32, layers=4, heads=4,
                      vocab=61, max_seq=16)
    model = DenseTransformer(cfg, seed=11)
    ids = np.array([[3, 14, 15, 9]])
    reference = model.forward(ids)

    # Park every layer's weights in the DRAM tier, then run the forward
    # pass fetching them layer by layer — what ZeRO-Inference does.
    store = TieredWeightStore(ws)
    for i, lw in enumerate(model.layers):
        blob = np.concatenate([getattr(lw, f).ravel()
                               for f in lw.__dataclass_fields__])
        store.put(i, blob, Tier.DRAM)

    x = model.embed(ids)
    attend = cached_attention(cfg, None)
    for i, lw in enumerate(model.layers):
        fetched = store.fetch(i)  # the layer's bytes cross "PCIe" here
        assert fetched.size == lw.num_params
        x = run_layers(model, x, [i], attend)  # then the layer runs
    logits = lm_head(model, x)
    np.testing.assert_allclose(logits, reference, atol=1e-12)
    print(f"  streamed {len(store.fetch_log)} layers "
          f"({sum(e.nbytes for e in store.fetch_log) / 1e6:.2f} MB), "
          f"modeled fetch time {store.total_fetch_time * 1e6:.1f} us; "
          "logits exact.")


if __name__ == "__main__":
    model_scale_tour()
    prefetch_and_scaling()
    functional_streaming()
