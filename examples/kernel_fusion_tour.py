"""A tour of the inference kernels (Sec. III): op graphs, Deep-Fusion,
SBI-GeMM scheduling and INT8 quantization.

Demonstrates:

* the operator chain of a transformer layer and how each fusion strategy
  partitions it into kernels (NONE / elementwise / E.T.-style / DEEP),
* the HBM traffic and launch counts each strategy implies, and the
  resulting modeled latency on an A100,
* the SBI-GeMM tile plan choices across model widths and dtypes,
* functional INT8: quantize a weight matrix, run the integer GeMM with
  the dequant epilogue, and measure the error.

Run:  python examples/kernel_fusion_tour.py
"""

import numpy as np

from repro.hardware import A100_40GB, DType
from repro.kernels import (
    DEEPSPEED_FP16,
    FusionStrategy,
    KernelCostModel,
    LayerShape,
    PYTORCH_FP16,
    partition,
    sbi_tile_plan,
    transformer_layer_ops,
)
from repro.kernels.quant import int8_linear, quantize_symmetric


def fusion_strategies() -> None:
    shape = LayerShape(hidden=4096, heads=32, batch=1, tokens_per_seq=1,
                       kv_len=128)
    ops = transformer_layer_ops(shape)
    print(f"=== one transformer layer = {len(ops)} logical operators ===")
    print("  " + " -> ".join(o.name for o in ops[:6]) + " -> ...")

    print("\n=== fusion strategy -> kernels per layer, HBM traffic ===")
    for strategy in FusionStrategy:
        regions = partition(ops, strategy, small_batch=True)
        hbm = sum(r.hbm_bytes for r in regions)
        saved = sum(r.saved_bytes() for r in regions)
        print(f"  {strategy.value:12s} {len(regions):2d} kernels   "
              f"{hbm / 1e6:7.1f} MB to HBM   ({saved / 1e6:5.1f} MB saved)")

    print("\n=== the Deep-Fusion regions (Fig. 1c) ===")
    for r in partition(ops, FusionStrategy.DEEP, small_batch=True):
        names = " + ".join(o.name for o in r.ops)
        print(f"  [{names}]")

    print("\n=== modeled layer latency, batch 1 on A100 ===")
    for profile in (PYTORCH_FP16, DEEPSPEED_FP16):
        cost = KernelCostModel(A100_40GB, profile).layer_cost(shape)
        print(f"  {profile.name:16s} {cost.total_time * 1e6:7.1f} us "
              f"({cost.kernel_count} kernels, "
              f"{cost.effective_bandwidth / 1e9:6.0f} GB/s effective)")


def sbi_plans() -> None:
    print("\n=== SBI-GeMM tile plans (Sec. III-C) ===")
    for out_features in (1024, 4096, 16384):
        for dtype in (DType.FP16, DType.INT8):
            plan = sbi_tile_plan(A100_40GB, out_features, dtype)
            print(f"  out={out_features:6d} {dtype.value}: {plan.description}")


def int8_demo() -> None:
    print("\n=== functional INT8 linear layer ===")
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 512))
    w = rng.normal(size=(512, 2048))
    qt = quantize_symmetric(w)
    y_fp = x @ w
    y_q = int8_linear(x, qt)
    rel = np.abs(y_q - y_fp).max() / np.abs(y_fp).max()
    print(f"  weight storage: {w.astype(np.float16).nbytes / 1e6:.2f} MB fp16 "
          f"-> {qt.nbytes / 1e6:.2f} MB int8")
    print(f"  max relative GeMM error: {rel:.4%} "
          "(per-output-channel symmetric quantization)")


if __name__ == "__main__":
    fusion_strategies()
    sbi_plans()
    int8_demo()
