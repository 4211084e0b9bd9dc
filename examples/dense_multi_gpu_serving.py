"""Serving GPT-3 175B and MT-NLG 530B across many GPUs (Secs. IV, VII-B/C).

Demonstrates:

* parallelism planning (tensor slicing inside nodes, pipeline across),
* the three pipeline schedules — token-lockstep baseline, DeepSpeed's
  dynamic token queue, and hybrid prompt scheduling — on the same
  deployment, with their simulated timelines summarized,
* best-batch throughput vs the FasterTransformer baseline (Fig. 8), and
* functional verification: tensor-parallel + pipeline-staged execution of
  a scaled-down model reproduces single-device logits exactly.

Run:  python examples/dense_multi_gpu_serving.py
"""

import numpy as np

from repro.baselines import FasterTransformerBaseline
from repro.comm.functional import spmd
from repro.engine import DenseLatencyModel, Workload, best_throughput
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO, ModelConfig
from repro.model.dense import DenseTransformer
from repro.parallel import plan_dense
from repro.parallel.pipeline import partition_layers, staged_forward
from repro.parallel.tensor_parallel import tp_forward


def plan_and_schedule() -> None:
    cluster = dgx_a100_cluster(8)
    cfg = DENSE_ZOO["lm-175b"]
    plan = plan_dense(cfg, cluster, batch=16, seq_len=640)
    print(f"=== {cfg.name}: planner chose TP={plan.tp} x PP={plan.pp} "
          f"({plan.gpus} GPUs, {plan.memory_per_gpu / 1e9:.1f} GB/GPU) ===")

    w = Workload(batch=16, prompt_len=512, gen_tokens=50)
    variants = {
        "token-lockstep (FT-style)": dict(lockstep_generation=True),
        "dynamic token queue": dict(),
        "dynamic + hybrid prompt": dict(hybrid_prompt_factor=4),
    }
    for label, kw in variants.items():
        model = DenseLatencyModel(cfg, cluster, tp=plan.tp, pp=plan.pp, **kw)
        r = model.estimate(w)
        print(f"  {label:28s} prompt {r.prompt_latency:6.2f} s   "
              f"total {r.total_latency:6.2f} s   "
              f"{r.tokens_per_second:6.1f} tok/s")


def fig8_style_comparison() -> None:
    print("\n=== best-batch throughput vs FasterTransformer (Fig. 8) ===")
    cluster = dgx_a100_cluster(8)
    cfg = DENSE_ZOO["lm-175b"]
    ds = DenseLatencyModel(cfg, cluster, tp=8, pp=2, hybrid_prompt_factor=2)
    ds_pt = best_throughput(ds, prompt_len=512, gen_tokens=50,
                            offload_activations=True)
    ft = FasterTransformerBaseline(cfg, cluster, tp=8, pp=2)
    ft_pt = ft.best_throughput(prompt_len=512, gen_tokens=50)
    print(f"  FasterTransformer: {ft_pt.tokens_per_second:7.1f} tok/s "
          f"(batch {ft_pt.batch})")
    print(f"  DeepSpeed:         {ds_pt.tokens_per_second:7.1f} tok/s "
          f"(batch {ds_pt.batch})   "
          f"speedup {ds_pt.tokens_per_second / ft_pt.tokens_per_second:.2f}x")


def functional_verification() -> None:
    """TP x PP execution of a small model matches the dense reference."""
    print("\n=== functional check: TP=2 + 3 pipeline stages == reference ===")
    cfg = ModelConfig(name="mini", hidden=48, layers=6, heads=4, vocab=91,
                      max_seq=32)
    model = DenseTransformer(cfg, seed=7)
    ids = np.array([[5, 17, 42, 3]])
    reference = model.forward(ids)

    stages = partition_layers(cfg.layers, 3)

    def tp_then_stage(comm):
        # Each pipeline stage runs tensor-parallel internally.
        hidden = None
        for plan in stages:
            hidden = tp_forward(
                comm, model, ids,
                layer_range=(plan.start, plan.end),
                hidden_in=hidden,
                return_hidden=plan.end != cfg.layers,
            )
        return hidden

    logits = spmd(2, tp_then_stage)[0]
    np.testing.assert_allclose(logits, reference, atol=1e-10)
    staged = staged_forward(model, stages, ids)
    np.testing.assert_allclose(staged, reference, atol=1e-12)
    print("  distributed logits match the single-device reference.")


if __name__ == "__main__":
    plan_and_schedule()
    fig8_style_comparison()
    functional_verification()
