"""Quickstart: estimate inference performance and run a real (tiny) model.

This walks the two layers of the library:

1. the **performance model** — ask how fast GPT-style models run on the
   paper's hardware under DeepSpeed vs FasterTransformer kernels;
2. the **functional engine** — actually generate tokens with a small
   NumPy transformer, with and without KV caching, and check they agree.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.engine import InferenceEngine
from repro.hardware import dgx_a100_cluster
from repro.kernels import DEEPSPEED_FP16, DEEPSPEED_INT8, FASTER_TRANSFORMER_FP16
from repro.model import ModelConfig
from repro.model.dense import DenseTransformer


def performance_model_demo() -> None:
    """Latency of GPT-2 1.5B on one A100 under three implementations."""
    print("=== performance model: gpt2-1.5b on one A100, prompt 128 / gen 8 ===")
    cluster = dgx_a100_cluster(1)
    for profile in (FASTER_TRANSFORMER_FP16, DEEPSPEED_FP16, DEEPSPEED_INT8):
        engine = InferenceEngine("gpt2-1.5b", cluster, tp=1, pp=1, profile=profile)
        report = engine.estimate(batch=1, prompt_len=128, gen_tokens=8)
        print(
            f"  {profile.name:24s} token latency {report.token_latency * 1e3:7.3f} ms"
            f"   end-to-end {report.total_latency * 1e3:8.2f} ms"
            f"   {report.tokens_per_second:7.1f} tok/s"
        )

    print("\n=== auto-planned 175B deployment ===")
    engine = InferenceEngine("lm-175b", dgx_a100_cluster(4))
    print(f"  planner chose TP={engine.tp} x PP={engine.pp} "
          f"({engine.num_gpus} GPUs)")
    report = engine.estimate(batch=1, prompt_len=128, gen_tokens=8)
    print(f"  token latency {report.token_latency * 1e3:.1f} ms, "
          f"comm share {report.comm_time_per_step / report.token_latency:.0%}")


def functional_engine_demo() -> None:
    """Generate text ids with a runnable NumPy GPT and verify KV caching."""
    print("\n=== functional engine: a tiny runnable GPT ===")
    config = ModelConfig(name="tiny-gpt", hidden=64, layers=4, heads=8,
                         vocab=257, max_seq=64)
    model = DenseTransformer(config, seed=42)
    prompt = np.array([[7, 21, 101, 33]])

    cached = model.generate(prompt, num_tokens=12, use_cache=True)
    uncached = model.generate(prompt, num_tokens=12, use_cache=False)
    assert np.array_equal(cached, uncached), "KV caching must be exact"

    print(f"  prompt ids:    {prompt[0].tolist()}")
    print(f"  generated ids: {cached[0, 4:].tolist()}")
    print("  cached and uncached decoding agree token-for-token.")


if __name__ == "__main__":
    performance_model_demo()
    functional_engine_demo()
