"""repro: a reproduction of DeepSpeed Inference (SC'22).

Two coupled layers:

* a **functional engine** — NumPy transformer inference with real
  tensor/pipeline/expert-parallel execution, KV caching, MoE routing and
  INT8 quantization, tested for numerical equivalence against dense
  references (`repro.model`, `repro.parallel`, `repro.comm.functional`);
* a **performance model** — hardware specs, collective cost models,
  fusion-aware kernel rooflines, first-in-first-out pipeline/offload/
  stream timing, and engines that regenerate every table and figure of the
  paper (`repro.hardware`, `repro.kernels`, `repro.engine`, `repro.zero`,
  `repro.baselines`, `repro.bench`).

Quick start::

    from repro.engine import InferenceEngine
    engine = InferenceEngine("lm-175b")
    report = engine.estimate(batch=1, prompt_len=128, gen_tokens=8)
    print(report.token_latency, report.tokens_per_second)
"""

__version__ = "1.0.0"

from .rng import SeedLike, as_generator

__all__ = ["SeedLike", "as_generator"]
