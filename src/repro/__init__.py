"""repro: a reproduction of DeepSpeed Inference (SC'22).

Two layers, with imports running one way:

* a **functional engine** — NumPy transformer inference with real
  tensor/pipeline/expert-parallel execution, KV caching, MoE routing and
  INT8 quantization, tested for numerical equivalence against dense
  references (the executor modules of `repro.model`, `repro.parallel`,
  `repro.kernels` and `repro.zero`, plus `repro.comm.functional`,
  `repro.engine.generation` and `repro.fleet.functional`);
* a **performance model** — hardware specs, collective cost models,
  fusion-aware kernel rooflines, first-in-first-out pipeline/offload/
  stream timing, and engines that regenerate every table and figure of the
  paper and run every serving and fleet simulation (`repro.hardware`,
  `repro.kernels`, `repro.engine`, `repro.zero`, `repro.fleet`,
  `repro.baselines`, `repro.bench`).

The functional engine may import the performance model; the performance
model never imports the functional engine, so a simulation loads no
executor. `tests/test_layering.py` lists the functional modules and
holds the rule.

Quick start::

    from repro.engine import InferenceEngine
    engine = InferenceEngine("lm-175b")
    report = engine.estimate(batch=1, prompt_len=128, gen_tokens=8)
    print(report.token_latency, report.tokens_per_second)
"""

__version__ = "1.0.0"

from .rng import SeedLike, as_generator

__all__ = ["SeedLike", "as_generator"]
