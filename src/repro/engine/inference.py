"""The user-facing inference engine facade.

``InferenceEngine`` is the library's front door: give it a model name (or
config) and a cluster, and it plans the parallelism (Sec. IV), builds the
latency model under the chosen implementation profile (Sec. III), and
answers latency/throughput questions. ``MoEInferenceEngine`` does the
same for the sparse models of Table II (Sec. V).

Functional generation (actually producing tokens with the NumPy model)
is exposed through :meth:`InferenceEngine.build_functional_model` for
small configurations; performance estimation works at any scale.
"""

from __future__ import annotations


import numpy as np

from ..hardware.topology import ClusterSpec, dgx_a100_cluster
from ..kernels.profiles import DEEPSPEED_FP16, ImplementationProfile
from ..model.config import MOE_PARALLELISM, ModelConfig, MoEParallelism, get_model
from ..model.dense import DenseTransformer
from ..parallel.planner import ParallelPlan, plan_dense
from ..rng import SeedLike
from .latency import DenseLatencyModel, LatencyReport, Workload
from .moe import MoELatencyModel, MoEStepBreakdown
from .throughput import ThroughputPoint, best_throughput

__all__ = ["InferenceEngine", "MoEInferenceEngine"]


class InferenceEngine:
    """Plan and evaluate dense transformer inference on a cluster."""

    def __init__(
        self,
        model: str | ModelConfig,
        cluster: ClusterSpec | None = None,
        *,
        profile: ImplementationProfile = DEEPSPEED_FP16,
        tp: int | None = None,
        pp: int | None = None,
        plan_batch: int = 1,
        plan_seq: int = 2048,
        hybrid_prompt_factor: int = 1,
        lockstep_generation: bool = False,
    ) -> None:
        self.config = get_model(model) if isinstance(model, str) else model
        self.cluster = cluster or dgx_a100_cluster()
        if tp is None or pp is None:
            plan = plan_dense(self.config, self.cluster, batch=plan_batch,
                              seq_len=plan_seq)
            tp = tp if tp is not None else plan.tp
            pp = pp if pp is not None else plan.pp
            self.plan: ParallelPlan | None = plan
        else:
            self.plan = None
        self.profile = profile
        self.latency_model = DenseLatencyModel(
            self.config,
            self.cluster,
            tp=tp,
            pp=pp,
            profile=profile,
            hybrid_prompt_factor=hybrid_prompt_factor,
            lockstep_generation=lockstep_generation,
        )

    @property
    def tp(self) -> int:
        """Tensor-parallel degree in use."""
        return self.latency_model.tp

    @property
    def pp(self) -> int:
        """Pipeline-parallel degree in use."""
        return self.latency_model.pp

    @property
    def num_gpus(self) -> int:
        """GPUs occupied by this deployment."""
        return self.latency_model.num_gpus

    def estimate(
        self, *, batch: int, prompt_len: int, gen_tokens: int
    ) -> LatencyReport:
        """Latency report for one workload."""
        return self.latency_model.estimate(
            Workload(batch=batch, prompt_len=prompt_len, gen_tokens=gen_tokens)
        )

    def best_throughput(
        self, *, prompt_len: int, gen_tokens: int, offload_activations: bool = False
    ) -> ThroughputPoint:
        """Best-batch throughput sweep (the Fig. 8 methodology)."""
        return best_throughput(
            self.latency_model,
            prompt_len=prompt_len,
            gen_tokens=gen_tokens,
            offload_activations=offload_activations,
        )

    def build_functional_model(self, *, seed: SeedLike = 0,
                               dtype=np.float64) -> DenseTransformer:
        """Materialize the runnable NumPy model (small configs only: the
        weight arrays are allocated for real)."""
        if self.config.total_params > 2e8:
            raise ValueError(
                f"{self.config.name} has {self.config.total_params / 1e9:.1f}B "
                "params; materializing that in NumPy is not what you want. "
                "Use a small ModelConfig for functional runs."
            )
        return DenseTransformer(self.config, seed=seed, dtype=dtype)


class MoEInferenceEngine:
    """Plan and evaluate sparse (MoE) transformer inference (Sec. V)."""

    def __init__(
        self,
        model: str | ModelConfig,
        cluster: ClusterSpec | None = None,
        *,
        parallelism: MoEParallelism | None = None,
        optimized: bool = True,
    ) -> None:
        self.config = get_model(model) if isinstance(model, str) else model
        if self.config.moe is None:
            raise ValueError(f"{self.config.name} is not an MoE model")
        if parallelism is None:
            if self.config.name not in MOE_PARALLELISM:
                raise ValueError(
                    f"no Table II parallelism recorded for {self.config.name}; "
                    "pass `parallelism` explicitly"
                )
            parallelism = MOE_PARALLELISM[self.config.name]
        self.parallelism = parallelism
        self.cluster = cluster or dgx_a100_cluster(
            max(1, parallelism.num_gpus // 8)
        )
        self.model = MoELatencyModel(
            self.config, self.cluster, parallelism, optimized=optimized
        )

    def token_latency(self, *, batch: int = 8, kv_len: int = 228) -> float:
        """Per generated-token latency (the Fig. 7 metric)."""
        return self.model.token_latency(batch, kv_len)

    def step_breakdown(self, *, batch: int = 8, kv_len: int = 228) -> MoEStepBreakdown:
        """Component decomposition of one token step."""
        return self.model.token_step(batch, kv_len)
