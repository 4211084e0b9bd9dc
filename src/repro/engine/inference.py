"""The user-facing inference engine facade.

``InferenceEngine`` is the library's front door: give it a model name (or
config) and a cluster, and it plans the parallelism (Sec. IV), builds the
latency model under the chosen implementation profile (Sec. III), and
answers latency/throughput questions. ``MoEInferenceEngine`` does the
same for the sparse models of Table II (Sec. V).

Both are analytical and work at any scale. To produce tokens, build the
NumPy model of a small config directly with
:class:`~repro.model.dense.DenseTransformer`.
"""

from __future__ import annotations

from ..hardware.topology import ClusterSpec, dgx_a100_cluster
from ..kernels.profiles import DEEPSPEED_FP16, ImplementationProfile
from ..model.config import MOE_PARALLELISM, ModelConfig, get_model
from ..parallel.planner import ParallelPlan, plan_dense
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
    ) -> None:
        self.config = get_model(model) if isinstance(model, str) else model
        self.cluster = cluster or dgx_a100_cluster()
        if tp is None or pp is None:
            plan = plan_dense(self.config, self.cluster)
            tp = tp if tp is not None else plan.tp
            pp = pp if pp is not None else plan.pp
            self.plan: ParallelPlan | None = plan
        else:
            self.plan = None
        self.profile = profile
        self.latency_model = DenseLatencyModel(
            self.config, self.cluster, tp=tp, pp=pp, profile=profile)

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

    def best_throughput(self, *, prompt_len: int,
                        gen_tokens: int) -> ThroughputPoint:
        """Best-batch throughput sweep (the Fig. 8 methodology)."""
        return best_throughput(self.latency_model, prompt_len=prompt_len,
                               gen_tokens=gen_tokens)


class MoEInferenceEngine:
    """Plan and evaluate sparse (MoE) transformer inference (Sec. V)."""

    def __init__(
        self,
        model: str | ModelConfig,
        *,
        optimized: bool = True,
    ) -> None:
        """Deploys ``model`` at its Table II parallelism on as many DGX
        A100 nodes as that needs."""
        self.config = get_model(model) if isinstance(model, str) else model
        if self.config.moe is None:
            raise ValueError(f"{self.config.name} is not an MoE model")
        if self.config.name not in MOE_PARALLELISM:
            raise ValueError(
                f"no Table II parallelism recorded for {self.config.name}")
        parallelism = MOE_PARALLELISM[self.config.name]
        self.parallelism = parallelism
        self.cluster = dgx_a100_cluster(max(1, parallelism.num_gpus // 8))
        self.model = MoELatencyModel(
            self.config, self.cluster, parallelism, optimized=optimized
        )

    def token_latency(self) -> float:
        """Per generated-token latency at batch 8, KV length 228 (the
        Fig. 7 metric)."""
        return self.model.token_latency(8, 228)

    def step_breakdown(self) -> MoEStepBreakdown:
        """Component decomposition of one token step at batch 8, KV
        length 228."""
        return self.model.token_step(8, 228)
