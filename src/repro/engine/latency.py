"""End-to-end dense-model latency model (DeepSpeed Transformer, Secs. III-IV).

Combines, per token step:

* per-layer kernel time from :class:`repro.kernels.KernelCostModel` under
  the configured implementation profile and tensor-parallel degree,
* two tensor-parallel all-reduces per layer over the intra-node fabric,
* the language-model head GeMM on the last stage,
* pipeline-parallel scheduling (when ``pp > 1``) via the pipeline
  schedule recurrence (:func:`repro.parallel.simulate_pipeline`) —
  prompt and generation phases use the configured micro-batch policy.

The same class evaluates the FasterTransformer baseline by swapping the
profile and schedule policy, which is how Fig. 6/8/13 comparisons are
produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.hierarchical import CommGroup, hierarchical_allreduce_time
from ..comm.primitives import allreduce_time, p2p_time
from ..hardware.specs import DType
from ..hardware.topology import ClusterSpec
from ..kernels.costmodel import KernelCostModel
from ..kernels.graph import LayerShape
from ..kernels.profiles import DEEPSPEED_FP16, ImplementationProfile
from ..model.config import ModelConfig, _as_index
from ..parallel.schedules import ScheduleResult, simulate_pipeline

__all__ = ["Workload", "LatencyReport", "DenseLatencyModel"]


@dataclass(frozen=True)
class Workload:
    """One inference request batch (Sec. VII-A3 measurement setup)."""

    batch: int
    prompt_len: int
    gen_tokens: int

    def __post_init__(self) -> None:
        for name in ("batch", "prompt_len", "gen_tokens"):
            _as_index(name, getattr(self, name))
        if self.batch < 1 or self.prompt_len < 1 or self.gen_tokens < 0:
            raise ValueError("batch, prompt_len >= 1 and gen_tokens >= 0 required")

    @property
    def total_tokens(self) -> int:
        """All tokens the workload produces or consumes."""
        return self.batch * (self.prompt_len + self.gen_tokens)

    @property
    def generated_tokens(self) -> int:
        """Tokens generated (the throughput numerator for generation)."""
        return self.batch * self.gen_tokens


@dataclass(frozen=True)
class LatencyReport:
    """Latency/throughput estimate for one workload on one deployment."""

    workload: Workload
    prompt_latency: float
    token_latency: float  # steady-state per generated token (per step)
    total_latency: float
    kernel_time_per_step: float
    comm_time_per_step: float
    num_gpus: int
    flops_per_step: float

    @property
    def tokens_per_second(self) -> float:
        """End-to-end generated-token throughput."""
        if self.total_latency <= 0:
            return 0.0
        return self.workload.generated_tokens / self.total_latency

    @property
    def tflops_per_gpu(self) -> float:
        """Achieved compute throughput per GPU during generation."""
        if self.token_latency <= 0:
            return 0.0
        return self.flops_per_step / self.token_latency / self.num_gpus / 1e12


class DenseLatencyModel:
    """Latency model for a dense GPT deployment (TP x PP on a cluster)."""

    def __init__(
        self,
        config: ModelConfig,
        cluster: ClusterSpec,
        *,
        tp: int = 1,
        pp: int = 1,
        profile: ImplementationProfile = DEEPSPEED_FP16,
        lockstep_generation: bool = False,
        hybrid_prompt_factor: int = 1,
        hierarchical_comm: bool = True,
    ) -> None:
        """``hybrid_prompt_factor`` multiplies the prompt-phase micro-batch
        count relative to generation (Sec. IV-C1's hybrid scheduling);
        ``lockstep_generation`` selects the baseline Fig. 2a policy;
        ``hierarchical_comm=False`` degrades cross-node all-reduces to a
        flat inter-node ring (what a topology-unaware runtime pays when
        tensor slicing spills past the NVLink island, Sec. IV-A).

        Tensor parallelism past a node is allowed — the paper's Fig. 6
        runs 175B at TP=16 — but the inter-node all-reduce cost then
        lands on every layer, which is exactly why Sec. IV-A recommends
        confining TP to a node.
        """
        if tp < 1 or pp < 1:
            raise ValueError("tp and pp must be >= 1")
        if config.layers < pp:
            raise ValueError("more pipeline stages than layers")
        if tp * pp > cluster.num_gpus:
            raise ValueError(
                f"deployment needs {tp * pp} GPUs, cluster has {cluster.num_gpus}"
            )
        if hybrid_prompt_factor < 1:
            raise ValueError("hybrid_prompt_factor must be >= 1")
        self.config = config
        self.cluster = cluster
        self.tp = tp
        self.pp = pp
        self.profile = profile
        self.lockstep_generation = lockstep_generation
        self.hybrid_prompt_factor = hybrid_prompt_factor
        self.hierarchical_comm = hierarchical_comm
        self.kernel_model = KernelCostModel(cluster.gpu, profile)
        self._tp_group = (
            CommGroup(cluster, list(range(tp))) if tp > 1 else None
        )
        self._token_memo: dict[int, tuple[float, float]] = {}

    @property
    def num_gpus(self) -> int:
        """GPUs this deployment occupies."""
        return self.tp * self.pp

    # -- per-step building blocks ------------------------------------------

    def _layer_shape(self, batch: int, tokens_per_seq: int, kv_len: int) -> LayerShape:
        return LayerShape(
            hidden=self.config.hidden,
            heads=self.config.heads,
            batch=batch,
            tokens_per_seq=tokens_per_seq,
            kv_len=kv_len,
            dtype=DType.FP16,
            tp_degree=self.tp,
            ffn_mult=self.config.ffn_mult,
        )

    def layer_time(self, batch: int, tokens_per_seq: int, kv_len: int) -> tuple[float, float]:
        """(kernel seconds, comm seconds) for one layer on one TP rank."""
        shape = self._layer_shape(batch, tokens_per_seq, kv_len)
        kernel = self.kernel_model.layer_cost(shape).total_time
        return kernel, self._token_terms(shape.tokens)[0]

    def _token_terms(self, tokens: int) -> tuple[float, float]:
        """(per-layer TP all-reduce seconds, LM-head seconds) for a pass
        of ``tokens`` new tokens. Neither depends on KV length, so each
        token count is priced once."""
        terms = self._token_memo.get(tokens)
        if terms is None:
            comm = 0.0
            if self._tp_group is not None:
                act_bytes = tokens * self.config.hidden * DType.FP16.itemsize
                if self.hierarchical_comm or self._tp_group.is_single_node:
                    one = hierarchical_allreduce_time(self._tp_group, act_bytes).total
                else:
                    one = allreduce_time(
                        self.cluster.inter_link, act_bytes, self.tp
                    ).total
                comm = 2.0 * one  # two all-reduces per layer (Sec. IV-A)
            terms = self._token_memo[tokens] = (comm, self.lm_head_time(tokens, 1))
        return terms

    def lm_head_time(self, batch: int, tokens_per_seq: int) -> float:
        """Final logits GeMM (vocab-sharded across TP ranks)."""
        tokens = batch * tokens_per_seq
        weight = self.config.vocab * self.config.hidden / self.tp
        w_bytes = weight * self.profile.weight_dtype.itemsize
        flops = 2.0 * tokens * weight
        bw = self.cluster.gpu.mem_bw * 0.7
        peak = self.cluster.gpu.peak_flops(self.profile.compute_dtype) * 0.6
        return max(w_bytes / bw, flops / peak)

    def step_time(self, batch: int, tokens_per_seq: int, kv_len: int) -> tuple[float, float]:
        """(kernel, comm) seconds for a full forward pass of the model
        (all layers; the per-stage division is the scheduler's business)."""
        shape = self._layer_shape(batch, tokens_per_seq, kv_len)
        k1 = self.kernel_model.layer_cost(shape).total_time
        c1, head = self._token_terms(shape.tokens)
        return k1 * self.config.layers + head, c1 * self.config.layers

    def decode_pass_times(self, batch: int, kv_lens,
                          tokens_per_seq: int = 1) -> np.ndarray:
        """Seconds of one pass ``(batch, tokens_per_seq, kv)`` at each KV
        length in ``kv_lens`` (a decode pass by default, a prompt pass
        with ``tokens_per_seq > 1``): ``sum(step_time(batch,
        tokens_per_seq, kv))`` bit for bit, in that method's order, from
        one vectorized kernel evaluation."""
        k1 = self.kernel_model.layer_times(
            self._layer_shape(batch, tokens_per_seq, tokens_per_seq),
            kv_lens)
        c1, head = self._token_terms(batch * tokens_per_seq)
        layers = self.config.layers
        return (k1 * layers + head) + c1 * layers

    def stage_time(self, batch: int, tokens_per_seq: int, kv_len: int) -> float:
        """Seconds one pipeline stage spends on one micro-batch."""
        k, c = self.layer_time(batch, tokens_per_seq, kv_len)
        per_stage_layers = self.config.layers / self.pp
        t = (k + c) * per_stage_layers
        # Last stage also computes logits; amortize over stages to keep the
        # schedule homogeneous (error is < 1 layer's time).
        t += self.lm_head_time(batch, tokens_per_seq) / self.pp
        return t

    # -- end to end ---------------------------------------------------------

    def estimate(self, workload: Workload) -> LatencyReport:
        """Full prompt + generation latency for ``workload``."""
        kv_end = workload.prompt_len + workload.gen_tokens
        if self.pp == 1:
            pk, pc = self.step_time(workload.batch, workload.prompt_len,
                                    workload.prompt_len)
            prompt = pk + pc
            gk, gc = self.step_time(workload.batch, 1, kv_end)
            token = gk + gc
            total = prompt + token * workload.gen_tokens
            return LatencyReport(
                workload=workload,
                prompt_latency=prompt,
                token_latency=token,
                total_latency=total,
                kernel_time_per_step=gk,
                comm_time_per_step=gc,
                num_gpus=self.num_gpus,
                flops_per_step=self._gen_step_flops(workload),
            )
        return self._estimate_pipelined(workload)

    def pipeline_schedule(
        self, workload: Workload
    ) -> tuple[ScheduleResult, int, int]:
        """The simulated micro-batch schedule of ``workload``, with the
        generation and prompt micro-batch sizes it ran.

        Generation splits the batch into ``pp`` micro-batches, which
        keeps every stage busy (Sec. IV-C1); the prompt phase uses
        ``hybrid_prompt_factor`` times as many. Each inter-stage hop
        sends one generation micro-batch's FP16 activations.
        """
        gen_mb = self.pp
        prompt_mb = gen_mb * self.hybrid_prompt_factor
        mb_batch = max(1, workload.batch // gen_mb)
        pmb_batch = max(1, workload.batch // prompt_mb)
        p2p = 0.0
        if self.pp > 1:
            p2p = p2p_time(self.cluster.inter_link,
                           mb_batch * self.config.hidden * DType.FP16.itemsize)
        result = simulate_pipeline(
            num_stages=self.pp,
            prompt_microbatches=prompt_mb,
            gen_microbatches=gen_mb,
            gen_tokens=workload.gen_tokens,
            prompt_stage_time=self.stage_time(
                pmb_batch, workload.prompt_len, workload.prompt_len),
            gen_stage_time=self.stage_time(
                mb_batch, 1, workload.prompt_len + workload.gen_tokens),
            p2p_time=p2p,
            lockstep_generation=self.lockstep_generation,
        )
        return result, mb_batch, pmb_batch

    def _estimate_pipelined(self, workload: Workload) -> LatencyReport:
        result, mb_batch, _ = self.pipeline_schedule(workload)
        gk, gc = self.layer_time(mb_batch, 1,
                                 workload.prompt_len + workload.gen_tokens)
        per_token = (
            result.generation_time / workload.gen_tokens
            if workload.gen_tokens
            else 0.0
        )
        return LatencyReport(
            workload=workload,
            prompt_latency=result.prompt_done,
            token_latency=per_token,
            total_latency=result.makespan,
            kernel_time_per_step=gk * self.config.layers,
            comm_time_per_step=gc * self.config.layers,
            num_gpus=self.num_gpus,
            flops_per_step=self._gen_step_flops(workload),
        )

    def _gen_step_flops(self, workload: Workload) -> float:
        """Math work of one generation step across the whole model."""
        kv = workload.prompt_len + workload.gen_tokens
        return workload.batch * self.config.flops_per_token(kv_len=kv)
