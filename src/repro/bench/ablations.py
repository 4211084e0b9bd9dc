"""Ablation drivers for the design choices DESIGN.md calls out.

Beyond the paper's own figures, these isolate one mechanism each:
CUDA-graph launch elimination, fusion-strategy granularity, PCC slicing
degree, expert-slicing, hybrid-schedule factor, prefetch depth, and the
latency-SLA frontier of the deployment tuner.
"""

from __future__ import annotations

from ..comm import baseline_alltoall, pcc_alltoall
from ..engine import DenseLatencyModel, MoELatencyModel, Workload
from ..engine.tuner import tune_dense_deployment
from ..hardware import A100_40GB, dgx2_v100, dgx_a100_cluster
from ..kernels import (
    DEEPSPEED_FP16,
    FusionStrategy,
    KernelCostModel,
    LayerShape,
    PYTORCH_FP16,
)
from ..model import DENSE_ZOO, MOE_ZOO, MoEParallelism, get_model
from ..zero import ZeroInferenceEngine
from .tables import ExperimentResult

__all__ = [
    "ablation_cuda_graph",
    "ablation_fusion_strategy",
    "ablation_pcc_degree",
    "ablation_expert_slicing",
    "ablation_hybrid_factor",
    "ablation_prefetch_depth",
    "ablation_sla_frontier",
    "ablation_pinned_weights",
    "ablation_serving_load",
    "ALL_ABLATIONS",
]


def ablation_cuda_graph() -> ExperimentResult:
    """CUDA-graph launch elimination across model sizes, batch 1."""
    rows = []
    for name in ("gpt2-1.5b", "gpt-j-6b", "gpt-13b"):
        cfg = DENSE_ZOO[name]
        shape = LayerShape(hidden=cfg.hidden, heads=cfg.heads, batch=1,
                           tokens_per_seq=1, kv_len=128, ffn_mult=cfg.ffn_mult)
        with_graph = KernelCostModel(A100_40GB, DEEPSPEED_FP16).layer_cost(shape)
        without = KernelCostModel(
            A100_40GB, DEEPSPEED_FP16.with_(name="ds-nograph", cuda_graph=False)
        ).layer_cost(shape)
        rows.append(
            {
                "model": name,
                "with_graph_us": with_graph.total_time * cfg.layers * 1e6,
                "without_us": without.total_time * cfg.layers * 1e6,
                "speedup": without.total_time / with_graph.total_time,
            }
        )
    return ExperimentResult(
        exp_id="abl-cudagraph",
        title="Ablation: CUDA-graph launch elimination (Sec. III-D)",
        columns=["model", "with_graph_us", "without_us", "speedup"],
        rows=rows,
        notes=["launch overhead matters most for the smallest model"],
    )


def ablation_fusion_strategy() -> ExperimentResult:
    """All four fusion strategies on one layer shape, batch 1 and 32."""
    cfg = DENSE_ZOO["gpt-13b"]
    rows = []
    for strategy in FusionStrategy:
        profile = PYTORCH_FP16.with_(
            name=f"pytorch+{strategy.value}", fusion=strategy
        )
        for batch in (1, 32):
            shape = LayerShape(hidden=cfg.hidden, heads=cfg.heads, batch=batch,
                               tokens_per_seq=1, kv_len=128)
            cost = KernelCostModel(A100_40GB, profile).layer_cost(shape)
            rows.append(
                {
                    "fusion": strategy.value,
                    "batch": batch,
                    "kernels_per_layer": cost.kernel_count,
                    "layer_us": cost.total_time * 1e6,
                    "hbm_mb": cost.hbm_bytes / 1e6,
                }
            )
    return ExperimentResult(
        exp_id="abl-fusion",
        title="Ablation: fusion strategy granularity (Sec. III-B)",
        columns=["fusion", "batch", "kernels_per_layer", "layer_us", "hbm_mb"],
        rows=rows,
    )


def ablation_pcc_degree() -> ExperimentResult:
    """PCC all-to-all latency vs tensor-slicing degree at 128/256 GPUs."""
    rows = []
    for gpus in (128, 256):
        cluster = dgx_a100_cluster(gpus // 8)
        base = baseline_alltoall(cluster, 1e6, gpus).total
        for tp in (1, 2, 4, 8):
            opt = pcc_alltoall(cluster, 1e6, gpus, tp_degree=tp).total
            rows.append(
                {
                    "gpus": gpus,
                    "tp_degree": tp,
                    "baseline_us": base * 1e6,
                    "pcc_us": opt * 1e6,
                    "reduction": base / opt,
                }
            )
    return ExperimentResult(
        exp_id="abl-pcc",
        title="Ablation: PCC vs tensor-slicing degree (Sec. V-B)",
        columns=["gpus", "tp_degree", "baseline_us", "pcc_us", "reduction"],
        rows=rows,
        notes=["latency constant drops from p*C1 toward (p/L)*C1"],
    )


def ablation_expert_slicing() -> ExperimentResult:
    """Expert-slicing degree on the 2T model's per-token latency."""
    cfg = MOE_ZOO["47b-moe-128"]
    cluster = dgx_a100_cluster(32)
    rows = []
    for es in (1, 2, 4):
        par = MoEParallelism(mp_degree=8, ep_degree=128, expert_slicing=es,
                             num_gpus=128 * es if es > 1 else 128)
        if par.num_gpus > cluster.num_gpus:
            continue
        model = MoELatencyModel(cfg, cluster, par, optimized=True)
        step = model.token_step(batch=8)
        rows.append(
            {
                "expert_slicing": es,
                "gpus": par.num_gpus,
                "expert_ms": step.expert_time * 1e3,
                "total_ms": step.total * 1e3,
            }
        )
    return ExperimentResult(
        exp_id="abl-expert-slicing",
        title="Ablation: expert slicing on the 2T model (Sec. V-A)",
        columns=["expert_slicing", "gpus", "expert_ms", "total_ms"],
        rows=rows,
    )


def ablation_hybrid_factor() -> ExperimentResult:
    """Hybrid-schedule prompt micro-batch factor on 175B (TP8 x PP2)."""
    cluster = dgx_a100_cluster(2)
    cfg = DENSE_ZOO["lm-175b"]
    w = Workload(batch=24, prompt_len=512, gen_tokens=8)
    rows = []
    for factor in (1, 2, 4, 8):
        model = DenseLatencyModel(cfg, cluster, tp=8, pp=2,
                                  hybrid_prompt_factor=factor)
        r = model.estimate(w)
        rows.append(
            {
                "prompt_factor": factor,
                "prompt_ms": r.prompt_latency * 1e3,
                "total_ms": r.total_latency * 1e3,
            }
        )
    return ExperimentResult(
        exp_id="abl-hybrid",
        title="Ablation: hybrid prompt micro-batch factor (Sec. IV-C1)",
        columns=["prompt_factor", "prompt_ms", "total_ms"],
        rows=rows,
        notes=["prompt latency falls with more prompt micro-batches until "
               "per-micro-batch efficiency losses catch up"],
    )


def ablation_prefetch_depth() -> ExperimentResult:
    """ZeRO-Inference prefetch depth 0..4 at a fetch/compute-balanced point."""
    cluster = dgx2_v100(1)
    cfg = get_model("gpt-neox-20b")
    rows = []
    for depth in (0, 1, 2, 4):
        eng = ZeroInferenceEngine(cfg, cluster, prefetch_depth=depth)
        rep = eng.forward_pass(batch=2, tokens_per_seq=2048)
        rows.append(
            {
                "prefetch_depth": depth,
                "pass_s": rep.time,
                "buffers_gb": (depth + 1) * eng.layer_bytes / 1e9,
                "overlap_eff": rep.stream.overlap_efficiency,
            }
        )
    return ExperimentResult(
        exp_id="abl-prefetch",
        title="Ablation: prefetch depth vs buffer memory (Sec. VI-B)",
        columns=["prefetch_depth", "pass_s", "buffers_gb", "overlap_eff"],
        rows=rows,
        notes=["depth 1 captures nearly all the overlap; deeper buffers "
               "only spend memory"],
    )


def ablation_sla_frontier() -> ExperimentResult:
    """Throughput-vs-SLA frontier for GPT-13B on two DGX nodes."""
    cluster = dgx_a100_cluster(2)
    cfg = DENSE_ZOO["gpt-13b"]
    rows = []
    for sla_ms in (12, 15, 20, 30, 50, None):
        try:
            r = tune_dense_deployment(
                cfg, cluster, prompt_len=128, gen_tokens=8,
                latency_sla=None if sla_ms is None else sla_ms * 1e-3,
                max_gpus=8, hybrid_factors=(1,),
            )
        except ValueError:
            continue
        rows.append(
            {
                "sla_ms": "none" if sla_ms is None else sla_ms,
                "tp": r.tp,
                "pp": r.pp,
                "batch": r.batch,
                "token_ms": r.token_latency * 1e3,
                "tokens_per_s": r.tokens_per_second,
            }
        )
    return ExperimentResult(
        exp_id="abl-sla",
        title="Ablation: throughput under latency SLA (Sec. I framing)",
        columns=["sla_ms", "tp", "pp", "batch", "token_ms", "tokens_per_s"],
        rows=rows,
    )


def ablation_pinned_weights() -> ExperimentResult:
    """The pin-weights-in-GPU design alternative Sec. VI-A rejects.

    Pinning a fraction of GPT-NeoX-20B's layers in GPU memory saves their
    fetches but shrinks the batch budget; the streamed design (0 pinned)
    wins on throughput exactly as the paper argues.
    """
    from ..hardware import lambda_a6000_workstation

    ws = lambda_a6000_workstation(1)
    cfg = get_model("gpt-neox-20b")
    rows = []
    gpu_budget = ws.gpu.usable_bytes
    for pinned_frac in (0.0, 0.25, 0.5, 0.75):
        eng = ZeroInferenceEngine(cfg, ws, prefetch_depth=1)
        pinned_layers = int(cfg.layers * pinned_frac)
        pinned_bytes = pinned_layers * eng.layer_bytes
        free = gpu_budget - pinned_bytes - eng._buffer_bytes()
        batch = max(0, int(free / eng.per_sample_bytes(2048)))
        if batch < 1:
            rows.append({"pinned_frac": pinned_frac, "batch": 0,
                         "tflops": 0.0, "note": "no batch fits"})
            continue
        # Pinned layers skip the fetch; streamed layers still pay it.
        streamed = cfg.layers - pinned_layers
        from ..zero.streaming import simulate_layer_stream

        stream = simulate_layer_stream(
            num_layers=cfg.layers,
            fetch_time_per_layer=eng.fetch_time_per_layer()
            * streamed / cfg.layers,  # amortized over all layers
            compute_time_per_layer=eng.compute_time_per_layer(batch, 2048, 2048),
            prefetch_depth=1,
        )
        flops = batch * 2048 * cfg.flops_per_token(kv_len=2048)
        rows.append(
            {
                "pinned_frac": pinned_frac,
                "batch": batch,
                "tflops": flops / stream.makespan / 1e12,
                "note": "",
            }
        )
    return ExperimentResult(
        exp_id="abl-pinned",
        title="Ablation: pin-weights-in-GPU alternative (Sec. VI-A)",
        columns=["pinned_frac", "batch", "tflops", "note"],
        rows=rows,
        notes=["pinning trades fetch savings for batch; the streamed design "
               "(pinned_frac 0) maximizes throughput"],
    )


def ablation_serving_load() -> ExperimentResult:
    """Latency percentiles vs arrival rate for GPT-13B serving (TP=4).

    The production framing of Sec. I, end to end: as offered load rises
    toward the server's capacity, queueing pushes P99 (and eventually
    P50) end-to-end latency up while sustained throughput saturates.
    """
    from ..engine.costs import DenseStepCost
    from ..engine.serving_sim import simulate_serving, synthesize_trace

    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4)
    costs = DenseStepCost(model)
    rows = []
    for rate in (2.0, 5.0, 10.0, 20.0, 40.0):
        trace = synthesize_trace(num_requests=120, arrival_rate=rate,
                                 mean_prompt=128, mean_gen=16, seed=7)
        rep = simulate_serving(trace, costs=costs, max_batch=16)
        rows.append(
            {
                "req_per_s": rate,
                "p50_s": rep.latency_percentile(trace, 50),
                "p99_s": rep.latency_percentile(trace, 99),
                "ttft_p50_s": rep.ttft_percentile(trace, 50),
                "tokens_per_s": rep.tokens_per_second,
            }
        )
    return ExperimentResult(
        exp_id="abl-serving",
        title="Ablation: serving latency percentiles vs offered load",
        columns=["req_per_s", "p50_s", "p99_s", "ttft_p50_s", "tokens_per_s"],
        rows=rows,
        notes=["queueing dominates P99 as load approaches capacity"],
    )


ALL_ABLATIONS = {
    "abl-cudagraph": ablation_cuda_graph,
    "abl-fusion": ablation_fusion_strategy,
    "abl-pcc": ablation_pcc_degree,
    "abl-expert-slicing": ablation_expert_slicing,
    "abl-hybrid": ablation_hybrid_factor,
    "abl-prefetch": ablation_prefetch_depth,
    "abl-sla": ablation_sla_frontier,
    "abl-pinned": ablation_pinned_weights,
    "abl-serving": ablation_serving_load,
}
