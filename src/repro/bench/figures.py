"""Experiment drivers: one function per table/figure of the paper.

Each function regenerates the rows behind one evaluation artifact
(Sec. VII) and returns an :class:`ExperimentResult`. The benchmark files
under ``benchmarks/`` call these; ``python -m repro.bench`` prints them
all; EXPERIMENTS.md records paper-vs-measured per figure.
"""

from __future__ import annotations

from ..baselines import (
    CPUOnlyBaseline,
    FasterTransformerBaseline,
    GPUOnlyBaseline,
    et_comparison,
    layer_latency_sweep,
)
from ..engine import (
    DenseLatencyModel,
    MoELatencyModel,
    Workload,
    best_throughput,
)
from ..hardware import (
    A100_40GB,
    DType,
    dgx2_v100,
    dgx_a100_cluster,
    lambda_a6000_workstation,
)
from ..kernels import DEEPSPEED_FP16, DEEPSPEED_INT8, FASTER_TRANSFORMER_FP16
from ..model import DENSE_ZOO, MOE_PARALLELISM, MOE_ZOO, MoEParallelism, get_model
from ..zero import ZeroInferenceEngine
from .tables import ExperimentResult

__all__ = [
    "table1",
    "table2",
    "fig6_dense_latency",
    "fig7_moe_latency",
    "fig8_throughput",
    "fig9_zero_inference",
    "fig10a_kernel_breakdown",
    "fig10b_pipeline_ablation",
    "fig10c_prefetch",
    "fig11_moe_bandwidth",
    "fig12_et_comparison",
    "fig13_hybrid_prompt",
    "ALL_EXPERIMENTS",
]

# Table I's Fig. 6 deployment: model -> tensor-parallel degree.
FIG6_TP = {
    "gpt2-1.5b": 1,
    "gpt-neo-2.7b": 1,
    "gpt-j-6b": 1,
    "gpt-13b": 1,
    "gpt-neox-20b": 2,
    "gpt-50b": 4,
    "gpt-87b": 8,
    "lm-175b": 16,
}


def table1() -> ExperimentResult:
    """Table I: dense model configurations."""
    rows = []
    for name, cfg in DENSE_ZOO.items():
        rows.append(
            {
                "model": name,
                "params(B)": cfg.total_params / 1e9,
                "listed(B)": cfg.listed_params / 1e9,
                "hidden": cfg.hidden,
                "layers": cfg.layers,
                "heads": cfg.heads,
                "fp16_gb": cfg.param_bytes(DType.FP16) / 1e9,
            }
        )
    return ExperimentResult(
        exp_id="table1",
        title="Dense model configurations (Table I)",
        columns=["model", "params(B)", "listed(B)", "hidden", "layers",
                 "heads", "fp16_gb"],
        rows=rows,
    )


def table2() -> ExperimentResult:
    """Table II: sparse model configurations and parallelism."""
    rows = []
    for name, cfg in MOE_ZOO.items():
        par = MOE_PARALLELISM[name]
        rows.append(
            {
                "model": name,
                "listed(B)": cfg.listed_params / 1e9,
                "est(B)": cfg.total_params / 1e9,
                "layers": cfg.layers,
                "hidden": cfg.hidden,
                "MP": par.mp_degree,
                "EP": par.ep_degree,
                "expert_slicing": par.expert_slicing,
                "gpus": par.num_gpus,
            }
        )
    return ExperimentResult(
        exp_id="table2",
        title="Sparse (MoE) model configurations (Table II)",
        columns=["model", "listed(B)", "est(B)", "layers", "hidden", "MP",
                 "EP", "expert_slicing", "gpus"],
        rows=rows,
    )


def fig6_dense_latency() -> ExperimentResult:
    """Fig. 6: DS-FP16/INT8 vs FT-FP16 latency & throughput, prompt 128 /
    gen 8, across models and batch sizes."""
    cluster = dgx_a100_cluster(4)
    rows = []
    for name, tp in FIG6_TP.items():
        cfg = DENSE_ZOO[name]
        for batch in (1, 4, 16, 32):
            w = Workload(batch=batch, prompt_len=128, gen_tokens=8)
            lat = {}
            for label, prof in (
                ("ft_fp16", FASTER_TRANSFORMER_FP16),
                ("ds_fp16", DEEPSPEED_FP16),
                ("ds_int8", DEEPSPEED_INT8),
            ):
                model = DenseLatencyModel(cfg, cluster, tp=tp, profile=prof)
                lat[label] = model.estimate(w)
            rows.append(
                {
                    "model": name,
                    "tp": tp,
                    "batch": batch,
                    "ft_ms": lat["ft_fp16"].total_latency * 1e3,
                    "ds_fp16_ms": lat["ds_fp16"].total_latency * 1e3,
                    "ds_int8_ms": lat["ds_int8"].total_latency * 1e3,
                    "fp16_speedup": lat["ft_fp16"].total_latency
                    / lat["ds_fp16"].total_latency,
                    "int8_speedup": lat["ft_fp16"].total_latency
                    / lat["ds_int8"].total_latency,
                    "ds_tokens_per_s": lat["ds_fp16"].tokens_per_second,
                }
            )
    return ExperimentResult(
        exp_id="fig6",
        title="Dense latency/throughput vs FasterTransformer (Fig. 6)",
        columns=["model", "tp", "batch", "ft_ms", "ds_fp16_ms", "ds_int8_ms",
                 "fp16_speedup", "int8_speedup", "ds_tokens_per_s"],
        rows=rows,
        notes=["paper: DS-FP16 up to 1.55x, DS-INT8 up to 1.95x over FT-FP16; "
               "largest gains on the smallest models"],
    )


def fig7_moe_latency() -> ExperimentResult:
    """Fig. 7: DS-MoE vs PyTorch-MoE per-token latency and throughput on
    up to 256 GPUs (batch 8, prompt 128, generating 100 tokens)."""
    cluster = dgx_a100_cluster(32)
    batch = 8
    rows = []
    for name, cfg in MOE_ZOO.items():
        par = MOE_PARALLELISM[name]
        ds = MoELatencyModel(cfg, cluster, par, optimized=True)
        base = MoELatencyModel(cfg, cluster, par, optimized=False)
        lat_ds = ds.token_latency(batch)
        lat_base = base.token_latency(batch)
        rows.append(
            {
                "model": name,
                "params(B)": cfg.listed_params / 1e9,
                "gpus": par.num_gpus,
                "baseline_ms": lat_base * 1e3,
                "deepspeed_ms": lat_ds * 1e3,
                "speedup": lat_base / lat_ds,
                "ds_tokens_per_s_per_gpu": batch / lat_ds / par.num_gpus,
            }
        )
    return ExperimentResult(
        exp_id="fig7",
        title="MoE latency/throughput vs PyTorch baseline (Fig. 7)",
        columns=["model", "params(B)", "gpus", "baseline_ms", "deepspeed_ms",
                 "speedup", "ds_tokens_per_s_per_gpu"],
        rows=rows,
        notes=["paper: up to 7.3x latency reduction; the >1T model serves "
               "under 25 ms/token on 256 GPUs"],
    )


def fig8_throughput() -> ExperimentResult:
    """Fig. 8: best-batch generation throughput, 175B (16 GPUs, TP8xPP2)
    and 530B (40 GPUs, TP8xPP5) vs FasterTransformer (prompt 512, gen 50)."""
    cluster = dgx_a100_cluster(8)
    rows = []

    # 175B: both systems run TP8 x PP2; DS adds schedule + offload batches.
    cfg = DENSE_ZOO["lm-175b"]
    ds = DenseLatencyModel(cfg, cluster, tp=8, pp=2, hybrid_prompt_factor=2)
    ds_pt = best_throughput(ds, prompt_len=512, gen_tokens=50,
                            offload_activations=True)
    ft = FasterTransformerBaseline(cfg, cluster, tp=8, pp=2)
    ft_pt = ft.best_throughput(prompt_len=512, gen_tokens=50)
    rows.append(
        {
            "model": "lm-175b",
            "gpus": 16,
            "ft_tokens_per_s": ft_pt.tokens_per_second,
            "ft_batch": ft_pt.batch,
            "ds_tokens_per_s": ds_pt.tokens_per_second,
            "ds_batch": ds_pt.batch,
            "speedup": ds_pt.tokens_per_second / ft_pt.tokens_per_second,
        }
    )

    # 530B: DS runs TP8 x PP5; FT's TP+PP crashed in the paper, so the
    # comparator is FT with tensor slicing only — 32 ways (the largest
    # power-of-two slicing of 128 heads that fits within 40 GPUs).
    cfg = DENSE_ZOO["lm-530b"]
    ds = DenseLatencyModel(cfg, cluster, tp=8, pp=5, hybrid_prompt_factor=2)
    ds_pt = best_throughput(ds, prompt_len=512, gen_tokens=50,
                            offload_activations=True)
    ft_model = DenseLatencyModel(
        cfg, cluster, tp=32, pp=1, profile=FASTER_TRANSFORMER_FP16,
        lockstep_generation=True,
    )
    ft_pt = best_throughput(ft_model, prompt_len=512, gen_tokens=50)
    rows.append(
        {
            "model": "lm-530b",
            "gpus": 40,
            "ft_tokens_per_s": ft_pt.tokens_per_second,
            "ft_batch": ft_pt.batch,
            "ds_tokens_per_s": ds_pt.tokens_per_second,
            "ds_batch": ds_pt.batch,
            "speedup": ds_pt.tokens_per_second / ft_pt.tokens_per_second,
        }
    )
    return ExperimentResult(
        exp_id="fig8",
        title="Massive-model generation throughput vs FT (Fig. 8)",
        columns=["model", "gpus", "ft_tokens_per_s", "ft_batch",
                 "ds_tokens_per_s", "ds_batch", "speedup"],
        rows=rows,
        notes=["paper: 1.51x (175B) and 1.53x (530B, vs FT TP-only)"],
    )


def fig9_zero_inference() -> ExperimentResult:
    """Fig. 9: ZeRO-Inference — (a) batch sweep on one A6000, (b) model
    scale + TFLOPS across models, (c) multi-GPU scaling on a DGX-2."""
    rows = []
    ws = lambda_a6000_workstation(1)

    # (a) GPT-NeoX-20B generation throughput across batch sizes (prompt
    # 512, gen 50): the "benefit of larger batch size" panel.
    cfg = get_model("gpt-neox-20b")
    zero = ZeroInferenceEngine(cfg, ws)
    cap = zero.max_batch(562)
    b = 1
    while b <= cap:
        tput = zero.generation_throughput(prompt_len=512, gen_tokens=50, batch=b)
        rep = zero.forward_pass(batch=b, tokens_per_seq=512)
        rows.append(
            {
                "panel": "a",
                "config": f"zero-batch-{b}",
                "model": cfg.name,
                "batch": b,
                "tflops": rep.tflops_per_gpu,
                "tokens_per_s": tput,
            }
        )
        b *= 2

    # (b) across models on one A6000: GPU-only vs CPU-only vs ZeRO.
    for name in ("gpt-neox-20b", "gpt-50b", "gpt-87b", "lm-175b", "lm-530b"):
        mcfg = get_model(name)
        gpu_only = GPUOnlyBaseline(mcfg, ws)
        cpu_only = CPUOnlyBaseline(mcfg, ws)
        z = ZeroInferenceEngine(mcfg, ws)
        zrep = z.max_batch_pass(seq_len=2048)
        rows.append(
            {
                "panel": "b",
                "config": "comparison",
                "model": name,
                "gpu_only_runs": gpu_only.fits() and gpu_only.max_batch(2048) >= 1,
                "cpu_only_runs": cpu_only.fits(),
                "zero_tier": z.placement.value,
                "batch": zrep.batch,
                "tflops": zrep.tflops_per_gpu,
                "pct_peak": 100 * zrep.tflops_per_gpu * 1e12 / ws.gpu.fp16_flops,
            }
        )

    # (c) GPT-50B on 1..16 V100s.
    dgx2 = dgx2_v100(16)
    cfg = get_model("gpt-50b")
    base_tflops = None
    for n in (1, 2, 4, 8, 16):
        z = ZeroInferenceEngine(cfg, dgx2, num_gpus=n)
        rep = z.max_batch_pass(seq_len=2048)
        total = rep.tflops_per_gpu * n
        if base_tflops is None:
            base_tflops = total
        rows.append(
            {
                "panel": "c",
                "config": f"v100-x{n}",
                "model": cfg.name,
                "gpus": n,
                "batch": rep.batch,
                "tflops": rep.tflops_per_gpu,
                "total_tflops": total,
                "scaling_eff": total / (base_tflops * n),
            }
        )
    return ExperimentResult(
        exp_id="fig9",
        title="ZeRO-Inference: scale, throughput, scalability (Fig. 9)",
        columns=["panel", "config", "model", "batch", "tflops", "tokens_per_s",
                 "gpu_only_runs", "cpu_only_runs", "zero_tier", "pct_peak",
                 "gpus", "total_tflops", "scaling_eff"],
        rows=rows,
        notes=[
            "paper: 530B on one A6000 (25x over GPU-only's ~20B ceiling), "
            "84 TFLOPS = 54% of peak, near-linear scaling to 16 V100s at "
            "67 TFLOPS/GPU",
        ],
    )


def fig10a_kernel_breakdown() -> ExperimentResult:
    """Fig. 10a: GPT-2 kernel ablation — Megatron baseline, +Deep-Fusion,
    +SBI-GeMM, across batch sizes."""
    sweep = layer_latency_sweep(DENSE_ZOO["gpt2-1.5b"], A100_40GB,
                                batches=(1, 2, 4, 8, 16, 32))
    rows = []
    base = sweep["Megatron-FP16"]
    for config, series in sweep.items():
        for batch, t in series.items():
            rows.append(
                {
                    "config": config,
                    "batch": batch,
                    "latency_ms": t * 1e3,
                    "speedup_vs_baseline": base[batch] / t,
                }
            )
    return ExperimentResult(
        exp_id="fig10a",
        title="Kernel ablation on GPT-2 (Fig. 10a)",
        columns=["config", "batch", "latency_ms", "speedup_vs_baseline"],
        rows=rows,
        notes=["paper: deep-fusion dominates; custom GeMM adds gains at "
               "small batch only"],
    )


def fig10b_pipeline_ablation() -> ExperimentResult:
    """Fig. 10b: 530B generation-throughput ablation over the pipeline
    optimizations of Sec. IV (cumulative)."""
    cluster = dgx_a100_cluster(8)
    cfg = DENSE_ZOO["lm-530b"]
    prompt, gen = 512, 50
    rows = []

    def run(label, *, lockstep, hybrid, offload, comm_opt):
        model = DenseLatencyModel(
            cfg, cluster, tp=8, pp=5,
            lockstep_generation=lockstep,
            hybrid_prompt_factor=hybrid,
        )
        point = best_throughput(
            model, prompt_len=prompt, gen_tokens=gen,
            offload_activations=offload,
            offload_scheme="odd_even" if comm_opt else "naive",
        )
        rows.append({"config": label, "tokens_per_s": point.tokens_per_second,
                     "batch": point.batch})
        return point.tokens_per_second

    t0 = run("baseline pipeline (lockstep)", lockstep=True, hybrid=1,
             offload=False, comm_opt=False)
    run("+ dynamic token schedule", lockstep=False, hybrid=1,
        offload=False, comm_opt=False)
    run("+ hybrid scheduling", lockstep=False, hybrid=2,
        offload=False, comm_opt=False)
    run("+ activation offload (bigger batch)", lockstep=False, hybrid=2,
        offload=True, comm_opt=False)
    t4 = run("+ odd/even PCIe scheduling", lockstep=False, hybrid=2,
             offload=True, comm_opt=True)
    for r in rows:
        r["vs_baseline"] = r["tokens_per_s"] / t0
    return ExperimentResult(
        exp_id="fig10b",
        title="530B pipeline optimization ablation (Fig. 10b)",
        columns=["config", "tokens_per_s", "batch", "vs_baseline"],
        rows=rows,
        notes=[
            f"cumulative gain {t4 / t0:.2f}x over the naive pipeline",
            "in this calibration the optimal batch stays within the "
            "GPU-resident KV ceiling: PCIe4 round-trips of offloaded cache "
            "cost more per extra sequence than the sequence earns, so the "
            "offload/odd-even bars are flat (see EXPERIMENTS.md)",
        ],
    )


def fig10c_prefetch() -> ExperimentResult:
    """Fig. 10c: prefetching impact on ZeRO-Inference (V100), batch sweep
    over prompt-shaped passes (seq 2048, the Sec. VI workload)."""
    cluster = dgx2_v100(1)
    cfg = get_model("gpt-neox-20b")
    rows = []
    for batch in (1, 2, 4, 8, 16, 32):
        times = {}
        for depth in (0, 1):
            eng = ZeroInferenceEngine(cfg, cluster, prefetch_depth=depth)
            rep = eng.forward_pass(batch=batch, tokens_per_seq=2048)
            times[depth] = rep.time
        rows.append(
            {
                "batch": batch,
                "no_prefetch_ms": times[0] * 1e3,
                "prefetch_ms": times[1] * 1e3,
                "improvement": times[0] / times[1],
            }
        )
    return ExperimentResult(
        exp_id="fig10c",
        title="Prefetching impact on ZeRO-Inference (Fig. 10c)",
        columns=["batch", "no_prefetch_ms", "prefetch_ms", "improvement"],
        rows=rows,
        notes=["paper: prefetch helps at small batch; benefit diminishes as "
               "arithmetic intensity hides the fetch"],
    )


def fig11_moe_bandwidth() -> ExperimentResult:
    """Fig. 11: aggregate effective memory bandwidth of the 52B MoE model
    at batch 8, 8 to 128 GPUs, DeepSpeed vs baseline."""
    cfg = MOE_ZOO["1.3b-moe-128"]
    batch = 8
    rows = []
    for gpus in (8, 16, 32, 64, 128):
        cluster = dgx_a100_cluster(max(1, gpus // 8))
        par = MoEParallelism(mp_degree=1, ep_degree=gpus, expert_slicing=1,
                             num_gpus=gpus)
        ds = MoELatencyModel(cfg, cluster, par, optimized=True)
        base = MoELatencyModel(cfg, cluster, par, optimized=False)
        rows.append(
            {
                "gpus": gpus,
                "ds_agg_tb_s": ds.aggregate_bandwidth(batch) / 1e12,
                "baseline_agg_tb_s": base.aggregate_bandwidth(batch) / 1e12,
                "ds_per_gpu_gb_s": ds.effective_bandwidth_per_gpu(batch) / 1e9,
                "baseline_per_gpu_gb_s": base.effective_bandwidth_per_gpu(batch)
                / 1e9,
            }
        )
    return ExperimentResult(
        exp_id="fig11",
        title="Aggregate memory-bandwidth scalability, 52B MoE (Fig. 11)",
        columns=["gpus", "ds_agg_tb_s", "baseline_agg_tb_s",
                 "ds_per_gpu_gb_s", "baseline_per_gpu_gb_s"],
        rows=rows,
        notes=["paper: DeepSpeed sustains much higher per-GPU bandwidth and "
               "keeps scaling to 128 GPUs; the baseline flattens"],
    )


def fig12_et_comparison() -> ExperimentResult:
    """Fig. 12: encoder-kernel comparison with E.T. (batch 1, seq 128)."""
    rows = []
    for model, vals in et_comparison().items():
        rows.append(
            {
                "model": model,
                "et_ms": vals["et"] * 1e3,
                "deepspeed_ms": vals["deepspeed"] * 1e3,
                "speedup": vals["speedup"],
            }
        )
    return ExperimentResult(
        exp_id="fig12",
        title="Comparison with E.T. kernels (Fig. 12)",
        columns=["model", "et_ms", "deepspeed_ms", "speedup"],
        rows=rows,
        notes=["paper: 1.7x on DistilBERT, 1.4x on BERT"],
    )


def fig13_hybrid_prompt() -> ExperimentResult:
    """Fig. 13: prompt-processing latency and TFLOPS at batch 24,
    DeepSpeed (hybrid scheduling) vs FasterTransformer, 175B on 2x8 A100."""
    cluster = dgx_a100_cluster(2)
    batch = 24
    cfg = DENSE_ZOO["lm-175b"]
    w = Workload(batch=batch, prompt_len=512, gen_tokens=1)
    rows = []

    def tflops(report):
        flops = batch * 512 * cfg.flops_per_token(kv_len=512)
        return flops / report.prompt_latency / 16 / 1e12

    # PP + MP configuration: TP8 x PP2.
    ds = DenseLatencyModel(cfg, cluster, tp=8, pp=2, hybrid_prompt_factor=4)
    ft = DenseLatencyModel(cfg, cluster, tp=8, pp=2,
                           profile=FASTER_TRANSFORMER_FP16,
                           lockstep_generation=True)
    rds, rft = ds.estimate(w), ft.estimate(w)
    rows.append(
        {
            "config": "PP+MP (tp8 x pp2)",
            "ft_prompt_ms": rft.prompt_latency * 1e3,
            "ds_prompt_ms": rds.prompt_latency * 1e3,
            "speedup": rft.prompt_latency / rds.prompt_latency,
            "ds_tflops_per_gpu": tflops(rds),
        }
    )

    # MP-only configuration: TP16 across both nodes; FT pays a flat
    # inter-node ring all-reduce per layer.
    ds = DenseLatencyModel(cfg, cluster, tp=16, pp=1)
    ft = DenseLatencyModel(cfg, cluster, tp=16, pp=1,
                           profile=FASTER_TRANSFORMER_FP16,
                           hierarchical_comm=False)
    rds, rft = ds.estimate(w), ft.estimate(w)
    rows.append(
        {
            "config": "MP-only (tp16)",
            "ft_prompt_ms": rft.prompt_latency * 1e3,
            "ds_prompt_ms": rds.prompt_latency * 1e3,
            "speedup": rft.prompt_latency / rds.prompt_latency,
            "ds_tflops_per_gpu": tflops(rds),
        }
    )
    return ExperimentResult(
        exp_id="fig13",
        title="Hybrid-scheduling prompt latency vs FT (Fig. 13)",
        columns=["config", "ft_prompt_ms", "ds_prompt_ms", "speedup",
                 "ds_tflops_per_gpu"],
        rows=rows,
        notes=["paper: 1.18x (PP+MP) and 3.06x (MP-only) at batch 24"],
    )


ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig6": fig6_dense_latency,
    "fig7": fig7_moe_latency,
    "fig8": fig8_throughput,
    "fig9": fig9_zero_inference,
    "fig10a": fig10a_kernel_breakdown,
    "fig10b": fig10b_pipeline_ablation,
    "fig10c": fig10c_prefetch,
    "fig11": fig11_moe_bandwidth,
    "fig12": fig12_et_comparison,
    "fig13": fig13_hybrid_prompt,
}
