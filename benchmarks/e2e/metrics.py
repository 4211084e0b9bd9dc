"""Modeled metrics and output digests read from simulator reports.

Every number here is in *simulated* time: what the modeled deployment
would take. Host (wall-clock) time is measured by the runner.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .workloads import TPOT_LIMIT_S, TTFT_LIMIT_S

# Digest fields compared exactly (counts) and within a relative
# tolerance (sums of simulated seconds).
COUNT_FIELDS = ("completed", "total_tokens", "prefix_hits",
                "prefix_hit_tokens", "kv_blocks_allocated",
                "kv_blocks_saved", "peak_kv_blocks", "retried",
                "autoscale_actions")
FLOAT_FIELDS = ("makespan", "sum_finish", "sum_first")
# ROADMAP allows float re-association up to 1e-12 relative; anything
# beyond 1e-9 is a behaviour change.
DIGEST_RTOL = 1e-9


def samples(report, trace) -> dict:
    """Per-request modeled samples of one report, read through its
    ``ReportStats`` views: TTFT of every request, TPOT of every request
    with ``gen >= 2`` (``(finish - first) / (gen - 1)``), and how many
    requests met the SLO. A request that did not complete reads an
    infinite TTFT and misses the SLO."""
    first, finish = report.first_token_times, report.finish_times
    ttft, tpot, met = [], [], 0
    for r in trace.requests:
        rid = r.request_id
        if rid not in finish:
            ttft.append(math.inf)
            continue
        t = report.ttft(r)
        ttft.append(t)
        p = 0.0
        if r.gen_tokens >= 2:
            p = (finish[rid] - first[rid]) / (r.gen_tokens - 1)
            tpot.append(p)
        met += t <= TTFT_LIMIT_S and p <= TPOT_LIMIT_S
    return {"ttft": ttft, "tpot": tpot, "met": met,
            "tokens": report.total_tokens, "makespan": report.makespan}


def pooled(parts: list[dict]) -> dict[str, float]:
    """The modeled end-to-end metrics over the pooled samples of several
    reports (one per trace of a run). Goodput is the requests that met
    the SLO per simulated second."""
    ttft = np.concatenate([p["ttft"] for p in parts])
    tpot = np.concatenate([p["tpot"] for p in parts])
    ttft_p50, ttft_p99 = np.percentile(ttft, [50, 99])
    tpot_p50, tpot_p99 = np.percentile(tpot, [50, 99])
    met = sum(p["met"] for p in parts)
    makespan = sum(p["makespan"] for p in parts)
    return {
        "model_ttft_p50_s": float(ttft_p50),
        "model_ttft_p99_s": float(ttft_p99),
        "model_tpot_p50_s": float(tpot_p50),
        "model_tpot_p99_s": float(tpot_p99),
        "model_slo_attainment": met / ttft.size,
        "model_goodput_rps": met / makespan,
        "model_output_tokens_per_s":
            sum(p["tokens"] for p in parts) / makespan,
    }


def digest(report) -> dict:
    """Order-independent summary of a report's outputs, checked against
    the golden digests, plus ``fingerprint``: a hash of every request's
    first-token and finish time, for bit-for-bit comparisons."""
    first, finish = report.first_token_times, report.finish_times
    rids = sorted(finish)
    times = np.array([(rid, first[rid], finish[rid]) for rid in rids],
                     dtype=float)
    return {
        "completed": len(finish),
        "total_tokens": report.total_tokens,
        "prefix_hits": report.prefix_hits,
        "prefix_hit_tokens": report.prefix_hit_tokens,
        "kv_blocks_allocated": report.kv_blocks_allocated,
        "kv_blocks_saved": report.kv_blocks_saved,
        "peak_kv_blocks": report.peak_kv_blocks,
        "retried": len(getattr(report, "retried", ())),
        "autoscale_actions": len(getattr(report, "autoscale_log", ())),
        "makespan": report.makespan,
        "sum_finish": math.fsum(finish.values()),
        "sum_first": math.fsum(first.values()),
        "fingerprint": hashlib.sha256(times.tobytes()).hexdigest(),
    }


def digest_mismatches(got: dict, want: dict) -> list[str]:
    """Fields where ``got`` departs from the golden ``want``."""
    bad = [k for k in COUNT_FIELDS if got[k] != want[k]]
    bad += [k for k in FLOAT_FIELDS
            if not math.isclose(got[k], want[k], rel_tol=DIGEST_RTOL)]
    return bad


def report_layers(report, trace) -> dict[str, float]:
    """Per-layer modeled counters the report exposes: scheduler queue
    wait percentiles as shares of the same TTFT percentiles, KV ledger,
    fleet retries and replica count."""
    waits = np.fromiter(report.queue_delays.values(), float)
    ttft = [report.ttft(r) for r in trace.requests
            if r.request_id in report.first_token_times]
    wait_p50, wait_p99 = np.percentile(waits, [50, 99])
    ttft_p50, ttft_p99 = np.percentile(ttft, [50, 99])
    discarded = getattr(report, "tokens_discarded", 0)
    return {
        "scheduler.queue_wait_p50_share": float(wait_p50 / ttft_p50),
        "scheduler.queue_wait_p99_share": float(wait_p99 / ttft_p99),
        "kv.prefix_hit_token_share":
            report.prefix_hit_tokens
            / sum(r.prompt_len for r in trace.requests),
        "kv.dedup_ratio": report.kv_dedup_ratio,
        "kv.peak_blocks": report.peak_kv_blocks,
        "kv.blocks_allocated": report.kv_blocks_allocated,
        "fleet.retried_share":
            len(getattr(report, "retried", ())) / len(trace.requests),
        "fleet.tokens_discarded_share":
            discarded / (report.total_tokens + discarded),
        "autoscale.avg_replicas": getattr(report, "avg_replicas", 1.0),
    }
