"""One measured repeat in a fresh process.

The runner starts ``python -m benchmarks.e2e.child WORKLOAD SEED PART
SCALE TRACED`` once per repeat, so imports, memo warm-up and peak RSS
are paid per run as a user pays them. Set-up (imports, trace
generation, cost-model and placement construction) ends when the
simulator is about to be called; the timed region is the simulate call
plus the report views. Around the timed region the child times a fixed
reference loop, which the runner uses to factor this machine's
momentary speed out of the host metrics. The child prints one JSON
line.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time

import numpy as np

from . import metrics
from .probes import Probes
from .workloads import WORKLOADS

REFERENCE_CHUNKS = 8
REFERENCE_CHUNK_ITERS = 112_500
# Median chunk time x REFERENCE_CHUNKS on an idle Intel Xeon vCPU at
# 2.1 GHz: host times are reported scaled to that machine's speed.
REFERENCE_NOMINAL_S = 0.2


def reference_chunks() -> list[float]:
    """Wall times of REFERENCE_CHUNKS runs of a fixed loop shaped like
    the simulator's hot path: a tuple-keyed dict memo, float arithmetic
    and small NumPy calls. It lives only in this file, so no change to
    the simulator moves it. The caller takes the median chunk, which a
    burst of load shorter than a chunk or two cannot move."""
    times = []
    buf = np.arange(256, dtype=float)
    for _ in range(REFERENCE_CHUNKS):
        t0 = time.perf_counter()
        memo: dict = {}
        acc = 0.0
        for i in range(REFERENCE_CHUNK_ITERS):
            key = (i % 509, i % 7)
            v = memo.get(key)
            if v is None:
                v = memo[key] = math.sqrt(i + 1.0)
            acc += v
            if not i % 64:
                acc += float(np.cumsum(buf)[-1])
                acc -= float(np.searchsorted(buf, acc % 256.0))
        times.append(time.perf_counter() - t0)
    return times


def main(argv: list[str]) -> None:
    name, seed, part, scale, traced = argv
    gen_s: list[float] = []
    run = WORKLOADS[name].build(int(seed), int(part), scale=float(scale),
                                on_trace=gen_s.append)
    probes = Probes(run) if traced == "1" else None
    ready_at = time.time()
    reference = reference_chunks()

    t0 = time.perf_counter()
    report = run.simulate()
    t1 = time.perf_counter()
    samples = metrics.samples(report, run.trace)
    t2 = time.perf_counter()

    out = {
        "ready_at": ready_at,
        "reference_s": statistics.median(reference + reference_chunks())
        * REFERENCE_CHUNKS,
        "wall_s": t2 - t0,
        "requests": len(run.trace.requests),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": samples,
        "digest": metrics.digest(report),
    }
    if probes is not None:
        out["layers"] = {
            "scenarios.gen_s": gen_s[0],
            "report.busy_s": t2 - t1,
            **probes.layers(t1 - t0),
            **metrics.report_layers(report, run.trace),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
