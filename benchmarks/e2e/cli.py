"""Run the end-to-end benchmark and print every metric with its unit.

Each workload runs ``--repeats`` traces (parts) drawn from ``--seed``,
one after another, each in a fresh single-threaded subprocess; after
the last part, parts are repeated from the first until ``--seconds``
have passed. Host metrics are medians over those runs, each scaled by
the run's reference-loop time to the reference machine's speed; modeled
metrics pool the requests of the ``--repeats`` distinct traces.
``--trace`` adds one traced run of part 0 and reports the per-layer
metrics instead.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (simulated requests of the timed runs) and
``metrics`` — the end-to-end metrics, or with ``--trace`` the per-layer
metrics, each as ``{"value", "unit"}``. The command exits 1 when an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import metrics
from .child import REFERENCE_NOMINAL_S
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN_PATH = HERE / "golden.json"

# Size of the fixed-seed slice whose digest every run checks.
CHECK_REQUESTS = 300
CHILD_TIMEOUT_S = 60
# Per-run fields kept in the --json output.
RUN_FIELDS = ("part", "requests", "wall_s", "setup_s", "slowdown", "rss_mb")
CHILD_ENV = {
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # A fixed hash seed takes dict-layout noise out of run-to-run wall.
    "PYTHONHASHSEED": "0",
}


def declared_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, by name, from
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def spawn(name: str, seed: int, part: int, scale: float,
          traced: bool) -> dict:
    """One repeat in a fresh process; returns its JSON record plus
    ``setup_s`` (process start to ready) and ``slowdown`` (its
    reference-loop time over the reference machine's)."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child", name, str(seed),
         str(part), repr(scale), "1" if traced else "0"],
        cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{name} part {part} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready_at"] - spawned
    out["slowdown"] = out["reference_s"] / REFERENCE_NOMINAL_S
    out["part"] = part
    return out


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (the quartiles equal the median below two
    samples)."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def golden_digests(wl) -> dict:
    """Digests of part 0 at the workload's default seed: the full-size
    trace and the fixed check slice."""
    def golden(run) -> dict:
        d = metrics.digest(run.simulate())
        del d["fingerprint"]  # bit-exact only within one platform
        return d

    return {"seed": wl.seed, "full": golden(wl.build(wl.seed, 0)),
            "check": golden(wl.build(wl.seed, 0,
                                     num_requests=CHECK_REQUESTS))}


def run_workload(wl, args, golden: dict, units: tuple[dict, dict]) -> dict:
    """Measure one workload; returns its result record."""
    seed = wl.seed if args.seed is None else args.seed
    n = wl.size(args.scale)
    problems: list[str] = []
    runs: list[dict] = []
    failed = 0
    start = time.perf_counter()
    while len(runs) < args.repeats \
            or time.perf_counter() - start < args.seconds:
        part = len(runs) % args.repeats
        try:
            run = spawn(wl.name, seed, part, args.scale, traced=False)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(str(exc))
            runs.append({"part": part, "error": True})
            failed += n
            continue
        runs.append(run)
        failed += run["requests"] - run["digest"]["completed"]
        first = runs[part]
        if not first.get("error") and run["digest"] != first["digest"]:
            problems.append(f"part {part} is not deterministic")
            failed += n
    ok = [r for r in runs if not r.get("error")]
    by_part = {r["part"]: r for r in reversed(ok)}
    if len(by_part) < args.repeats:
        raise RuntimeError("\n".join(problems))

    # Output checks: the fixed-seed slice against its golden digest
    # always; part 0 against the full golden digest at the default seed.
    check = wl.build(wl.seed, 0, num_requests=CHECK_REQUESTS).simulate()
    bad = metrics.digest_mismatches(metrics.digest(check),
                                    golden[wl.name]["check"])
    if bad:
        problems.append(f"check slice differs from golden in {bad}")
    if seed == wl.seed and args.scale == 1.0:
        bad = metrics.digest_mismatches(by_part[0]["digest"],
                                        golden[wl.name]["full"])
        if bad:
            problems.append(f"part 0 differs from golden in {bad}")
            failed += n

    e2e_units, layer_units = units
    result = {"workload": wl.name, "seed": seed, "requests_per_run": n,
              "runs": len(runs), "attempted": n * len(runs),
              "slowdown": statistics.median(r["slowdown"] for r in ok),
              "run_records": [{k: r[k] for k in RUN_FIELDS} for r in ok]}
    if args.trace:
        traced = spawn(wl.name, seed, 0, args.scale, traced=True)
        if traced["digest"] != by_part[0]["digest"]:
            problems.append("traced run's outputs differ from untraced")
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_share"] = traced["wall_s"] / statistics.median(
            r["wall_s"] for r in ok if r["part"] == 0) - 1.0
        result["metrics"] = {k: {"value": layers[k], "unit": u}
                             for k, u in layer_units.items()}
    else:
        # Each run's host times are scaled by its reference-loop
        # slowdown: other tenants' load slows the reference loop and the
        # simulator alike.
        e2e = {
            "sim_requests_per_wall_s": quartiles(
                [r["requests"] / r["wall_s"] * r["slowdown"] for r in ok]),
            "setup_s": quartiles([r["setup_s"] / r["slowdown"] for r in ok]),
            "peak_rss_mb": quartiles([r["rss_mb"] for r in ok]),
        }
        modeled = metrics.pooled(
            [by_part[p]["samples"] for p in range(args.repeats)])
        e2e.update({k: {"value": v} for k, v in modeled.items()})
        result["metrics"] = {k: {**e2e[k], "unit": u}
                             for k, u in e2e_units.items()}
    result["failed"] = failed
    result["ops_failed_share"] = failed / result["attempted"]
    result["problems"] = problems
    result["correct"] = not problems and failed == 0
    return result


def print_result(result: dict) -> None:
    print(f"{result['workload']}: seed {result['seed']}, {result['runs']} "
          f"runs of {result['requests_per_run']} requests, "
          f"ops_failed_share {result['ops_failed_share']:.4g}, "
          f"machine slowdown {result['slowdown']:.3f}")
    for name, m in result["metrics"].items():
        spread = (f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
                  if "q1" in m else "")
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{spread}")
    for p in result["problems"]:
        print(f"  CHECK FAILED: {p}")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload (default: all, in order)")
    p.add_argument("--seed", type=int,
                   help="run seed (default: each workload's own)")
    p.add_argument("--repeats", type=int, default=5,
                   help="distinct traces per workload (default 5)")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep repeating until this much time has passed")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="report per-layer metrics from a "
                   "traced run instead of end-to-end metrics")
    p.add_argument("--scale", type=float, default=1.0,
                   help="trace size as a fraction of the full size")
    p.add_argument("--json", type=Path, help="also write results here")
    p.add_argument("--write-golden", action="store_true",
                   help="recompute golden.json and exit")
    args = p.parse_args(argv)
    if args.repeats < 1 or not 0 < args.scale <= 1:
        p.error("--repeats must be >= 1 and --scale in (0, 1]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_golden:
        golden = {name: golden_digests(wl) for name, wl in WORKLOADS.items()}
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
        return 0
    golden = json.loads(GOLDEN_PATH.read_text())
    units = declared_metrics()
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args, golden, units)
        print_result(result)
        results.append(result)
    if args.json:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    if len(results) == 1:
        metrics_out = results[0]["metrics"]
    else:
        metrics_out = {f"{r['workload']}/{k}": m
                       for r in results for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics_out.items()},
    }))
    return 0 if correct else 1
