"""Smoke test of the end-to-end serving benchmark at ~1% size.

Runs every workload once untraced and once traced through the real
command and checks that every metric BENCHMARK.json names is emitted
with its unit, that the timing proxies leave modeled outputs unchanged,
and that the per-layer self times account for the traced wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import metrics
from benchmarks.e2e.probes import Probes
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.01"


def _bench(tmp_path, *extra):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/__main__.py", "--scale", SCALE,
         "--repeats", "1", "--json", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return json.loads(out.read_text())


def _assert_declared(results, declared):
    want = {m["name"]: m["unit"] for m in declared}
    assert [r["workload"] for r in results] == [
        w["name"] for w in SPEC["workloads"]]
    for r in results:
        got = {k: m["unit"] for k, m in r["metrics"].items()}
        assert got == want, r["workload"]
        assert all(isinstance(m["value"], (int, float))
                   for m in r["metrics"].values())


def test_serving_benchmark_emits_every_end_to_end_metric(tmp_path):
    results = _bench(tmp_path)
    _assert_declared(results, SPEC["end_to_end"])
    for r in results:
        m = {k: v["value"] for k, v in r["metrics"].items()}
        assert m["sim_requests_per_wall_s"] > 0 and m["setup_s"] > 0
        assert 0 < m["model_slo_attainment"] <= 1
        assert m["model_goodput_rps"] > 0


def test_serving_benchmark_layer_times_cover_traced_wall(tmp_path):
    results = _bench(tmp_path, "--trace")
    _assert_declared(results, SPEC["per_layer"])
    for r in results:
        m = {k: v["value"] for k, v in r["metrics"].items()}
        sim_s = m["trace.wall_s"] - m["report.busy_s"]
        latency_self = m["latency.busy_s"] - m["kernels.busy_s"]
        selfs = [m["sim_loop.self_s"],
                 m["router.wall_share"] * sim_s,
                 m["autoscale.wall_share"] * sim_s,
                 m["costs.self_s"], latency_self, m["kernels.busy_s"],
                 m["report.busy_s"]]
        assert min(selfs) >= 0, (r["workload"], selfs)
        assert sum(selfs) == pytest.approx(m["trace.wall_s"], rel=0.10)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_serving_probes_are_transparent(name):
    wl = WORKLOADS[name]
    n = wl.size(float(SCALE))
    plain = wl.build(wl.seed, 0, num_requests=n)
    traced = wl.build(wl.seed, 0, num_requests=n)
    probes = Probes(traced)
    assert metrics.digest(traced.simulate()) == \
        metrics.digest(plain.simulate())
    layers = probes.layers(1.0)
    assert layers["costs.prompt_calls"] >= n
    assert layers["latency.calls"] > 0 and layers["kernels.calls"] > 0
