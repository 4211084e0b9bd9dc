"""One-way layering: the analytical stack imports no functional executor.

``repro`` has two layers. The *functional* layer is the NumPy engine
that proves the paper's algorithms correct; ``FUNCTIONAL`` below lists
its modules, and is the one place that list is written down. Every
other module is *analytical*: the performance model that regenerates
the paper's figures and runs every serving and fleet simulation. An
analytical module may not import a functional one, so a simulation
never loads an executor. A functional module may import analytical
ones.

The rule is checked twice:

* statically, over the ``repro`` modules of the session's
  ``repro.lint`` project pass (``tests/repo_project.py``), whose import
  graph includes imports made inside functions;
* at runtime, in a fresh interpreter that runs a tiny serving and fleet
  simulation, imports the benchmark's workloads, and then finds no
  functional module in ``sys.modules``.

Inside the functional layer, every matrix product runs through
``kernels.functional``: no other functional module writes a bare ``@``,
save the one allowlisted site in ``BARE_MATMUL``. So a recorder that
wraps ``linear`` and ``scaled_dot_product_attention`` sees all the work
an executor does (``tests/test_executed_work.py``).
"""

import ast
import functools
import json
import os
import subprocess
import sys

from tests.repo_project import ROOT, repo_project

SRC = ROOT / "src"

FUNCTIONAL = frozenset(f"repro.{name}" for name in (
    "model.checkpoint", "model.dense", "model.encoder", "model.gating",
    "model.kvcache", "model.moe", "model.paged_kv", "model.ragged",
    "model.sampling",
    "parallel.expert_parallel", "parallel.hybrid", "parallel.pipeline",
    "parallel.pipeline_exec", "parallel.quantized",
    "parallel.tensor_parallel",
    "comm.functional", "kernels.functional", "kernels.quant",
    "kernels.cuda_graph", "engine.generation", "zero.streamed_model",
    "fleet.functional",
))

#: the NumPy executors every functional module runs on
EXECUTORS = frozenset({"repro.kernels.functional", "repro.comm.functional"})

#: the one bare ``@`` outside ``kernels.functional``, with its reason
BARE_MATMUL = {
    ("repro.kernels.quant", "x @ qweight.data.astype(np.float64)"):
        "the INT8 GeMM's integer-exact float64 accumulate, which "
        "dequantizes after the product rather than before",
}


@functools.lru_cache(maxsize=None)
def _import_graph() -> dict[str, set[str]]:
    return {module: targets
            for module, targets in repo_project().import_graph.items()
            if module == "repro" or module.startswith("repro.")}


def _is_lint(module: str) -> bool:
    return (module + ".").startswith("repro.lint.")


def test_analytical_modules_import_no_functional_module():
    edges = sorted(
        f"{module} -> {target}"
        for module, targets in _import_graph().items()
        if module not in FUNCTIONAL and not _is_lint(module)
        for target in targets & FUNCTIONAL)
    assert not edges, (
        "analytical modules import functional ones; move the shared "
        f"analytical piece out of the functional module: {edges}")


def test_every_listed_module_exists():
    missing = sorted(FUNCTIONAL - _import_graph().keys())
    assert not missing, f"FUNCTIONAL lists modules that do not exist: {missing}"


def test_every_executor_user_is_listed():
    graph = _import_graph()

    def closure(module: str) -> set[str]:
        seen, todo = set(), [module]
        while todo:
            for target in graph[todo.pop()] - seen:
                seen.add(target)
                todo.append(target)
        return seen

    unlisted = sorted(
        module for module in graph
        if module not in FUNCTIONAL and not _is_lint(module)
        and closure(module) & EXECUTORS)
    assert not unlisted, (
        "modules that reach a NumPy executor but are not in FUNCTIONAL; "
        f"list each new executor there: {unlisted}")


_RUN_SIMULATIONS = """
import json, sys

import benchmarks.e2e.workloads  # noqa: F401 (the benchmark's imports)
from repro.autoscale import AutoscaleConfig
from repro.engine import (DenseLatencyModel, DenseStepCost, simulate_serving,
                          synthesize_trace)
from repro.fleet import simulate_fleet
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO

costs = DenseStepCost(
    DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4))
trace = synthesize_trace(num_requests=24, arrival_rate=40.0, mean_prompt=64,
                         mean_gen=8, seed=0)
served = simulate_serving(trace, costs=costs, max_batch=4)
fleet = simulate_fleet(
    trace, num_replicas=1, max_batch=4, costs=costs,
    routing="least_outstanding",
    autoscaler=AutoscaleConfig(min_replicas=1, max_replicas=3,
                               ttft_slo_s=0.05, epoch_s=0.05))
assert len(served.finish_times) == fleet.num_completed == len(trace.requests)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def test_simulations_load_no_functional_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_SIMULATIONS], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "repro.fleet.sim" in loaded and "repro.engine.serving_sim" in loaded
    leaked = sorted(loaded & FUNCTIONAL)
    assert not leaked, f"a simulation loaded functional modules: {leaked}"


def _bare_matmuls(module: str) -> list[tuple[int, str]]:
    mod = repo_project().modules[module]
    return [
        (node.lineno, ast.get_source_segment(mod.source, node))
        for node in ast.walk(mod.tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.MatMult)
    ]


def test_every_functional_gemm_runs_through_kernels_functional():
    found = {
        (module, segment): line
        for module in FUNCTIONAL - {"repro.kernels.functional"}
        for line, segment in _bare_matmuls(module)
    }
    stray = sorted(f"{module}:{line}: {segment}"
                   for (module, segment), line in found.items()
                   if (module, segment) not in BARE_MATMUL)
    assert not stray, (
        "bare @ in a functional executor; call kernels.functional.linear "
        f"so executed work stays recorded: {stray}")
    stale = sorted(set(BARE_MATMUL) - found.keys())
    assert not stale, f"BARE_MATMUL lists sites that no longer exist: {stale}"
