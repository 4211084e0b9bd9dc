"""Every paper table, figure and ablation driver reproduces its golden
digest bit for bit.

``tests/golden/paper.json`` holds one SHA-256 per driver in
``repro.bench.runner.REGISTRY``, taken over the driver's
``to_json_dict()`` with keys sorted and every float rendered by
``float.hex``, so a drift in the last bit of any reported number fails
here even when it stays inside the bands ``benchmarks/test_fig*.py``
check. One more digest, ``trace-generation-grid``, covers the
deployment timelines of ``trace_generation`` (their rows, makespans and
mean GPU utilizations) over 3 dense models x TP x PP x hybrid prompt
factor x lockstep. A change that moves a figure on purpose regenerates the file with

    WRITE_PAPER_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_paper_golden.py

and says in CHANGES.md which drivers moved and why.
"""

import hashlib
import itertools
import json
import os
from pathlib import Path

from repro.bench.runner import REGISTRY
from repro.engine import DenseLatencyModel, Workload, trace_generation
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO

GOLDEN = Path(__file__).resolve().parent / "golden" / "paper.json"


def _exact(value):
    """``value`` with every float replaced by its ``float.hex`` text."""
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"unexpected {type(value).__name__} in a result")


def _trace_grid() -> dict[str, dict]:
    """``trace_generation`` over 3 models x TP x PP x hybrid prompt
    factor x lockstep on two DGX-A100 nodes (108 timelines)."""
    cluster = dgx_a100_cluster(2)
    workload = Workload(batch=4, prompt_len=16, gen_tokens=2)
    grid = {}
    for name, tp, pp, hybrid, lockstep in itertools.product(
            ("gpt-j-6b", "gpt-13b", "lm-175b"), (1, 2, 4), (1, 2, 4),
            (1, 2), (False, True)):
        trace = trace_generation(DenseLatencyModel(
            DENSE_ZOO[name], cluster, tp=tp, pp=pp,
            hybrid_prompt_factor=hybrid, lockstep_generation=lockstep),
            workload)
        grid[f"{name}/tp{tp}/pp{pp}/h{hybrid}/{lockstep}"] = {
            "rows": trace.timeline.to_rows(),
            "makespan": trace.makespan,
            "utilization": trace.mean_gpu_utilization(),
        }
    return grid


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(
        _exact(value), sort_keys=True,
        separators=(",", ":")).encode()).hexdigest()


def _digests() -> dict[str, str]:
    digests = {exp_id: _sha256(driver().to_json_dict())
               for exp_id, driver in REGISTRY.items()}
    digests["trace-generation-grid"] = _sha256(_trace_grid())
    return digests


def test_every_driver_matches_its_golden_digest():
    digests = _digests()
    if os.environ.get("WRITE_PAPER_GOLDEN") == "1":
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True)
                          + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert golden.keys() == digests.keys(), (
        "REGISTRY plus the trace grid and the golden file name different "
        "digests")
    moved = sorted(k for k in digests if digests[k] != golden[k])
    assert not moved, f"drivers whose results moved: {moved}"
