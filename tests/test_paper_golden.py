"""Every paper table, figure and ablation driver reproduces its golden
digest bit for bit.

``tests/golden/paper.json`` holds one SHA-256 per driver in
``repro.bench.runner.REGISTRY``, taken over the driver's
``to_json_dict()`` with keys sorted and every float rendered by
``float.hex``, so a drift in the last bit of any reported number fails
here even when it stays inside the bands ``benchmarks/test_fig*.py``
check. A change that moves a figure on purpose regenerates the file with

    WRITE_PAPER_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_paper_golden.py

and says in CHANGES.md which drivers moved and why.
"""

import hashlib
import json
import os
from pathlib import Path

from repro.bench.runner import REGISTRY

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


def _digests() -> dict[str, str]:
    return {
        exp_id: hashlib.sha256(json.dumps(
            _exact(driver().to_json_dict()), sort_keys=True,
            separators=(",", ":")).encode()).hexdigest()
        for exp_id, driver in REGISTRY.items()}


def test_every_driver_matches_its_golden_digest():
    digests = _digests()
    if os.environ.get("WRITE_PAPER_GOLDEN") == "1":
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True)
                          + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert golden.keys() == digests.keys(), (
        "REGISTRY and the golden file name different drivers")
    moved = sorted(k for k in digests if digests[k] != golden[k])
    assert not moved, f"drivers whose results moved: {moved}"
