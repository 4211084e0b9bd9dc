"""Entry point: ``python3 benchmarks/e2e/__main__.py`` from the repository
root, or ``PYTHONPATH=src python -m benchmarks.e2e``."""

import os
import sys

# Single-threaded numerics in this process too, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
# Run as a script, this directory heads sys.path; its modules are only
# meant to load as the ``benchmarks.e2e`` package.
if sys.path and os.path.abspath(sys.path[0]) == _HERE:
    del sys.path[0]
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

if __name__ == "__main__":
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.exit(f"benchmarks.e2e: the repro package is missing from "
                 f"{os.path.join(_ROOT, 'src')}; run from a full checkout")
    from benchmarks.e2e.cli import main

    sys.exit(main())
