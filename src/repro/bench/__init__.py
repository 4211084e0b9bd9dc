"""Benchmark harness: drivers regenerating every table and figure."""

from .ablations import ALL_ABLATIONS
from .figures import ALL_EXPERIMENTS
from .runner import main, run
from .tables import ExperimentResult, format_table

__all__ = [
    "ALL_ABLATIONS",
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "format_table",
    "main",
    "run",
]
