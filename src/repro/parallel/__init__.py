"""Parallel deployment: the placement planner and the pipeline schedule
simulator (Secs. IV and V). The functional executors (tensor slicing,
pipeline stages, expert parallelism) live in the package's other
modules."""

from .planner import ParallelPlan, PlanError, memory_per_gpu, plan_dense
from .schedules import (
    ScheduleKind,
    ScheduleResult,
    dynamic_queue_span,
    fill_drain_span,
    simulate_pipeline,
)

__all__ = [
    "ParallelPlan",
    "PlanError",
    "ScheduleKind",
    "ScheduleResult",
    "dynamic_queue_span",
    "fill_drain_span",
    "memory_per_gpu",
    "plan_dense",
    "simulate_pipeline",
]
