"""Inference engines: dense and MoE latency/throughput models, activation
offloading, and the user-facing facades. The functional generation
session lives in :mod:`repro.engine.generation`."""

from .costs import (
    BatchState,
    ClosureStepCost,
    DenseStepCost,
    MoEStepCost,
    PromptShape,
    StepCostModel,
    ZeroStepCost,
)
from .inference import InferenceEngine, MoEInferenceEngine
from .latency import DenseLatencyModel, LatencyReport, Workload
from .moe import MoELatencyModel, MoEStepBreakdown
from .scheduler import ADMISSION_POLICIES, RequestTable, Scheduler, SchedulerEvent
from .serving_sim import (
    Request,
    ServingReport,
    WorkloadTrace,
    simulate_serving,
    synthesize_trace,
)
from .offload import (
    OffloadReport,
    kv_offload_overflow,
    kv_offload_stall_per_step,
    max_batch_size,
    moe_max_batch_size,
    simulate_offload,
)
from .throughput import ThroughputPoint, best_throughput, candidate_batches
from .trace_run import DeploymentTrace, trace_generation
from .tuner import TuningResult, tune_dense_deployment

__all__ = [
    "ADMISSION_POLICIES",
    "BatchState",
    "ClosureStepCost",
    "DenseStepCost",
    "MoEStepCost",
    "PromptShape",
    "RequestTable",
    "Scheduler",
    "SchedulerEvent",
    "StepCostModel",
    "ZeroStepCost",
    "moe_max_batch_size",
    "DenseLatencyModel",
    "InferenceEngine",
    "LatencyReport",
    "MoEInferenceEngine",
    "MoELatencyModel",
    "MoEStepBreakdown",
    "OffloadReport",
    "Request",
    "ServingReport",
    "WorkloadTrace",
    "simulate_serving",
    "synthesize_trace",
    "ThroughputPoint",
    "Workload",
    "DeploymentTrace",
    "best_throughput",
    "kv_offload_overflow",
    "kv_offload_stall_per_step",
    "candidate_batches",
    "max_batch_size",
    "simulate_offload",
    "TuningResult",
    "trace_generation",
    "tune_dense_deployment",
]
