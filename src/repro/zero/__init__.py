"""ZeRO-Inference: heterogeneous GPU+CPU+NVMe inference (Sec. VI). The
functional streamed executor lives in :mod:`repro.zero.streamed_model`."""

from .inference import ZeroInferenceEngine, ZeroPassReport
from .streaming import StreamReport, simulate_layer_stream
from .tiers import FetchEvent, Tier, TieredWeightStore, placement_for

__all__ = [
    "FetchEvent",
    "StreamReport",
    "Tier",
    "TieredWeightStore",
    "ZeroInferenceEngine",
    "ZeroPassReport",
    "placement_for",
    "simulate_layer_stream",
]
