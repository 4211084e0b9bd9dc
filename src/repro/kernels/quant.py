"""INT8 weight quantization (DeepSpeed-INT8, Sec. III-D).

The paper's INT8 path quantizes weights to 8 bits (halving the dominant
memory traffic and engaging the 2x INT8 tensor-core peak), fuses the
activation quantize before the GeMM and the dequantize into the CUTLASS
epilogue. We implement symmetric per-output-channel quantization — the
scheme that keeps GeMM a pure integer contraction with one per-column
rescale, exactly what an epilogue can absorb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizedTensor",
    "quantize_symmetric",
    "dequantize",
    "int8_linear",
    "quantization_error_bound",
]

_INT8_MAX = 127


@dataclass(frozen=True)
class QuantizedTensor:
    """INT8 payload plus per-channel scales (axis=last)."""

    data: np.ndarray  # int8
    scale: np.ndarray  # float, broadcastable over data's last axis

    def __post_init__(self) -> None:
        if self.data.dtype != np.int8:
            raise TypeError("quantized payload must be int8")
        if np.any(self.scale <= 0):
            raise ValueError("scales must be positive")

    @property
    def nbytes(self) -> int:
        """Storage footprint of the quantized payload."""
        return self.data.nbytes + self.scale.nbytes


def quantize_symmetric(w: np.ndarray) -> QuantizedTensor:
    """Symmetric per-channel quantization, reducing over axis 0: one
    scale per output column of an ``(in, out)`` weight -- the layout
    :func:`int8_linear` consumes.

    Each channel c maps to ``round(w / scale_c)`` with
    ``scale_c = max|w_c| / 127``, so zero is exactly representable and the
    GeMM needs no zero-point corrections. An empty or non-finite weight
    raises ``ValueError``: a NaN would quantize to 0 and an inf would
    zero its whole channel.
    """
    w = np.asarray(w)
    if w.size == 0:
        raise ValueError(f"cannot quantize an empty array of shape {w.shape}")
    bad = np.argwhere(~np.isfinite(w))
    if bad.size:
        at = tuple(int(i) for i in bad[0])
        raise ValueError(f"cannot quantize non-finite weight {w[at]} at "
                         f"index {at}")
    absmax = np.abs(w).max(axis=0, keepdims=True)
    # Guard all-zero channels (scale 1 quantizes them to exact zeros) and
    # subnormal channels whose absmax/127 would underflow to 0.
    tiny = np.finfo(np.float64).tiny
    scale = np.where(absmax > 0, np.maximum(absmax / _INT8_MAX, tiny), 1.0)
    q = np.clip(np.rint(w / scale), -_INT8_MAX, _INT8_MAX).astype(np.int8)
    return QuantizedTensor(q, np.squeeze(scale, axis=0))


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the float tensor."""
    scale = np.expand_dims(qt.scale, axis=0)
    return qt.data.astype(np.float64) * scale


def int8_linear(
    x: np.ndarray, qweight: QuantizedTensor, bias: np.ndarray | None = None
) -> np.ndarray:
    """Linear layer with INT8 weights: integer-domain contraction with the
    dequantize folded into the epilogue (per-output-column rescale).

    ``qweight.data`` has shape ``(in, out)``; scales are per output column.
    """
    if qweight.data.ndim != 2:
        raise ValueError("int8_linear expects a 2-D weight")
    acc = x @ qweight.data.astype(np.float64)  # integer-exact in float64
    y = acc * qweight.scale  # epilogue rescale
    if bias is not None:
        y = y + bias
    return y


def quantization_error_bound(w: np.ndarray) -> float:
    """Worst-case absolute error of symmetric INT8 quantization: half an
    LSB per element, i.e. ``scale / 2`` of the widest channel."""
    absmax = np.abs(w).max(axis=0)
    return float(np.max(absmax) / _INT8_MAX / 2.0) if w.size else 0.0
