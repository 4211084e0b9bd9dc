"""Roofline kernel cost model with fusion- and launch-aware terms.

Each fused region executes in::

    time = max(hbm_bytes / (mem_bw * bw_eff), flops / (peak * compute_eff))
           + launch_cost

which captures the paper's two regimes directly: small-batch inference is
the left branch (weight streaming, Sec. III-A), large-batch the right
(compute saturation). The profile decides the efficiencies — cuBLAS vs
SBI-GeMM bandwidth curves, FP16 vs INT8 peaks and weight traffic — and
whether launch cost is paid per kernel (eager), per kernel minus dispatch
(compiled runtime) or eliminated entirely (CUDA graph, Sec. III-D).

Compiled layers. A dense layer's op graph and its fusion partition depend
only on the structural key ``(hidden, heads, dtype, tp_degree, ffn_mult,
small_batch, ffn)``. Within a key, each region's weight bytes are
constant and its activation bytes and flops are affine in ``(1, t,
batch*kv, t*kv)``, ``t`` being the new tokens. So
:meth:`KernelCostModel.layer_cost` compiles each key once per model
instance: it evaluates :func:`~repro.kernels.graph.transformer_layer_ops`
at four probe shapes and differences the results into per-region
coefficients, keeping the op graph the only source of the formulas.
Every later shape of that key is priced from those closed forms. All the
counts are integers, so the differences and evaluations are exact (below
2**53) and a compiled cost equals :meth:`KernelCostModel.chain_cost`
over the op chain bit for bit. Each compile checks that at a fifth shape
and raises on any difference, so a future non-affine op fails loudly
instead of mispricing. ``chain_cost`` stays the generic path for
arbitrary chains (expert FFNs, analysis, baselines) and the test oracle.

One evaluator. A compiled layer caches its closed forms per token count
as float64 columns, one row per region, and evaluates them over a grid
of regions by KV lengths. :meth:`KernelCostModel.layer_cost` reads one
column into :class:`RegionTime` objects, which :class:`LayerCost` folds
left to right; :meth:`KernelCostModel.layer_times` folds the grid's
rows in the same order over a whole span of KV lengths. The same
exactness below 2**53 makes a span's totals equal the regions' fold and
``chain_cost``'s total bit for bit. Prompt-pass misses go through
``layer_cost`` and decode-run misses through ``layer_times``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hardware.specs import DType, GPUSpec
from .fusion import FusedRegion, partition
from .gemm import (
    cublas_bw_efficiency,
    cublas_compute_efficiency,
    cutlass_int8_compute_efficiency,
    sbi_bw_efficiency,
)
from .graph import LayerShape, transformer_layer_ops
from .ops import OpKind
from .profiles import ImplementationProfile

__all__ = ["RegionTime", "LayerCost", "KernelCostModel"]

# Residual per-node cost of replaying a kernel inside a CUDA graph.
_GRAPH_NODE_OVERHEAD = 0.3e-6

# Probe shapes (batch, tokens_per_seq, kv_len) a layer compiles from. At
# batch 1 their rows of (1, t, batch*kv, t*kv) form a unimodular matrix,
# so integer counts difference into integer coefficients exactly.
_PROBES = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3))


def _affine(f0: float, f1: float, f2: float, f3: float) -> tuple[float, ...]:
    """Coefficients ``c`` of ``c0 + c1*t + c2*batch*kv + c3*t*kv`` from
    its values ``f0..f3`` at the four :data:`_PROBES`."""
    c3 = (f3 - f2) - (f1 - f0)
    c2 = (f1 - f0) - c3
    c1 = (f2 - f1) - 2 * c3
    return (f0 - c1 - c2 - c3, c1, c2, c3)


@dataclass(frozen=True)
class RegionTime:
    """Modeled execution time of one fused region.

    ``launch_time`` is the asynchronous driver launch cost: it only shows
    up when the kernel itself is shorter than the launch (the CPU cannot
    keep the GPU fed — exactly the small-model regime Sec. III-D's CUDA
    graphs attack). ``dispatch_time`` is *synchronous* CPU framework work
    (eager-mode op dispatch) and always adds to the critical path.
    """

    name: str
    memory_time: float
    compute_time: float
    launch_time: float
    hbm_bytes: float
    flops: float
    dispatch_time: float = 0.0

    @property
    def total(self) -> float:
        """Roofline time, with launch overhead hidden behind long kernels."""
        exec_time = max(self.memory_time, self.compute_time)
        return max(exec_time, self.launch_time) + self.dispatch_time

    @property
    def bound(self) -> str:
        """Which roofline branch dominates."""
        return "memory" if self.memory_time >= self.compute_time else "compute"


@dataclass(frozen=True)
class LayerCost:
    """Aggregate cost of one transformer-layer invocation on one GPU.

    ``regions`` are the fused regions' times in execution order;
    ``total_time`` is the end-to-end layer time in seconds, their
    ``total`` summed left to right. Equality, hashing and ``repr`` go by
    ``regions`` alone.
    """

    regions: tuple[RegionTime, ...]
    total_time: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # An explicit left fold, not ``sum``: from CPython 3.12 ``sum``
        # compensates float rounding, and ``layer_times`` must equal this
        # total bit for bit.
        total = 0
        for r in self.regions:
            total += r.total
        object.__setattr__(self, "total_time", total)

    @property
    def kernel_count(self) -> int:
        """Kernels launched per layer (fusion's first-order effect)."""
        return len(self.regions)

    @property
    def launch_time(self) -> float:
        """Total driver launch cost; the synchronous per-region
        ``dispatch_time`` is not included."""
        return sum(r.launch_time for r in self.regions)

    @property
    def hbm_bytes(self) -> float:
        """Total modeled HBM traffic."""
        return sum(r.hbm_bytes for r in self.regions)

    @property
    def flops(self) -> float:
        """Total math work."""
        return sum(r.flops for r in self.regions)

    @property
    def effective_bandwidth(self) -> float:
        """Achieved HBM bytes/s — the metric of Fig. 11."""
        t = self.total_time
        return self.hbm_bytes / t if t > 0 else 0.0


@dataclass(frozen=True)
class _RegionForm:
    """One fused region of a compiled layer in closed form: with ``x =
    (1, t, batch*kv, t*kv)``, its HBM bytes are ``weight_bytes + act·x``
    and its flops ``flops·x``."""

    name: str
    weight_bytes: float
    act: tuple[float, ...]
    flops: tuple[float, ...]
    has_weight_gemm: bool
    has_attention: bool
    sbi_out_features: int  # local width of the weight GeMM (0 without one)


class _CompiledLayer:
    """A layer's fused regions, priced at any shape of its key."""

    def __init__(self, model: "KernelCostModel", forms: tuple[_RegionForm, ...]) -> None:
        self.model = model
        self.forms = forms
        self.launch = model._launch_cost()
        self.dispatch = model.profile.dispatch_overhead
        # tokens -> one ``(regions, 1)`` float64 column per field: weight
        # bytes, ``a0 + a1·t``, ``a2``, ``a3``, ``f0 + f1·t``, ``f2``,
        # ``f3``, then (HBM bytes/s, math ops/s). The efficiencies depend
        # on the token count only, so a column serves every KV length.
        self._columns: dict[int, tuple[np.ndarray, ...]] = {}

    def _grid(self, shape: LayerShape,
              kvs: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(hbm_bytes, flops, memory_time, compute_time)`` of every
        region (rows) at each KV length in ``kvs`` (columns)."""
        t = shape.tokens
        columns = self._columns.get(t)
        if columns is None:
            model = self.model
            columns = self._columns[t] = tuple(np.array([
                (f.weight_bytes, f.act[0] + f.act[1] * t, f.act[2], f.act[3],
                 f.flops[0] + f.flops[1] * t, f.flops[2], f.flops[3],
                 *model._rates(f.has_weight_gemm, f.has_attention,
                               f.sbi_out_features, t))
                for f in self.forms], np.float64).T[:, :, None].copy())
        weight, a01, a2, a3, f01, f2, f3, mem_rate, math_rate = columns
        # int64 rows: never the target of an in-place float op. Every
        # count below 2**53 is exact in float64 as in Python ints.
        bk = shape.batch * kvs
        tk = t * kvs
        hbm = weight + ((a01 + a2 * bk) + a3 * tk)
        flops = (f01 + f2 * bk) + f3 * tk
        # ``flops / rate`` is 0.0 where ``flops`` is, as in ``region_time``.
        return hbm, flops, hbm / mem_rate, flops / math_rate

    def regions(self, shape: LayerShape) -> tuple[RegionTime, ...]:
        """Every region's :class:`RegionTime` at ``shape``."""
        grid = self._grid(shape, np.array([shape.kv_len]))
        hbm, flops, memory, compute = (g[:, 0].tolist() for g in grid)
        launch, dispatch = self.launch, self.dispatch
        return tuple(RegionTime(f.name, m, c, launch, b, x, dispatch)
                     for f, m, c, b, x in zip(
                         self.forms, memory, compute, hbm, flops))

    def times(self, shape: LayerShape, kvs: np.ndarray) -> np.ndarray:
        """``LayerCost(regions(replace(shape, kv_len=kv))).total_time``
        for each ``kv`` in ``kvs``, as one float64 array, bit for bit:
        each region's total from :meth:`_grid`, folded down the rows by
        a sequential ``np.add.accumulate``, :class:`LayerCost`'s
        left-to-right sum."""
        _, _, memory, compute = self._grid(shape, kvs)
        region = np.maximum(memory, compute)
        np.maximum(region, self.launch, out=region)
        region += self.dispatch
        return np.add.accumulate(region, axis=0)[-1]


class KernelCostModel:
    """Times fused regions of a transformer layer on one GPU.

    ``gpu`` and ``profile`` are read-only: compiled layers are cached per
    instance on the structural key alone.
    """

    def __init__(self, gpu: GPUSpec, profile: ImplementationProfile) -> None:
        self._gpu = gpu
        self._profile = profile
        self._layer_cache: dict[tuple, _CompiledLayer] = {}

    @property
    def gpu(self) -> GPUSpec:
        """The device every region is timed on."""
        return self._gpu

    @property
    def profile(self) -> ImplementationProfile:
        """The implementation's mechanism settings."""
        return self._profile

    # -- public API -------------------------------------------------------

    def layer_cost(self, shape: LayerShape, *, ffn: bool = True) -> LayerCost:
        """Cost of one dense transformer layer with this implementation.

        ``ffn=False`` prices the layer without its FFN (an MoE layer's
        dense part). Equal bit for bit to :meth:`chain_cost` over
        ``transformer_layer_ops(shape, ffn=ffn)``, priced from the
        layer's compiled closed forms.
        """
        return LayerCost(self._layer(shape, ffn).regions(shape))

    def layer_times(self, shape: LayerShape, kv_lens, *,
                    ffn: bool = True) -> np.ndarray:
        """Layer times of ``shape`` at each KV length in ``kv_lens``.

        Element ``i`` equals ``layer_cost(replace(shape,
        kv_len=kv_lens[i]), ffn=ffn).total_time`` bit for bit
        (``shape.kv_len`` itself is ignored), evaluated as one NumPy
        expression over the compiled closed forms with no per-region
        objects: the serving path's float-only pricing of a decode run.
        """
        kvs = np.asarray(kv_lens)
        if kvs.ndim != 1 or kvs.size and kvs.dtype.kind not in "iu":
            raise TypeError("kv_lens must be a 1-D sequence of ints")
        if kvs.size and kvs.min() < shape.tokens_per_seq:
            raise ValueError("kv_len must include the tokens being processed")
        return self._layer(shape, ffn).times(shape, kvs)

    def chain_cost(self, ops, *, tokens: int) -> LayerCost:
        """Cost of an arbitrary op chain (used for MoE blocks too)."""
        small = self._small_batch(tokens)
        regions = partition(list(ops), self.profile.fusion, small_batch=small)
        return LayerCost(tuple(self.region_time(r, tokens) for r in regions))

    def region_time(self, region: FusedRegion, tokens: int) -> RegionTime:
        """Roofline + launch time for one fused region."""
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        gemm = any(op.is_weight_gemm for op in region.ops)
        mem_rate, math_rate = self._rates(
            gemm,
            any(op.kind is OpKind.ATTENTION for op in region.ops),
            self._gemm_out_features(region, tokens) if gemm else 0,
            tokens,
        )
        hbm = self._region_weight_bytes(region) + region.act_bytes
        flops = region.flops
        return RegionTime(
            name=region.name,
            memory_time=hbm / mem_rate,
            compute_time=flops / math_rate if flops else 0.0,
            launch_time=self._launch_cost(),
            hbm_bytes=hbm,
            flops=flops,
            dispatch_time=self.profile.dispatch_overhead,
        )

    # -- internals --------------------------------------------------------

    def _small_batch(self, tokens: int) -> bool:
        return tokens <= self.profile.small_batch_tokens

    def _layer(self, shape: LayerShape, ffn: bool) -> _CompiledLayer:
        key = (shape.hidden, shape.heads, shape.dtype, shape.tp_degree,
               shape.ffn_mult, self._small_batch(shape.tokens), ffn)
        layer = self._layer_cache.get(key)
        if layer is None:
            layer = self._layer_cache[key] = self._compile(*key)
        return layer

    def _compile(self, hidden: int, heads: int, dtype: DType, tp_degree: int,
                 ffn_mult: int, small: bool, ffn: bool) -> _CompiledLayer:
        """Closed forms of one layer key, self-checked against the chain."""

        def shape(batch: int, tokens_per_seq: int, kv_len: int) -> LayerShape:
            return LayerShape(hidden, heads, batch, tokens_per_seq, kv_len,
                              dtype, tp_degree, ffn_mult)

        probes = [
            partition(transformer_layer_ops(shape(*p), ffn=ffn),
                      self.profile.fusion, small_batch=small)
            for p in _PROBES
        ]
        forms = []
        for regions in zip(*probes):
            first = regions[0]  # a probe with t == 1
            gemm = any(op.is_weight_gemm for op in first.ops)
            forms.append(_RegionForm(
                name=first.name,
                weight_bytes=self._region_weight_bytes(first),
                act=_affine(*(r.act_bytes for r in regions)),
                flops=_affine(*(r.flops for r in regions)),
                has_weight_gemm=gemm,
                has_attention=any(op.kind is OpKind.ATTENTION for op in first.ops),
                sbi_out_features=self._gemm_out_features(first, 1) if gemm else 0,
            ))
        layer = _CompiledLayer(self, tuple(forms))
        # The fifth shape: off the probes' batch-1 plane, on this key's
        # side of the small-batch threshold.
        limit = self.profile.small_batch_tokens
        if small:
            batch = 2 if limit >= 2 else 1
            tokens_per_seq = max(1, limit // batch)
        else:
            batch, tokens_per_seq = 2, max(1, limit // 2 + 1)
        check = shape(batch, tokens_per_seq, tokens_per_seq + 3)
        want = self.chain_cost(transformer_layer_ops(check, ffn=ffn),
                               tokens=check.tokens)
        if layer.regions(check) != want.regions:
            raise RuntimeError(
                f"compiled layer differs from its op chain at {check}: an "
                f"op's bytes or flops are not affine in (tokens, batch*kv, "
                f"tokens*kv)")
        return layer

    def _weight_scale(self) -> float:
        """Weight-traffic scale: quantized storage (INT8 halves FP16) and
        pruning (E.T.) both shrink the bytes streamed per GeMM."""
        return (
            self.profile.weight_dtype.itemsize
            / self.profile.compute_dtype.itemsize
        ) * self.profile.weight_traffic_scale

    def _region_weight_bytes(self, region: FusedRegion) -> float:
        # A left fold, as ``LayerCost`` sums (``sum`` compensates floats
        # from CPython 3.12).
        total = 0
        for op in region.ops:
            total += op.weight_bytes * (
                self._weight_scale() if op.is_weight_gemm else 1.0)
        return total

    def _gemm_out_features(self, region: FusedRegion, tokens: int) -> int:
        """Recover the (local) output width of the region's weight GeMM."""
        for op in region.ops:
            if op.is_weight_gemm:
                d = self.profile.compute_dtype.itemsize
                return max(1, int(op.act_out_bytes / (tokens * d)))
        raise ValueError("region has no weight GeMM")

    def _rates(self, weight_gemm: bool, attention: bool, out_features: int,
               tokens: int) -> tuple[float, float]:
        """(HBM bytes/s, math ops/s) a region achieves at ``tokens``:
        peak bandwidth and peak math scaled by their efficiencies."""
        profile, gpu = self.profile, self.gpu
        if not weight_gemm:
            bw_eff = profile.nongemm_bw_eff
        elif profile.sbi_gemm and self._small_batch(tokens):
            bw_eff = sbi_bw_efficiency(gpu, tokens, out_features,
                                       profile.weight_dtype)
        else:
            bw_eff = cublas_bw_efficiency(tokens)
        if weight_gemm:
            if profile.weight_dtype is DType.INT8:
                peak = gpu.peak_flops(DType.INT8)
                eff = cutlass_int8_compute_efficiency(tokens)
            else:
                peak = gpu.peak_flops(profile.compute_dtype)
                eff = cublas_compute_efficiency(tokens)
        elif attention:
            # Batched per-head contractions achieve lower utilization than
            # weight GeMMs of the same flop count.
            peak = gpu.peak_flops(profile.compute_dtype)
            eff = 0.5 * cublas_compute_efficiency(max(1, tokens))
        else:
            # Elementwise/reduction math is never the roofline binder, but
            # keep a finite term so the max() is well defined.
            peak = gpu.peak_flops(DType.FP32)
            eff = 0.5
        return gpu.mem_bw * bw_eff, peak * eff

    def _launch_cost(self) -> float:
        if self.profile.cuda_graph:
            return _GRAPH_NODE_OVERHEAD
        return self.gpu.kernel_launch_overhead
