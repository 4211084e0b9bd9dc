"""Tests: INT8 tensor-parallel linear layers (DeepSpeed-INT8 + Megatron
sharding composed)."""

import numpy as np
import pytest

from repro.comm.functional import spmd
from repro.kernels.quant import dequantize, int8_linear, quantize_symmetric
from repro.parallel.quantized import (
    shard_quantize_column,
    shard_quantize_row,
)

RNG = np.random.default_rng(41)


class TestColumnParallel:
    def test_bit_identical_to_full_quantization(self):
        """Per-output-column scales are shard-local, so shard-then-quantize
        equals quantize-then-shard exactly."""
        w = RNG.normal(size=(16, 8))
        full = quantize_symmetric(w)
        for tp in (2, 4):
            for rank in range(tp):
                shard = shard_quantize_column(w, None, rank, tp)
                cols = 8 // tp
                np.testing.assert_array_equal(
                    shard.qweight.data, full.data[:, rank * cols:(rank + 1) * cols]
                )
                np.testing.assert_array_equal(
                    shard.qweight.scale, full.scale[rank * cols:(rank + 1) * cols]
                )

    def test_forward_matches_single_device_int8(self):
        w = RNG.normal(size=(12, 8))
        b = RNG.normal(size=8)
        x = RNG.normal(size=(3, 12))
        want = int8_linear(x, quantize_symmetric(w), b)

        def prog(comm):
            layer = shard_quantize_column(w, b, comm.rank, comm.size)
            return layer.forward(comm, x)

        for got in spmd(4, prog):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_local_output_slice(self):
        w = RNG.normal(size=(6, 4))
        layer = shard_quantize_column(w, None, 1, 2)
        x = RNG.normal(size=(2, 6))
        full = int8_linear(x, quantize_symmetric(w))
        np.testing.assert_allclose(layer.forward_local(x), full[:, 2:], atol=1e-12)


class TestRowParallel:
    def test_forward_within_quantization_error_of_fp(self):
        w = RNG.normal(size=(16, 6))
        b = RNG.normal(size=6)
        x = RNG.normal(size=(4, 16))
        want_fp = x @ w + b

        def prog(comm):
            rows = 16 // comm.size
            x_local = x[:, comm.rank * rows:(comm.rank + 1) * rows]
            layer = shard_quantize_row(w, b, comm.rank, comm.size)
            return layer.forward(comm, x_local)

        got = spmd(2, prog)[0]
        rel = np.abs(got - want_fp).max() / np.abs(want_fp).max()
        assert rel < 0.03

    def test_shard_scales_tighter_than_full(self):
        """Each row shard's per-column absmax <= the full matrix's, so
        per-shard quantization is at least as precise."""
        w = RNG.normal(size=(32, 5))
        full = quantize_symmetric(w)
        for rank in range(4):
            shard = shard_quantize_row(w, None, rank, 4)
            assert (shard.qweight.scale <= full.scale + 1e-15).all()

    def test_shard_dequantizes_to_its_rows(self):
        w = RNG.normal(size=(8, 4))
        shard = shard_quantize_row(w, None, 1, 2)
        approx = dequantize(shard.qweight)
        np.testing.assert_allclose(approx, w[4:], atol=np.abs(w).max() / 127)

    def test_bias_added_once(self):
        w = np.zeros((8, 3))
        b = np.array([1.0, 2.0, 3.0])
        x = RNG.normal(size=(2, 8))

        def prog(comm):
            rows = 8 // comm.size
            layer = shard_quantize_row(w, b, comm.rank, comm.size)
            return layer.forward(comm, x[:, comm.rank * rows:(comm.rank + 1) * rows])

        got = spmd(4, prog)[0]
        np.testing.assert_allclose(got, np.tile(b, (2, 1)), atol=1e-12)


class TestValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            shard_quantize_column(RNG.normal(size=(4, 6)), None, 0, 4)
        with pytest.raises(ValueError):
            shard_quantize_row(RNG.normal(size=(6, 4)), None, 0, 4)
        with pytest.raises(ValueError):
            shard_quantize_column(RNG.normal(size=(4,)), None, 0, 1)
        with pytest.raises(ValueError):
            shard_quantize_column(RNG.normal(size=(4, 4)), None, 2, 2)
