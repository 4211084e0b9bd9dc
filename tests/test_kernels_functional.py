"""Tests for functional NumPy kernels and fused-region equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.kernels.quant import (
    dequantize,
    int8_linear,
    quantization_error_bound,
    quantize_symmetric,
)
from repro.kernels.functional import (
    bias_residual,
    fused_bias_gelu,
    fused_layernorm_mlp,
    fused_layernorm_qkv,
    gelu,
    layer_norm,
    linear,
    merge_heads,
    scaled_dot_product_attention,
    softmax,
    split_heads,
)

RNG = np.random.default_rng(7)


class TestBasicKernels:
    def test_layer_norm_zero_mean_unit_var(self):
        x = RNG.normal(size=(4, 64)) * 3 + 5
        y = layer_norm(x, np.ones(64), np.zeros(64))
        np.testing.assert_allclose(y.mean(-1), 0, atol=1e-10)
        np.testing.assert_allclose(y.var(-1), 1, atol=1e-4)

    def test_layer_norm_affine(self):
        x = RNG.normal(size=(2, 8))
        g, b = RNG.normal(size=8), RNG.normal(size=8)
        y = layer_norm(x, g, b)
        base = layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y, base * g + b)

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(3, 5, 7)) * 10
        s = softmax(x)
        np.testing.assert_allclose(s.sum(-1), 1.0)
        assert (s >= 0).all()

    def test_softmax_stability_large_logits(self):
        x = np.array([[1e4, 1e4 + 1.0]])
        s = softmax(x)
        assert np.isfinite(s).all()
        assert s[0, 1] > s[0, 0]

    def test_gelu_properties(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        x = np.linspace(-5, 5, 101)
        y = gelu(x)
        np.testing.assert_allclose(y[x > 3], x[x > 3], rtol=1e-3)
        assert (np.abs(y[x < -3]) < 1e-2).all()

    def test_linear_matches_manual(self):
        x = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(4, 5))
        b = RNG.normal(size=5)
        np.testing.assert_allclose(linear(x, w, b), x @ w + b)
        np.testing.assert_allclose(linear(x, w), x @ w)

    def test_bias_residual(self):
        x, b, r = RNG.normal(size=(2, 4)), RNG.normal(size=4), RNG.normal(size=(2, 4))
        np.testing.assert_allclose(bias_residual(x, b, r), x + b + r)
        np.testing.assert_allclose(bias_residual(x, None, r), x + r)

    def test_split_merge_heads_roundtrip(self):
        x = RNG.normal(size=(2, 6, 32))
        np.testing.assert_array_equal(merge_heads(split_heads(x, 4)), x)

    def test_split_heads_bad_hidden(self):
        with pytest.raises(ValueError):
            split_heads(RNG.normal(size=(1, 2, 10)), 4)


class TestAttention:
    def test_causal_masking(self):
        # Query at position 0 must ignore keys at positions > 0.
        q = RNG.normal(size=(1, 1, 3, 8))
        k = RNG.normal(size=(1, 1, 3, 8))
        v = RNG.normal(size=(1, 1, 3, 8))
        out = scaled_dot_product_attention(q, k, v, causal=True)
        # first query can only see first key/value
        np.testing.assert_allclose(out[0, 0, 0], v[0, 0, 0])

    def test_query_offset_matches_full_causal(self):
        """KV-cached decoding: processing the last token with offset equals
        the last row of full causal attention."""
        b, n, s, d = 2, 4, 6, 8
        q = RNG.normal(size=(b, n, s, d))
        k = RNG.normal(size=(b, n, s, d))
        v = RNG.normal(size=(b, n, s, d))
        full = scaled_dot_product_attention(q, k, v, causal=True)
        last = scaled_dot_product_attention(
            q[:, :, -1:, :], k, v, causal=True, query_offset=s - 1
        )
        np.testing.assert_allclose(last[:, :, 0], full[:, :, -1], atol=1e-12)

    def test_uniform_attention_when_noncausal_identical_keys(self):
        q = RNG.normal(size=(1, 1, 2, 4))
        k = np.zeros((1, 1, 5, 4))
        v = RNG.normal(size=(1, 1, 5, 4))
        out = scaled_dot_product_attention(q, k, v, causal=False)
        np.testing.assert_allclose(out[0, 0, 0], v[0, 0].mean(0))


class TestFusedEquivalence:
    """Deep-Fusion changes data movement, not semantics: fused-region
    kernels must be bit-comparable with their op-by-op composition."""

    def test_region1_layernorm_qkv(self):
        h = 32
        x = RNG.normal(size=(5, h))
        g, b = RNG.normal(size=h), RNG.normal(size=h)
        w = RNG.normal(size=(h, 3 * h))
        bias = RNG.normal(size=3 * h)
        fused = fused_layernorm_qkv(x, g, b, w, bias)
        unfused = linear(layer_norm(x, g, b), w, bias)
        np.testing.assert_array_equal(fused, unfused)

    def test_region3_layernorm_mlp(self):
        h = 16
        x = RNG.normal(size=(3, h))
        g, b = RNG.normal(size=h), RNG.normal(size=h)
        w = RNG.normal(size=(h, 4 * h))
        bias = RNG.normal(size=4 * h)
        fused = fused_layernorm_mlp(x, g, b, w, bias)
        unfused = gelu(linear(layer_norm(x, g, b), w, bias))
        np.testing.assert_array_equal(fused, unfused)

    def test_bias_gelu_epilogue(self):
        x = RNG.normal(size=(4, 8))
        b = RNG.normal(size=8)
        np.testing.assert_array_equal(fused_bias_gelu(x, b), gelu(x + b))


class TestQuantization:
    def test_roundtrip_error_bounded(self):
        w = RNG.normal(size=(64, 128))
        qt = quantize_symmetric(w)
        err = np.abs(dequantize(qt) - w).max()
        # Half-LSB bound per channel.
        assert err <= quantization_error_bound(w) + 1e-12

    def test_zero_exactly_representable(self):
        w = RNG.normal(size=(8, 8))
        w[:, 3] = 0.0
        qt = quantize_symmetric(w)
        np.testing.assert_array_equal(dequantize(qt)[:, 3], 0.0)

    def test_storage_is_quarter_of_fp32(self):
        w = RNG.normal(size=(256, 256)).astype(np.float32)
        qt = quantize_symmetric(w)
        assert qt.nbytes < w.nbytes / 3.9 + qt.scale.nbytes + 1

    def test_int8_linear_close_to_fp(self):
        x = RNG.normal(size=(4, 64))
        w = RNG.normal(size=(64, 32))
        y_fp = x @ w
        y_q = int8_linear(x, quantize_symmetric(w))
        rel = np.abs(y_q - y_fp).max() / np.abs(y_fp).max()
        assert rel < 0.02  # per-channel int8 is accurate to ~1%

    def test_int8_linear_bias(self):
        x = RNG.normal(size=(2, 8))
        w = RNG.normal(size=(8, 4))
        b = RNG.normal(size=4)
        qt = quantize_symmetric(w)
        np.testing.assert_allclose(
            int8_linear(x, qt, b), int8_linear(x, qt) + b
        )

    def test_bad_inputs(self):
        from repro.kernels.quant import QuantizedTensor

        with pytest.raises(TypeError):
            QuantizedTensor(np.zeros((2, 2), dtype=np.float32), np.ones(2))
        with pytest.raises(ValueError):
            QuantizedTensor(np.zeros((2, 2), dtype=np.int8), np.zeros(2))
        with pytest.raises(ValueError):
            int8_linear(np.ones((2, 2)),
                        quantize_symmetric(RNG.normal(size=(2, 2, 2))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # A NaN used to quantize to 0, and an inf set its channel's scale
        # to inf, zeroing every weight in the channel.
        w = np.ones((3, 2))
        w[2, 1] = bad
        with pytest.raises(ValueError, match=r"non-finite .* \(2, 1\)"):
            quantize_symmetric(w)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_empty_weight_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"empty .*{shape}"):
            quantize_symmetric(np.zeros(shape))


@given(
    w=arrays(np.float64, (16, 8),
             elements=st.floats(-100, 100, allow_nan=False)),
)
@settings(max_examples=50)
def test_quantization_error_property(w):
    """Property: per-element error never exceeds half the channel scale."""
    qt = quantize_symmetric(w)
    err = np.abs(dequantize(qt) - w)
    bound = np.where(np.abs(w).max(axis=0) > 0,
                     np.abs(w).max(axis=0) / 127 / 2, 0.0)
    assert (err <= bound[None, :] + 1e-9).all()


@given(
    x=arrays(np.float64, (3, 12), elements=st.floats(-50, 50, allow_nan=False))
)
@settings(max_examples=50)
def test_softmax_invariance_property(x):
    """Softmax is shift-invariant along the reduced axis."""
    np.testing.assert_allclose(softmax(x), softmax(x + 123.0), atol=1e-10)
