"""Compiled layer pricing: ``KernelCostModel.layer_cost`` prices each
shape from per-region closed forms built once per structural key. The
op-chain path (``chain_cost`` over ``transformer_layer_ops``) is the
oracle, and the two must agree bit for bit on every region field."""

import dataclasses
import functools
import operator
import pickle
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.ablations import ablation_cuda_graph
from repro.engine import (
    BatchState,
    DenseLatencyModel,
    DenseStepCost,
    MoELatencyModel,
    MoEStepCost,
)
from repro.hardware import GPU_REGISTRY, A100_40GB, DType, dgx_a100_cluster
from repro.kernels import (
    DEEPSPEED_FP16,
    PROFILE_REGISTRY,
    PYTORCH_FP16,
    FusionStrategy,
    KernelCostModel,
    LayerCost,
    LayerShape,
    Op,
    OpKind,
    TOKEN,
    transformer_layer_ops,
)
from repro.kernels import costmodel
from repro.model import DENSE_ZOO, MOE_PARALLELISM, MOE_ZOO
from repro.moe_placement import (
    SkewedDispatchSpec,
    plan_placement,
    zipf_expert_probs,
)


def _bits(value):
    """A region field as comparable bits: floats by their IEEE encoding
    (so -0.0 != 0.0), strings as themselves."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _region_fields(cost):
    return [
        {f.name: _bits(getattr(r, f.name)) for f in dataclasses.fields(r)}
        for r in cost.regions
    ]


def _oracle(model, shape, ffn=True):
    return model.chain_cost(transformer_layer_ops(shape, ffn=ffn),
                            tokens=shape.tokens)


@st.composite
def _layer_cases(draw):
    profile = PROFILE_REGISTRY[draw(st.sampled_from(sorted(PROFILE_REGISTRY)))]
    gpu = GPU_REGISTRY[draw(st.sampled_from(sorted(GPU_REGISTRY)))]
    tp = draw(st.sampled_from([1, 2, 4, 8]))
    heads = tp * draw(st.sampled_from([1, 2, 5, 8]))
    hidden = heads * draw(st.sampled_from([64, 80, 128]))
    limit = profile.small_batch_tokens
    small = draw(st.booleans())  # which side of the small-batch threshold
    if draw(st.sampled_from(["decode", "prompt"])) == "decode":
        tokens_per_seq = 1
        batch = (draw(st.integers(1, limit)) if small
                 else draw(st.integers(limit + 1, 256)))
    else:
        batch = draw(st.integers(1, 4))
        tokens_per_seq = (draw(st.integers(1, limit // batch)) if small
                          else draw(st.integers(limit // batch + 1, 2048)))
    shape = LayerShape(
        hidden=hidden, heads=heads, batch=batch,
        tokens_per_seq=tokens_per_seq,
        kv_len=tokens_per_seq + draw(st.integers(0, 4096)),
        dtype=draw(st.sampled_from(list(DType))), tp_degree=tp,
        ffn_mult=draw(st.sampled_from([1, 4])))
    assert (shape.tokens <= limit) == small
    return gpu, profile, shape, draw(st.booleans()), draw(st.integers(1, 64))


@settings(max_examples=300, deadline=None)
@given(case=_layer_cases())
def test_compiled_layer_matches_op_chain_bit_for_bit(case):
    gpu, profile, shape, ffn, kv_step = case
    model = KernelCostModel(gpu, profile)
    # The first shape compiles its key; the second reuses the closed forms.
    for s in (shape, dataclasses.replace(shape, kv_len=shape.kv_len + kv_step)):
        got = model.layer_cost(s, ffn=ffn)
        assert _region_fields(got) == _region_fields(_oracle(model, s, ffn))


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(case=_layer_cases(),
       offsets=st.lists(st.integers(0, 4096), min_size=1, max_size=24))
def test_layer_times_match_layer_cost_bit_for_bit(case, offsets):
    """The float span path equals ``LayerCost.total_time`` at each KV
    length by IEEE bits, whatever the order the lengths come in."""
    gpu, profile, shape, ffn, _ = case
    model = KernelCostModel(gpu, profile)
    kvs = [shape.tokens_per_seq + o for o in offsets]
    got = model.layer_times(shape, kvs, ffn=ffn)
    assert got.dtype == np.float64 and got.shape == (len(kvs),)
    assert _hex(got) == _hex(
        model.layer_cost(dataclasses.replace(shape, kv_len=kv),
                         ffn=ffn).total_time for kv in kvs)


@settings(max_examples=300, deadline=None)
@given(case=_layer_cases())
def test_compiled_total_matches_regions_and_chain_bit_for_bit(case):
    """``total_time`` is the compiled regions' left-to-right sum: it
    equals that fold and the op chain's total by IEEE bits."""
    gpu, profile, shape, ffn, kv_step = case
    model = KernelCostModel(gpu, profile)
    for s in (shape, dataclasses.replace(shape, kv_len=shape.kv_len + kv_step)):
        got = model.layer_cost(s, ffn=ffn)
        total = got.total_time  # read before the regions are rendered
        # ``sum`` adds floats left to right only up to CPython 3.11.
        folded = functools.reduce(operator.add,
                                  (r.total for r in got.regions), 0)
        assert _hex([total]) == _hex([folded])
        assert _hex([total]) == _hex([_oracle(model, s, ffn).total_time])


_PROPERTIES = ("total_time", "kernel_count", "launch_time", "hbm_bytes",
               "flops", "effective_bandwidth")


@settings(max_examples=100, deadline=None)
@given(case=_layer_cases())
def test_compiled_layer_cost_behaves_like_one_built_from_regions(case):
    gpu, profile, shape, ffn, _ = case
    model = KernelCostModel(gpu, profile)
    got = model.layer_cost(shape, ffn=ffn)
    ref = LayerCost(_oracle(model, shape, ffn).regions)
    for name in _PROPERTIES:
        assert _bits(getattr(got, name)) == _bits(getattr(ref, name)), name
    assert got == ref and ref == got
    assert hash(got) == hash(ref)
    assert repr(got) == repr(ref)
    assert got.regions is got.regions  # rendered once
    assert pickle.loads(pickle.dumps(got)) == ref
    for name in ("regions", "total_time", "_regions"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(got, name)
    assert got != model.layer_cost(
        dataclasses.replace(shape, kv_len=shape.kv_len + 1), ffn=ffn)
    assert got != ref.regions


def _prompt(prompt_len, shared_prefix_len=0):
    return SimpleNamespace(prompt_len=prompt_len,
                           shared_prefix_len=shared_prefix_len)


def test_layer_times_validates_kv_lens():
    model = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
    shape = LayerShape(hidden=1024, heads=16, batch=2, tokens_per_seq=4,
                       kv_len=4)
    assert model.layer_times(shape, []).shape == (0,)
    with pytest.raises(ValueError, match="kv_len must include"):
        model.layer_times(shape, [8, 3])
    with pytest.raises(TypeError, match="1-D sequence of ints"):
        model.layer_times(shape, [8.0])
    with pytest.raises(TypeError, match="1-D sequence of ints"):
        model.layer_times(shape, [[8]])


def _with_quadratic_op(shape, *, ffn=True):
    """The real chain plus an op whose flops grow with kv_len squared."""
    ops = transformer_layer_ops(shape, ffn=ffn)
    act = shape.act_bytes
    ops.append(Op("kv_squared", OpKind.ELEMENTWISE,
                  flops=float(shape.kv_len ** 2), weight_bytes=0.0,
                  act_in_bytes=act, act_out_bytes=act,
                  tile_dims=frozenset({TOKEN})))
    return ops


@pytest.mark.parametrize("batch", [1, 64])  # both small-batch sides
def test_self_check_rejects_non_affine_op(monkeypatch, batch):
    monkeypatch.setattr(costmodel, "transformer_layer_ops", _with_quadratic_op)
    model = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
    shape = LayerShape(hidden=1024, heads=16, batch=batch, tokens_per_seq=1,
                       kv_len=100)
    with pytest.raises(RuntimeError, match="not affine"):
        model.layer_cost(shape)


class TestCompiledStateIsolation:
    SHAPE = LayerShape(hidden=4096, heads=32, batch=8, tokens_per_seq=1,
                       kv_len=128)

    @pytest.mark.parametrize("change", [
        {"cuda_graph": False},
        {"sbi_gemm": False},
        {"fusion": FusionStrategy.ELEMENTWISE},
        {"weight_dtype": DType.INT8},
        {"dispatch_overhead": 1e-6},
        {"nongemm_bw_eff": 0.5},
        {"small_batch_tokens": 4},
        {"weight_traffic_scale": 0.5},
    ])
    def test_one_field_apart_never_share(self, change):
        # with_() keeps the name, so nothing may key on it.
        variant = DEEPSPEED_FP16.with_(**change)
        base = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
        other = KernelCostModel(A100_40GB, variant)
        first = base.layer_cost(self.SHAPE)
        got = other.layer_cost(self.SHAPE)
        assert got == _oracle(other, self.SHAPE)
        assert got != first
        assert base.layer_cost(self.SHAPE) == first

    def test_cuda_graph_ablation_still_prices_differently(self):
        rows = ablation_cuda_graph().rows
        assert rows and all(r["speedup"] > 1.0 for r in rows)

    def test_gpu_and_profile_are_read_only(self):
        model = KernelCostModel(A100_40GB, DEEPSPEED_FP16)
        with pytest.raises(AttributeError):
            model.profile = PYTORCH_FP16
        with pytest.raises(AttributeError):
            model.gpu = GPU_REGISTRY["V100-32GB-SXM"]


def test_ffn_flag_drops_exactly_the_mlp_ops():
    shape = LayerShape(hidden=1024, heads=16, batch=2, tokens_per_seq=3,
                       kv_len=9, tp_degree=4)
    full = transformer_layer_ops(shape)
    assert transformer_layer_ops(shape, ffn=False) == [
        o for o in full
        if not o.name.startswith("mlp_") and o.name != "gelu_bias"
    ]


def test_dense_step_time_composes_memoized_token_terms():
    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4)
    layers = model.config.layers
    for batch, tps, kv in [(1, 128, 128), (4, 1, 300), (4, 1, 301), (1, 40, 128)]:
        k1, c1 = model.layer_time(batch, tps, kv)
        assert c1 > 0
        assert model.step_time(batch, tps, kv) == (
            k1 * layers + model.lm_head_time(batch, tps), c1 * layers)


@settings(max_examples=60, deadline=None)
@given(model_name=st.sampled_from(["gpt-13b", "gpt-neox-20b"]),
       profile=st.sampled_from(sorted(PROFILE_REGISTRY)),
       batch=st.integers(1, 64),
       kvs=st.lists(st.integers(1, 8192), min_size=1, max_size=16))
def test_dense_decode_pass_times_match_step_time(model_name, profile, batch,
                                                 kvs):
    """The vector decode pass equals ``sum(step_time(b, 1, kv))`` by IEEE
    bits: ``(k1·L + head) + c1·L`` in the scalar's order."""
    model = DenseLatencyModel(DENSE_ZOO[model_name], dgx_a100_cluster(1),
                              tp=4, profile=PROFILE_REGISTRY[profile])
    assert _hex(model.decode_pass_times(batch, kvs)) == _hex(
        sum(model.step_time(batch, 1, kv)) for kv in kvs)


def _filled_prompt_span(costs, t, shared):
    """Ask ``costs`` for the unshared prompt pass ``(1, t, t)`` and then
    for ``(1, t, t + c)`` at each shared prefix ``c`` from an idle
    server; return the KV lengths of the shape's array and their costs.
    Every entry but the first two asked ones came from a vector fill, and
    the fill leaves the array fully priced (its bytemask dropped)."""
    for c in [0, *shared]:
        costs.prompt_cost(BatchState(0, 0), _prompt(t + c, c))
    arr, priced = costs._spans[(1, t)]
    assert arr.size > max(shared) and priced is None
    return [t + c for c in range(arr.size)], arr.tolist()


def _prompt_tokens(limit):
    """Suffix lengths on both sides of the small-batch threshold."""
    return st.one_of(st.integers(1, limit), st.integers(limit + 1, 600))


@settings(max_examples=40, deadline=None)
@given(tp=st.sampled_from([1, 2, 4]),
       profile=st.sampled_from(sorted(PROFILE_REGISTRY)),
       t=_prompt_tokens(DEEPSPEED_FP16.small_batch_tokens),
       shared=st.lists(st.integers(1, 400), min_size=1, max_size=3))
def test_dense_prompt_span_matches_step_time(tp, profile, t, shared):
    """Each entry of a filled prompt span equals ``sum(step_time(1, t,
    kv))`` by IEEE bits, over TP degrees, FP16, INT8 and the baseline
    profiles, for suffixes on both sides of the small-batch threshold."""
    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                              tp=tp, profile=PROFILE_REGISTRY[profile])
    kvs, got = _filled_prompt_span(DenseStepCost(model), t, shared)
    assert _hex(got) == _hex(sum(model.step_time(1, t, kv)) for kv in kvs)


@settings(max_examples=25, deadline=None)
@given(t=_prompt_tokens(DEEPSPEED_FP16.small_batch_tokens),
       shared=st.lists(st.integers(1, 400), min_size=1, max_size=3),
       skew=st.floats(0.6, 1.6), optimized=st.booleans())
def test_moe_prompt_span_matches_token_step(t, shared, skew, optimized):
    """Each entry of a filled skew-priced MoE prompt span equals
    ``token_step(t, kv, load_ratio=, stall_time=).total`` by IEEE
    bits."""
    cfg = MOE_ZOO["1.3b-moe-128"]
    par = MOE_PARALLELISM[cfg.name]
    model = MoELatencyModel(cfg, dgx_a100_cluster(16), par,
                            optimized=optimized)
    probs = zipf_expert_probs(cfg.moe.num_experts, skew, seed=3)
    plan = plan_placement(probs, par.ep_degree, replication=2, num_hot=4)
    spec = SkewedDispatchSpec(probs=probs, placement=plan.placement,
                              streamed=plan.streamed, prefetch_hit_rate=0.5,
                              expert_fetch_time=1e-4)
    kvs, got = _filled_prompt_span(MoEStepCost(model, skew=spec), t,
                                   shared)
    ratio, stall = spec.load_ratio(t), spec.stall_time(t)
    assert _hex(got) == _hex(
        model.token_step(t, kv, load_ratio=ratio, stall_time=stall).total
        for kv in kvs)
