"""Executed work equals priced work, for dense layers at TP 1, 2 and 4.

The cost model prices one transformer layer on one tensor-parallel rank
as ``transformer_layer_ops`` (Fig. 1c). The functional engine runs that
layer through ``kernels.functional``: every GEMM through ``linear`` and
every attention through ``scaled_dot_product_attention`` (no other
functional module may write a bare ``@``; ``tests/test_layering.py``
checks that), and every tensor-parallel reduction through
``Communicator.allreduce``. This test records those calls during one
forward and holds them, per layer and per rank, to the priced ops:

* the four GEMMs' flops (``2·m·k·n``) and weight element counts;
* the flops of the two attention contractions, QK^T and scores·V;
* two all-reduces of ``t·h`` elements on a tensor-parallel rank.

Cases: a prefill of 8 tokens and a cached decode of 1 token over 9
positions, learned and rotary positions, on the dense executor and on
tensor-parallel ranks at degree 1, 2 and 4; and a serving session's
prefix hit, whose admission forward over a forked paged cache must run
only the unshared suffix, the pass ``DenseStepCost.prompt_cost`` prices.
"""

import sys
import threading
from collections import defaultdict

import numpy as np
import pytest

import repro.kernels.functional as kf
from repro.comm.functional import Communicator, spmd
from repro.engine.costs import BatchState, DenseStepCost, PromptShape
from repro.engine.generation import GenerationSession
from repro.kernels.graph import LayerShape, transformer_layer_ops
from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.kvcache import KVCache
from repro.parallel.tensor_parallel import tp_forward

BATCH, PROMPT = 2, 8
GEMMS = ("qkv_gemm", "attn_output_gemm", "mlp_h_to_4h_gemm",
         "mlp_4h_to_h_gemm")


@pytest.fixture
def records(monkeypatch):
    """Each thread's calls, in order: ``("gemm", m, k, n)``,
    ``("attention", q.shape, k.shape)`` and ``("allreduce", elements)``."""
    log = defaultdict(list)

    def note(*entry):
        log[threading.current_thread().name].append(entry)

    linear = kf.linear
    attention = kf.scaled_dot_product_attention
    allreduce = Communicator.allreduce

    def linear_rec(x, weight, bias=None):
        note("gemm", x.size // x.shape[-1], *weight.shape)
        return linear(x, weight, bias)

    def attention_rec(q, k, v, **kwargs):
        note("attention", q.shape, k.shape)
        return attention(q, k, v, **kwargs)

    def allreduce_rec(self, array, op="sum"):
        note("allreduce", np.asarray(array).size)
        return allreduce(self, array, op)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        for name, original, wrapper in (
                ("linear", linear, linear_rec),
                ("scaled_dot_product_attention", attention, attention_rec)):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(Communicator, "allreduce", allreduce_rec)
    return log


def _run(log, executor, tp, pos_encoding, decode):
    """Each rank's records of the measured forward."""
    cfg = ModelConfig(name="work", hidden=32, layers=2, heads=4, vocab=37,
                      max_seq=16, pos_encoding=pos_encoding)
    model = DenseTransformer(cfg, seed=0)
    ids = np.arange(BATCH * (PROMPT + 1)).reshape(BATCH, -1) % cfg.vocab

    def prog(comm=None):
        mine = log[threading.current_thread().name]
        if comm is None:
            forward = model.forward
        else:
            def forward(x, cache):
                return tp_forward(comm, model, x, cache)
        if not decode:
            forward(ids[:, :PROMPT], None)
            return list(mine)
        cache = KVCache(cfg.layers)
        forward(ids[:, :PROMPT], cache)
        mine.clear()
        forward(ids[:, PROMPT:], cache)
        return list(mine)

    if executor == "dense":
        return cfg, [prog()]
    return cfg, spmd(tp, prog)


def _assert_layers_execute(cfg, calls, shape, priced_allreduces):
    """One rank's records hold, layer by layer, the work
    ``transformer_layer_ops(shape)`` prices."""
    ops = {op.name: op for op in transformer_layer_ops(shape)}
    itemsize = shape.dtype.itemsize
    priced_gemms = [(ops[n].flops, ops[n].weight_bytes / itemsize)
                    for n in GEMMS]
    priced_attention = (ops["attention_scores"].flops,
                        ops["attention_context"].flops)
    gemms = [(2.0 * c[1] * c[2] * c[3], c[2] * c[3])
             for c in calls if c[0] == "gemm"]
    attention = [c[1:] for c in calls if c[0] == "attention"]
    allreduces = [c[1] for c in calls if c[0] == "allreduce"]
    # Four GEMMs per layer, then the LM head (priced outside the layer).
    assert len(gemms) == 4 * cfg.layers + 1
    assert gemms[-1][1] == cfg.hidden * cfg.vocab
    assert len(attention) == cfg.layers
    assert len(allreduces) == len(priced_allreduces) * cfg.layers
    for layer in range(cfg.layers):
        assert gemms[4 * layer : 4 * layer + 4] == priced_gemms
        (b, heads, sq, d), (_, _, sk, _) = attention[layer]
        contraction = 2.0 * b * heads * sq * sk * d
        assert (contraction, contraction) == priced_attention
        assert allreduces[2 * layer : 2 * layer + 2] == priced_allreduces


@pytest.mark.parametrize("pos_encoding", ["learned", "rotary"])
@pytest.mark.parametrize("decode", [False, True], ids=["prefill", "decode"])
@pytest.mark.parametrize("executor,tp", [("dense", 1), ("tp", 1), ("tp", 2),
                                         ("tp", 4)])
def test_each_rank_executes_the_priced_layer(records, executor, tp,
                                             pos_encoding, decode):
    cfg, ranks = _run(records, executor, tp, pos_encoding, decode)
    shape = LayerShape(
        hidden=cfg.hidden, heads=cfg.heads, batch=BATCH,
        tokens_per_seq=1 if decode else PROMPT,
        kv_len=PROMPT + 1 if decode else PROMPT, tp_degree=tp)
    priced_allreduces = ([] if executor == "dense"
                         else [shape.tokens * cfg.hidden] * 2)

    assert len(ranks) == tp
    for calls in ranks:
        _assert_layers_execute(cfg, calls, shape, priced_allreduces)


class _RecordingLatency:
    """A latency model that records each pass it is asked to price."""

    def __init__(self):
        self.passes = []

    def step_time(self, batch, tokens_per_seq, kv_len):
        self.passes.append((batch, tokens_per_seq, kv_len))
        return 0.0, 0.0


@pytest.mark.parametrize("pos_encoding", ["learned", "rotary"])
def test_prefix_hit_executes_only_the_priced_suffix(records, pos_encoding):
    """Turn 2 of a conversation forks turn 1's parked paged cache: its
    admission forward runs only the unshared suffix, attending over the
    whole prompt, exactly the pass ``prompt_cost`` prices for it."""
    cfg = ModelConfig(name="work", hidden=32, layers=2, heads=4, vocab=37,
                      max_seq=32, pos_encoding=pos_encoding)
    session = GenerationSession(DenseTransformer(cfg, seed=0),
                                prefix_sharing=True)
    rng = np.random.default_rng(0)
    prompt_len, shared = 18, 12
    session.submit(rng.integers(0, cfg.vocab, 14), max_new_tokens=3,
                   session=0)
    session.run()  # parks 16 cached positions
    mine = records[threading.current_thread().name]
    mine.clear()
    rid = session.submit(rng.integers(0, cfg.vocab, prompt_len),
                         max_new_tokens=1, session=0,
                         shared_prefix_len=shared)
    # One token: the request retires at admission, so the step's only
    # forward is the admission prefill.
    assert session.step() == [rid]
    reused = session.result(rid).prefix_reused
    assert reused == shared

    latency = _RecordingLatency()
    DenseStepCost(latency).prompt_cost(BatchState(0, 0),
                                       PromptShape(prompt_len, reused))
    batch, tokens, kv_len = latency.passes[0]
    assert (batch, tokens, kv_len) == (1, prompt_len - reused, prompt_len)
    shape = LayerShape(hidden=cfg.hidden, heads=cfg.heads, batch=batch,
                       tokens_per_seq=tokens, kv_len=kv_len)
    _assert_layers_execute(cfg, list(mine), shape, [])
