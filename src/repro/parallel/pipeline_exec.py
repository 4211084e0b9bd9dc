"""Distributed pipeline-parallel generation over the functional
communicator — the Fig. 2b dynamic-queue schedule, actually executed.

Each rank owns one contiguous stage of layers. Micro-batches flow through
the stages over point-to-point sends; the *last* stage computes logits,
picks the next token greedily, and sends it back to the *first* stage,
which immediately re-enqueues that micro-batch for its next token — no
global barrier between tokens, exactly the data-dependency hiding of
Sec. IV-C1. KV caches are per-stage, so each rank only caches its own
layers (the memory-partitioning property of pipeline parallelism).

The test suite verifies the generated tokens are identical to
single-process `model.generate` for any stage count and micro-batch
split.
"""

from __future__ import annotations

import numpy as np

from ..comm.functional import Communicator
from ..model.dense import DenseTransformer, cached_attention, lm_head, run_layers
from ..model.kvcache import KVCache
from .pipeline import partition_layers

__all__ = ["pipeline_generate_rank", "pipeline_spmd_generate"]

_ACT_TAG_BASE = 100  # activation messages: tag = base + micro-batch id
_TOK_TAG_BASE = 900  # next-token feedback:  tag = base + micro-batch id


def pipeline_generate_rank(
    comm: Communicator,
    model: DenseTransformer,
    prompts: list[np.ndarray],
    gen_tokens: int,
) -> np.ndarray | None:
    """One rank's part of pipelined generation.

    ``prompts`` is a list of micro-batches, each ``(mb, seq)`` of equal
    sequence length. Returns the completed ``(batch, seq + gen_tokens)``
    ids on the first stage, ``None`` elsewhere.
    """
    if gen_tokens < 1:
        raise ValueError("gen_tokens must be >= 1")
    if not prompts:
        raise ValueError("need at least one micro-batch")
    stages = partition_layers(model.config.layers, comm.size)
    plan = stages[comm.rank]
    layers = range(plan.start, plan.end)
    first, last = comm.rank == 0, comm.rank == comm.size - 1
    num_mb = len(prompts)
    caches = [KVCache(model.config.layers) for _ in range(num_mb)]

    outputs: list[list[np.ndarray]] = [[] for _ in range(num_mb)]

    def emit_token(x: np.ndarray, m: int) -> None:
        """Last stage: logits -> greedy token -> feed back to stage 0."""
        logits = lm_head(model, x)
        nxt = logits[:, -1].argmax(axis=-1)[:, None]
        if comm.size > 1:
            comm.send(nxt, dest=0, tag=_TOK_TAG_BASE + m)
        else:
            outputs[m].append(nxt)

    # The schedule: every micro-batch makes ``gen_tokens`` full passes.
    # Pass 0 consumes the prompt and yields token 1; pass t consumes
    # token t and yields token t+1. Passes interleave across micro-
    # batches with no token barrier (the dynamic queue of Fig. 2b):
    # stage s processes (mb, pass) units in arrival order.
    for step in range(gen_tokens):
        for m in range(num_mb):
            cache = caches[m]
            if first:
                if step == 0:
                    ids = prompts[m]
                elif comm.size == 1:
                    ids = outputs[m][-1]  # emitted locally last pass
                else:
                    tok = comm.recv(source=comm.size - 1,
                                    tag=_TOK_TAG_BASE + m)
                    outputs[m].append(tok)
                    ids = tok
                x = model.embed(ids, cache.seq_len(plan.start))
            else:
                x = comm.recv(source=comm.rank - 1, tag=_ACT_TAG_BASE + m)
            x = run_layers(model, x, layers,
                           cached_attention(model.config, cache))
            if last:
                emit_token(x, m)
            else:
                comm.send(x, dest=comm.rank + 1, tag=_ACT_TAG_BASE + m)

    if not first:
        return None
    # Collect the final token of every micro-batch.
    if comm.size > 1:
        for m in range(num_mb):
            outputs[m].append(
                comm.recv(source=comm.size - 1, tag=_TOK_TAG_BASE + m)
            )
    completed = [
        np.concatenate([prompts[m], *outputs[m]], axis=1)
        for m in range(num_mb)
    ]
    return np.concatenate(completed, axis=0)


def pipeline_spmd_generate(
    num_stages: int,
    model: DenseTransformer,
    prompt_ids: np.ndarray,
    gen_tokens: int,
) -> np.ndarray:
    """Run pipelined generation across ``num_stages`` in-process ranks.

    ``prompt_ids`` is ``(batch, seq)``; the batch splits into equal
    micro-batches, as many as the batch divides into up to the stage
    count (Sec. IV-C1's recommendation).
    """
    from ..comm.functional import spmd

    prompt_ids = np.atleast_2d(prompt_ids)
    batch = prompt_ids.shape[0]
    num_microbatches = max(
        m for m in range(1, min(num_stages, batch) + 1) if batch % m == 0
    )
    mb = batch // num_microbatches
    prompts = [prompt_ids[i * mb : (i + 1) * mb] for i in range(num_microbatches)]
    results = spmd(num_stages, pipeline_generate_rank, model, prompts, gen_tokens)
    return results[0]
