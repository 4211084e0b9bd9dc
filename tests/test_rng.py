"""Seed/Generator plumbing: every stochastic entry point accepts either
an int seed or a live numpy Generator, with identical results for equal
seeds (the RP003 determinism contract, end-to-end)."""

from __future__ import annotations

import numpy as np

from repro import SeedLike, as_generator
from repro.engine.generation import GenerationSession
from repro.engine.serving_sim import synthesize_trace
from repro.fleet.policies import PowerOfTwoChoices, resolve_routing_policy
from repro.fleet.functional import synthesize_prompts
from repro.model.config import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.encoder import EncoderTransformer
from repro.model.moe import MoELayer
from repro.model.sampling import SamplingConfig

TINY = ModelConfig(name="tiny", hidden=16, layers=2, heads=2, vocab=50,
                   max_seq=32)
TINY_ENC = ModelConfig(name="tiny-enc", hidden=16, layers=2, heads=2,
                       vocab=50, max_seq=32, decoder=False)


class TestAsGenerator:
    def test_int_seed_builds_fresh_generator(self):
        a, b = as_generator(7), as_generator(7)
        assert a is not b
        assert a.random() == b.random()

    def test_generator_passes_through_by_reference(self):
        rng = np.random.default_rng(3)
        assert as_generator(rng) is rng

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(11)
        a = as_generator(ss)
        b = np.random.default_rng(np.random.SeedSequence(11))
        assert a.random() == b.random()

    def test_seedlike_alias_exists(self):
        assert SeedLike is not None


class TestModelSeeds:
    def test_dense_weights_match_for_equal_streams(self):
        by_int = DenseTransformer(TINY, seed=5)
        by_gen = DenseTransformer(TINY, seed=np.random.default_rng(5))
        np.testing.assert_array_equal(by_int.wte, by_gen.wte)
        np.testing.assert_array_equal(by_int.layers[1].w_qkv,
                                      by_gen.layers[1].w_qkv)

    def test_encoder_accepts_generator(self):
        by_int = EncoderTransformer(TINY_ENC, seed=9)
        by_gen = EncoderTransformer(TINY_ENC, seed=np.random.default_rng(9))
        np.testing.assert_array_equal(by_int.wte, by_gen.wte)

    def test_moe_layer_accepts_generator(self):
        by_int = MoELayer(16, 4, seed=2)
        by_gen = MoELayer(16, 4, seed=np.random.default_rng(2))
        np.testing.assert_array_equal(by_int.w_gate, by_gen.w_gate)
        np.testing.assert_array_equal(by_int.w_fc, by_gen.w_fc)

    def test_one_generator_threads_through_hops(self):
        # Drawing model A then model B from one stream differs from two
        # fresh streams — proof the generator state actually advances.
        rng = np.random.default_rng(5)
        first = DenseTransformer(TINY, seed=rng)
        second = DenseTransformer(TINY, seed=rng)
        np.testing.assert_array_equal(first.wte,
                                      DenseTransformer(TINY, seed=5).wte)
        assert not np.array_equal(first.wte, second.wte)


class TestWorkloadSeeds:
    def test_trace_equal_for_equal_seeds(self):
        a = synthesize_trace(num_requests=20, arrival_rate=4.0, seed=13)
        b = synthesize_trace(num_requests=20, arrival_rate=4.0,
                             seed=np.random.default_rng(13))
        assert a == b

    def test_prompts_equal_for_equal_seeds(self):
        trace = synthesize_trace(num_requests=6, arrival_rate=4.0, seed=1)
        by_int = synthesize_prompts(trace, vocab=100, seed=21)
        by_gen = synthesize_prompts(trace, vocab=100,
                                    seed=np.random.default_rng(21))
        for rid in by_int:
            np.testing.assert_array_equal(by_int[rid], by_gen[rid])

    def test_end_to_end_stream(self):
        rng = np.random.default_rng(77)
        trace = synthesize_trace(num_requests=8, arrival_rate=4.0, seed=rng)
        prompts = synthesize_prompts(trace, vocab=64, seed=rng)
        assert set(prompts) == {r.request_id for r in trace.requests}
        # Replayable by reconstructing the same stream from the int seed.
        rng2 = np.random.default_rng(77)
        trace2 = synthesize_trace(num_requests=8, arrival_rate=4.0, seed=rng2)
        assert trace == trace2


class TestSessionAndPolicySeeds:
    def test_generation_session_sampling_reproducible(self):
        model = DenseTransformer(TINY, seed=0)
        cfg = SamplingConfig(temperature=0.8, top_k=5)
        outs = []
        for seed in (np.random.default_rng(4), 4):
            sess = GenerationSession(model, sampling=cfg, seed=seed)
            rid = sess.submit(np.array([1, 2, 3]), max_new_tokens=4)
            while sess.num_active or sess.num_waiting:
                sess.step()
            outs.append(sess.result(rid).output_ids)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_power_of_two_accepts_generator(self):
        by_int = PowerOfTwoChoices(seed=6)
        by_gen = PowerOfTwoChoices(seed=np.random.default_rng(6))
        assert by_int._rng.random() == by_gen._rng.random()

    def test_resolve_policy_still_builds_defaults(self):
        assert resolve_routing_policy("power_of_two").name == "power_of_two"
