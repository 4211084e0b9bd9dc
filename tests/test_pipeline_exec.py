"""Tests: distributed pipelined generation == single-process generation."""

import dataclasses

import numpy as np
import pytest

from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.parallel.pipeline_exec import pipeline_spmd_generate

CFG = ModelConfig(name="pipe-exec", hidden=32, layers=6, heads=4, vocab=71,
                  max_seq=40)


@pytest.fixture(scope="module")
def model():
    return DenseTransformer(CFG, seed=19)


class TestPipelinedGeneration:
    @pytest.mark.parametrize("stages", [1, 2, 3, 6])
    def test_matches_reference_generation(self, model, stages):
        prompt = np.array([[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]])
        want = model.generate(prompt, 5)
        got = pipeline_spmd_generate(stages, model, prompt, 5)
        np.testing.assert_array_equal(got, want)

    def test_microbatch_split_invariance(self, model):
        """Results do not depend on how the batch splits into
        micro-batches: 1, 2, 3 and 3 of them for 1 to 4 stages."""
        prompt = np.array([[7, 2], [9, 9], [1, 3], [4, 4], [2, 8], [6, 1]])
        want = model.generate(prompt, 4)
        for stages in (1, 2, 3, 4):
            got = pipeline_spmd_generate(stages, model, prompt, 4)
            np.testing.assert_array_equal(got, want)

    def test_single_sequence(self, model):
        prompt = np.array([[11, 22, 33]])
        want = model.generate(prompt, 3)
        got = pipeline_spmd_generate(3, model, prompt, 3)
        np.testing.assert_array_equal(got, want)

    def test_uneven_stage_layer_split(self, model):
        # 6 layers over 4 stages -> [2,2,1,1]: still exact.
        prompt = np.array([[5, 6], [7, 8]])
        want = model.generate(prompt, 3)
        got = pipeline_spmd_generate(4, model, prompt, 3)
        np.testing.assert_array_equal(got, want)

    def test_validation(self, model):
        with pytest.raises(RuntimeError):
            # gen_tokens validated inside the rank program
            pipeline_spmd_generate(2, model, np.array([[1], [2]]), 0)


class TestRotaryPipelinedGeneration(TestPipelinedGeneration):
    """The same checks on a rotary model: stage 0 embeds through the
    model, which adds no learned positions to it."""

    @pytest.fixture(scope="class")
    def model(self):
        return DenseTransformer(
            dataclasses.replace(CFG, pos_encoding="rotary"), seed=19)
