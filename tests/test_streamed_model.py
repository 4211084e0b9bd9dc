"""Tests: the runnable ZeRO-Inference streamed transformer."""

import dataclasses

import numpy as np
import pytest

from repro.hardware import lambda_a6000_workstation
from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.kvcache import KVCache
from repro.parallel.pipeline import partition_layers, staged_forward
from repro.zero import Tier
from repro.zero.streamed_model import StreamedTransformer

CFG = ModelConfig(name="stream-test", hidden=32, layers=5, heads=4, vocab=53,
                  max_seq=32)
WS = lambda_a6000_workstation(1)


@pytest.fixture(scope="module")
def model():
    return DenseTransformer(CFG, seed=29)


class TestStreamedForward:
    def test_staged_executor_streams_through_the_same_accessor(self, model):
        """staged_forward reads weights through layer_weights, so it runs
        over streamed weights and fetches what a streamed forward does."""
        ids = np.array([[4, 8, 15, 16]])
        staged = StreamedTransformer(model, WS, window=2)
        got = staged_forward(staged, partition_layers(CFG.layers, 2), ids)
        assert got.tobytes() == model.forward(ids).tobytes()
        streamed = StreamedTransformer(model, WS, window=2)
        streamed.forward(ids)
        assert staged.fetches == streamed.fetches == CFG.layers

    def test_logits_match_resident_model(self, model):
        """The resident model's own loop: equal by bytes, cached too."""
        streamed = StreamedTransformer(model, WS, window=2)
        ids = np.array([[4, 8, 15, 16]])
        assert streamed.forward(ids).tobytes() == model.forward(ids).tobytes()
        mine, ref = KVCache(CFG.layers), KVCache(CFG.layers)
        for step in (ids[:, :3], ids[:, 3:]):
            assert (streamed.forward(step, mine).tobytes()
                    == model.forward(step, ref).tobytes())

    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_any_window_size(self, model, window):
        streamed = StreamedTransformer(model, WS, window=window)
        ids = np.array([[1, 2, 3]])
        np.testing.assert_allclose(
            streamed.forward(ids), model.forward(ids), atol=1e-12
        )
        assert len(streamed.resident_layers) <= window

    def test_generation_matches(self, model):
        streamed = StreamedTransformer(model, WS)
        prompt = np.array([[7, 3]])
        np.testing.assert_array_equal(
            streamed.generate(prompt, 5), model.generate(prompt, 5)
        )

    def test_nvme_tier_also_works(self, model):
        streamed = StreamedTransformer(model, WS, tier=Tier.NVME)
        ids = np.array([[9, 9]])
        np.testing.assert_allclose(
            streamed.forward(ids), model.forward(ids), atol=1e-12
        )
        # NVMe fetches are slower than DRAM fetches would be.
        assert streamed.modeled_fetch_time > 0


class TestFetchAccounting:
    def test_every_streamed_layer_fetched_per_pass(self, model):
        streamed = StreamedTransformer(model, WS, window=2)
        streamed.forward(np.array([[1]]))
        assert streamed.fetches == CFG.layers
        streamed.forward(np.array([[2]]))
        assert streamed.fetches == 2 * CFG.layers

    def test_window_covering_all_layers_caches_them(self, model):
        streamed = StreamedTransformer(model, WS, window=CFG.layers)
        streamed.forward(np.array([[1]]))
        streamed.forward(np.array([[2]]))
        # Second pass found everything resident: no new fetches.
        assert streamed.fetches == CFG.layers

    def test_pinned_layers_never_fetched(self, model):
        streamed = StreamedTransformer(model, WS, window=2, pinned_layers=2)
        streamed.forward(np.array([[1]]))
        assert streamed.fetches == CFG.layers - 2
        assert streamed.fetches_per_forward() == CFG.layers - 2
        # Pinned layers occupy the GPU tier of the store.
        assert streamed.store.tier_of(0) is Tier.GPU
        assert streamed.store.tier_of(2) is Tier.DRAM

    def test_pinning_tradeoff_gpu_memory(self, model):
        """Sec. VI-A's rejected design: pinning spends GPU bytes that the
        streamed design would hand to the batch."""
        none = StreamedTransformer(model, WS, pinned_layers=0)
        some = StreamedTransformer(model, WS, pinned_layers=3)
        assert some.store.usage(Tier.GPU) > none.store.usage(Tier.GPU)
        assert some.fetches_per_forward() < none.fetches_per_forward()


class TestRotaryStreamedForward(TestStreamedForward):
    """The same checks on a rotary model, which takes no learned
    positions."""

    @pytest.fixture(scope="class")
    def model(self):
        return DenseTransformer(
            dataclasses.replace(CFG, pos_encoding="rotary"), seed=29)


class TestValidation:
    def test_bad_window(self, model):
        with pytest.raises(ValueError):
            StreamedTransformer(model, WS, window=0)

    def test_bad_pinned_count(self, model):
        with pytest.raises(ValueError):
            StreamedTransformer(model, WS, pinned_layers=99)

    def test_forward_checks_ids_and_length(self, model):
        streamed = StreamedTransformer(model, WS)
        with pytest.raises(ValueError, match="vocabulary"):
            streamed.forward(np.array([[CFG.vocab]]))
        with pytest.raises(ValueError, match="max_seq"):
            streamed.forward(np.zeros((1, CFG.max_seq + 1), dtype=int))
