"""Tests for the functional bidirectional encoder."""

import dataclasses

import numpy as np
import pytest

from repro.model import ModelConfig
from repro.model.encoder import EncoderTransformer

CFG = ModelConfig(name="enc-test", hidden=32, layers=3, heads=4, vocab=59,
                  max_seq=32, decoder=False)


@pytest.fixture(scope="module")
def model():
    return EncoderTransformer(CFG, seed=5)


class TestEncoder:
    def test_shapes(self, model):
        ids = np.array([[1, 2, 3, 4, 5]])
        out = model.encode(ids)
        assert out.shape == (1, 5, CFG.hidden)
        assert model.pooled(ids).shape == (1, CFG.hidden)

    def test_bidirectional_context(self, model):
        """Unlike a decoder, changing a LATER token changes EARLIER
        outputs — attention is bidirectional."""
        a = model.encode(np.array([[5, 6, 7, 8]]))
        b = model.encode(np.array([[5, 6, 7, 42]]))
        assert not np.allclose(a[0, 0], b[0, 0])

    def test_batch_independence(self, model):
        one = model.encode(np.array([[9, 8, 7]]))
        two = model.encode(np.array([[9, 8, 7], [1, 2, 3]]))
        np.testing.assert_allclose(two[0], one[0], atol=1e-12)

    def test_permutation_covariance_of_values(self, model):
        """With no position embeddings the encoder would be permutation-
        equivariant; with them, permuting inputs changes outputs."""
        a = model.encode(np.array([[3, 4, 5]]))
        b = model.encode(np.array([[5, 4, 3]]))
        assert not np.allclose(a, b)

    def test_decoder_config_rejected(self):
        bad = ModelConfig(name="d", hidden=16, layers=1, heads=2, vocab=10,
                          max_seq=8, decoder=True)
        with pytest.raises(ValueError, match="decoder"):
            EncoderTransformer(bad)

    def test_validation(self, model):
        with pytest.raises(ValueError):
            model.encode(np.array([[CFG.vocab]]))
        with pytest.raises(ValueError):
            model.encode(np.zeros((1, CFG.max_seq + 1), dtype=int))
        rotary = dataclasses.replace(CFG, pos_encoding="rotary")
        with pytest.raises(ValueError, match="pos_encoding"):
            EncoderTransformer(rotary)

    def test_padding_mask_isolates_padded_tokens(self, model):
        """A padded batch must produce the same embeddings for the real
        tokens as the unpadded sequence alone."""
        short = np.array([[9, 8, 7]])
        padded = np.array([[9, 8, 7, 0, 0]])
        mask = np.array([[True, True, True, False, False]])
        alone = model.encode(short)
        masked = model.encode(padded, attention_mask=mask)
        np.testing.assert_allclose(masked[0, :3], alone[0], atol=1e-10)

    def test_pooled_ignores_padding(self, model):
        short = np.array([[9, 8, 7]])
        padded = np.array([[9, 8, 7, 0]])
        mask = np.array([[True, True, True, False]])
        np.testing.assert_allclose(
            model.pooled(padded, mask), model.pooled(short), atol=1e-10
        )

    def test_mask_shape_validated(self, model):
        with pytest.raises(ValueError, match="attention_mask"):
            model.encode(np.array([[1, 2]]), attention_mask=np.ones((1, 3), bool))

    def test_matches_bert_zoo_config(self):
        from repro.model import BERT_ZOO

        tiny_distil = ModelConfig(
            name="mini-distil", hidden=24, layers=BERT_ZOO["distilbert"].layers,
            heads=4, vocab=31, max_seq=16, decoder=False,
        )
        model = EncoderTransformer(tiny_distil, seed=1)
        assert model.encode(np.array([[1, 2]])).shape == (1, 2, 24)
