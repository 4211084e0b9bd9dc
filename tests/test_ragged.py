"""Tests: ragged batched decoding equals solo decoding exactly."""

import numpy as np
import pytest

from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.ragged import RaggedDecoder

LEARNED = ModelConfig(name="rag-l", hidden=32, layers=3, heads=4, vocab=67,
                      max_seq=40)
ROTARY = ModelConfig(name="rag-r", hidden=32, layers=3, heads=4, vocab=67,
                     max_seq=40, pos_encoding="rotary")


@pytest.fixture(scope="module", params=["learned", "rotary"])
def model(request):
    cfg = LEARNED if request.param == "learned" else ROTARY
    return DenseTransformer(cfg, seed=37)


PROMPTS = [
    np.array([3, 1, 4, 1, 5]),
    np.array([9]),
    np.array([2, 6]),
    np.array([5, 3, 5, 8]),
]


class TestRaggedEquivalence:
    def test_prefill_logits_match_solo(self, model):
        dec = RaggedDecoder(model)
        logits = dec.add_rows(range(len(PROMPTS)), PROMPTS)
        for i, p in enumerate(PROMPTS):
            solo = model.forward(p[None, :])[0, -1]
            np.testing.assert_allclose(logits[i], solo, atol=1e-10)

    def test_generate_matches_solo_generate(self, model):
        dec = RaggedDecoder(model)
        outs = dec.generate(PROMPTS, 6)
        for out, p in zip(outs, PROMPTS):
            solo = model.generate(p[None, :], 6)[0]
            np.testing.assert_array_equal(out, solo)

    def test_step_by_step_matches(self, model):
        dec = RaggedDecoder(model)
        logits = dec.add_rows(range(len(PROMPTS)), PROMPTS)
        toks = logits.argmax(-1)
        logits2 = dec.step(toks)
        for i, p in enumerate(PROMPTS):
            seq = np.concatenate([p, [toks[i]]])
            solo = model.forward(seq[None, :])[0, -1]
            np.testing.assert_allclose(logits2[i], solo, atol=1e-10)

    def test_equal_length_prompts_also_work(self, model):
        prompts = [np.array([1, 2, 3]), np.array([4, 5, 6])]
        outs = RaggedDecoder(model).generate(prompts, 3)
        for out, p in zip(outs, prompts):
            np.testing.assert_array_equal(out, model.generate(p[None, :], 3)[0])

    def test_single_row(self, model):
        outs = RaggedDecoder(model).generate([np.array([7, 7])], 4)
        np.testing.assert_array_equal(
            outs[0], model.generate(np.array([[7, 7]]), 4)[0]
        )


class TestRaggedValidation:
    def test_generate_rejects_a_live_batch(self, model):
        dec = RaggedDecoder(model)
        dec.generate([np.array([1])], 1)
        with pytest.raises(RuntimeError, match="empty decoder"):
            dec.generate([np.array([1])], 1)

    def test_step_before_prefill(self, model):
        with pytest.raises(RuntimeError, match="add_rows"):
            RaggedDecoder(model).step(np.array([1]))

    def test_wrong_token_count(self, model):
        dec = RaggedDecoder(model)
        dec.add_rows([0, 1], [np.array([1]), np.array([2])])
        with pytest.raises(ValueError, match="expected 2"):
            dec.step(np.array([1]))

    def test_empty_inputs(self, model):
        with pytest.raises(ValueError):
            RaggedDecoder(model).add_rows([], [])
        with pytest.raises(ValueError):
            RaggedDecoder(model).add_rows([0], [np.array([])])
        with pytest.raises(ValueError):
            RaggedDecoder(model).generate([np.array([1])], 0)

    def test_max_seq_enforced(self, model):
        dec = RaggedDecoder(model)
        long = np.ones(model.config.max_seq, dtype=int)
        dec.add_rows([0], [long])
        with pytest.raises(ValueError, match="max_seq"):
            dec.step(np.array([1]))

    @pytest.mark.parametrize("bad", [-1, "vocab"])
    def test_ids_checked_like_the_dense_model(self, model, bad):
        bad = model.config.vocab if bad == "vocab" else bad
        dec = RaggedDecoder(model)
        with pytest.raises(ValueError, match="vocabulary"):
            dec.add_rows([0, 1], [np.array([1, 2]), np.array([bad, 2])])
        assert dec.batch == 0
        dec.add_rows([0], [np.array([1, 2])])
        with pytest.raises(ValueError, match="vocabulary"):
            dec.step(np.array([bad]))
        assert dec.detach_row(0).seq_len() == 2

    def test_prompt_longer_than_max_seq_rejected(self, model):
        long = np.ones(model.config.max_seq + 4, dtype=int)
        with pytest.raises(ValueError, match="max_seq"):
            RaggedDecoder(model).add_rows([0], [long])


class TestRowsKeyedByCallerIds:
    def test_rows_join_and_leave_in_batch_order(self, model):
        dec = RaggedDecoder(model)
        seqs = {"a": list(PROMPTS[0]), "b": list(PROMPTS[1])}
        first = dec.add_rows(["a", "b"], [PROMPTS[0], PROMPTS[1]])
        seqs[7] = list(PROMPTS[2])
        joined = dec.add_rows([7], [PROMPTS[2]])
        assert dec.row_ids == ["a", "b", 7]
        for rid, logits in zip(dec.row_ids, [*first, *joined]):
            seqs[rid].append(int(logits.argmax()))
        dec.drop_rows(["b"])
        assert dec.row_ids == ["a", 7]
        logits = dec.step([seqs[rid][-1] for rid in dec.row_ids])
        for rid, row in zip(dec.row_ids, logits):
            solo = model.forward(np.array(seqs[rid])[None, :])[0, -1]
            np.testing.assert_allclose(row, solo, atol=1e-10)

    @pytest.mark.parametrize("ids", [[1], [1, 2, 3], [1, 1], [2, 0]],
                             ids=["few", "many", "repeated", "live"])
    def test_row_ids_must_be_one_new_id_per_prompt(self, model, ids):
        dec = RaggedDecoder(model)
        dec.add_rows([0], [np.array([1])])
        with pytest.raises(ValueError, match="row_ids"):
            dec.add_rows(ids, [np.array([2]), np.array([3])])
        assert dec.row_ids == [0]
