"""Cross-subsystem integration tests: the paths a real user composes."""

import numpy as np
import pytest

from repro.engine.generation import GenerationSession
from repro.hardware import lambda_a6000_workstation
from repro.model import ModelConfig
from repro.model.checkpoint import load_checkpoint, save_checkpoint
from repro.model.dense import DenseTransformer
from repro.parallel import simulate_pipeline
from repro.zero.streamed_model import StreamedTransformer

CFG = ModelConfig(name="integ-test", hidden=32, layers=4, heads=4, vocab=67,
                  max_seq=40)


class TestCheckpointToStreaming:
    """Save to disk -> load -> serve layer-streamed: the full ZeRO path."""

    def test_disk_roundtrip_then_streamed_serving(self, tmp_path):
        model = DenseTransformer(CFG, seed=33)
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        streamed = StreamedTransformer(loaded, lambda_a6000_workstation(1),
                                       window=2)
        prompt = np.array([[7, 8, 9]])
        np.testing.assert_array_equal(
            streamed.generate(prompt, 4), model.generate(prompt, 4)
        )
        assert streamed.fetches > 0


class TestSessionOverStreamedModel:
    """Continuous batching on top of a layer-streamed model."""

    def test_session_serves_from_streamed_weights(self):
        model = DenseTransformer(CFG, seed=34)
        streamed = StreamedTransformer(model, lambda_a6000_workstation(1),
                                       window=2)
        # The batched serving runtime drives the streamed executor
        # directly: every layer touch goes through the residency window.
        session = GenerationSession(streamed, max_concurrency=2)
        rids = [session.submit(np.array([2, 3]), max_new_tokens=3),
                session.submit(np.array([5]), max_new_tokens=4)]
        done = session.run()
        assert streamed.fetches > 0
        np.testing.assert_array_equal(
            done[rids[0]].output_ids,
            model.generate(np.array([[2, 3]]), 3)[0],
        )
        np.testing.assert_array_equal(
            done[rids[1]].output_ids,
            model.generate(np.array([[5]]), 4)[0],
        )


class TestHeterogeneousStageTimes:
    """Uneven layer splits give per-stage times; the slowest paces the pipe."""

    def test_slow_stage_paces_throughput(self):
        uniform = simulate_pipeline(
            num_stages=3, prompt_microbatches=3, gen_microbatches=3,
            gen_tokens=10, prompt_stage_time=1.0, gen_stage_time=1.0,
        )
        skewed = simulate_pipeline(
            num_stages=3, prompt_microbatches=3, gen_microbatches=3,
            gen_tokens=10, prompt_stage_time=[1.0, 1.0, 1.0],
            gen_stage_time=[0.5, 2.0, 0.5],  # same total work per pass
        )
        assert skewed.makespan > uniform.makespan
        # Busy-time conservation per stage.
        assert skewed.timeline.busy_time("stage1") == pytest.approx(
            3 * 1.0 + 3 * 10 * 2.0
        )

    def test_scalar_and_list_forms_agree(self):
        a = simulate_pipeline(
            num_stages=2, prompt_microbatches=2, gen_microbatches=2,
            gen_tokens=4, prompt_stage_time=0.7, gen_stage_time=0.3,
        )
        b = simulate_pipeline(
            num_stages=2, prompt_microbatches=2, gen_microbatches=2,
            gen_tokens=4, prompt_stage_time=[0.7, 0.7],
            gen_stage_time=[0.3, 0.3],
        )
        assert a.makespan == pytest.approx(b.makespan)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="one entry per stage"):
            simulate_pipeline(
                num_stages=3, prompt_microbatches=3, gen_microbatches=3,
                gen_tokens=1, prompt_stage_time=[1.0, 1.0],
                gen_stage_time=1.0,
            )

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            simulate_pipeline(
                num_stages=2, prompt_microbatches=2, gen_microbatches=2,
                gen_tokens=1, prompt_stage_time=[1.0, 0.0],
                gen_stage_time=1.0,
            )
