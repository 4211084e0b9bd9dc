"""Tests for the continuous-batching generation session."""

import numpy as np
import pytest

from repro.engine.generation import GenerationSession
from repro.model import ModelConfig
from repro.model.dense import DenseTransformer

CFG = ModelConfig(name="gen-test", hidden=32, layers=3, heads=4, vocab=61,
                  max_seq=48)


@pytest.fixture(scope="module")
def model():
    return DenseTransformer(CFG, seed=13)


class TestSingleRequest:
    def test_matches_model_generate(self, model):
        session = GenerationSession(model)
        prompt = np.array([4, 9, 16])
        rid = session.submit(prompt, max_new_tokens=6)
        done = session.run()
        expected = model.generate(prompt[None, :], 6)[0]
        np.testing.assert_array_equal(done[rid].output_ids, expected)
        assert done[rid].finish_reason == "length"

    def test_eos_stops_early(self, model):
        # Find what the model actually emits first, then use it as EOS.
        prompt = np.array([4, 9, 16])
        full = model.generate(prompt[None, :], 5)[0]
        eos = int(full[3])  # the first generated token
        session = GenerationSession(model, eos_token=eos)
        rid = session.submit(prompt, max_new_tokens=10)
        done = session.run()
        req = done[rid]
        assert req.finish_reason == "eos"
        assert req.generated == [eos]

    def test_cache_freed_on_finish(self, model):
        session = GenerationSession(model)
        session.submit(np.array([1, 2]), max_new_tokens=2)
        session.run()
        assert session.kv_blocks_in_use == 0

    def test_explicit_request_id(self, model):
        """Callers replaying a recorded schedule (the fleet layer) pick
        their own ids; auto-assignment continues past them."""
        session = GenerationSession(model)
        assert session.submit(np.array([1, 2]), max_new_tokens=1,
                              request_id=7) == 7
        with pytest.raises(ValueError, match="already submitted"):
            session.submit(np.array([3]), max_new_tokens=1, request_id=7)
        done = session.run()
        assert 7 in done

    def test_auto_id_skips_explicit_ids(self, model):
        """An auto-assigned id never reuses a caller's id, so each
        request decodes its own prompt."""
        session = GenerationSession(model)
        first, second = np.array([1, 2, 3]), np.array([4, 5])
        assert session.submit(first, max_new_tokens=3, request_id=0) == 0
        rid = session.submit(second, max_new_tokens=3)
        assert rid == 1
        done = session.run()
        for r, p in ((0, first), (rid, second)):
            np.testing.assert_array_equal(done[r].output_ids,
                                          model.generate(p[None, :], 3)[0])

    def test_failed_submit_leaves_session_unchanged(self, model):
        session = GenerationSession(model)
        with pytest.raises(TypeError, match="max_new_tokens"):
            session.submit(np.array([1, 2]), max_new_tokens=2.5)
        with pytest.raises(TypeError, match="request_id"):
            session.submit(np.array([1, 2]), max_new_tokens=2,
                           request_id=1.5)
        assert session.num_waiting == 0
        assert session.submit(np.array([1, 2]), max_new_tokens=2) == 0

    @pytest.mark.parametrize("kwargs,name", [
        (dict(max_new_tokens=float("nan")), "max_new_tokens"),
        (dict(max_new_tokens=2.5), "max_new_tokens"),
        (dict(max_new_tokens=2, request_id=2**63), "request_id"),
        (dict(max_new_tokens=2, request_id=-2**63 - 1), "request_id"),
    ])
    def test_rejected_row_changes_nothing(self, model, kwargs, name):
        """``nan < 1`` is False, so submit's own guard once let a NaN
        ``max_new_tokens`` through, and an id outside int64 overflows
        the lifecycle log's id column: both are caught before any state
        changes."""
        session = GenerationSession(model)
        session.submit(np.array([3, 4]), max_new_tokens=2)
        sched = session.scheduler

        def state():
            return (len(sched.table.ids), sched.events, sched.num_waiting,
                    session._next_id, len(session._reqs))

        before = state()
        with pytest.raises((TypeError, ValueError), match=name):
            session.submit(np.array([1, 2]), **kwargs)
        assert state() == before
        assert session.submit(np.array([1, 2]), max_new_tokens=2) == 1
        assert sorted(session.run()) == [0, 1]


class TestContinuousBatching:
    def test_concurrent_requests_independent(self, model):
        session = GenerationSession(model, max_concurrency=4)
        prompts = [np.array([3, 1]), np.array([7, 7, 7]), np.array([50])]
        rids = [session.submit(p, max_new_tokens=5) for p in prompts]
        done = session.run()
        for rid, p in zip(rids, prompts):
            expected = model.generate(p[None, :], 5)[0]
            np.testing.assert_array_equal(done[rid].output_ids, expected)

    def test_queueing_beyond_concurrency(self, model):
        session = GenerationSession(model, max_concurrency=2)
        rids = [session.submit(np.array([i + 1, i + 2]), max_new_tokens=3)
                for i in range(5)]
        assert session.num_waiting >= 3
        done = session.run()
        assert len(done) == 5
        for i, rid in enumerate(rids):
            expected = model.generate(np.array([[i + 1, i + 2]]), 3)[0]
            np.testing.assert_array_equal(done[rid].output_ids, expected)

    def test_late_submission_joins_inflight(self, model):
        session = GenerationSession(model, max_concurrency=4)
        first = session.submit(np.array([2, 4]), max_new_tokens=8)
        session.step()
        session.step()
        late = session.submit(np.array([9, 9, 9]), max_new_tokens=3)
        done = session.run()
        np.testing.assert_array_equal(
            done[first].output_ids, model.generate(np.array([[2, 4]]), 8)[0]
        )
        np.testing.assert_array_equal(
            done[late].output_ids, model.generate(np.array([[9, 9, 9]]), 3)[0]
        )

    def test_varied_lengths_finish_independently(self, model):
        session = GenerationSession(model, max_concurrency=4)
        short = session.submit(np.array([5]), max_new_tokens=1)
        long = session.submit(np.array([6]), max_new_tokens=7)
        finished_order = []
        while session.num_active or session.num_waiting:
            finished_order.extend(session.step())
        assert finished_order.index(short) < finished_order.index(long)

    def test_stats_accounting(self, model):
        session = GenerationSession(model)
        session.submit(np.array([1]), max_new_tokens=4)
        session.submit(np.array([2]), max_new_tokens=2)
        session.run()
        assert session.tokens_generated == 6


class TestSamplingInSession:
    def test_seeded_sampling_reproducible(self, model):
        from repro.model.sampling import SamplingConfig

        def run(seed):
            s = GenerationSession(
                model, sampling=SamplingConfig(temperature=1.0, top_k=8),
                seed=seed,
            )
            rid = s.submit(np.array([4, 9]), max_new_tokens=6)
            return s.run()[rid].generated

        assert run(5) == run(5)

    def test_sampling_can_differ_from_greedy(self, model):
        from repro.model.sampling import SamplingConfig

        greedy = GenerationSession(model)
        rid_g = greedy.submit(np.array([4, 9]), max_new_tokens=8)
        greedy_out = greedy.run()[rid_g].generated

        diverged = False
        for seed in range(5):
            s = GenerationSession(
                model, sampling=SamplingConfig(temperature=2.0), seed=seed
            )
            rid = s.submit(np.array([4, 9]), max_new_tokens=8)
            if s.run()[rid].generated != greedy_out:
                diverged = True
                break
        assert diverged


class TestValidation:
    def test_bad_inputs(self, model):
        session = GenerationSession(model)
        with pytest.raises(ValueError):
            session.submit(np.array([]), max_new_tokens=1)
        with pytest.raises(ValueError):
            session.submit(np.array([1]), max_new_tokens=0)
        with pytest.raises(ValueError):
            GenerationSession(model, max_concurrency=0)

    def test_prompt_checked_like_the_dense_model(self, model):
        session = GenerationSession(model)
        for bad in ([-3, 5], [CFG.vocab, 5]):
            with pytest.raises(ValueError, match="vocabulary"):
                session.submit(bad, max_new_tokens=2)
        with pytest.raises(ValueError, match="max_seq"):
            session.submit(np.ones(CFG.max_seq + 1, dtype=int),
                           max_new_tokens=1)
        assert session.num_waiting == 0

    def test_unknown_result(self, model):
        with pytest.raises(KeyError):
            GenerationSession(model).result(123)


class TestBatchedDecodeRuntime:
    """The refactored execution path: one forward per decode step, over
    paged KV blocks that free on retirement."""

    def test_one_forward_per_decode_step(self, model):
        session = GenerationSession(model, max_concurrency=4)
        for i in range(4):
            session.submit(np.array([i + 1, i + 2]), max_new_tokens=5)
        before = session.forward_calls
        session.step()  # admits 4 (one ragged prefill) + decodes (one fwd)
        assert session.forward_calls - before == 2
        while session.num_active or session.num_waiting:
            b = session.forward_calls
            session.step()
            assert session.forward_calls - b == 1  # no admissions left

    def test_total_forwards_independent_of_batch_size(self, model):
        session = GenerationSession(model, max_concurrency=4)
        gen = 6
        for i in range(4):
            session.submit(np.array([i + 1]), max_new_tokens=gen)
        session.run()
        # 1 ragged prefill + (gen - 1) batched decode steps, regardless
        # of the 4-wide batch; the old per-request loop needed 4 * gen.
        assert session.forward_calls == gen

    def test_paged_blocks_freed_on_retirement(self, model):
        session = GenerationSession(model, max_concurrency=2, kv_block_size=4)
        session.submit(np.array([1, 2, 3]), max_new_tokens=3)
        session.submit(np.array([4]), max_new_tokens=6)
        session.step()
        assert session.kv_blocks_in_use > 0
        session.run()
        assert session.kv_blocks_in_use == 0  # every block back in the pool

    def test_kv_capacity_gates_admission_without_reordering(self, model):
        # Pool sized for exactly one request's reservation (peak 5
        # positions -> 1 block/layer): the second must wait for the
        # first to retire, not fail or jump the queue.
        session = GenerationSession(model, max_concurrency=4,
                                    kv_pool_blocks=CFG.layers)
        a = session.submit(np.array([1, 2]), max_new_tokens=3)
        b = session.submit(np.array([3, 4]), max_new_tokens=3)
        session.step()
        assert session.num_active == 1 and session.num_waiting == 1
        done = session.run()
        assert session.scheduler.admission_order == [a, b]
        for rid, p in [(a, np.array([1, 2])), (b, np.array([3, 4]))]:
            np.testing.assert_array_equal(
                done[rid].output_ids, model.generate(p[None, :], 3)[0])

    def test_request_larger_than_pool_rejected_at_submit(self, model):
        session = GenerationSession(model, max_concurrency=2,
                                    kv_pool_blocks=1)
        with pytest.raises(ValueError, match="KV blocks"):
            session.submit(np.arange(1, 20), max_new_tokens=10)

    def test_shortest_prompt_policy_in_session(self, model):
        session = GenerationSession(model, max_concurrency=1,
                                    policy="shortest_prompt")
        long = session.submit(np.array([1, 2, 3, 4, 5]), max_new_tokens=2)
        short = session.submit(np.array([9]), max_new_tokens=2)
        session.run()
        # Both are queued before the first step; the short prompt wins
        # the single slot despite being submitted second.
        assert session.scheduler.admission_order == [short, long]
