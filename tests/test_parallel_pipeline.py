"""Tests: pipeline partitioning, staged execution, and schedule policies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.kvcache import KVCache
from repro.parallel import (
    ScheduleKind,
    dynamic_queue_span,
    fill_drain_span,
    simulate_pipeline,
)
from repro.parallel.pipeline import partition_layers, staged_forward

CFG = ModelConfig(name="pp-test", hidden=32, layers=5, heads=4, vocab=53, max_seq=32)


class TestPartition:
    def test_balanced_split(self):
        plans = partition_layers(8, 4)
        assert [p.num_layers for p in plans] == [2, 2, 2, 2]
        assert plans[0].start == 0 and plans[-1].end == 8

    def test_remainder_goes_to_early_stages(self):
        plans = partition_layers(10, 4)
        assert [p.num_layers for p in plans] == [3, 3, 2, 2]

    def test_contiguous_cover(self):
        plans = partition_layers(7, 3)
        for a, b in zip(plans, plans[1:]):
            assert a.end == b.start

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_layers(2, 3)
        with pytest.raises(ValueError):
            partition_layers(4, 0)


class TestStagedForward:
    @pytest.fixture(scope="class")
    def model(self):
        return DenseTransformer(CFG, seed=9)

    @pytest.mark.parametrize("stages", [1, 2, 5])
    def test_matches_reference(self, model, stages):
        ids = np.array([[4, 8, 15, 16]])
        ref = model.forward(ids)
        got = staged_forward(model, partition_layers(CFG.layers, stages), ids)
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_with_per_stage_kv_caches(self, model):
        ids = np.array([[4, 8, 15, 16, 23]])
        ref = model.forward(ids)
        plans = partition_layers(CFG.layers, 2)
        caches = [KVCache(CFG.layers) for _ in plans]
        outs = []
        for t in range(ids.shape[1]):
            outs.append(staged_forward(model, plans, ids[:, t : t + 1], caches))
        np.testing.assert_allclose(np.concatenate(outs, axis=1), ref, atol=1e-12)

    def test_incomplete_cover_rejected(self, model):
        plans = partition_layers(CFG.layers, 2)[:1]
        with pytest.raises(ValueError):
            staged_forward(model, plans, np.array([[1]]))

    def test_cache_count_mismatch(self, model):
        plans = partition_layers(CFG.layers, 2)
        with pytest.raises(ValueError):
            staged_forward(model, plans, np.array([[1]]), caches=[KVCache(5)])


class TestSchedules:
    def test_dynamic_queue_matches_closed_form(self):
        """With M == P and no prompt skew, the schedule matches the analytic span."""
        res = simulate_pipeline(
            num_stages=4, prompt_microbatches=4, gen_microbatches=4,
            gen_tokens=5, prompt_stage_time=1.0, gen_stage_time=1.0,
        )
        prompt = fill_drain_span(4, 4, 1.0)
        gen = dynamic_queue_span(4, 4, 5, 1.0)
        # Generation overlaps the prompt drain, so makespan is less than
        # the sequential sum but at least each phase alone.
        assert res.makespan <= prompt + gen
        assert res.makespan >= gen
        assert res.kind == ScheduleKind.DYNAMIC

    def test_lockstep_pays_bubble_per_token(self):
        """Fig. 2a vs 2b: the baseline re-fills the pipe for every token."""
        kw = dict(num_stages=4, prompt_microbatches=4, gen_microbatches=4,
                  gen_tokens=8, prompt_stage_time=1.0, gen_stage_time=1.0)
        base = simulate_pipeline(**kw, lockstep_generation=True)
        ds = simulate_pipeline(**kw)
        assert base.kind == ScheduleKind.LOCKSTEP
        # Lockstep: each token costs (P + M - 1); dynamic: M per token.
        assert base.makespan > ds.makespan
        gen_base = base.makespan - base.prompt_done
        gen_ds = ds.makespan - ds.prompt_done
        assert gen_base / gen_ds > 1.5

    def test_hybrid_improves_prompt_phase(self):
        """Fig. 3: more prompt micro-batches shrink the prompt bubble when
        prompt compute saturates the GPU (time scales with micro-batch
        size), without increasing generation passes."""
        P, B = 4, 8
        # prompt stage time proportional to tokens per micro-batch
        res_few = simulate_pipeline(
            num_stages=P, prompt_microbatches=4, gen_microbatches=4,
            gen_tokens=4, prompt_stage_time=B / 4.0, gen_stage_time=0.2,
        )
        res_many = simulate_pipeline(
            num_stages=P, prompt_microbatches=8, gen_microbatches=4,
            gen_tokens=4, prompt_stage_time=B / 8.0, gen_stage_time=0.2,
        )
        assert res_many.prompt_done < res_few.prompt_done
        assert res_many.kind == ScheduleKind.HYBRID

    def test_fewer_gen_microbatches_speed_generation(self):
        """Generation time is proportional to micro-batch count (each pass
        re-reads all weights, Sec. IV-C1)."""
        res8 = simulate_pipeline(
            num_stages=4, prompt_microbatches=8, gen_microbatches=8,
            gen_tokens=10, prompt_stage_time=0.5, gen_stage_time=1.0,
        )
        res4 = simulate_pipeline(
            num_stages=4, prompt_microbatches=8, gen_microbatches=4,
            gen_tokens=10, prompt_stage_time=0.5, gen_stage_time=1.0,
        )
        assert res4.generation_time < res8.generation_time

    def test_no_stage_overlap_and_high_utilization(self):
        res = simulate_pipeline(
            num_stages=4, prompt_microbatches=4, gen_microbatches=4,
            gen_tokens=20, prompt_stage_time=1.0, gen_stage_time=1.0,
        )
        for s in range(4):
            assert not res.timeline.has_overlap(f"stage{s}")
        assert res.mean_utilization > 0.85  # long run amortizes the bubble

    def test_p2p_time_extends_makespan(self):
        kw = dict(num_stages=4, prompt_microbatches=4, gen_microbatches=4,
                  gen_tokens=3, prompt_stage_time=1.0, gen_stage_time=1.0)
        fast = simulate_pipeline(**kw)
        slow = simulate_pipeline(**kw, p2p_time=0.3)
        assert slow.makespan > fast.makespan

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_pipeline(num_stages=0, prompt_microbatches=1,
                              gen_microbatches=1, gen_tokens=1,
                              prompt_stage_time=1, gen_stage_time=1)
        with pytest.raises(ValueError):
            simulate_pipeline(num_stages=2, prompt_microbatches=3,
                              gen_microbatches=2, gen_tokens=1,
                              prompt_stage_time=1, gen_stage_time=1)
        with pytest.raises(ValueError):
            simulate_pipeline(num_stages=2, prompt_microbatches=2,
                              gen_microbatches=2, gen_tokens=-1,
                              prompt_stage_time=1, gen_stage_time=1)
        with pytest.raises(ValueError):
            simulate_pipeline(num_stages=2, prompt_microbatches=2,
                              gen_microbatches=2, gen_tokens=1,
                              prompt_stage_time=0, gen_stage_time=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize("which", ["prompt_stage_time", "gen_stage_time"])
    def test_rejects_non_finite_stage_times(self, which, bad):
        # A NaN entry used to pass ``min(times) <= 0`` and the run
        # returned a finite makespan.
        kw = dict(num_stages=2, prompt_microbatches=2, gen_microbatches=2,
                  gen_tokens=1, prompt_stage_time=1.0, gen_stage_time=1.0)
        kw[which] = [bad, 1.0]
        with pytest.raises(ValueError, match="finite and positive"):
            simulate_pipeline(**kw)


    @pytest.mark.parametrize("lockstep", [False, True])
    def test_exact_spans_heterogeneous_hybrid(self, lockstep):
        """Every span of a 3-stage hybrid schedule with a P2P hop, in
        dyadic times so each value is exact. G0's first token waits for
        P1 (its prompt group), and under lockstep each token waits for
        the whole previous round."""
        res = simulate_pipeline(
            num_stages=3, prompt_microbatches=4, gen_microbatches=2,
            gen_tokens=2, prompt_stage_time=[1.0, 2.0, 0.5],
            gen_stage_time=[0.5, 0.25, 1.0], p2p_time=0.125,
            lockstep_generation=lockstep)
        prompts = [
            [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)],
            [(1.125, 3.125), (3.125, 5.125), (5.125, 7.125), (7.125, 9.125)],
            [(3.25, 3.75), (5.25, 5.75), (7.25, 7.75), (9.25, 9.75)],
        ]
        gens = [
            [(5.75, 6.25), (9.75, 10.25), (10.75, 11.25), (11.75, 12.25)],
            [(9.125, 9.375), (10.375, 10.625), (11.375, 11.625),
             (12.375, 12.625)],
            [(9.75, 10.75), (10.75, 11.75), (11.75, 12.75), (12.75, 13.75)],
        ]
        if lockstep:
            gens[0][2:] = [(11.75, 12.25), (12.25, 12.75)]
            gens[1][2:] = [(12.375, 12.625), (12.875, 13.125)]
            gens[2][2:] = [(12.75, 13.75), (13.75, 14.75)]
        labels = ["P0", "P1", "P2", "P3", "G0.t0", "G1.t0", "G0.t1", "G1.t1"]
        for s in range(3):
            got = [(x.start, x.end, x.label)
                   for x in res.timeline.spans(f"stage{s}")]
            want = [(a, b, label) for (a, b), label
                    in zip(prompts[s] + gens[s], labels)]
            assert got == want
        assert res.prompt_done == 9.75
        assert res.makespan == (14.75 if lockstep else 13.75)
        assert res.kind == (ScheduleKind.LOCKSTEP if lockstep
                            else ScheduleKind.HYBRID)

    @pytest.mark.parametrize("scalar", [np.int64(1), np.float32(1.0)])
    def test_accepts_numpy_scalar_stage_times(self, scalar):
        kw = dict(num_stages=2, prompt_microbatches=2, gen_microbatches=2,
                  gen_tokens=1)
        got = simulate_pipeline(prompt_stage_time=scalar,
                                gen_stage_time=scalar, **kw)
        ref = simulate_pipeline(prompt_stage_time=1.0, gen_stage_time=1.0,
                                **kw)
        assert got.makespan == ref.makespan == 5.0
        assert got.timeline.to_rows() == ref.timeline.to_rows()

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_p2p_time(self, bad):
        # -1.0 and NaN used to be priced as no hop at all.
        with pytest.raises(ValueError, match="p2p_time"):
            simulate_pipeline(num_stages=2, prompt_microbatches=1,
                              gen_microbatches=1, gen_tokens=1,
                              prompt_stage_time=1.0, gen_stage_time=1.0,
                              p2p_time=bad)

    @pytest.mark.parametrize("name", ["num_stages", "prompt_microbatches",
                                      "gen_microbatches", "gen_tokens"])
    def test_rejects_non_integer_counts(self, name):
        kw = dict(num_stages=2, prompt_microbatches=2, gen_microbatches=2,
                  gen_tokens=1, prompt_stage_time=1.0, gen_stage_time=1.0)
        kw[name] = 2.0
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            simulate_pipeline(**kw)


@given(
    stages=st.integers(min_value=1, max_value=5),
    mb=st.integers(min_value=1, max_value=6),
    tokens=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_schedule_conservation_property(stages, mb, tokens):
    """Property: total busy time per stage equals work issued to it, and
    the makespan is bounded below by any single stage's busy time."""
    res = simulate_pipeline(
        num_stages=stages, prompt_microbatches=mb, gen_microbatches=mb,
        gen_tokens=tokens, prompt_stage_time=0.7, gen_stage_time=0.3,
    )
    for s in range(stages):
        busy = res.timeline.busy_time(f"stage{s}")
        expected = mb * 0.7 + mb * tokens * 0.3
        assert busy == pytest.approx(expected)
        assert res.makespan >= busy - 1e-9
