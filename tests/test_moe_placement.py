"""Tests for skew-aware expert placement, prediction, and pricing.

The load-bearing guarantee: uniform placement with replication 1 and
prefetch disabled prices bit-for-bit like the pre-skew ``MoEStepCost``,
all the way through the serving simulator and a one-replica fleet.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.engine.costs import BatchState, MoEStepCost, PromptShape
from repro.engine.moe import MoELatencyModel
from repro.engine.serving_sim import simulate_serving, synthesize_trace
from repro.fleet.sim import simulate_fleet
from repro.fleet.tuning import tune_fleet_deployment
from repro.hardware.topology import dgx_a100_cluster
from repro.model.config import MOE_PARALLELISM, MOE_ZOO, expert_capacity
from repro.moe_placement import (
    ExpertPlacement,
    GateHistoryPredictor,
    SkewedDispatchSpec,
    calibrated_dispatch,
    plan_placement,
    simulate_expert_stream,
    synthesize_gate_stream,
    uniform_placement,
    zipf_expert_probs,
    zipf_gate_logits,
)

RNG = np.random.default_rng(11)


def small_moe_model():
    cfg = MOE_ZOO["1.3b-moe-128"]
    par = MOE_PARALLELISM["1.3b-moe-128"]
    cluster = dgx_a100_cluster(max(1, par.num_gpus // 8))
    return cfg, par, MoELatencyModel(cfg, cluster, par)


# -- skew synthesis ----------------------------------------------------------


class TestZipfSkew:
    def test_probs_normalized_and_reproducible(self):
        a = zipf_expert_probs(64, 1.2, seed=3)
        b = zipf_expert_probs(64, 1.2, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (64,)
        np.testing.assert_allclose(a.sum(), 1.0, atol=1e-12)

    def test_zero_skew_is_uniform(self):
        p = zipf_expert_probs(128, 0.0, seed=0)
        np.testing.assert_array_equal(p, np.full(128, 1.0 / 128))

    def test_higher_skew_concentrates_mass(self):
        flat = np.sort(zipf_expert_probs(64, 0.5, seed=0))[::-1]
        sharp = np.sort(zipf_expert_probs(64, 1.5, seed=0))[::-1]
        assert sharp[:4].sum() > flat[:4].sum()

    def test_seed_permutes_which_experts_are_hot(self):
        a = zipf_expert_probs(64, 1.2, seed=1)
        b = zipf_expert_probs(64, 1.2, seed=2)
        assert np.argmax(a) != np.argmax(b) or not np.allclose(a, b)
        np.testing.assert_allclose(np.sort(a), np.sort(b), atol=1e-15)

    def test_gate_stream_shape_and_conservation(self):
        probs = zipf_expert_probs(16, 1.1, seed=0)
        stream = synthesize_gate_stream(20, 64, probs, seed=5)
        assert stream.shape == (20, 16)
        np.testing.assert_array_equal(stream.sum(axis=1), 64)

    def test_gate_logits_follow_the_skew(self):
        logits = zipf_gate_logits(4096, 16, 1.5, seed=9)
        winners = np.bincount(logits.argmax(axis=1), minlength=16)
        probs = zipf_expert_probs(16, 1.5, seed=9)
        # The most popular expert by construction wins the most argmaxes.
        assert winners[np.argmax(probs)] == winners.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_expert_probs(0, 1.0)
        with pytest.raises(ValueError):
            zipf_expert_probs(8, -0.5)
        with pytest.raises(ValueError):
            synthesize_gate_stream(0, 8, np.full(4, 0.25))

    @pytest.mark.parametrize("skew", [float("nan"), float("inf")])
    def test_rejects_non_finite_skew(self, skew):
        """A NaN skew used to return all-NaN probabilities."""
        with pytest.raises(ValueError, match="skew must be finite"):
            zipf_expert_probs(8, skew)


# -- predictor ---------------------------------------------------------------


class TestGateHistoryPredictor:
    def test_first_update_seeds_ema(self):
        pred = GateHistoryPredictor(4)
        pred.update(np.array([4.0, 0.0, 1.0, 3.0]))
        np.testing.assert_array_equal(pred.predicted_loads(),
                                      [4.0, 0.0, 1.0, 3.0])

    def test_ema_tracks_shift(self):
        pred = GateHistoryPredictor(2, alpha=0.5)
        for _ in range(10):
            pred.update(np.array([10.0, 0.0]))
        for _ in range(10):
            pred.update(np.array([0.0, 10.0]))
        loads = pred.predicted_loads()
        assert loads[1] > loads[0]

    def test_hot_cold_ordering(self):
        pred = GateHistoryPredictor(4)
        pred.update(np.array([1.0, 9.0, 3.0, 3.0]))
        np.testing.assert_array_equal(pred.hot_experts(), [1, 2, 3, 0])
        np.testing.assert_array_equal(pred.hot_experts(2), [1, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            GateHistoryPredictor(0)
        with pytest.raises(ValueError):
            GateHistoryPredictor(4, alpha=0.0)
        pred = GateHistoryPredictor(4)
        with pytest.raises(ValueError):
            pred.update(np.zeros(3))
        with pytest.raises(ValueError):
            pred.update(np.array([1.0, -1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_counts(self, bad):
        """A NaN count would poison the EMA and rank that expert coldest."""
        pred = GateHistoryPredictor(3)
        with pytest.raises(ValueError, match="finite"):
            pred.update(np.array([bad, 1.0, 2.0]))
        assert pred.steps_observed == 0
        np.testing.assert_array_equal(pred.predicted_loads(), 0.0)

    def test_integer_arguments_are_type_checked(self):
        with pytest.raises(TypeError, match="num_experts"):
            GateHistoryPredictor(2.5)
        pred = GateHistoryPredictor(np.int64(4))
        assert pred.num_experts == 4
        with pytest.raises(TypeError, match="n must be an integer"):
            pred.hot_experts(1.5)
        np.testing.assert_array_equal(pred.hot_experts(np.int64(2)), [0, 1])
        stream = np.ones((2, 4))
        with pytest.raises(TypeError, match="prefetch_slots"):
            simulate_expert_stream(stream, (0, 1), prefetch_slots=1.0)


# -- placement ---------------------------------------------------------------


class TestExpertPlacement:
    def test_uniform_matches_partition(self):
        p = uniform_placement(8, 4)
        assert p.ranks == ((0, 1), (2, 3), (4, 5), (6, 7))
        np.testing.assert_array_equal(p.replicas, 1)

    def test_uniform_uneven(self):
        p = uniform_placement(7, 3)
        assert p.ranks == ((0, 1, 2), (3, 4), (5, 6))

    def test_rank_loads_split_replicas(self):
        p = ExpertPlacement(ranks=((0, 1), (0, 2)), num_experts=3)
        loads = p.rank_loads(np.array([8.0, 2.0, 4.0]))
        np.testing.assert_array_equal(loads, [6.0, 8.0])
        assert p.replication_of(0) == 2

    def test_load_imbalance_uniform_is_exactly_one(self):
        for experts, ep in [(128, 128), (128, 64), (16, 4)]:
            p = uniform_placement(experts, ep)
            loads = np.full(experts, 100.0 / experts)
            assert p.load_imbalance(loads) == 1.0

    def test_replicas_is_a_fresh_array(self):
        p = ExpertPlacement(ranks=((0, 1), (0, 2)), num_experts=3)
        loads = np.array([8.0, 2.0, 4.0])
        before = p.rank_loads(loads)
        counts = p.replicas
        counts[:] = 7
        np.testing.assert_array_equal(p.replicas, [2, 1, 1])
        assert p.rank_loads(loads).tobytes() == before.tobytes()
        assert p.replication_of(0) == 2

    def test_rank_hosting_nothing_reads_zero(self):
        p = ExpertPlacement(ranks=((0, 1), (), (1, 2, 0)), num_experts=3)
        np.testing.assert_array_equal(
            p.rank_loads(np.array([6.0, 4.0, 3.0])), [5.0, 0.0, 8.0])

    def test_validation(self):
        with pytest.raises(ValueError):  # expert 1 unassigned
            ExpertPlacement(ranks=((0,), (2,)), num_experts=3)
        with pytest.raises(ValueError):  # duplicate within rank
            ExpertPlacement(ranks=((0, 0), (1,)), num_experts=2)
        with pytest.raises(ValueError):  # out of range
            ExpertPlacement(ranks=((0, 5),), num_experts=2)


def _rank_loads_reference(placement, expert_loads):
    """One pairwise ``sum`` per rank over its experts' replica shares, in
    hosted order: the per-rank definition ``rank_loads`` must equal."""
    share = np.asarray(expert_loads, dtype=np.float64) / placement.replicas
    return np.array([share[list(hosted)].sum() if hosted else 0.0
                     for hosted in placement.ranks])


@st.composite
def _placements(draw):
    """Uniform, planned (replicated + streamed) and irregular placements;
    ranks host 0 to ~100 experts."""
    kind = draw(st.sampled_from(["uniform", "planned", "irregular"]))
    if kind == "uniform":
        experts = draw(st.integers(1, 256))
        ep = draw(st.integers(1, min(experts, 64)))
        return uniform_placement(experts, ep)
    if kind == "planned":
        experts = draw(st.integers(8, 160))
        ep = draw(st.integers(2, min(experts, 32)))
        probs = zipf_expert_probs(experts, draw(st.floats(0.0, 2.0)),
                                  seed=draw(st.integers(0, 99)))
        try:
            return plan_placement(
                probs, ep, replication=draw(st.integers(1, min(ep, 4))),
                num_hot=max(1, experts // 16),
                slots_per_rank=-(-experts // ep) + 1).placement
        except ValueError:  # no rank left for another replica
            assume(False)
    experts = draw(st.integers(1, 120))
    num_ranks = draw(st.integers(1, 12))
    hosted = [[] for _ in range(num_ranks)]
    for ex in range(experts):
        homes = draw(st.sets(st.integers(0, num_ranks - 1), min_size=1,
                             max_size=3))
        for r in homes:
            hosted[r].append(ex)
    order = draw(st.randoms(use_true_random=False))
    for h in hosted:
        order.shuffle(h)
    return ExpertPlacement(ranks=tuple(tuple(h) for h in hosted),
                           num_experts=experts)


class TestRankLoadsDifferential:
    """``rank_loads`` reduces each width group with one row sum; every
    rank's float must equal the per-rank reference by bytes."""

    @settings(max_examples=300, deadline=None)
    @given(placement=_placements(), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_rank_sums_by_bytes(self, placement, seed):
        rng = np.random.default_rng(seed)
        loads = rng.random(placement.num_experts) * 10.0 ** rng.uniform(
            -6, 6, placement.num_experts)
        got = placement.rank_loads(loads)
        assert got.dtype == np.float64
        assert got.tobytes() == _rank_loads_reference(
            placement, loads).tobytes()

    @pytest.mark.parametrize("ep", [4, 16, 128])
    def test_wide_uniform_ranks_by_bytes(self, ep):
        # 32 experts per rank at ep 4: NumPy's pairwise sum is not a left
        # fold once a row has 8 or more entries.
        placement = uniform_placement(128, ep)
        rng = np.random.default_rng(ep)
        for _ in range(50):
            loads = rng.random(128) * 1e3
            assert placement.rank_loads(loads).tobytes() == \
                _rank_loads_reference(placement, loads).tobytes()


class TestPlanPlacement:
    def test_replication_reduces_imbalance(self):
        probs = zipf_expert_probs(64, 1.3, seed=2)
        uni = uniform_placement(64, 64)
        plan = plan_placement(probs, 64, replication=4, num_hot=4)
        assert (plan.placement.load_imbalance(probs)
                < uni.load_imbalance(probs))

    def test_memory_neutral_by_default(self):
        probs = zipf_expert_probs(32, 1.2, seed=1)
        plan = plan_placement(probs, 8, replication=2, num_hot=4)
        # 4 extra copies, no spare slots -> 4 demotions, slots respected.
        assert len(plan.streamed) == 4
        slots = plan.slots_per_rank
        resident = [sum(1 for e in hosted if e not in plan.streamed)
                    for hosted in plan.placement.ranks]
        assert max(resident) <= slots

    def test_hot_experts_replicated_on_distinct_ranks(self):
        probs = zipf_expert_probs(16, 1.5, seed=3)
        plan = plan_placement(probs, 8, replication=3, num_hot=2)
        hottest = int(np.argmax(probs))
        assert plan.placement.replication_of(hottest) == 3
        hosts = [r for r, hosted in enumerate(plan.placement.ranks)
                 if hottest in hosted]
        assert len(hosts) == 3

    def test_every_expert_stays_reachable(self):
        probs = zipf_expert_probs(24, 1.4, seed=5)
        plan = plan_placement(probs, 6, replication=2, num_hot=3)
        assert (plan.placement.replicas >= 1).all()

    def test_replication_one_streams_nothing(self):
        probs = zipf_expert_probs(16, 1.2, seed=0)
        plan = plan_placement(probs, 4)
        assert plan.streamed == ()
        assert plan.num_hot == 0

    def test_validation(self):
        probs = np.full(8, 0.125)
        with pytest.raises(ValueError):
            plan_placement(probs, 0)
        with pytest.raises(ValueError):
            plan_placement(probs, 16)  # more ranks than experts
        with pytest.raises(ValueError):
            plan_placement(probs, 4, replication=8)  # r > ep
        with pytest.raises(ValueError):  # demotion demand impossible
            plan_placement(probs, 8, replication=8, num_hot=8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_loads(self, bad):
        # NaN passed ``(loads < 0).any()`` and yielded an arbitrary
        # placement.
        loads = np.full(8, 0.125)
        loads[3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            plan_placement(loads, 4, replication=2, num_hot=1)


# -- prefetch ----------------------------------------------------------------


class TestPrefetch:
    def test_stationary_stream_high_hit_rate(self):
        probs = zipf_expert_probs(32, 1.5, seed=7)
        stream = synthesize_gate_stream(64, 128, probs, seed=8)
        # Stream the 8 coldest experts; prefetch covers all 8 slots.
        cold = np.argsort(probs)[:8]
        report = simulate_expert_stream(stream, tuple(int(e) for e in cold),
                                        prefetch_slots=8)
        assert report.hit_rate == 1.0  # slots cover the whole streamed set
        assert report.prefetch_misses == 0

    def test_fewer_slots_mean_misses(self):
        probs = zipf_expert_probs(32, 0.3, seed=7)  # near-uniform: hard
        stream = synthesize_gate_stream(64, 256, probs, seed=9)
        streamed = tuple(range(16))
        full = simulate_expert_stream(stream, streamed, prefetch_slots=16)
        tight = simulate_expert_stream(stream, streamed, prefetch_slots=2)
        assert tight.hit_rate < full.hit_rate
        assert tight.prefetch_misses > 0

    def test_empty_streamed_set_never_stalls(self):
        probs = zipf_expert_probs(8, 1.2, seed=0)
        stream = synthesize_gate_stream(8, 32, probs, seed=1)
        report = simulate_expert_stream(stream, ())
        assert report.prefetch_hits == 0
        assert report.prefetch_misses == 0
        assert report.hit_rate == 1.0

    def test_calibrated_dispatch_measures_hit_rate(self):
        probs = zipf_expert_probs(32, 1.4, seed=4)
        stream = synthesize_gate_stream(48, 128, probs, seed=5)
        plan = plan_placement(probs, 16, replication=2, num_hot=2)
        spec = calibrated_dispatch(probs, plan, stream,
                                   expert_fetch_time=1e-3)
        report = simulate_expert_stream(stream, plan.streamed)
        assert spec.prefetch_hit_rate == report.hit_rate
        assert spec.streamed == plan.streamed


class TestSkewedDispatchSpec:
    def test_uniform_ratio_is_exactly_one(self):
        for experts, ep in [(128, 128), (128, 32), (96, 12)]:
            spec = SkewedDispatchSpec(
                probs=np.full(experts, 1.0 / experts),
                placement=uniform_placement(experts, ep))
            for tokens in (1, 3, 7, 64, 333, 4096):
                assert spec.load_ratio(tokens) == 1.0
                assert spec.stall_time(tokens) == 0.0

    def test_skew_raises_ratio_replication_lowers_it(self):
        probs = zipf_expert_probs(64, 1.3, seed=6)
        uni = SkewedDispatchSpec(probs=probs,
                                 placement=uniform_placement(64, 64))
        plan = plan_placement(probs, 64, replication=4, num_hot=4)
        rep = SkewedDispatchSpec(probs=probs, placement=plan.placement,
                                 streamed=plan.streamed)
        assert uni.load_ratio(256) > 1.0
        assert rep.load_ratio(256) < uni.load_ratio(256)

    def test_stall_scales_with_miss_probability(self):
        probs = zipf_expert_probs(32, 1.2, seed=1)
        plan = plan_placement(probs, 8, replication=2, num_hot=4)
        assert plan.streamed  # demotions happened
        none_hit = SkewedDispatchSpec(
            probs=probs, placement=plan.placement, streamed=plan.streamed,
            prefetch_hit_rate=0.0, expert_fetch_time=1e-3)
        all_hit = SkewedDispatchSpec(
            probs=probs, placement=plan.placement, streamed=plan.streamed,
            prefetch_hit_rate=1.0, expert_fetch_time=1e-3)
        assert none_hit.stall_time(128) > 0.0
        assert all_hit.stall_time(128) == 0.0

    def test_validation(self):
        placement = uniform_placement(4, 2)
        with pytest.raises(ValueError):
            SkewedDispatchSpec(probs=np.full(3, 1 / 3), placement=placement)
        with pytest.raises(ValueError):
            SkewedDispatchSpec(probs=np.full(4, 0.25), placement=placement,
                               prefetch_hit_rate=1.5)
        with pytest.raises(ValueError):
            SkewedDispatchSpec(probs=np.full(4, 0.25), placement=placement,
                               streamed=(9,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probs(self, bad):
        # ``[nan, 1, 1, 1]`` was accepted and ``load_ratio`` read 1.0,
        # because ``max(1.0, nan)`` is 1.0.
        with pytest.raises(ValueError, match="probs must be finite"):
            SkewedDispatchSpec(probs=np.array([bad, 1.0, 1.0, 1.0]),
                               placement=uniform_placement(4, 2))

    @pytest.mark.parametrize("fetch", [float("nan"), float("inf"), -1e-3])
    def test_rejects_bad_expert_fetch_time(self, fetch):
        with pytest.raises(ValueError,
                           match="expert_fetch_time must be finite"):
            SkewedDispatchSpec(probs=np.full(4, 0.25),
                               placement=uniform_placement(4, 2),
                               expert_fetch_time=fetch)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0])
    def test_expert_capacity_rejects_bad_factor(self, factor):
        with pytest.raises(ValueError, match="capacity_factor must be finite"):
            expert_capacity(16, 4, factor)


# -- pricing compat oracle ---------------------------------------------------


class TestSkewPricingCompat:
    """Replication 1 + uniform gates + no prefetch == the old numbers."""

    def test_token_step_identity(self):
        """``token_step``'s defaults are the paper's uniform-gate model:
        the critical-path expert runs ``c_e`` tokens, the all-to-alls
        carry the batch, and nothing stalls."""
        cfg, _, model = small_moe_model()
        n_moe = cfg.num_moe_layers
        for batch in (1, 2, 16, 128):
            ce = expert_capacity(batch, cfg.moe.num_experts,
                                 cfg.moe.capacity_factor)
            plain = model.token_step(batch)
            assert plain.expert_time == n_moe * model.expert_time(ce)
            assert plain.alltoall_time == n_moe * model.alltoall_time(batch)
            assert plain.stall_time == 0.0

    @pytest.mark.parametrize("kw", [
        {"load_ratio": 0.5}, {"load_ratio": float("nan")},
        {"load_ratio": float("inf")}, {"stall_time": -1e-3},
        {"stall_time": float("nan")},
    ])
    def test_token_step_rejects_bad_skew_terms(self, kw):
        _, _, model = small_moe_model()
        with pytest.raises(ValueError):
            model.token_step(4, **kw)

    def test_step_cost_identity(self):
        cfg, par, model = small_moe_model()
        uni = SkewedDispatchSpec(
            probs=np.full(cfg.moe.num_experts,
                          1.0 / cfg.moe.num_experts),
            placement=uniform_placement(cfg.moe.num_experts, par.ep_degree))
        plain = MoEStepCost(model)
        skewed = MoEStepCost(model, skew=uni)
        state = BatchState.uniform(5, 77)
        assert plain.decode_cost(state) == skewed.decode_cost(state)
        assert (plain.prompt_cost(state, PromptShape(64))
                == skewed.prompt_cost(state, PromptShape(64)))
        np.testing.assert_array_equal(plain.decode_run_cost(state, 40),
                                      skewed.decode_run_cost(state, 40))

    def test_serving_identity(self):
        cfg, par, model = small_moe_model()
        trace = synthesize_trace(num_requests=60, arrival_rate=20.0,
                                 mean_prompt=32, mean_gen=16, seed=13)
        uni = SkewedDispatchSpec(
            probs=np.full(cfg.moe.num_experts,
                          1.0 / cfg.moe.num_experts),
            placement=uniform_placement(cfg.moe.num_experts, par.ep_degree))
        a = simulate_serving(trace, costs=MoEStepCost(model), max_batch=8)
        b = simulate_serving(trace, costs=MoEStepCost(model, skew=uni),
                             max_batch=8)
        assert a.makespan == b.makespan
        assert a.finish_times == b.finish_times

    def test_one_replica_fleet_identity(self):
        cfg, par, model = small_moe_model()
        trace = synthesize_trace(num_requests=40, arrival_rate=15.0,
                                 mean_prompt=24, mean_gen=12, seed=17)
        uni = SkewedDispatchSpec(
            probs=np.full(cfg.moe.num_experts,
                          1.0 / cfg.moe.num_experts),
            placement=uniform_placement(cfg.moe.num_experts, par.ep_degree))
        a = simulate_fleet(trace, num_replicas=1,
                           costs=MoEStepCost(model), max_batch=8)
        b = simulate_fleet(trace, num_replicas=1,
                           costs=MoEStepCost(model, skew=uni), max_batch=8)
        assert a.makespan == b.makespan
        assert a.tokens_per_second == b.tokens_per_second

    def test_vectorized_run_equals_scalar_loop_under_skew(self):
        cfg, par, model = small_moe_model()
        probs = zipf_expert_probs(cfg.moe.num_experts, 1.2, seed=3)
        plan = plan_placement(probs, par.ep_degree, replication=2,
                              num_hot=4)
        spec = SkewedDispatchSpec(
            probs=probs, placement=plan.placement, streamed=plan.streamed,
            prefetch_hit_rate=0.9,
            expert_fetch_time=model.expert_fetch_time())
        costs = MoEStepCost(model, skew=spec)
        state = BatchState.uniform(6, 50)
        run = costs.decode_run_cost(state, 30)
        ref = MoEStepCost(model, skew=spec)  # fresh memo: scalar path
        expect = [ref.decode_cost(state.advanced(i)) for i in range(30)]
        np.testing.assert_array_equal(run, expect)


class TestSkewPricingEffect:
    def test_skew_strictly_slower_than_uniform(self):
        cfg, par, model = small_moe_model()
        probs = zipf_expert_probs(cfg.moe.num_experts, 1.3, seed=0)
        skew = SkewedDispatchSpec(
            probs=probs,
            placement=uniform_placement(cfg.moe.num_experts, par.ep_degree))
        state = BatchState.uniform(16, 64)
        assert (MoEStepCost(model, skew=skew).decode_cost(state)
                > MoEStepCost(model).decode_cost(state))

    def test_replication_beats_uniform_placement(self):
        cfg, par, model = small_moe_model()
        probs = zipf_expert_probs(cfg.moe.num_experts, 1.3, seed=0)
        uni = SkewedDispatchSpec(
            probs=probs,
            placement=uniform_placement(cfg.moe.num_experts, par.ep_degree))
        plan = plan_placement(probs, par.ep_degree, replication=4,
                              num_hot=8)
        rep = SkewedDispatchSpec(
            probs=probs, placement=plan.placement, streamed=plan.streamed,
            prefetch_hit_rate=0.9,
            expert_fetch_time=model.expert_fetch_time())
        state = BatchState.uniform(16, 64)
        assert (MoEStepCost(model, skew=rep).decode_cost(state)
                < MoEStepCost(model, skew=uni).decode_cost(state))

    def test_skew_guard_rejects_bad_spec(self):
        _, _, model = small_moe_model()
        with pytest.raises(TypeError):
            MoEStepCost(model, skew=object())


class TestTunerReplicationSweep:
    def test_skewed_trace_tunes_replication(self):
        cfg = MOE_ZOO["1.3b-moe-128"]
        cluster = dgx_a100_cluster(16)
        trace = synthesize_trace(num_requests=40, arrival_rate=30.0,
                                 mean_prompt=32, mean_gen=16,
                                 expert_skew=1.3, seed=23)
        assert trace.expert_skew == 1.3
        result = tune_fleet_deployment(cfg, cluster, trace,
                                       gpu_budget=cluster.num_gpus)
        assert result.replication in (1, 2, 4)

    def test_unskewed_trace_keeps_replication_one(self):
        cfg = MOE_ZOO["1.3b-moe-128"]
        cluster = dgx_a100_cluster(16)
        trace = synthesize_trace(num_requests=40, arrival_rate=30.0,
                                 mean_prompt=32, mean_gen=16, seed=23)
        result = tune_fleet_deployment(cfg, cluster, trace,
                                       gpu_budget=cluster.num_gpus)
        assert result.replication == 1
