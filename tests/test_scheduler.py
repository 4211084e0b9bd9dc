"""Tests for the shared request scheduler: policies, backfill, and the
functional-vs-analytical decision-equivalence guarantee."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    ClosureStepCost,
    Request,
    RequestTable,
    Scheduler,
    WorkloadTrace,
    simulate_serving,
)
from repro.engine.generation import GenerationSession
from repro.engine.scheduler import (
    ADMISSION_POLICIES,
    TenantFairShare,
    TenantPriority,
)
from repro.model import ModelConfig
from repro.model.dense import DenseTransformer


def _sched(max_slots, **kwargs):
    """A scheduler over a fresh request table."""
    return Scheduler(max_slots, RequestTable(), **kwargs)


def _enq(s, rid, prompt_len=4, max_new=3, tenant=None):
    """Append request ``rid``'s row to ``s``'s table and enqueue it;
    returns the row."""
    pos = s.table.append(rid, prompt_len, max_new, tenant)
    s.enqueue(pos)
    return pos


def _ids(s, rows):
    """The request ids of ``s``'s table rows."""
    return [s.table.ids[pos] for pos in rows]


class TestAdmissionPolicies:
    def test_fcfs_admits_in_enqueue_order(self):
        s = _sched(2, policy="fcfs")
        for rid, plen in [(0, 9), (1, 1), (2, 5)]:
            _enq(s, rid, prompt_len=plen)
        admitted = s.admit()
        assert _ids(s, admitted) == [0, 1]
        assert s.num_waiting == 1

    def test_shortest_prompt_reorders(self):
        s = _sched(2, policy="shortest_prompt")
        for rid, plen in [(0, 9), (1, 1), (2, 5)]:
            _enq(s, rid, prompt_len=plen)
        admitted = s.admit()
        assert _ids(s, admitted) == [1, 2]

    def test_shortest_prompt_ties_break_by_enqueue_order(self):
        s = _sched(3, policy="shortest_prompt")
        for rid in (7, 3, 5):
            _enq(s, rid, prompt_len=4)
        assert _ids(s, s.admit()) == [7, 3, 5]

    def test_custom_policy_callable(self):
        def longest(queue, table, active):
            return max(queue, key=table.prompt.__getitem__)

        s = _sched(1, policy=longest)
        for rid, plen in [(0, 2), (1, 8)]:
            _enq(s, rid, prompt_len=plen)
        assert _ids(s, s.admit()) == [1]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            _sched(1, policy="lifo")

    @pytest.mark.parametrize("cap", [1.5, 1.0, float("nan"), "1"])
    def test_max_admit_rejects_non_integers(self, cap):
        """``max_admit=1.5`` used to admit two requests and NaN the whole
        queue; a non-integer is a TypeError naming it, admitting none."""
        s = _sched(4)
        for rid in range(3):
            _enq(s, rid)
        with pytest.raises(TypeError, match="max_admit"):
            s.admit(max_admit=cap)
        assert s.num_waiting == 3 and not s.active

    def test_max_admit_rejects_negatives(self):
        s = _sched(4)
        _enq(s, 0)
        with pytest.raises(ValueError, match="max_admit must be >= 0"):
            s.admit(max_admit=-1)
        assert s.num_waiting == 1

    def test_max_admit_caps_admissions(self):
        s = _sched(4)
        for rid in range(4):
            _enq(s, rid)
        assert s.admit(max_admit=0) == []
        assert _ids(s, s.admit(max_admit=1)) == [0]
        assert _ids(s, s.admit(max_admit=np.int64(2))) == [1, 2]
        assert _ids(s, s.admit()) == [3]

    def test_registry_exposes_tenant_fair(self):
        assert "tenant_fair" in ADMISSION_POLICIES
        assert isinstance(ADMISSION_POLICIES["tenant_fair"], TenantFairShare)


class TestTenantPolicies:
    def test_fair_share_balances_held_slots(self):
        """With tenant A already holding both slots, the next admission
        goes to B even though A's request queued first."""
        s = _sched(3, policy=TenantFairShare())
        _enq(s, 0, tenant="a")
        _enq(s, 1, tenant="a")
        _enq(s, 2, tenant="a")
        _enq(s, 3, tenant="b")
        admitted = s.admit()
        # Round-robin by load: a (0 held), b (0 vs 1), then a again.
        table = s.table
        assert [(table.ids[pos], table.tenant_names[table.tenant[pos]])
                for pos in admitted] == [(0, "a"), (3, "b"), (1, "a")]

    def test_fair_share_weights_bias_shares(self):
        """weight 2 tenants absorb two slots per one of weight 1."""
        pick = TenantFairShare(weights={"big": 2.0, "small": 1.0})
        s = _sched(3, policy=pick)
        for rid, t in [(0, "small"), (1, "big"), (2, "big"), (3, "small")]:
            _enq(s, rid, tenant=t)
        admitted = s.admit()
        # loads: small 0/1 vs big 0/2 -> tie by queue order (0 first);
        # then big 0/2 beats small 1/1 twice.
        assert _ids(s, admitted) == [0, 1, 2]

    def test_fair_share_slot_caps_stop_admission(self):
        pick = TenantFairShare(slot_caps={"a": 1})
        s = _sched(4, policy=pick)
        for rid in range(3):
            _enq(s, rid, tenant="a")
        admitted = s.admit()
        assert _ids(s, admitted) == [0]
        assert s.num_waiting == 2  # capped, not dropped
        # A retirement frees the capped tenant's slot.
        s.record_token(0, token=None)
        s.record_token(0)
        s.record_token(0)
        assert s.num_active == 0
        assert _ids(s, s.admit()) == [1]

    def test_fair_share_untagged_requests_pool_under_default(self):
        s = _sched(2, policy=TenantFairShare())
        _enq(s, 0)
        _enq(s, 1, tenant="a")
        assert _ids(s, s.admit()) == [0, 1]

    def test_priority_policy_prefers_high_priority_tenants(self):
        pick = TenantPriority(priorities={"gold": 2.0, "free": 0.0})
        s = _sched(2, policy=pick)
        for rid, t in [(0, "free"), (1, "free"), (2, "gold")]:
            _enq(s, rid, tenant=t)
        admitted = s.admit()
        assert _ids(s, admitted) == [2, 0]

    def test_tenant_policies_validate(self):
        with pytest.raises(ValueError):
            TenantFairShare(weights={"a": 0.0})
        with pytest.raises(ValueError):
            TenantFairShare(slot_caps={"a": 0})

    @pytest.mark.parametrize("policy", [TenantFairShare, TenantPriority])
    @pytest.mark.parametrize("cap", [float("nan"), 1.5])
    def test_non_integer_slot_caps_rejected(self, policy, cap):
        """A NaN cap failed every ``held >= cap`` test, so it disabled
        the cap: 4 of 4 requests were admitted where a cap of 1 admits
        1."""
        with pytest.raises(TypeError, match="slot cap of tenant 'a'"):
            policy(slot_caps={"a": cap})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_fair_share_rejects_non_finite_weights(self, bad):
        # A NaN weight once passed the ``w <= 0`` guard and its tenant
        # then won every pick: tenant "a" holding a slot was admitted
        # ahead of an idle tenant "b".
        with pytest.raises(ValueError, match="weight of tenant 'a'"):
            TenantFairShare(weights={"a": bad, "b": 1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_priority_rejects_non_finite_priorities(self, bad):
        # A NaN priority fails every comparison, so the pick depended on
        # queue order: the NaN tenant won when queued first and lost when
        # queued second.
        with pytest.raises(ValueError, match="priority of tenant 'a'"):
            TenantPriority(priorities={"a": bad, "b": 1.0})


class TestLifecycle:
    def test_length_retirement_frees_slot(self):
        s = _sched(1)
        _enq(s, 0, max_new=2)
        _enq(s, 1, max_new=1)
        s.admit()
        assert s.record_token(0) is None
        assert s.record_token(0) == "length"
        assert s.num_active == 0
        # The freed slot is immediately fillable (same-step backfill).
        assert _ids(s, s.admit()) == [1]

    def test_eos_retirement(self):
        s = _sched(1, eos_token=42)
        _enq(s, 0, max_new=10)
        s.admit()
        assert s.record_token(0, token=7) is None
        assert s.record_token(0, token=42) == "eos"
        assert s.retirement_order == [0]

    def test_record_token_requires_active(self):
        s = _sched(1)
        _enq(s, 0)
        with pytest.raises(KeyError):
            s.record_token(0)

    def test_duplicate_enqueue_rejected(self):
        s = _sched(1)
        pos = _enq(s, 0)
        with pytest.raises(ValueError, match="already"):
            s.enqueue(pos)
        assert s.num_waiting == 1 and len(s.events) == 1

    def test_shared_rows_move_only_when_surrendered(self):
        """Schedulers sharing ``held`` (a fleet's replicas; here the
        table's own) reject a row another one holds, until a crash
        surrenders it; the surrendering scheduler keeps its state for
        replay."""
        table = RequestTable()
        dead, alive = Scheduler(2, table), Scheduler(2, table)
        for rid in range(3):
            dead.enqueue(table.append(rid, 4, 3, None))
        dead.admit(max_admit=1)
        with pytest.raises(ValueError, match="already"):
            alive.enqueue(1)
        assert dead.surrender() == [0, 1, 2]
        for pos in (2, 0, 1):
            alive.enqueue(pos)
        assert alive.surrender() == [2, 0, 1]
        assert dead.active == [0] and dead.num_waiting == 2

    def test_can_admit_veto_stops_without_skipping(self):
        s = _sched(4)
        for rid, plen in [(0, 8), (1, 1)]:
            _enq(s, rid, prompt_len=plen)
        # Veto the head of the queue: admission must stop, not admit #1
        # over #0 (capacity pressure may not reorder FCFS).
        admitted = s.admit(can_admit=lambda pos: s.table.prompt[pos] < 4)
        assert admitted == []
        assert s.num_waiting == 2

    def test_event_log_and_orderings(self):
        s = _sched(2)
        _enq(s, 0, max_new=1)
        _enq(s, 1, max_new=2)
        s.admit()
        s.record_token(0)
        s.record_token(1)
        s.advance()
        s.record_token(1)
        kinds = [(e.kind, e.request_id) for e in s.events]
        assert kinds == [("enqueue", 0), ("enqueue", 1), ("admit", 0),
                         ("admit", 1), ("retire", 0), ("retire", 1)]
        assert s.admission_order == [0, 1]
        assert s.retirement_order == [0, 1]
        retire_steps = [e.step for e in s.events if e.kind == "retire"]
        assert retire_steps == [0, 1]

    def test_waiting_and_enqueue_steps_accessors(self):
        """The fleet layer reads both: ``surrender`` to requeue a dead
        replica's waiting rows, ``enqueue_steps`` to replay enqueues into
        a functional session at the recorded step."""
        s = _sched(1)
        _enq(s, 0)
        _enq(s, 1)
        assert s.num_waiting == 2
        s.admit()
        assert s.num_waiting == 1
        s.record_token(0)
        s.advance()
        _enq(s, 2)
        assert s.enqueue_steps == {0: 0, 1: 0, 2: 1}
        # The mapping is a copy: mutating it cannot corrupt the scheduler.
        s.enqueue_steps.clear()
        assert s.enqueue_steps == {0: 0, 1: 0, 2: 1}
        assert s.surrender() == [0, 1, 2]  # active, then waiting

    def test_validation(self):
        with pytest.raises(ValueError):
            _sched(0)
        table = RequestTable()
        with pytest.raises(ValueError):
            table.append(0, 0, 1, None)
        with pytest.raises(ValueError):
            table.append(0, 1, 0, None)
        assert len(table.ids) == 0 and not table.tenant_names

    @pytest.mark.parametrize("kwargs,name", [
        (dict(prompt_len=float("nan")), "prompt_len"),
        (dict(prompt_len=2.5), "prompt_len"),
        (dict(max_new_tokens=float("nan")), "max_new_tokens"),
        (dict(max_new_tokens=2.5), "max_new_tokens"),
    ])
    def test_non_integer_lengths_rejected(self, kwargs, name):
        """NaN passed the ``< 1`` guards: a row of prompt NaN was
        accepted. A rejected row leaves the table unchanged."""
        fields = dict(request_id=0, prompt_len=4, max_new_tokens=3,
                      tenant="a")
        table = RequestTable()
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            table.append(**{**fields, **kwargs})
        assert len(table.ids) == 0 and not table.tenant_names


class TestBulkStepping:
    """decode_horizon()/record_tokens(n) — the event-compressed serving
    loop's bulk interface — must replay record_token/advance exactly."""

    def _mirror(self, seed):
        """Two identically-loaded schedulers."""
        rng = np.random.default_rng(seed)
        specs = [(rid, int(rng.integers(1, 9)), int(rng.integers(1, 7)))
                 for rid in range(9)]
        pair = []
        for _ in range(2):
            s = _sched(3)
            for rid, plen, gen in specs:
                _enq(s, rid, prompt_len=plen, max_new=gen)
            pair.append(s)
        return pair

    def test_horizon_counts_steps_to_next_length_retirement(self):
        s = _sched(3)
        for rid, gen in [(0, 5), (1, 2), (2, 9)]:
            _enq(s, rid, max_new=gen)
        assert s.decode_horizon() == 0  # nothing admitted yet
        s.admit()
        assert s.decode_horizon() == 2
        assert s.record_tokens(2) == [1]
        assert s.decode_horizon() == 3  # request 0 has 3 of 5 left

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bulk_equals_per_step_replay(self, seed):
        """Interleave admissions with full-horizon bulk advances on one
        scheduler and per-step record_token/advance on its mirror: state
        and the complete event log must coincide."""
        bulk, single = self._mirror(seed)
        while True:
            bulk.admit()
            single.admit()
            if not bulk.num_active:
                break
            n = bulk.decode_horizon()
            retired_bulk = bulk.record_tokens(n)
            retired_single = []
            for _ in range(n):
                for rid in single.active:
                    if single.record_token(rid) is not None:
                        retired_single.append(rid)
                single.advance()
            assert retired_bulk == retired_single
            assert bulk.step == single.step
        assert bulk.events == single.events
        assert bulk.admission_order == single.admission_order
        assert bulk.retirement_order == single.retirement_order

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["enqueue", "admit", "token", "eos", "bulk"]),
        st.integers(1, 6)), max_size=40))
    def test_incremental_horizon_matches_a_rescan(self, ops):
        """decode_horizon() is kept incrementally; after any mix of
        admissions, single tokens (EOS included) and bulk stretches it
        equals the minimum remaining budget over the active set."""
        s = _sched(3, eos_token=0)
        budget: dict[int, int] = {}
        for op, k in ops:
            active = s.active
            if op == "enqueue":
                rid = len(budget)
                budget[rid] = k
                _enq(s, rid, max_new=k)
            elif op == "admit":
                s.admit(max_admit=k)
            elif op in ("token", "eos") and active:
                s.record_token(active[k % len(active)],
                               token=0 if op == "eos" else 1)
            elif op == "bulk" and active:
                s.record_tokens(min(k, s.decode_horizon()))
            rescan = min((budget[rid] - s.generated(rid) for rid in s.active),
                         default=0)
            assert s.decode_horizon() == rescan

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partial_runs_equal_per_step_replay(self, seed):
        """Stretches shorter than the horizon retire nobody: counts,
        steps, horizon and event log still match per-step stepping."""
        bulk, single = self._mirror(seed)
        rng = np.random.default_rng(seed)
        while True:
            bulk.admit()
            single.admit()
            if not bulk.num_active:
                break
            horizon = bulk.decode_horizon()
            n = int(rng.integers(1, horizon + 1))
            retired = bulk.record_tokens(n)
            assert (retired == []) == (n < horizon)
            for _ in range(n):
                for rid in single.active:
                    single.record_token(rid)
                single.advance()
            assert bulk.step == single.step
            assert bulk.decode_horizon() == single.decode_horizon()
            assert all(bulk.generated(rid) == single.generated(rid)
                       for rid in single.active)
        assert bulk.events == single.events

    def test_partial_run_retires_nobody(self):
        s = _sched(2)
        _enq(s, 0, max_new=5)
        s.admit()
        assert s.record_tokens(4) == []
        assert s.generated(0) == 4
        assert s.step == 4

    @pytest.mark.parametrize("steps", [2.5, 2.0, float("nan"), "2"])
    def test_record_tokens_rejects_non_integer_steps(self, steps):
        """A non-integer (a float, NaN and integral ones included, or a
        string) is a TypeError naming ``steps``, and commits nothing."""
        s = _sched(2)
        _enq(s, 0, max_new=5)
        s.admit()
        with pytest.raises(TypeError, match="steps"):
            s.record_tokens(steps)
        assert s.step == 0 and s.generated(0) == 0

    def test_record_tokens_takes_integer_likes_as_ints(self):
        """A NumPy integer commits its value, and the step stays an int."""
        s = _sched(2)
        _enq(s, 0, max_new=5)
        s.admit()
        assert s.record_tokens(np.int64(3)) == []
        assert s.step == 3 and type(s.step) is int
        assert s.generated(0) == 3 and type(s.generated(0)) is int

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["enqueue", "admit", "token", "eos", "bulk",
                         "advance"]),
        st.integers(1, 6)), max_size=50))
    def test_offset_counts_match_a_naive_counter(self, ops):
        """Token counts kept by offset (``_bulk``) read exactly like a
        per-request counter stepped token by token, for every active
        request, after any interleaving of the public lifecycle calls."""
        s = _sched(3, eos_token=0)
        budget: dict[int, int] = {}
        count: dict[int, int] = {}
        queue: list[int] = []
        active: list[int] = []  # admission order
        events: list[tuple[int, str, int, str]] = []
        step = 0

        def retire(rid, reason):
            active.remove(rid)
            events.append((step, "retire", rid, reason))

        for op, k in ops:
            if op == "enqueue":
                rid = len(budget)
                budget[rid] = k
                queue.append(rid)
                events.append((step, "enqueue", rid, ""))
                _enq(s, rid, max_new=k)
            elif op == "admit":
                s.admit(max_admit=k)
                while queue and len(active) < 3 and k:
                    rid = queue.pop(0)
                    active.append(rid)
                    count[rid] = 0
                    events.append((step, "admit", rid, ""))
                    k -= 1
            elif op in ("token", "eos") and active:
                rid = active[k % len(active)]
                s.record_token(rid, token=0 if op == "eos" else 1)
                count[rid] += 1
                if op == "eos":
                    retire(rid, "eos")
                elif count[rid] >= budget[rid]:
                    retire(rid, "length")
            elif op == "bulk" and active:
                n = min(k, s.decode_horizon())
                s.record_tokens(n)
                for _ in range(n):  # per-step replay of the stretch
                    for rid in list(active):
                        count[rid] += 1
                        if count[rid] >= budget[rid]:
                            retire(rid, "length")
                    step += 1
            elif op == "advance":
                s.advance()
                step += 1
            assert s.step == step
            assert {rid: s.generated(rid) for rid in active} == {
                rid: count[rid] for rid in active}
            assert s.decode_horizon() == min(
                (budget[rid] - count[rid] for rid in active), default=0)
            assert s.active == active
            assert s.retirement_order == [
                rid for _, kind, rid, _ in events if kind == "retire"]
            assert [(e.step, e.kind, e.request_id, e.reason)
                    for e in s.events] == events

    def test_stretch_without_retirement_writes_no_count(self):
        """A stretch that retires nobody moves every active count through
        the scheduler-wide offset: no per-request entry is written."""

        class CountingDict(dict):
            writes = 0

            def __setitem__(self, key, value):
                CountingDict.writes += 1
                super().__setitem__(key, value)

            def __delitem__(self, key):
                CountingDict.writes += 1
                super().__delitem__(key)

        s = _sched(4)
        for rid, gen in enumerate((9, 12, 30, 7)):
            _enq(s, rid, max_new=gen)
        s.admit()
        s.record_token(2)  # counts differ before the stretches
        s._active = CountingDict(s._active)
        assert s.record_tokens(3) == []
        assert s.record_tokens(s.decode_horizon() - 1) == []
        assert CountingDict.writes == 0
        assert [s.generated(rid) for rid in range(4)] == [6, 6, 7, 6]
        assert s.record_tokens(1) == [3]  # a retiring stretch writes
        assert CountingDict.writes == 1  # the retiree leaves
        assert s.active == [0, 1, 2]
        assert [s.generated(rid) for rid in range(3)] == [7, 7, 8]

    def test_validation(self):
        s = _sched(1)
        with pytest.raises(ValueError, match="no active"):
            s.record_tokens(1)
        _enq(s, 0, max_new=3)
        s.admit()
        with pytest.raises(ValueError):
            s.record_tokens(0)
        with pytest.raises(ValueError, match="horizon"):
            s.record_tokens(4)  # would skip the step-2 retirement
        assert s.record_tokens(3) == [0]


# -- functional vs analytical equivalence (the tentpole guarantee) ----------

EQ_CFG = ModelConfig(name="sched-eq", hidden=32, layers=2, heads=4, vocab=59,
                     max_seq=32)


@pytest.fixture(scope="module")
def eq_model():
    return DenseTransformer(EQ_CFG, seed=11)


def _shared_trace(seed, n=10):
    """A burst trace (all arrived at t=0) with varied prompt/gen lengths."""
    rng = np.random.default_rng(seed)
    return WorkloadTrace(tuple(
        Request(i, 0.0, int(rng.integers(1, 8)), int(rng.integers(1, 6)))
        for i in range(n)
    ))


def _functional_scheduler(trace, model, policy, max_batch):
    session = GenerationSession(model, max_concurrency=max_batch,
                                policy=policy)
    rng = np.random.default_rng(0)
    rids = {}
    for r in trace.requests:
        prompt = rng.integers(0, model.config.vocab, size=r.prompt_len)
        rids[session.submit(prompt, max_new_tokens=r.gen_tokens)] = r
    session.run()
    return session.scheduler


@pytest.mark.parametrize("policy", ["fcfs", "shortest_prompt"])
@pytest.mark.parametrize("seed,max_batch", [(0, 3), (1, 2), (2, 4)])
def test_functional_and_analytical_orderings_identical(
        eq_model, policy, seed, max_batch):
    """Both backends consume the same Scheduler, so on a shared trace the
    admission and retirement orderings are identical."""
    trace = _shared_trace(seed)
    functional = _functional_scheduler(trace, eq_model, policy, max_batch)
    costs = ClosureStepCost(lambda b, p: 0.3 + 0.01 * p, lambda b: 0.1)
    rep = simulate_serving(trace, costs=costs, max_batch=max_batch,
                           policy=policy)
    analytical = rep.scheduler
    assert functional.admission_order == analytical.admission_order
    assert functional.retirement_order == analytical.retirement_order
    # Retirement reasons agree too (all length-driven here).
    f_reasons = {e.request_id: e.reason for e in functional.events
                 if e.kind == "retire"}
    a_reasons = {e.request_id: e.reason for e in analytical.events
                 if e.kind == "retire"}
    assert f_reasons == a_reasons


def test_event_streams_identical_when_no_prefill_retirement(eq_model):
    """With every request needing >= 2 tokens, even the full event
    streams (kind, request id) coincide step for step."""
    rng = np.random.default_rng(5)
    trace = WorkloadTrace(tuple(
        Request(i, 0.0, int(rng.integers(1, 6)), int(rng.integers(2, 6)))
        for i in range(8)
    ))
    functional = _functional_scheduler(trace, eq_model, "fcfs", 3)
    rep = simulate_serving(
        trace, costs=ClosureStepCost(lambda b, p: 1.0, lambda b: 0.1),
        max_batch=3)
    f_events = [(e.step, e.kind, e.request_id) for e in functional.events]
    a_events = [(e.step, e.kind, e.request_id) for e in rep.scheduler.events]
    assert f_events == a_events
