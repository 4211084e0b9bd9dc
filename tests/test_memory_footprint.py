"""Memory regression tests for the records that grow with every action
or request.

The scheduler's lifecycle log, each Timeline lane, each replica's
action log and the router's placement log are typed arrays, so they
keep a few bytes per entry instead of one Python object each. A trace
keeps its requests as typed columns, and a run keeps its per-request
state in arrays indexed by trace position, which the reports read
through views; a scheduler keeps nothing per request past its slot.
``tracemalloc`` attributes every allocation to the source line that
made it, so the bytes a structure keeps are summed over the lines that
append to it.
"""

import ast
import gc
import inspect
import math
import tracemalloc
from array import array

import pytest

import repro.engine.replica as replica_mod
import repro.engine.scheduler as scheduler_mod
import repro.engine.serving_sim as serving_mod
from repro.engine import (ClosureStepCost, DenseLatencyModel, DenseStepCost,
                          Request, RequestTable, Scheduler, WorkloadTrace,
                          simulate_serving, synthesize_trace)
from repro.engine.costs import _PassPricedCost
from repro.engine.replica import _KvTracker, _Outcomes, _Replica
from repro.engine.serving_sim import _RequestTimes
from repro.fleet import Router
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO
from repro.simcore import Timeline

N = 10_000


def retained_by(func, build):
    """Run ``build()`` under ``tracemalloc``; return the bytes still held
    that were allocated on a line of ``func``, and ``build``'s result
    (kept alive until the snapshot is taken)."""
    lines, first = inspect.getsourcelines(func)
    return retained_on(func.__code__.co_filename,
                       range(first, first + len(lines)), build)


def retained_on(filename, own, build):
    """:func:`retained_by` for the lines ``own`` of ``filename``."""
    return retained_in({filename: own}, build)


def retained_in(owners, build):
    """:func:`retained_on` summed over ``owners``, a dict of file name
    to lines."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    size = 0
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        if frame.lineno in owners.get(frame.filename, ()):
            size += stat.size
    return size, kept


def _scheduler_log_lines():
    """The lines of scheduler.py that append to a log column."""
    tree = ast.parse(inspect.getsource(scheduler_mod))
    return {line for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func) in (
                "self._log_steps.append", "self._log_codes.append",
                "self._log_rids.append")
            for line in range(node.lineno, node.end_lineno + 1)}


def test_scheduler_log_keeps_at_most_24_bytes_per_event():
    """Three columns: an int64 step, a one-byte code and an int64 id.
    Measured over every line that appends to a column."""
    own = _scheduler_log_lines()
    assert len(own) >= 12  # enqueue, admit and both retirement paths
    table = RequestTable()
    for i in range(-(-N // 3)):
        table.append(i, 4, 1 + i % 5, None)

    def build():
        sched = Scheduler(8, table)
        for pos in range(len(table.ids)):
            sched.enqueue(pos)
        while sched.num_waiting or sched.num_active:
            sched.admit()
            sched.record_tokens(sched.decode_horizon())
        return sched

    size, sched = retained_on(scheduler_mod.__file__, own, build)
    events = len(sched.events)
    assert events == 3 * len(table.ids) >= N
    assert size / events <= 24, f"{size / events:.1f} B per event"


def test_finished_run_leaves_its_scheduler_no_per_request_state():
    """A scheduler holds positions: a queue, one dict of active rows and
    a duplicate-enqueue byte per row, which a run keeps once, outside
    the scheduler. So what a finished run's scheduler retains besides
    its lifecycle log (its own fields, at most ``max_batch`` entries
    each, and CPython's free-listed objects) is the same for 5,000
    requests as for 1,000; one byte per request would be 4,000 more."""
    log_lines = _scheduler_log_lines()
    n_lines = len(inspect.getsource(scheduler_mod).splitlines())
    own = [line for line in range(1, n_lines + 1) if line not in log_lines]

    def kept(n):
        trace = synthesize_trace(num_requests=n, arrival_rate=200.0,
                                 mean_prompt=32, mean_gen=16, seed=0)

        def build():
            return simulate_serving(trace, costs=COSTS, max_batch=8,
                                    detail="summary")

        size, report = retained_on(scheduler_mod.__file__, own, build)
        assert len(report.finish_times) == n
        return size

    small, large = kept(1_000), kept(5_000)
    assert large - small <= 1024, (
        f"{small:,} B kept at 1,000 requests, {large:,} B at 5,000")


def test_router_keeps_at_most_24_bytes_per_placement():
    """Four columns: a float64 time, an int64 trace position, an int32
    replica and a retry byte are 21 bytes a placement; the bound allows
    the arrays' growth slack on top (at most 1/16), not any per-placement
    object (a slotted ``RoutingDecision`` kept 128 B)."""
    times = [0.01 * pos for pos in range(N)]

    def build():
        router = Router(4, ids=range(N))
        for pos, t in enumerate(times):
            router.place(pos, 8, t)
        return router

    size, router = retained_by(Router.place, build)
    assert len(router.log.pos) == N
    assert size / N <= 24, f"{size / N:.1f} B per placement"


def test_timeline_lane_keeps_at_most_26_bytes_per_span():
    """Two float64 columns and one label slot are 24 bytes a span; the
    bound allows CPython's growth slack on top (at most 1/16 of an
    array and 1/8 of a list), not any per-span object. The label
    strings are built outside the measurement."""
    labels = [f"decode x{i % 8}" for i in range(N)]

    def build():
        tl = Timeline()
        t = 0.0
        for label in labels:
            tl.record("server", t, t + 0.5, label)
            t += 0.5
        return tl

    size, tl = retained_by(Timeline.record, build)
    assert len(tl.spans("server")) == N
    assert size / N <= 26, f"{size / N:.1f} B per span"


def test_action_log_keeps_at_most_52_bytes_per_action():
    """One row of six float64s per action is 48 bytes; the bound allows
    the array's growth slack on top (at most 1/16), not any per-row
    object. Measured over every line that appends a row."""
    tree = ast.parse(inspect.getsource(replica_mod))
    own = {line for node in ast.walk(tree) if isinstance(node, ast.Call)
           and ast.unparse(node.func) == "self.log.frombytes"
           for line in range(node.lineno, node.end_lineno + 1)}
    assert len(own) >= 5
    trace = synthesize_trace(num_requests=N // 2, arrival_rate=200.0,
                             mean_prompt=32, mean_gen=16, seed=0)
    costs = ClosureStepCost(lambda b, p: 1e-3 + 1e-5 * p,
                            lambda b: 1e-3 + 1e-4 * b)

    requests = trace.requests

    def build():
        rep = _Replica(0, requests=requests, out=_Outcomes(len(requests)),
                       max_batch=8, policy="fcfs", costs=costs,
                       kv=_KvTracker(), on_complete=lambda *args: None)
        for pos, t in enumerate(requests.arrival):
            rep.deliver(pos, t)
        while rep.perform_action() is not None:
            pass
        return rep

    size, rep = retained_on(replica_mod.__file__, own, build)
    rows = len(rep.log) // 6
    assert rows >= N
    assert size / rows <= 52, f"{size / rows:.1f} B per action"


def test_decode_grids_keep_one_binade_per_batch_size():
    """A pass-priced model keeps one decode clock grid per batch size, a
    float64 prefix sum as long as its cost array plus its tie entries,
    and drops a binade's grid when the clock leaves it. Over a serving
    run whose clock crosses at least 10 binades, the grid store holds at
    most one grid per decode batch size, in at most twice the bytes of
    the decode cost arrays (bytes still held that ``_decode_grid``
    allocated). Python-int prefix lists kept about five times those
    bytes."""
    costs = DenseStepCost(DenseLatencyModel(
        DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4))
    # Arrivals 1.5x apart from 10 ms: about one binade per two requests.
    trace = WorkloadTrace(tuple(Request(i, 0.01 * 1.5 ** i, 32, 64)
                                for i in range(30)))

    def build():
        return simulate_serving(trace, costs=costs, max_batch=4,
                                detail="summary")

    size, report = retained_by(_PassPricedCost._decode_grid, build)
    first = min(report.first_token_times.values())
    assert math.frexp(report.makespan)[1] - math.frexp(first)[1] >= 10
    decode = {b: arr for (b, t), (arr, _) in costs._spans.items() if t == 1}
    assert costs._grids and set(costs._grids) <= set(decode)
    limit = 2 * sum(arr.nbytes for arr in decode.values())
    assert size <= limit, f"grids hold {size:,} B; limit {limit:,}"


def test_full_detail_serving_retains_no_more_than_object_records():
    """``detail="full"`` makes one lane per request, so a heavier lane
    object would show here. The bound is what the same run retained
    with one ``Span`` and one ``SchedulerEvent`` object per record
    (3,270,214 B on CPython 3.11); columns retain about 2.13 MB."""
    trace = synthesize_trace(num_requests=2000, arrival_rate=200.0,
                             mean_prompt=32, mean_gen=16, seed=0)
    costs = ClosureStepCost(lambda b, p: 1e-3 + 1e-5 * p,
                            lambda b: 1e-3 + 1e-4 * b)
    simulate_serving(trace, costs=costs, max_batch=8, detail="full")
    gc.collect()
    tracemalloc.start()
    try:
        report = simulate_serving(trace, costs=costs, max_batch=8,
                                  detail="full")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.timeline.lanes()) == 2001
    assert retained <= 3_270_214, f"{retained:,} B retained"


COSTS = ClosureStepCost(lambda b, p: 1e-3 + 1e-5 * p,
                        lambda b: 1e-3 + 1e-4 * b)


def test_trace_keeps_at_most_64_bytes_per_request():
    """Six eight-byte columns and one tenant-code byte are 49 bytes a
    request (consecutive ids are a ``range``); a frozen ``Request``
    each kept about 207. Counts everything the trace holds."""
    def build():
        return synthesize_trace(num_requests=N, arrival_rate=200.0,
                                mean_prompt=32, mean_gen=16, seed=0)

    build()  # NumPy's first-call allocations are not the trace's
    gc.collect()
    tracemalloc.start()
    try:
        trace = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.requests) == N
    assert size / N <= 64, f"{size / N:.1f} B per request"


def test_serving_per_request_records_stay_columnar():
    """The replica arrays (three float64s a request), the report views
    and the id -> position index (a dict here: the ids are not
    consecutive) measured 112.7 B a request on CPython 3.11; the bound
    is that plus 10%. The run's action log is measured on its own."""
    base = synthesize_trace(num_requests=N, arrival_rate=200.0,
                            mean_prompt=32, mean_gen=16, seed=0)
    rows = [Request(3 * r.request_id + 1, r.arrival, r.prompt_len,
                    r.gen_tokens) for r in base.requests]
    trace = WorkloadTrace(rows)
    lines, first = inspect.getsourcelines(_Outcomes)
    owners = {replica_mod.__file__: range(first, first + len(lines)),
              serving_mod.__file__: range(1, 1 + len(
                  inspect.getsource(serving_mod).splitlines()))}

    def build():
        report = simulate_serving(trace, costs=COSTS, max_batch=8,
                                  detail="summary")
        assert report.finish_times[1] > 0  # builds the id index
        return report

    size, report = retained_in(owners, build)
    assert len(report.finish_times) == N
    assert size / N <= 1.1 * 112.7, f"{size / N:.1f} B per request"


class TestReportViews:
    TRACE = WorkloadTrace((Request(5, 0.0, 4, 6), Request(9, 0.0, 4, 1),
                           Request(7, 0.5, 4, 3)))

    @pytest.fixture(scope="class")
    def report(self):
        return simulate_serving(self.TRACE, costs=COSTS, max_batch=2)

    def test_iteration_follows_trace_order(self, report):
        order = [r.request_id for r in self.TRACE.requests]
        # Completion order differs: request 9 finishes first.
        assert min(report.finish_times, key=report.finish_times.get) == 9
        for view in (report.finish_times, report.first_token_times,
                     report.queue_delays):
            assert list(view) == order
            assert [rid for rid, _ in view.items()] == order
            assert list(view.values()) == [view[rid] for rid in order]

    def test_equal_to_a_dict_in_both_orders(self, report):
        plain = dict(report.finish_times)
        assert report.finish_times == plain and plain == report.finish_times
        assert report.finish_times != {**plain, 5: -1.0}
        assert {**plain, 5: -1.0} != report.finish_times

    def test_read_only(self, report):
        with pytest.raises(TypeError):
            report.finish_times[5] = 0.0
        with pytest.raises(TypeError):
            del report.queue_delays[5]

    def test_missing_ids_raise_key_error(self, report):
        for rid in (0, 6, -1, 2**70, "5"):
            assert rid not in report.finish_times
            with pytest.raises(KeyError):
                report.finish_times[rid]
        assert report.finish_times.get(6) is None

    def test_unfinished_request_is_absent(self):
        view = _RequestTimes(self.TRACE.requests,
                             array("d", [1.0, math.nan, 2.0]))
        assert len(view) == 2 and list(view) == [5, 7]
        assert 9 not in view and view == {5: 1.0, 7: 2.0}
        with pytest.raises(KeyError):
            view[9]
