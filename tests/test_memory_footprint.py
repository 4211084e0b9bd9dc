"""Memory regression tests for the records that grow with every action.

The scheduler's lifecycle log, each Timeline lane and each replica's
action log are typed arrays, so they keep a few bytes per entry instead
of one Python object each.
``tracemalloc`` attributes every allocation to the source line that
made it, so the bytes a structure keeps are summed over the lines that
append to it.
"""

import ast
import gc
import inspect
import tracemalloc

import repro.engine.replica as replica_mod
from repro.engine import (ClosureStepCost, SchedRequest, Scheduler,
                          simulate_serving, synthesize_trace)
from repro.engine.replica import _KvTracker, _Replica
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
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(True, filename)]).statistics("lineno")
    return sum(s.size for s in stats if s.traceback[0].lineno in own), kept


def test_scheduler_log_keeps_at_most_24_bytes_per_event():
    """Three columns: an int64 step, a one-byte code and an int64 id."""
    requests = [SchedRequest(i, prompt_len=4, max_new_tokens=1 + i % 5)
                for i in range(-(-N // 3))]

    def build():
        sched = Scheduler(8)
        for req in requests:
            sched.enqueue(req)
        while sched.num_waiting or sched.num_active:
            sched.admit()
            sched.record_tokens(sched.decode_horizon())
        return sched

    size, sched = retained_by(Scheduler._log, build)
    events = len(sched.events)
    assert events == 3 * len(requests) >= N
    assert size / events <= 24, f"{size / events:.1f} B per event"


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
           and ast.unparse(node.func) == "self.log.extend"
           for line in range(node.lineno, node.end_lineno + 1)}
    assert len(own) >= 5
    trace = synthesize_trace(num_requests=N // 2, arrival_rate=200.0,
                             mean_prompt=32, mean_gen=16, seed=0)
    costs = ClosureStepCost(lambda b, p: 1e-3 + 1e-5 * p,
                            lambda b: 1e-3 + 1e-4 * b)

    def build():
        rep = _Replica(0, max_batch=8, policy="fcfs", costs=costs,
                       kv=_KvTracker())
        for r in trace.requests:
            rep.deliver(r, r.arrival)
        while rep.perform_action(lambda *args: None) is not None:
            pass
        return rep

    size, rep = retained_on(replica_mod.__file__, own, build)
    rows = len(rep.log) // 6
    assert rows >= N
    assert size / rows <= 52, f"{size / rows:.1f} B per action"


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
