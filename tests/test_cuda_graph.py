"""Tests for the functional CUDA-graph capture/replay mechanism."""

import numpy as np
import pytest

from repro.kernels.cuda_graph import GraphMismatch, GraphRunner
from repro.kernels.functional import gelu, layer_norm


def make_runner():
    g = np.ones(8)
    b = np.zeros(8)
    w = np.random.default_rng(3).normal(size=(8, 8))
    return GraphRunner([
        ("ln", lambda x: layer_norm(x, g, b)),
        ("gemm", lambda x: x @ w),
        ("gelu", gelu),
    ]), w, g, b


class TestGraphRunner:
    def test_capture_then_replay_same_result(self):
        runner, w, g, b = make_runner()
        x = np.random.default_rng(1).normal(size=(2, 8))
        first = runner(x)
        second = runner(x)
        np.testing.assert_array_equal(first, second)
        assert runner.captures == 1
        assert runner.graph_for((2, 8)).replays == 2

    def test_matches_eager_pipeline(self):
        runner, w, g, b = make_runner()
        x = np.random.default_rng(2).normal(size=(3, 8))
        eager = gelu(layer_norm(x, g, b) @ w)
        np.testing.assert_allclose(runner(x), eager, atol=1e-12)

    def test_new_shape_captures_new_graph(self):
        runner, *_ = make_runner()
        runner(np.zeros((1, 8)))
        runner(np.zeros((4, 8)))
        runner(np.zeros((1, 8)))
        assert runner.num_graphs == 2
        assert runner.captures == 2

    def test_direct_replay_shape_check(self):
        runner, *_ = make_runner()
        runner(np.zeros((2, 8)))
        graph = runner.graph_for((2, 8))
        with pytest.raises(GraphMismatch):
            graph.replay(np.zeros((3, 8)))

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            GraphRunner([])

    def test_non_array_stage_rejected(self):
        runner = GraphRunner([("bad", lambda x: "nope")])
        with pytest.raises(TypeError, match="bad"):
            runner(np.zeros((1, 2)))

    def test_unknown_shape_lookup(self):
        runner, *_ = make_runner()
        with pytest.raises(KeyError):
            runner.graph_for((9, 9))


class TestChromeTrace:
    def test_export_structure(self):
        from repro.simcore import Timeline

        tl = Timeline()
        tl.record("gpu0", 0.0, 1e-3, "fwd")
        tl.record("pcie", 2e-3, 5e-3, "fetch")
        events = tl.to_chrome_trace()
        assert len(events) == 2
        by_name = {e["name"]: e for e in events}
        assert by_name["fwd"]["ph"] == "X"
        assert by_name["fwd"]["dur"] == pytest.approx(1000.0)
        assert by_name["fetch"]["ts"] == pytest.approx(2000.0)
        # Lanes map to distinct tids.
        assert by_name["fwd"]["tid"] != by_name["fetch"]["tid"]
