"""CUDA-graph capture/replay, functionally (Sec. III-D).

The paper "store[s] the trace of the kernels the first time they are
launched ... and create[s] the computation-graph that can be reused for
the following requests". The performance effect (launch elimination)
lives in the cost model; this module reproduces the *mechanism* and its
correctness constraint: a captured graph replays a fixed kernel sequence
against fixed shapes, so replay must verify the request matches the
capture and fall back to re-capture when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["GraphMismatch", "CapturedGraph", "GraphRunner"]


class GraphMismatch(RuntimeError):
    """Replay was attempted with shapes the graph was not captured for."""


@dataclass(frozen=True)
class _Node:
    """One captured kernel invocation."""

    name: str
    fn: Callable


@dataclass
class CapturedGraph:
    """An ordered kernel sequence bound to its capture-time shapes."""

    input_shape: tuple
    nodes: list[_Node] = field(default_factory=list)
    replays: int = 0

    def replay(self, x: np.ndarray) -> np.ndarray:
        """Re-run the captured kernel sequence on a same-shaped input."""
        if x.shape != self.input_shape:
            raise GraphMismatch(
                f"graph captured for {self.input_shape}, got {x.shape}"
            )
        out = x
        for node in self.nodes:
            out = node.fn(out)
        self.replays += 1
        return out


class GraphRunner:
    """Capture-once / replay-forever wrapper around a kernel pipeline.

    ``stages`` is a list of ``(name, fn)`` pairs, each ``fn`` mapping one
    array to the next (a fused-region kernel). The first call with a
    given input shape captures; subsequent same-shape calls replay the
    captured sequence with no per-stage dispatch. Distinct shapes capture
    distinct graphs (as real engines do per bucket).
    """

    def __init__(self, stages: list[tuple[str, Callable]]) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        self.stages = stages
        self._graphs: dict[tuple, CapturedGraph] = {}
        self.captures = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Run the pipeline, capturing on first sight of this shape."""
        key = x.shape
        graph = self._graphs.get(key)
        if graph is None:
            graph = self._capture(x)
            self._graphs[key] = graph
            # The capture pass also produces the output.
            return graph.replay(x)
        return graph.replay(x)

    def _capture(self, x: np.ndarray) -> CapturedGraph:
        graph = CapturedGraph(input_shape=x.shape)
        probe = x
        for name, fn in self.stages:
            out = fn(probe)
            if not isinstance(out, np.ndarray):
                raise TypeError(f"stage {name!r} must return an ndarray")
            graph.nodes.append(_Node(name=name, fn=fn))
            probe = out
        self.captures += 1
        return graph

    def graph_for(self, shape: tuple) -> CapturedGraph:
        """The captured graph for ``shape`` (KeyError if never captured)."""
        return self._graphs[shape]

    @property
    def num_graphs(self) -> int:
        """Distinct shape buckets captured so far."""
        return len(self._graphs)
