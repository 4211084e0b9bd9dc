"""Transparent timing proxies built only from public seams.

The traced run swaps each layer object the simulator is handed for a
proxy that forwards every call unchanged and accumulates wall time and
counts around it. Nothing in ``src/`` changes, and the proxies return
the wrapped objects' results untouched, so a traced run's modeled
outputs equal an untraced run's bit for bit.

Nesting: ``costs`` calls reach ``latency``, which reaches ``kernels``;
each proxy's ``busy_s`` includes its children, and a layer's self time
is its busy time minus its children's.
"""

from __future__ import annotations

from time import perf_counter

from repro.autoscale import Autoscaler
from repro.engine import StepCostModel
from repro.fleet import RoutingPolicy


class TimedCosts(StepCostModel):
    """Times a step-cost model's three pricing calls and records the
    decode work priced (``batch_steps`` = Σ batch × steps)."""

    def __init__(self, inner: StepCostModel) -> None:
        self.inner = inner
        self.busy_s = 0.0
        self.prompt_calls = 0
        self.run_calls = 0
        self.steps_priced = 0
        self.batch_steps = 0

    def prompt_cost(self, state, request):
        t0 = perf_counter()
        out = self.inner.prompt_cost(state, request)
        self.busy_s += perf_counter() - t0
        self.prompt_calls += 1
        return out

    def decode_cost(self, state):
        t0 = perf_counter()
        out = self.inner.decode_cost(state)
        self.busy_s += perf_counter() - t0
        self._priced(state.batch, 1)
        return out

    def decode_run_cost(self, state, steps):
        t0 = perf_counter()
        out = self.inner.decode_run_cost(state, steps)
        self.busy_s += perf_counter() - t0
        self._priced(state.batch, steps)
        return out

    def _priced(self, batch: int, steps: int) -> None:
        self.run_calls += 1
        self.steps_priced += steps
        self.batch_steps += batch * steps


class _Timed:
    """Forwards every attribute to ``inner``; the methods named in
    ``timed`` are wrapped to accumulate ``busy_s`` and ``calls``."""

    timed: tuple[str, ...] = ()

    def __init__(self, inner) -> None:
        self.inner = inner
        self.busy_s = 0.0
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in self.timed:
            return attr

        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = attr(*args, **kwargs)
            self.busy_s += perf_counter() - t0
            self.calls += 1
            return out
        return timed


class TimedLatency(_Timed):
    """Times a dense or MoE latency model's per-step pricing."""

    timed = ("step_time", "token_step", "skewed_token_step")


class TimedKernels(_Timed):
    """Times the kernel cost model's layer and chain roofline costs."""

    timed = ("layer_cost", "chain_cost")


class TimedRouting(RoutingPolicy):
    """Times a resolved routing policy's ``choose``; keeps its name."""

    def __init__(self, inner: RoutingPolicy) -> None:
        self.inner = inner
        self.name = inner.name
        self.busy_s = 0.0
        self.calls = 0

    def choose(self, request, view) -> int:
        t0 = perf_counter()
        out = self.inner.choose(request, view)
        self.busy_s += perf_counter() - t0
        self.calls += 1
        return out


class TimedAutoscaler(Autoscaler):
    """Stands in for an unbound autoscaler: a fresh one with the same
    config whose control epochs are timed and counted."""

    def __init__(self, inner: Autoscaler) -> None:
        super().__init__(inner.config)
        self.busy_s = 0.0
        self.epochs = 0
        self.actions = 0

    def epoch(self, now, snapshots, **kwargs):
        t0 = perf_counter()
        signals, admitted = super().epoch(now, snapshots, **kwargs)
        self.busy_s += perf_counter() - t0
        self.epochs += 1
        self.actions += len(admitted)
        return signals, admitted


class Probes:
    """Installs the proxies on a :class:`~.workloads.Run` and reads the
    per-layer numbers back."""

    def __init__(self, run) -> None:
        inner = run.costs
        self.costs = run.costs = TimedCosts(inner)
        # Dense pricing holds its latency model as ``latency_model``,
        # MoE pricing as ``moe_model``; both hold ``kernel_model``.
        attr = "latency_model" if hasattr(inner, "latency_model") \
            else "moe_model"
        model = getattr(inner, attr)
        self.kernels = model.kernel_model = TimedKernels(model.kernel_model)
        self.latency = TimedLatency(model)
        setattr(inner, attr, self.latency)
        self.routing = self.autoscale = None
        if run.routing is not None:
            self.routing = run.routing = TimedRouting(run.routing)
        if run.autoscaler is not None:
            self.autoscale = run.autoscaler = TimedAutoscaler(run.autoscaler)

    def layers(self, sim_s: float) -> dict[str, float]:
        """Per-layer busy and self times and counts, given the wall time
        of the simulate call."""
        c, lat, k = self.costs, self.latency, self.kernels
        router_s = self.routing.busy_s if self.routing else 0.0
        scale_s = self.autoscale.busy_s if self.autoscale else 0.0
        return {
            "sim_loop.self_s": sim_s - c.busy_s - router_s - scale_s,
            "router.wall_share": router_s / sim_s,
            "router.calls": self.routing.calls if self.routing else 0,
            "autoscale.wall_share": scale_s / sim_s,
            "autoscale.epochs": self.autoscale.epochs if self.autoscale else 0,
            "autoscale.actions":
                self.autoscale.actions if self.autoscale else 0,
            "costs.busy_s": c.busy_s,
            "costs.self_s": c.busy_s - lat.busy_s,
            "costs.prompt_calls": c.prompt_calls,
            "costs.run_calls": c.run_calls,
            "costs.steps_priced": c.steps_priced,
            "costs.steps_per_run": c.steps_priced / max(1, c.run_calls),
            "latency.busy_s": lat.busy_s,
            "latency.calls": lat.calls,
            "latency.calls_per_priced_step":
                lat.calls / max(1, c.prompt_calls + c.steps_priced),
            "kernels.busy_s": k.busy_s,
            "kernels.calls": k.calls,
            "scheduler.mean_decode_batch":
                c.batch_steps / max(1, c.steps_priced),
        }
