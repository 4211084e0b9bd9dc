"""Shared serving-report statistics.

:class:`~repro.engine.serving_sim.ServingReport` (one server) and
:class:`~repro.fleet.report.FleetReport` (N replicas) answer the same
per-request questions — end-to-end latency, time to first token, their
percentiles, sustained throughput — from the same four fields. This
mixin holds those definitions once, so the single-server and fleet
numbers can never drift apart in formula.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReportStats"]


class ReportStats:
    """Percentile/throughput views over a serving outcome.

    Consumers must provide ``finish_times`` and ``first_token_times``
    (mappings of request id → absolute seconds), ``makespan``, and
    ``total_tokens`` (tokens of completed requests). All times are
    measured from each request's *original* arrival — a retried
    request's clock keeps running through a crash.
    """

    def latency(self, request) -> float:
        """End-to-end latency of one request."""
        return self.finish_times[request.request_id] - request.arrival

    def ttft(self, request) -> float:
        """Time to the first token that survived into the final output."""
        return self.first_token_times[request.request_id] - request.arrival

    def _percentile(self, values: list[float], q: float) -> float:
        return float(np.percentile(np.array(values), q))

    def latency_percentile(self, trace, q: float) -> float:
        """qth percentile of end-to-end latency over ``trace``."""
        return self._percentile([self.latency(r) for r in trace.requests], q)

    def ttft_percentile(self, trace, q: float) -> float:
        """qth percentile of time to first token over ``trace``."""
        return self._percentile([self.ttft(r) for r in trace.requests], q)

    # -- per-tenant views -----------------------------------------------------

    def tenants(self, trace) -> list:
        """Distinct tenant tags in ``trace``, in first-appearance order
        (``None`` appears if any request is untagged)."""
        seen: dict = {}
        for r in trace.requests:
            seen.setdefault(r.tenant, None)
        return list(seen)

    def tenant_requests(self, trace, tenant) -> list:
        """The requests of ``trace`` billed to ``tenant``."""
        got = [r for r in trace.requests if r.tenant == tenant]
        if not got:
            raise ValueError(f"no requests for tenant {tenant!r}")
        return got

    def tenant_latency_percentile(self, trace, tenant, q: float) -> float:
        """qth percentile of end-to-end latency over one tenant's
        requests — the number checked against that tenant's SLA."""
        return self._percentile(
            [self.latency(r) for r in self.tenant_requests(trace, tenant)], q)

    def tenant_ttft_percentile(self, trace, tenant, q: float) -> float:
        """qth percentile of time to first token over one tenant's
        requests."""
        return self._percentile(
            [self.ttft(r) for r in self.tenant_requests(trace, tenant)], q)

    @property
    def tokens_per_second(self) -> float:
        """Sustained generation throughput over the busy period."""
        return self.total_tokens / self.makespan if self.makespan > 0 else 0.0

    @property
    def kv_dedup_ratio(self) -> float:
        """Fraction of would-be KV block allocations that prefix sharing
        deduplicated away (0.0 when nothing was allocated). Consumers
        provide ``kv_blocks_allocated`` and ``kv_blocks_saved``."""
        would_be = self.kv_blocks_allocated + self.kv_blocks_saved
        if not would_be:
            return 0.0
        return self.kv_blocks_saved / would_be
