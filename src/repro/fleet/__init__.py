"""Fleet serving layer: many replicas behind a router.

The layer above the single-server runtime: a :class:`Router` spreads a
:class:`~repro.engine.serving_sim.WorkloadTrace` across N replicas
under pluggable routing policies, with scripted fault injection
(:class:`FaultPlan`), requeue-and-retry failover, fleet-wide reporting
(:class:`FleetReport`), and deployment tuning under a GPU budget
(:func:`tune_fleet_deployment`). Two backends share one control plane:
:func:`simulate_fleet` prices decisions with the latency model;
:func:`~repro.fleet.functional.run_fleet_functional` executes them on real
:class:`~repro.engine.generation.GenerationSession` replicas with
exact-output guarantees.
"""

from .faults import FaultPlan, ReplicaFault
from .policies import (
    ROUTING_POLICIES,
    LeastOutstanding,
    PowerOfTwoChoices,
    RoundRobin,
    RoutingPolicy,
    SessionAffinity,
    resolve_routing_policy,
)
from .report import FleetReport, ReplicaStats
from .router import Router, RoutingDecision
from .sim import simulate_fleet
from .tuning import FleetTuningResult, tune_fleet_deployment

__all__ = [
    "ROUTING_POLICIES",
    "FaultPlan",
    "FleetReport",
    "FleetTuningResult",
    "LeastOutstanding",
    "PowerOfTwoChoices",
    "ReplicaFault",
    "ReplicaStats",
    "RoundRobin",
    "Router",
    "RoutingDecision",
    "RoutingPolicy",
    "SessionAffinity",
    "resolve_routing_policy",
    "simulate_fleet",
    "tune_fleet_deployment",
]
