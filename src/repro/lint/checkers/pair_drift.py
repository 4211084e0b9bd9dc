"""RP008: registered backend pairs must not drift apart.

The equivalence machinery only means something while the paired seams
really are comparable: a one-replica
:func:`repro.fleet.sim.simulate_fleet` is held bit-for-bit against
:func:`repro.engine.serving_sim.simulate_serving`, so both must expose
the same knobs with the same defaults, and the functional fleet replay
must configure the scheduler exactly as the analytical control plane it
replays. Those pairs rot silently — someone adds a kwarg to one side, or
nudges a default — and the equivalence tests keep passing because they
pin every argument explicitly. A drifted *default* is the worst kind: every caller who
relied on "same call, same answer" now compares different systems.

The checker keeps a registry of :class:`SeamPair` entries and, using the
project symbol table, verifies for each that

* both endpoints still exist (a renamed seam is itself a finding);
* every parameter present on both sides has the same kind
  (positional vs keyword-only) and the same default expression;
* parameters present on only one side are declared in the pair's
  ``allow_extra`` set — unless the pair is ``shared_only`` (endpoints
  with intentionally different surfaces, compared on the overlap).

Extend :data:`PAIRED_SEAMS` when a new analytical/functional seam
lands; fixtures can instantiate the checker with their own pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..core import Finding, ProjectChecker
from ..project import FunctionSummary, ProjectInfo

__all__ = ["PairDriftChecker", "SeamPair", "PAIRED_SEAMS"]


@dataclass(frozen=True)
class SeamPair:
    """Two functions that must keep their shared surface identical."""

    left: str                              # "module.path:func"
    right: str
    #: params allowed to exist on one side only (ignored if shared_only)
    allow_extra: frozenset[str] = frozenset()
    #: compare only the parameters the two sides share
    shared_only: bool = False
    why: str = ""


#: the seams this repo's equivalence tests lean on
PAIRED_SEAMS: tuple[SeamPair, ...] = (
    SeamPair(
        left="repro.engine.serving_sim:simulate_serving",
        right="repro.fleet.sim:simulate_fleet",
        shared_only=True,
        why="a one-replica fleet must reproduce simulate_serving: the "
            "knobs both expose must mean (and default to) the same thing",
    ),
    SeamPair(
        left="repro.fleet.sim:simulate_fleet",
        right="repro.fleet.functional:run_fleet_functional",
        shared_only=True,
        why="analytical control plane vs functional replay: shared "
            "kwargs configure the same scheduler decisions on both sides",
    ),
)


class PairDriftChecker(ProjectChecker):
    code = "RP008"
    name = "backend-pair-drift"
    description = (
        "registered analytical/functional and compressed/oracle seam "
        "pairs must keep identical shared signatures and defaults"
    )

    def __init__(self, pairs: Sequence[SeamPair] = PAIRED_SEAMS) -> None:
        self.pairs = tuple(pairs)

    def check_project(self, project: ProjectInfo) -> Iterator[Finding]:
        for pair in self.pairs:
            yield from self._check_pair(project, pair)

    def _check_pair(self, project: ProjectInfo,
                    pair: SeamPair) -> Iterator[Finding]:
        left = project.resolve_ref(pair.left)
        right = project.resolve_ref(pair.right)
        left_mod = pair.left.partition(":")[0]
        right_mod = pair.right.partition(":")[0]
        # Partial trees (fixtures, single-file runs): a pair whose
        # modules are not in this run is not this run's business.
        if left_mod not in project.modules or right_mod not in project.modules:
            return
        for summary, ref, other in ((left, pair.left, pair.right),
                                    (right, pair.right, pair.left)):
            if summary is None:
                mod = project.modules[ref.partition(":")[0]]
                yield Finding(
                    path=mod.display_path, line=1, col=0, code=self.code,
                    message=(
                        f"paired seam endpoint `{ref}` is gone but "
                        f"`{other}` still exists — update the pair "
                        f"registry in repro.lint.checkers.pair_drift or "
                        f"restore the function"
                    ),
                )
        if left is None or right is None:
            return
        left_params = {p.name: p for p in left.params}
        right_params = {p.name: p for p in right.params}
        for name in sorted(left_params.keys() & right_params.keys()):
            lp, rp = left_params[name], right_params[name]
            if lp.default != rp.default:
                yield self._drift(project, right, (
                    f"paired seams `{left.ref}` and `{right.ref}` "
                    f"disagree on the default of `{name}`: "
                    f"{_show_default(lp.default)} vs "
                    f"{_show_default(rp.default)} — drifted defaults are "
                    f"how equivalence tests rot"
                ))
            elif lp.kind != rp.kind:
                yield self._drift(project, right, (
                    f"paired seams `{left.ref}` and `{right.ref}` pass "
                    f"`{name}` differently ({lp.kind} vs {rp.kind})"
                ))
        if pair.shared_only:
            return
        for name in sorted((left_params.keys() ^ right_params.keys())
                           - pair.allow_extra):
            present, absent = (
                (left, right) if name in left_params else (right, left))
            yield self._drift(project, absent, (
                f"paired seam `{present.ref}` has a parameter `{name}` "
                f"that `{absent.ref}` lacks — add it to both sides or "
                f"declare it in the pair's allow_extra set"
            ))

    def _drift(self, project: ProjectInfo, where: FunctionSummary,
               message: str) -> Finding:
        mod = project.modules[where.module]
        return Finding(
            path=mod.display_path, line=where.lineno, col=0,
            code=self.code, message=message,
        )


def _show_default(default: str | None) -> str:
    return "<required>" if default is None else f"`{default}`"
