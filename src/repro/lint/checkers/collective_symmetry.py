"""RP001: collectives must be issued symmetrically by every rank.

The functional layer is SPMD: every rank runs the same program against
its own shard and synchronizes through the rendezvous collectives of
:class:`repro.comm.functional.Communicator` (``allreduce``,
``allgather``, ``alltoall``, ``broadcast``, ``reduce_scatter``,
``barrier``, ``split``). A collective reached by
only *some* ranks — because it sits under an ``if comm.rank == 0:``
branch, or inside a loop whose trip count depends on the rank — leaves
the others parked at the barrier forever: the classic SPMD deadlock
(DeepSpeed-Inference Secs. V–VI assume fully symmetric schedules).

Point-to-point ``send``/``recv`` are intentionally *not* collectives;
rank-conditional p2p is how pipeline stages talk
(:mod:`repro.parallel.pipeline_exec`) and stays legal.

A rank-dependent ``if`` is tolerated when *both* sides issue the same
collective (the ``broadcast(x if root else None)`` idiom written as a
statement): only the collectives present on one side and missing from
the other are flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, ModuleInfo

__all__ = ["CollectiveSymmetryChecker", "COLLECTIVES"]

#: rendezvous methods of repro.comm.functional.Communicator — every rank
#: of the world must call each of these the same number of times, in the
#: same order.
COLLECTIVES = frozenset({
    "allreduce",
    "allgather",
    "alltoall",
    "broadcast",
    "reduce_scatter",
    "barrier",
    "split",
})

#: receivers that are definitely not communicators (numpy has
#: ``np.broadcast``; keep it out of the blast radius).
_NON_COMM_RECEIVERS = frozenset({"np", "numpy", "math", "scipy"})


def _collective_name(node: ast.AST) -> str | None:
    """The collective method name if ``node`` is ``<recv>.<coll>(...)``."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    if node.func.attr not in COLLECTIVES:
        return None
    recv = node.func.value
    if isinstance(recv, ast.Name) and recv.id in _NON_COMM_RECEIVERS:
        return None
    return node.func.attr


def _mentions_rank(node: ast.AST) -> bool:
    """Whether an expression depends on the calling rank: any ``.rank``
    attribute (``comm.rank``, ``self.rank``) or name containing ``rank``
    (``rank``, ``tp_rank``, ``stage_rank``)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and "rank" in n.attr:
            return True
        if isinstance(n, ast.Name) and "rank" in n.id:
            return True
    return False


def _collectives_in(nodes) -> list[tuple[ast.Call, str]]:
    out = []
    for node in nodes:
        for n in ast.walk(node):
            name = _collective_name(n)
            if name is not None:
                out.append((n, name))
    return out


class CollectiveSymmetryChecker(Checker):
    code = "RP001"
    name = "collective-symmetry"
    description = (
        "Communicator collectives must not sit under rank-dependent "
        "branches or rank-dependent loop bounds (SPMD deadlock)"
    )
    packages = ("repro.parallel", "repro.model")

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        seen: set[tuple[int, int, str]] = set()

        def emit(call: ast.Call, message: str) -> Iterator[Finding]:
            key = (call.lineno, call.col_offset, message)
            if key not in seen:
                seen.add(key)
                yield self.finding(mod, call, message)

        def describe(test: ast.AST) -> str:
            text = ast.unparse(test)
            return text if len(text) <= 60 else text[:57] + "..."

        for node in ast.walk(mod.tree):
            if isinstance(node, ast.If) and _mentions_rank(node.test):
                yield from self._check_branch(
                    node.body, node.orelse, describe(node.test), emit)
            elif isinstance(node, ast.IfExp) and _mentions_rank(node.test):
                yield from self._check_branch(
                    [node.body], [node.orelse], describe(node.test), emit)
            elif isinstance(node, ast.For) and _mentions_rank(node.iter):
                for call, name in _collectives_in(node.body + node.orelse):
                    yield from emit(call, (
                        f"collective `{name}` inside a loop whose trip count "
                        f"depends on the rank (`for ... in "
                        f"{describe(node.iter)}`): ranks would issue "
                        f"different numbers of collectives and deadlock"
                    ))
            elif isinstance(node, ast.While) and _mentions_rank(node.test):
                for call, name in _collectives_in(node.body + node.orelse):
                    yield from emit(call, (
                        f"collective `{name}` inside a `while "
                        f"{describe(node.test)}` loop: the trip count is "
                        f"rank-dependent, so ranks would issue different "
                        f"numbers of collectives and deadlock"
                    ))

    def _check_branch(self, body, orelse, test_text, emit):
        """Flag collectives present on one side of a rank-dependent
        branch but absent from the other (symmetric pairs are legal)."""
        body_calls = _collectives_in(body)
        orelse_calls = _collectives_in(orelse)
        body_names = {name for _, name in body_calls}
        orelse_names = {name for _, name in orelse_calls}
        for calls, here, there, where in (
            (body_calls, body_names, orelse_names, "then"),
            (orelse_calls, orelse_names, body_names, "else"),
        ):
            for call, name in calls:
                if name not in there:
                    yield from emit(call, (
                        f"collective `{name}` is only reached on the "
                        f"{where}-side of the rank-dependent branch `if "
                        f"{test_text}`: ranks taking the other path skip "
                        f"it and every rank blocks at the rendezvous "
                        f"(SPMD deadlock)"
                    ))
