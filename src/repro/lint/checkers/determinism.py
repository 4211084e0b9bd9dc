"""RP003: simulations must replay bit-for-bit.

The schedule timelines (:mod:`repro.simcore`), the serving replay
(:mod:`repro.engine`), the fleet layer (:mod:`repro.fleet`) and the
autoscale control loop (:mod:`repro.autoscale`) promise
that the same trace and seed reproduce the same report — the
functional-vs-analytical equivalence tests, the fleet failover
accounting and every figure regeneration depend on it. Three classes of
construct silently break that promise:

* **global RNG** — ``np.random.rand()`` / ``np.random.seed()`` (and the
  stdlib ``random`` module) draw from mutable process-global state;
  any import-order change reshuffles every draw. Entry points must take
  an explicit ``seed``/``Generator`` and thread it through
  (``np.random.default_rng(seed)`` is the constructor, so it is allowed);
* **wall clock** — ``time.time()`` / ``datetime.now()`` smuggle real
  time into simulated time;
* **unordered-set iteration** — ``for r in {…}`` or ``for r in set(a) |
  set(b)`` feeding an event queue makes tie-breaking depend on hash
  seeds. Iterate ``sorted(...)`` instead (the established idiom, cf.
  ``simcore.trace`` and ``engine.generation``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, ModuleInfo, own_nodes

__all__ = ["SimDeterminismChecker"]

#: np.random attributes that construct explicitly-seeded generators.
_SEEDED_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

_WALL_CLOCK_TIME = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})


def _is_np_random(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))


def _is_setish(node: ast.AST, set_names: set[str]) -> bool:
    """Whether an expression evaluates to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_setish(node.left, set_names)
                or _is_setish(node.right, set_names))
    return False


class SimDeterminismChecker(Checker):
    code = "RP003"
    name = "sim-determinism"
    description = (
        "no global RNG, wall-clock reads, or unordered-set iteration in "
        "simulation code (replays must be bit-for-bit)"
    )
    packages = ("repro.simcore", "repro.engine", "repro.fleet",
                "repro.autoscale", "repro.scenarios")

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_calls(mod)
        yield from self._check_set_iteration(mod)

    # -- RNG and wall clock ------------------------------------------------

    def _check_calls(self, mod: ModuleInfo) -> Iterator[Finding]:
        imports_random = any(
            isinstance(n, ast.Import)
            and any(a.name == "random" for a in n.names)
            for n in ast.walk(mod.tree)
        )
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            recv = func.value
            # np.random.<draw>() — process-global RNG state.
            if _is_np_random(recv) and func.attr not in _SEEDED_CONSTRUCTORS:
                yield self.finding(mod, node, (
                    f"`np.random.{func.attr}` uses the process-global "
                    f"RNG: draws depend on import order and everything "
                    f"drawn before — take an explicit seed and use "
                    f"`np.random.default_rng(seed)`"
                ))
            # stdlib random.<draw>() — same problem.
            elif (imports_random and isinstance(recv, ast.Name)
                    and recv.id == "random" and func.attr != "Random"):
                yield self.finding(mod, node, (
                    f"stdlib `random.{func.attr}` uses the process-global "
                    f"RNG — use a seeded `np.random.default_rng(seed)` "
                    f"(or `random.Random(seed)`) instead"
                ))
            # time.time() / time.time_ns().
            elif (isinstance(recv, ast.Name) and recv.id == "time"
                    and func.attr in _WALL_CLOCK_TIME):
                yield self.finding(mod, node, (
                    f"`time.{func.attr}()` reads the wall clock: simulated "
                    f"time must come from the event loop, never the host"
                ))
            # datetime.now() / datetime.datetime.now() / date.today().
            elif func.attr in _WALL_CLOCK_DATETIME and (
                    (isinstance(recv, ast.Name)
                     and recv.id in ("datetime", "date"))
                    or (isinstance(recv, ast.Attribute)
                        and recv.attr in ("datetime", "date"))):
                yield self.finding(mod, node, (
                    f"`datetime .{func.attr}()` reads the wall clock — "
                    f"replays would never be bit-for-bit; timestamp "
                    f"*outside* the simulation if needed"
                ))

    # -- unordered iteration -----------------------------------------------

    def _check_set_iteration(self, mod: ModuleInfo) -> Iterator[Finding]:
        # Each function body is its own scope for set-name tracking; the
        # module (with class bodies) is one more. Nested defs are not
        # descended into from the enclosing scope, so no node is visited
        # twice and local bindings stay local.
        scopes: list[ast.AST] = [mod.tree] + [
            n for n in ast.walk(mod.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            nodes = list(own_nodes(scope))
            set_names: set[str] = set()
            for node in nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name) \
                        and _is_setish(node.value, set_names):
                    set_names.add(node.targets[0].id)
            for node in nodes:
                iters: list[ast.AST] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(g.iter for g in node.generators)
                for it in iters:
                    if _is_setish(it, set_names):
                        yield self.finding(mod, it, (
                            "iterates an unordered set "
                            f"(`{ast.unparse(it)[:50]}`): order depends "
                            "on hash seeding, so anything it feeds — "
                            "event queues, schedulers, reports — stops "
                            "replaying bit-for-bit; wrap in `sorted(...)`"
                        ))
