"""RP006: acquire/release discipline for refcounted KV resources.

:class:`repro.model.paged_kv.BlockAllocator` hands out block references
through ``alloc()``/``share()`` and takes them back one ``free()`` at a
time; :meth:`PagedKVCache.fork` mints a whole child cache whose blocks
stay alive until *its* ``free()``. The dedup accounting the prefix-
sharing stack reports (``kv_blocks_saved``, refcounts, peak pool
occupancy) is only as good as this pairing: a code path that drops
a reference without freeing it strands blocks in the pool forever, and
a double release corrupts a *different* owner's refcount.

The rule tracks, per function, every local bound to an acquire call —
``x = <recv>.alloc()``, ``x = <recv>.fork(...)``, ``x = <recv>.share(b)``
— and symbolically walks the function's branches. Each path must end
with the obligation either

* **released** — ``x.free()``, ``<recv>.free(x)``, or ``x`` passed to a
  helper whose project summary says it frees that parameter (one level
  of the call graph, the "follow one level of helpers" contract); or
* **escaped** — returned, yielded, stored into an attribute, container
  or collection, or handed to a call that keeps it: ownership moved,
  some other scope now carries the obligation.

A path that reaches function end (or a ``return`` not mentioning ``x``)
with the obligation still live is a **leak**, reported at the acquire
site; a release on a path where a release may already have happened is
a **double release**, reported at the second ``free``. A bare
``<recv>.alloc()``/``.fork()`` statement whose result is discarded is a
leak outright. Exception exits (``raise``) end a path without a verdict
— exceptional cleanup is the allocator's double-free guard's business.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, ProjectChecker
from ..project import FunctionSummary, ModuleSymbols, ProjectInfo, dotted_name

__all__ = ["ResourcePairChecker"]

#: methods that mint a tracked reference when their result is bound
_ACQUIRES = frozenset({"alloc", "fork", "share"})
#: acquire methods whose *discarded* result is a leak outright (a bare
#: ``.share(b)`` statement is the add-a-reference idiom and stays legal)
_DISCARD_LEAKS = frozenset({"alloc", "fork"})

_LIVE, _RELEASED, _ESCAPED = "live", "released", "escaped"


def _acquire_attr(value: ast.expr) -> str | None:
    if (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _ACQUIRES):
        return value.func.attr
    return None


class _FuncState:
    """Mutable path state: obligation name -> set of possible states."""

    def __init__(self) -> None:
        self.states: dict[str, set[str]] = {}
        self.dead = False

    def copy(self) -> "_FuncState":
        out = _FuncState()
        out.states = {k: set(v) for k, v in self.states.items()}
        out.dead = self.dead
        return out

    def merge(self, other: "_FuncState") -> None:
        if other.dead:
            return
        if self.dead:
            self.states = other.states
            self.dead = False
            return
        for name, states in other.states.items():
            self.states.setdefault(name, set()).update(states)


class ResourcePairChecker(ProjectChecker):
    code = "RP006"
    name = "resource-pair-discipline"
    description = (
        "every BlockAllocator alloc/share and PagedKVCache fork must be "
        "freed or ownership-transferred on every code path; no path may "
        "release twice"
    )
    packages = ("repro.model", "repro.engine", "repro.fleet")

    def check_project(self, project: ProjectInfo) -> Iterator[Finding]:
        for symbols in project.symbols.values():
            if not self.applies_to(symbols.mod):
                continue
            for cls_name, summary in symbols.summaries():
                yield from self._check_function(
                    project, symbols, cls_name, summary)

    def _check_function(self, project: ProjectInfo, symbols: ModuleSymbols,
                        cls_name: str | None,
                        summary: FunctionSummary) -> Iterator[Finding]:
        mod = symbols.mod
        findings: list[Finding] = []
        flagged: set[str] = set()          # one verdict per obligation
        acquires: dict[str, ast.AST] = {}  # obligation -> acquire node
        captured = _captured_names(summary.node)

        def frees_via_helper(call: ast.Call) -> set[str]:
            """Tracked names this call releases through a helper summary."""
            raw = dotted_name(call.func)
            if raw is None:
                return set()
            callee = project.resolve(symbols.module, raw, cls=cls_name)
            if not isinstance(callee, FunctionSummary) \
                    or not callee.frees_params:
                return set()
            out: set[str] = set()
            positional = callee.positional()
            if positional and positional[0].name in ("self", "cls") \
                    and isinstance(call.func, ast.Attribute):
                positional = positional[1:]
            for arg, param in zip(call.args, positional):
                if isinstance(arg, ast.Name) and param.name in callee.frees_params:
                    out.add(arg.id)
            for kw in call.keywords:
                if isinstance(kw.value, ast.Name) \
                        and kw.arg in callee.frees_params:
                    out.add(kw.value.id)
            return out

        def leak(name: str, why: str) -> None:
            if name in flagged:
                return
            flagged.add(name)
            attr = _acquire_attr_of(acquires[name])
            findings.append(self.finding(mod, acquires[name], (
                f"`{name}` (from `.{attr}(...)`) may leak: {why} without "
                f"`free()` or an ownership transfer — refcounted blocks "
                f"stranded in the pool corrupt dedup accounting"
            )))

        def double(name: str, node: ast.AST) -> None:
            if name in flagged:
                return
            flagged.add(name)
            findings.append(self.finding(mod, node, (
                f"`{name}` may already be released on a prior path when "
                f"this `free` runs: a double release decrements another "
                f"owner's refcount"
            )))

        def releases_in(stmt: ast.stmt, state: _FuncState) -> set[str]:
            """Names this statement releases (direct free or helper)."""
            out: set[str] = set()
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "free":
                    recv = node.func.value
                    if isinstance(recv, ast.Name) and recv.id in state.states \
                            and not node.args:
                        out.add(recv.id)
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id in state.states:
                            out.add(arg.id)
                else:
                    out |= {n for n in frees_via_helper(node)
                            if n in state.states}
            return out

        def escapes_in(stmt: ast.stmt, state: _FuncState,
                       released: set[str]) -> set[str]:
            """Tracked names this statement passes ownership of."""
            out: set[str] = set()
            skip_tests = []
            if isinstance(stmt, (ast.If, ast.While)):
                skip_tests = list(ast.walk(stmt.test))
            for node in ast.walk(stmt):
                if node in skip_tests:
                    continue
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                        and node.id in state.states and node.id not in released:
                    out.add(node.id)
            return out

        def exec_stmt(stmt: ast.stmt, state: _FuncState) -> None:
            if state.dead:
                return
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                return  # nested defs handled via captured-names escape
            if isinstance(stmt, ast.If):
                then_state = state.copy()
                else_state = state.copy()
                _apply_uses(stmt, then_state, header_only=True)
                _apply_uses(stmt, else_state, header_only=True)
                for s in stmt.body:
                    exec_stmt(s, then_state)
                for s in stmt.orelse:
                    exec_stmt(s, else_state)
                state.states = {}
                state.dead = True
                state.merge(then_state)
                state.merge(else_state)
                return
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                body_state = state.copy()
                for s in stmt.body:
                    exec_stmt(s, body_state)
                for s in stmt.orelse:
                    exec_stmt(s, body_state)
                state.merge(body_state)  # 0-or-more iterations
                return
            if isinstance(stmt, ast.Try):
                for s in stmt.body:
                    exec_stmt(s, state)
                pre = state.copy()
                for handler in stmt.handlers:
                    h_state = pre.copy()
                    for s in handler.body:
                        exec_stmt(s, h_state)
                    state.merge(h_state)
                for s in stmt.finalbody:
                    exec_stmt(s, state)
                return
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                _apply_uses(stmt, state, header_only=True)
                for s in stmt.body:
                    exec_stmt(s, state)
                return
            if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
                state.dead = True
                return
            if isinstance(stmt, ast.Return):
                _apply_uses(stmt, state)
                for name, states in state.states.items():
                    if _LIVE in states and name not in flagged:
                        leak(name, f"the path returning at line "
                                   f"{stmt.lineno} drops it")
                state.dead = True
                return
            # simple statement: releases, then acquires, then escapes
            _apply_uses(stmt, state)

        def _apply_uses(stmt: ast.stmt, state: _FuncState,
                        header_only: bool = False) -> None:
            scan: ast.stmt | ast.expr = stmt
            if header_only:
                if isinstance(stmt, (ast.If, ast.While)):
                    return  # branch tests neither release nor escape
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    return
            released = releases_in(scan, state)
            for name in released:
                if _RELEASED in state.states[name]:
                    double(name, stmt)
                state.states[name] = {_RELEASED}
            # new obligations minted by this statement
            bound: set[str] = set()
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                attr = _acquire_attr(value) if value is not None else None
                if attr is not None and len(targets) == 1 \
                        and isinstance(targets[0], ast.Name):
                    name = targets[0].id
                    if name not in captured:
                        acquires[name] = value
                        state.states[name] = {_LIVE}
                        bound.add(name)
            elif isinstance(stmt, ast.Expr):
                attr = _acquire_attr(stmt.value)
                if attr in _DISCARD_LEAKS:
                    acquires[f"<discarded:{stmt.lineno}>"] = stmt.value
                    leak(f"<discarded:{stmt.lineno}>",
                         "its result is discarded")
            for name in escapes_in(scan, state, released | bound):
                state.states[name] = {_ESCAPED}

        body = getattr(summary.node, "body", [])
        state = _FuncState()
        for stmt in body:
            exec_stmt(stmt, state)
        if not state.dead:
            for name, states in state.states.items():
                if _LIVE in states:
                    leak(name, "a path reaches the end of "
                               f"`{summary.qualname}`")
        yield from findings


def _acquire_attr_of(node: ast.AST) -> str:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return "alloc"


def _captured_names(func: ast.AST) -> set[str]:
    """Names referenced inside nested defs/lambdas — closures keep them
    alive, so tracking their ownership locally would be wrong."""
    out: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not func:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    out.add(sub.id)
    return out
