"""RP005: an instance-lifetime memo key must cover every input.

PR 9's prefix-sharing work had exactly this bug: ``DenseStepCost``
memoized prompt pricing under ``("prompt", plen, riders, kv)`` and the
new ``shared_prefix_len`` input was *read* by the cached computation but
*absent* from the key — two requests with the same prompt length and
different shared prefixes silently priced identically. The memo had to
grow ``spl``. This rule mechanizes that review.

A **cache-write site** is ``self._memo[key] = ...`` (chained
``got = self._memo[key] = ...`` included) where the attribute is bound
to a fresh ``{}``/``dict()`` in ``__init__`` and its name says cache
(``memo``/``cache``). For each site the checker compares two source
sets, both expressed as *atomic inputs* — parameters, ``param.attr``
reads (``getattr(p, "lit")`` counts), and mutable ``self`` attributes:

* what the **key** covers: the sources of every key component, with
  locals resolved through their defining assignments (``riders =
  state.batch`` makes ``state.batch`` covered by a key containing
  ``riders``);
* what the **miss computation** reads: every expression in the
  innermost ``if`` body holding the store (the ``if got is None:``
  idiom) or, failing that, the stored value itself. Calls to sibling
  methods pull in that method's own ``self`` attribute reads — one
  level of the call graph, enough for a memo whose miss calls a
  pricing hook like ``self._price``.

A miss-read input that the key does not cover is flagged at the store.
``self`` attributes assigned only in ``__init__`` are exempt — they are
per-instance constants, and the memo is per-instance too; attributes
the class mutates elsewhere are not.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core import Finding, ProjectChecker
from ..project import ClassSummary, ModuleSymbols, ProjectInfo

__all__ = ["MemoKeyChecker"]

#: attribute names that read as instance-lifetime caches
_CACHE_NAME_RE = re.compile(r"(?:^|_)(?:memo|cache)s?(?:_|$)|(?:memo|cache)$")

# an atomic input: ("param", p) | ("pattr", p, a) | ("self", a)
Source = tuple


def _is_cache_attr(name: str) -> bool:
    return bool(_CACHE_NAME_RE.search(name)) and "memory" not in name


class _Taint:
    """Maps local names to the atomic inputs they were computed from."""

    def __init__(self, cls: ClassSummary, symbols: ModuleSymbols,
                 params: set[str]) -> None:
        self.cls = cls
        self.symbols = symbols
        self.params = params
        self.locals: dict[str, set[Source]] = {}

    def assign(self, target: ast.expr, value: ast.expr) -> None:
        sources = self.sources(value)
        if isinstance(target, ast.Name):
            self.locals[target.id] = sources
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:  # coarse: every element gets the union
                if isinstance(elt, ast.Name):
                    self.locals[elt.id] = set(sources)

    def sources(self, node: ast.expr | None) -> set[Source]:
        out: set[Source] = set()
        if node is None:
            return out
        self._collect(node, out)
        return out

    def _collect(self, node: ast.AST, out: set[Source]) -> None:
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                out |= self.locals[node.id]
            elif node.id in self.params:
                out.add(("param", node.id))
            return
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name):
                if base.id == "self":
                    out.add(("self", node.attr))
                    return
                if base.id in self.params:
                    out.add(("pattr", base.id, node.attr))
                    return
            self._collect(base, out)  # attr of a local/expression: coarse
            return
        if isinstance(node, ast.Call):
            self._call_sources(node, out)
            return
        for child in ast.iter_child_nodes(node):
            self._collect(child, out)

    def _call_sources(self, node: ast.Call, out: set[Source]) -> None:
        # getattr(p, "lit"[, default]) is an attribute read in disguise
        if (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            base = node.args[0].id
            if base in self.params:
                out.add(("pattr", base, node.args[1].value))
            else:
                self._collect(node.args[0], out)
            for extra in node.args[2:]:
                self._collect(extra, out)
            return
        # self.method(...): one level of summary — the method's own
        # self-attribute reads join the sources alongside the arguments
        if (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in self.cls.methods):
            for attr in self.cls.methods[node.func.attr].self_attr_reads:
                out.add(("self", attr))
        else:
            self._collect(node.func, out)
        for arg in node.args:
            self._collect(arg, out)
        for kw in node.keywords:
            self._collect(kw.value, out)


class MemoKeyChecker(ProjectChecker):
    code = "RP005"
    name = "memo-key-completeness"
    description = (
        "a self._memo[key]-style cache key must cover every parameter, "
        "param attribute and mutable self attribute the cached "
        "computation reads"
    )

    def check_project(self, project: ProjectInfo) -> Iterator[Finding]:
        for symbols in project.symbols.values():
            for cls in symbols.classes.values():
                for method in cls.methods.values():
                    yield from self._check_method(symbols, cls, method)

    def _check_method(self, symbols: ModuleSymbols, cls: ClassSummary,
                      method) -> Iterator[Finding]:
        node = method.node
        params = {p.name for p in method.params} - {"self", "cls"}
        stores = _cache_stores(node, cls)
        if not stores:
            return
        taint = _Taint(cls, symbols, params)
        mod = symbols.mod
        # Replay assignments in source order, checking each store as it
        # is reached so the taint state matches the program point.
        for stmt, store, cache_attr, key_expr, miss_scope in _walk_schedule(
                node, stores):
            if store is None:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        taint.assign(target, stmt.value)
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    taint.assign(stmt.target, stmt.value)
                elif isinstance(stmt, ast.AugAssign):
                    if isinstance(stmt.target, ast.Name):
                        taint.locals.setdefault(stmt.target.id, set()).update(
                            taint.sources(stmt.value))
                continue
            key_sources = taint.sources(key_expr)
            miss_sources: set[Source] = set()
            for expr in miss_scope:
                miss_sources |= taint.sources(expr)
            missing = sorted(
                _describe(s) for s in miss_sources
                if not _covered(s, key_sources, cls))
            if missing:
                yield self.finding(mod, store, (
                    f"cache `self.{cache_attr}` key omits "
                    f"{', '.join(f'`{m}`' for m in missing)} — the "
                    f"memoized computation reads "
                    f"{'it' if len(missing) == 1 else 'them'}, so two "
                    f"calls differing only there would collide on one "
                    f"cached value (add to the key tuple, or hoist the "
                    f"read out of the miss path)"
                ))


def _cache_stores(func: ast.AST, cls: ClassSummary) -> dict[ast.Assign, tuple]:
    """Map each cache-write Assign to (cache_attr, key_expr)."""
    out: dict[ast.Assign, tuple] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == "self"):
                continue
            attr = target.value.attr
            if attr in cls.dict_attrs and _is_cache_attr(attr):
                out[node] = (attr, target.slice)
    return out


def _walk_schedule(func: ast.AST, stores: dict[ast.Assign, tuple]):
    """Yield ``(stmt, store, cache_attr, key_expr, miss_scope)`` in
    source order: plain statements carry ``store=None``; a cache-write
    statement carries its store info and the expressions of its miss
    scope (the innermost enclosing ``if`` body, else the stored value).
    """

    def miss_exprs(if_body: list[ast.stmt] | None,
                   store: ast.Assign) -> list[ast.expr]:
        if if_body is None:
            return [store.value]
        out: list[ast.expr] = []
        for stmt in if_body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    if sub.value is not None:
                        out.append(sub.value)
                elif isinstance(sub, (ast.Expr, ast.Return)):
                    if sub.value is not None:
                        out.append(sub.value)
        return out

    def visit(stmts: list[ast.stmt], enclosing_if: list[ast.stmt] | None):
        for stmt in stmts:
            if stmt in stores:
                attr, key = stores[stmt]
                yield stmt, stmt, attr, key, miss_exprs(enclosing_if, stmt)
                continue
            yield stmt, None, None, None, None
            if isinstance(stmt, ast.If):
                yield from visit(stmt.body, stmt.body)
                yield from visit(stmt.orelse, enclosing_if)
            elif isinstance(stmt, (ast.For, ast.While)):
                yield from visit(stmt.body, None)
                yield from visit(stmt.orelse, None)
            elif isinstance(stmt, ast.With):
                yield from visit(stmt.body, enclosing_if)
            elif isinstance(stmt, ast.Try):
                yield from visit(stmt.body, None)
                for handler in stmt.handlers:
                    yield from visit(handler.body, None)
                yield from visit(stmt.finalbody, None)

    yield from visit(getattr(func, "body", []), None)


def _covered(source: Source, key_sources: set[Source],
             cls: ClassSummary) -> bool:
    if source in key_sources:
        return True
    kind = source[0]
    if kind == "pattr":
        # whole object in the key covers all its attributes
        return ("param", source[1]) in key_sources
    if kind == "self":
        attr = source[1]
        if _is_cache_attr(attr):
            return True  # reading a sibling memo is not an input
        if attr in cls.init_attrs or attr not in cls.mutated_attrs:
            return True  # per-instance constant (or unknown/inherited)
        return False
    return False


def _describe(source: Source) -> str:
    if source[0] == "param":
        return source[1]
    if source[0] == "pattr":
        return f"{source[1]}.{source[2]}"
    return f"self.{source[1]}"
