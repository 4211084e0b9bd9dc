"""Whole-program layer for repro-lint: the :class:`ProjectInfo` pass.

The per-module checkers (RP001–RP004) see one :class:`ModuleInfo` at a
time, so the bug classes that actually bit this repo — a memo cache
whose key forgot a new input, a KV block acquired in one helper and
freed (or not) in another, a ``*_bytes`` return flowing into a ``*_s``
parameter two modules away, a paired analytical/functional seam whose
kwarg defaults drifted apart — were invisible to them. This module
walks the *whole* linted tree once and builds the shared
infrastructure those rules need:

* a **project symbol table** — every top-level function and class (with
  its methods), addressable as ``module:qualname``;
* an **import graph** — which linted module imports which, with the
  local-name → dotted-target bindings needed to resolve calls;
* a **call graph** — one edge per resolved call site, including
  ``self.method`` dispatch within a class;
* **per-function summaries** — parameters (with unparsed defaults),
  ``self`` attributes read and written, parameters the body calls
  ``.free()`` on, and the unit the function returns (inferred from its
  name suffix or a unanimous vote of its ``return`` expressions).

Checkers subclass :class:`repro.lint.core.ProjectChecker` and receive
the built :class:`ProjectInfo` in ``check_project``. The build is one
extra AST walk per module — linear in the tree, no fixpoints — so the
whole-program pass stays well inside the lint wall-clock budget.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from .core import ModuleInfo
from .checkers.unit_consistency import unit_of_name

__all__ = [
    "ClassSummary",
    "FunctionSummary",
    "ModuleSymbols",
    "ParamInfo",
    "ProjectInfo",
]


@dataclass(frozen=True)
class ParamInfo:
    """One parameter of a summarized function."""

    name: str
    kind: str             # "pos", "kwonly", "vararg" or "kwarg"
    default: str | None   # unparsed default expression; None = required


@dataclass
class FunctionSummary:
    """What the project pass knows about one function or method."""

    module: str
    qualname: str                     # "f" or "Class.method"
    lineno: int
    node: ast.AST = field(repr=False)
    params: tuple[ParamInfo, ...] = ()
    #: parameter names the body calls ``.free()`` on (``p.free()``,
    #: ``p.x.free()`` or ``anything.free(p)``) — the resource-pair
    #: checker treats passing an obligation here as a release.
    frees_params: frozenset[str] = frozenset()
    self_attr_reads: frozenset[str] = frozenset()
    self_attr_writes: frozenset[str] = frozenset()
    #: unit the function returns, per the suffix convention: the
    #: function's own name wins, else a unanimous vote of its returns.
    return_unit: str | None = None
    #: raw dotted call targets as written (``self._pass``, ``np.full``)
    calls: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def ref(self) -> str:
        return f"{self.module}:{self.qualname}"

    def param_named(self, name: str) -> ParamInfo | None:
        for p in self.params:
            if p.name == name:
                return p
        return None

    def positional(self) -> list[ParamInfo]:
        return [p for p in self.params if p.kind == "pos"]


@dataclass
class ClassSummary:
    """One class: its methods plus attribute-mutation discipline."""

    module: str
    name: str
    lineno: int
    methods: dict[str, FunctionSummary] = field(default_factory=dict)
    #: ``self`` attributes assigned in ``__init__`` only — per-instance
    #: constants as far as any instance-lifetime cache is concerned
    init_attrs: set[str] = field(default_factory=set)
    #: ``self`` attributes assigned outside ``__init__`` — mutable state
    mutated_attrs: set[str] = field(default_factory=set)
    #: attributes bound to a fresh ``{}``/``dict()`` in ``__init__`` —
    #: the candidates for instance-lifetime memo caches
    dict_attrs: set[str] = field(default_factory=set)


@dataclass
class ModuleSymbols:
    """Symbol table of one linted module."""

    module: str
    mod: ModuleInfo
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: local name -> dotted target, e.g. ``{"np": "numpy",
    #: "simulate_serving": "repro.engine.serving_sim.simulate_serving"}``
    imports: dict[str, str] = field(default_factory=dict)


def _params_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[ParamInfo, ...]:
    a = node.args
    out: list[ParamInfo] = []
    positional = list(a.posonlyargs) + list(a.args)
    defaults: list[ast.expr | None] = [None] * (
        len(positional) - len(a.defaults)) + list(a.defaults)
    for arg, default in zip(positional, defaults):
        out.append(ParamInfo(arg.arg, "pos",
                             None if default is None else ast.unparse(default)))
    if a.vararg is not None:
        out.append(ParamInfo(a.vararg.arg, "vararg", None))
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        out.append(ParamInfo(arg.arg, "kwonly",
                             None if default is None else ast.unparse(default)))
    if a.kwarg is not None:
        out.append(ParamInfo(a.kwarg.arg, "kwarg", None))
    return tuple(out)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` as text for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _own_nodes(func: ast.AST):
    """Walk ``func``'s body without descending into nested defs/lambdas
    (their reads and returns are their own)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _frees_params(func: ast.AST, param_names: set[str]) -> frozenset[str]:
    freed: set[str] = set()
    for node in _own_nodes(func):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "free"):
            continue
        # p.free() / p.anything.free(): the receiver chain's base
        base = node.func.value
        while isinstance(base, ast.Attribute):
            base = base.value
        if isinstance(base, ast.Name) and base.id in param_names:
            freed.add(base.id)
        # anything.free(p)
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id in param_names:
                freed.add(arg.id)
    return frozenset(freed)


def _return_unit(node: ast.FunctionDef | ast.AsyncFunctionDef,
                 registry: dict[str, str]) -> str | None:
    declared = unit_of_name(node.name, registry)
    if declared is not None:
        return declared
    units: set[str] = set()
    saw_return = False
    for sub in _own_nodes(node):
        if not isinstance(sub, ast.Return) or sub.value is None:
            continue
        saw_return = True
        value = sub.value
        got = None
        if isinstance(value, ast.Name):
            got = unit_of_name(value.id, registry)
        elif isinstance(value, ast.Attribute):
            got = unit_of_name(value.attr, registry)
        if got is None:
            return None  # any un-inferable return spoils unanimity
        units.add(got)
    return units.pop() if saw_return and len(units) == 1 else None


def _summarize_function(
    module: str,
    qualname: str,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    registry: dict[str, str],
) -> FunctionSummary:
    param_names = {a.arg for a in [*node.args.posonlyargs, *node.args.args,
                                   *node.args.kwonlyargs]}
    reads: set[str] = set()
    writes: set[str] = set()
    calls: list[str] = []
    for sub in _own_nodes(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and sub.value.id == "self":
            if isinstance(sub.ctx, ast.Store):
                writes.add(sub.attr)
            else:
                reads.add(sub.attr)
        elif isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name is not None:
                calls.append(name)
    return FunctionSummary(
        module=module,
        qualname=qualname,
        lineno=node.lineno,
        node=node,
        params=_params_of(node),
        frees_params=_frees_params(node, param_names),
        self_attr_reads=frozenset(reads),
        self_attr_writes=frozenset(writes),
        return_unit=_return_unit(node, registry),
        calls=tuple(calls),
    )


def _is_fresh_dict(value: ast.expr) -> bool:
    return (isinstance(value, ast.Dict) and not value.keys) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id == "dict" and not value.args and not value.keywords)


def _summarize_class(module: str, node: ast.ClassDef,
                     registry: dict[str, str]) -> ClassSummary:
    cls = ClassSummary(module=module, name=node.name, lineno=node.lineno)
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        summary = _summarize_function(
            module, f"{node.name}.{stmt.name}", stmt, registry)
        cls.methods[stmt.name] = summary
        if stmt.name == "__init__":
            cls.init_attrs |= summary.self_attr_writes
            for sub in _own_nodes(stmt):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(sub, ast.Assign):
                    targets, value = sub.targets, sub.value
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    targets, value = [sub.target], sub.value
                if value is None or not _is_fresh_dict(value):
                    continue
                for t in targets:
                    if isinstance(t, ast.Attribute) \
                            and isinstance(t.value, ast.Name) \
                            and t.value.id == "self":
                        cls.dict_attrs.add(t.attr)
        else:
            cls.mutated_attrs |= summary.self_attr_writes
    cls.init_attrs -= cls.mutated_attrs
    return cls


def _resolve_imports(mod: ModuleInfo) -> dict[str, str]:
    """Local name -> dotted target for every top-level import."""
    out: dict[str, str] = {}
    package = mod.module if mod.is_package_init else \
        mod.module.rsplit(".", 1)[0] if "." in mod.module else ""
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                out[local] = target
                if alias.asname is None and "." in alias.name:
                    # `import a.b` also makes `a.b.f` resolvable
                    out[alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".") if package else []
                if node.level > 1:
                    parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts)
            else:
                base = ""
            target_mod = node.module or ""
            if node.level:
                target_mod = f"{base}.{target_mod}" if target_mod else base
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out[local] = f"{target_mod}.{alias.name}" if target_mod \
                    else alias.name
    return out


@dataclass
class ProjectInfo:
    """The whole-program view handed to :class:`ProjectChecker` rules."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    symbols: dict[str, ModuleSymbols] = field(default_factory=dict)
    #: linted module -> linted modules it imports from
    import_graph: dict[str, set[str]] = field(default_factory=dict)
    #: ``module:qualname`` -> resolved callee refs (same format)
    call_graph: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, mods: Iterable[ModuleInfo]) -> "ProjectInfo":
        info = cls()
        for mod in mods:
            registry = {k.lower(): v for k, v in mod.unit_notes.items()}
            symbols = ModuleSymbols(module=mod.module, mod=mod,
                                    imports=_resolve_imports(mod))
            for node in mod.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    symbols.functions[node.name] = _summarize_function(
                        mod.module, node.name, node, registry)
                elif isinstance(node, ast.ClassDef):
                    symbols.classes[node.name] = _summarize_class(
                        mod.module, node, registry)
            # Last writer wins on duplicate module names (fixtures named
            # identically); real trees have unique dotted names.
            info.modules[mod.module] = mod
            info.symbols[mod.module] = symbols
        info._link()
        return info

    def _link(self) -> None:
        for module, symbols in self.symbols.items():
            targets = set()
            for dotted in symbols.imports.values():
                owner = self._owning_module(dotted)
                if owner is not None and owner != module:
                    targets.add(owner)
            self.import_graph[module] = targets
            for summary in self._all_summaries(symbols):
                edges = set()
                cls_name = summary.qualname.split(".")[0] \
                    if "." in summary.qualname else None
                for raw in summary.calls:
                    callee = self.resolve_call_name(module, raw,
                                                    cls=cls_name)
                    if callee is not None:
                        edges.add(callee.ref)
                self.call_graph[summary.ref] = edges

    @staticmethod
    def _all_summaries(symbols: ModuleSymbols):
        yield from symbols.functions.values()
        for cls in symbols.classes.values():
            yield from cls.methods.values()

    def _owning_module(self, dotted: str) -> str | None:
        """The linted module a dotted target lives in (longest prefix)."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self.symbols:
                return candidate
        return None

    def resolve_ref(self, ref: str) -> FunctionSummary | None:
        """Look up ``"module:func"`` or ``"module:Class.method"``."""
        module, _, qualname = ref.partition(":")
        symbols = self.symbols.get(module)
        if symbols is None:
            return None
        if "." in qualname:
            cls_name, _, meth = qualname.partition(".")
            cls = symbols.classes.get(cls_name)
            return cls.methods.get(meth) if cls else None
        return symbols.functions.get(qualname)

    def class_of(self, module: str, name: str) -> ClassSummary | None:
        symbols = self.symbols.get(module)
        return symbols.classes.get(name) if symbols else None

    def resolve_call_name(
        self, module: str, raw: str, *, cls: str | None = None,
    ) -> FunctionSummary | None:
        """Resolve a raw dotted call target written inside ``module``.

        Handles ``self.method`` (within ``cls``), bare local or imported
        functions, and ``alias.func`` through module imports. Anything
        else — attribute calls on arbitrary objects, builtins, dynamic
        dispatch — resolves to None; the checkers stay conservative.
        """
        symbols = self.symbols.get(module)
        if symbols is None:
            return None
        head, _, rest = raw.partition(".")
        if head == "self" and cls is not None and rest and "." not in rest:
            owner = symbols.classes.get(cls)
            if owner and rest in owner.methods:
                return owner.methods[rest]
            return None
        if not rest:
            if raw in symbols.functions:
                return symbols.functions[raw]
            dotted = symbols.imports.get(raw)
            if dotted is not None:
                return self._function_at(dotted)
            return None
        # alias.func / package.module.func
        dotted = symbols.imports.get(head)
        if dotted is not None:
            return self._function_at(f"{dotted}.{rest}")
        return self._function_at(raw)

    def _function_at(self, dotted: str) -> FunctionSummary | None:
        owner = self._owning_module(dotted)
        if owner is None:
            return None
        tail = dotted[len(owner):].lstrip(".")
        if not tail or "." in tail:
            return None  # a module itself, or attr-of-attr: not a function
        return self.symbols[owner].functions.get(tail)
