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
  its methods), addressable as ``module:qualname``; a class records
  whether it is a dataclass, and its fields if so;
* an **import graph** — which linted module imports which, with the
  local-name → dotted-target bindings needed to resolve calls;
* **call sites** — every call at any depth: last name, positional
  count, keyword names, ``*``/``**`` spread, and the function or class
  it resolves to (``self.method``, local and imported names, re-exports,
  a class as its constructor). A local bound once to ``x.attr`` or
  ``getattr(x, "attr")`` and then called is a call of ``attr``;
* **per-module reads** — identifiers loaded (``Name``, ``Attribute``,
  constant ``getattr``) with their lines, attribute loads, string
  constants, and the names whose dataclass fields the code walks whole;
* **per-function summaries** — parameters (with unparsed defaults),
  ``self`` attributes read and written, parameters the body calls
  ``.free()`` on, and the unit the function returns (inferred from its
  name suffix or a unanimous vote of its ``return`` expressions).

Checkers subclass :class:`repro.lint.core.ProjectChecker` and receive
the built :class:`ProjectInfo` in ``check_project``. The build walks
each module once whole and each function body once more — linear in
the tree, no fixpoints — so the whole-program pass stays well inside
the lint wall-clock budget. ``tests/test_public_surface.py`` runs its
public-surface scans on the same build.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from .core import ModuleInfo, child_nodes, own_nodes
from .checkers.unit_consistency import unit_of_name

__all__ = [
    "CallSite",
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
    node: ast.ClassDef = field(repr=False)
    methods: dict[str, FunctionSummary] = field(default_factory=dict)
    #: ``self`` attributes assigned in ``__init__`` only — per-instance
    #: constants as far as any instance-lifetime cache is concerned
    init_attrs: set[str] = field(default_factory=set)
    #: ``self`` attributes assigned outside ``__init__`` — mutable state
    mutated_attrs: set[str] = field(default_factory=set)
    #: attributes bound to a fresh ``{}``/``dict()`` in ``__init__`` —
    #: the candidates for instance-lifetime memo caches
    dict_attrs: set[str] = field(default_factory=set)
    #: decorated ``@dataclass`` (bare, called, or ``dataclasses.dataclass``)
    dataclass: bool = False
    #: a dataclass's annotated fields, ``ClassVar`` ones excluded
    fields: tuple[str, ...] = ()

    @property
    def ref(self) -> str:
        return f"{self.module}:{self.name}"


@dataclass
class CallSite:
    """One call: what it passes, and what it resolves to."""

    #: dotted target as written (``self._pass``, ``np.full``), or the
    #: attribute a called local alias is bound to; None when the
    #: receiver is computed (``make().run()``)
    raw: str | None
    name: str                  # the callee's last name
    positional: int            # positional arguments, spreads excluded
    keywords: frozenset[str]
    spread: bool               # passes ``*args`` or ``**kwargs``
    cls: str | None = field(default=None, repr=False)  # enclosing class
    #: ``module:qualname`` of the function, method or class (a
    #: constructor call) the target resolves to; None when unresolved
    callee: str | None = None


# Calls and attributes that walk every field of the dataclass they get.
_FIELD_WALKERS = frozenset({"__dataclass_fields__", "fields", "asdict",
                            "astuple"})


@dataclass
class _Scope:
    """Bindings of one scope: a function, a class body or the module."""

    bound: dict[str, int] = field(default_factory=dict)
    #: local name -> (raw, name) of the attribute it is bound to
    aliases: dict[str, tuple[str | None, str]] = field(default_factory=dict)
    named_calls: list[CallSite] = field(default_factory=list)

    def close(self) -> None:
        """Turn calls of a local bound once to an attribute into calls
        of that attribute."""
        for site in self.named_calls:
            alias = self.aliases.get(site.raw)
            if alias is not None and self.bound.get(site.raw) == 1:
                site.raw, site.name = alias


def _attribute_target(node: ast.expr) -> tuple[str | None, str] | None:
    """``(raw, name)`` of ``x.attr`` or ``getattr(x, "attr", ...)``."""
    if isinstance(node, ast.Attribute):
        return dotted_name(node), node.attr
    if (isinstance(node, ast.Call) and len(node.args) >= 2
            and getattr(node.func, "id", None) == "getattr"
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        base, attr = dotted_name(node.args[0]), node.args[1].value
        return (None if base is None else f"{base}.{attr}"), attr
    return None


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
    #: every call in the module, nested ones included
    calls: list[CallSite] = field(default_factory=list)
    #: identifier -> lines the code reads it on: a ``Name`` or
    #: ``Attribute`` load, or the attribute of a constant ``getattr``
    reads: dict[str, list[int]] = field(default_factory=dict)
    #: attribute names the code loads, constant ``getattr`` included
    attr_loads: set[str] = field(default_factory=set)
    strings: set[str] = field(default_factory=set)
    #: names whose dataclass fields the code walks whole (``fields(X)``,
    #: ``X.__dataclass_fields__``); ``self`` counts as its class
    field_walks: set[str] = field(default_factory=set)

    def summaries(self):
        """(class name or None, summary) of each function and method."""
        for summary in self.functions.values():
            yield None, summary
        for cls in self.classes.values():
            for summary in cls.methods.values():
                yield cls.name, summary

    @classmethod
    def scan(cls, mod: ModuleInfo) -> "ModuleSymbols":
        """``mod``'s imports, call sites and reads, from one walk; the
        function and class summaries are :meth:`ProjectInfo.build`'s."""
        symbols, scope = cls(module=mod.module, mod=mod), _Scope()
        symbols._children(mod.tree, None, scope)
        scope.close()
        return symbols

    def _children(self, node: ast.AST, cls: str | None,
                  scope: _Scope) -> None:
        for child in child_nodes(node):
            self._visit(child, cls, scope)

    def _read(self, name: str, line: int, attribute: bool) -> None:
        self.reads.setdefault(name, []).append(line)
        if attribute:
            self.attr_loads.add(name)

    def _walked(self, target: ast.expr, cls: str | None) -> None:
        if isinstance(target, ast.Name):
            self.field_walks.add(
                cls if target.id == "self" and cls else target.id)

    def _visit(self, node: ast.AST, cls: str | None, scope: _Scope) -> None:
        kind = type(node)
        if kind is ast.Name:
            if isinstance(node.ctx, ast.Load):
                self._read(node.id, node.lineno, False)
            else:
                scope.bound[node.id] = scope.bound.get(node.id, 0) + 1
            return
        if kind is ast.Constant:
            if isinstance(node.value, str):
                self.strings.add(node.value)
            return
        if kind is ast.Attribute:
            if isinstance(node.ctx, ast.Load):
                self._read(node.attr, node.lineno, True)
                if node.attr == "__dataclass_fields__":
                    self._walked(node.value, cls)
        elif kind is ast.Call:
            self._call(node, cls, scope)
        elif kind in (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                      ast.ClassDef):
            inner = _Scope()
            if kind is ast.ClassDef:
                cls = node.name
            else:
                a = node.args
                for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                            a.vararg, a.kwarg):
                    if arg is not None:
                        inner.bound[arg.arg] = 1
            self._children(node, cls, inner)
            inner.close()
            return
        elif kind is ast.Assign:
            alias = _attribute_target(node.value)
            target = node.targets[0]
            if (alias is not None and len(node.targets) == 1
                    and isinstance(target, ast.Name)):
                scope.aliases[target.id] = alias
        elif kind is ast.Import or kind is ast.ImportFrom:
            self.imports.update(_import_bindings(node, self.mod))
        self._children(node, cls, scope)

    def _call(self, node: ast.Call, cls: str | None, scope: _Scope) -> None:
        got = _attribute_target(node)  # a constant getattr reads its attr
        if got is not None:
            self._read(got[1], node.lineno, True)
        func = node.func
        target = (func.id, func.id) if isinstance(func, ast.Name) \
            else _attribute_target(func)
        if target is None:
            return
        if target[1] in _FIELD_WALKERS and len(node.args) == 1:
            self._walked(node.args[0], cls)
        starred = sum(isinstance(a, ast.Starred) for a in node.args)
        site = CallSite(*target, positional=len(node.args) - starred,
                        keywords=frozenset(k.arg for k in node.keywords
                                           if k.arg),
                        spread=bool(starred) or any(
                            k.arg is None for k in node.keywords),
                        cls=cls)
        self.calls.append(site)
        if isinstance(func, ast.Name):
            scope.named_calls.append(site)


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


def _freed_by(call: ast.Call, param_names: set[str]) -> set[str]:
    """The parameters a ``.free()`` call releases."""
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "free"):
        return set()
    freed: set[str] = set()
    # p.free() / p.anything.free(): the receiver chain's base
    base = call.func.value
    while isinstance(base, ast.Attribute):
        base = base.value
    if isinstance(base, ast.Name) and base.id in param_names:
        freed.add(base.id)
    # anything.free(p)
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id in param_names:
            freed.add(arg.id)
    return freed


def _return_unit(name: str, returns: list[ast.expr],
                 registry: dict[str, str]) -> str | None:
    declared = unit_of_name(name, registry)
    if declared is not None:
        return declared
    units: set[str] = set()
    for value in returns:
        got = None
        if isinstance(value, ast.Name):
            got = unit_of_name(value.id, registry)
        elif isinstance(value, ast.Attribute):
            got = unit_of_name(value.attr, registry)
        if got is None:
            return None  # any un-inferable return spoils unanimity
        units.add(got)
    return units.pop() if len(units) == 1 else None


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
    freed: set[str] = set()
    returns: list[ast.expr] = []
    for sub in own_nodes(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and sub.value.id == "self":
            if isinstance(sub.ctx, ast.Store):
                writes.add(sub.attr)
            else:
                reads.add(sub.attr)
        elif isinstance(sub, ast.Call):
            freed |= _freed_by(sub, param_names)
        elif isinstance(sub, ast.Return) and sub.value is not None:
            returns.append(sub.value)
    return FunctionSummary(
        module=module,
        qualname=qualname,
        lineno=node.lineno,
        node=node,
        params=_params_of(node),
        frees_params=frozenset(freed),
        self_attr_reads=frozenset(reads),
        self_attr_writes=frozenset(writes),
        return_unit=_return_unit(node.name, returns, registry),
    )


def _is_fresh_dict(value: ast.expr) -> bool:
    return (isinstance(value, ast.Dict) and not value.keys) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id == "dict" and not value.args and not value.keywords)


def _summarize_class(module: str, node: ast.ClassDef,
                     registry: dict[str, str]) -> ClassSummary:
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in node.decorator_list]
    cls = ClassSummary(module=module, name=node.name, lineno=node.lineno,
                       node=node, dataclass=any(
                           getattr(d, "id", getattr(d, "attr", None))
                           == "dataclass" for d in decorators))
    for stmt in node.body:
        if cls.dataclass and isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and "ClassVar" not in ast.unparse(stmt.annotation):
            cls.fields += (stmt.target.id,)
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        summary = _summarize_function(
            module, f"{node.name}.{stmt.name}", stmt, registry)
        cls.methods[stmt.name] = summary
        if stmt.name == "__init__":
            cls.init_attrs |= summary.self_attr_writes
            for sub in own_nodes(stmt):
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


def _import_bindings(node: ast.Import | ast.ImportFrom, mod: ModuleInfo):
    """(local name, dotted target) of each name one import binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            yield local, target
            if alias.asname is None and "." in alias.name:
                # `import a.b` also makes `a.b.f` resolvable
                yield alias.name, alias.name
        return
    target_mod = node.module or ""
    if node.level:
        package = mod.module if mod.is_package_init else \
            mod.module.rpartition(".")[0]
        parts = package.split(".") if package else []
        if node.level > 1:
            parts = parts[: len(parts) - (node.level - 1)]
        base = ".".join(parts)
        target_mod = f"{base}.{target_mod}" if target_mod else base
    for alias in node.names:
        if alias.name != "*":
            yield alias.asname or alias.name, \
                f"{target_mod}.{alias.name}" if target_mod else alias.name


@dataclass
class ProjectInfo:
    """The whole-program view handed to :class:`ProjectChecker` rules."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    symbols: dict[str, ModuleSymbols] = field(default_factory=dict)
    #: linted module -> linted modules it imports from
    import_graph: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, mods: Iterable[ModuleInfo]) -> "ProjectInfo":
        info = cls()
        for mod in mods:
            registry = {k.lower(): v for k, v in mod.unit_notes.items()}
            symbols = ModuleSymbols.scan(mod)
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
            for site in symbols.calls:
                if site.raw is not None:
                    callee = self.resolve(module, site.raw, cls=site.cls)
                    if callee is not None:
                        site.callee = callee.ref

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

    def resolve(
        self, module: str, raw: str, *, cls: str | None = None,
    ) -> FunctionSummary | ClassSummary | None:
        """Resolve a raw dotted call target written inside ``module``.

        Handles ``self.method`` (within ``cls``), bare local or imported
        functions and classes, and ``alias.name`` through module
        imports, following re-exports. Anything else — attribute calls
        on arbitrary objects, builtins, dynamic dispatch — resolves to
        None; the checkers stay conservative.
        """
        symbols = self.symbols.get(module)
        if symbols is None:
            return None
        head, _, rest = raw.partition(".")
        if head == "self" and cls is not None:
            owner = symbols.classes.get(cls)
            return owner.methods.get(rest) if owner else None
        if not rest:
            local = symbols.functions.get(raw) or symbols.classes.get(raw)
            if local is not None:
                return local
        dotted = symbols.imports.get(head)
        if dotted is not None:
            return self._definition_at(f"{dotted}.{rest}" if rest else dotted)
        return self._definition_at(raw) if rest else None

    def _definition_at(
        self, dotted: str, hops: int = 0,
    ) -> FunctionSummary | ClassSummary | None:
        owner = self._owning_module(dotted)
        if owner is None:
            return None
        tail = dotted[len(owner):].lstrip(".")
        if not tail or "." in tail:
            return None  # a module itself, or attr-of-attr: not a callable
        symbols = self.symbols[owner]
        found = symbols.functions.get(tail) or symbols.classes.get(tail)
        reexport = symbols.imports.get(tail)
        if found is None and reexport is not None and hops < 8:
            return self._definition_at(reexport, hops + 1)
        return found
