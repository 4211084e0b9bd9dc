"""RP007: unit consistency across call boundaries.

RP002 infers units from the suffix convention (``_bytes``, ``_s``,
``_flops``, ...) but sees one module at a time, so a ``*_bytes`` value
flowing into a ``*_s`` *parameter* of a function defined two modules
away sails straight through. This rule extends the same inference
interprocedurally using the project pass:

* every resolved call site maps its arguments onto the callee's
  parameters (positionally and by keyword) and flags a known-unit
  argument bound to a parameter whose name carries a *different* unit;
* a call whose callee has a known **return unit** (from the function's
  own name suffix, or a unanimous vote of its ``return`` expressions —
  see :class:`~repro.lint.project.FunctionSummary`) participates as a
  unitful expression: assigning it to an incompatibly-suffixed name, or
  passing it as an incompatibly-suffixed parameter, is flagged.

Only confidently resolved calls participate (local functions, imported
functions, ``self.method``); everything else stays silent, like RP002's
treatment of ``*``/``/`` — false alarms would train people to suppress.
The inline ``# repro-lint: unit(name)=...`` notes bind names on the
*caller* side exactly as they do for RP002.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, ModuleInfo, ProjectChecker
from ..project import FunctionSummary, ProjectInfo, dotted_name
from .unit_consistency import _compatible, unit_of_name

__all__ = ["UnitFlowChecker"]


class UnitFlowChecker(ProjectChecker):
    code = "RP007"
    name = "unit-flow"
    description = (
        "units inferred from the suffix convention must survive call "
        "boundaries: no *_bytes argument into a *_s parameter, no "
        "*_s return assigned to a *_bytes name"
    )
    packages = (
        "repro.engine",
        "repro.kernels",
        "repro.zero",
        "repro.hardware",
        "repro.comm",
        "repro.moe_placement",
        "repro.autoscale",
        "repro.scenarios",
    )

    def check_project(self, project: ProjectInfo) -> Iterator[Finding]:
        for module, symbols in project.symbols.items():
            mod = symbols.mod
            if not self.applies_to(mod):
                continue
            registry = {k.lower(): v for k, v in mod.unit_notes.items()}
            for cls_name, summary in symbols.summaries():
                yield from self._check_scope(
                    project, mod, module, cls_name, summary, registry)

    def _check_scope(self, project: ProjectInfo, mod: ModuleInfo,
                     module: str, cls_name: str | None,
                     summary: FunctionSummary,
                     registry: dict[str, str]) -> Iterator[Finding]:
        def resolve(call: ast.Call) -> FunctionSummary | None:
            raw = dotted_name(call.func)
            if raw is None:
                return None
            callee = project.resolve(module, raw, cls=cls_name)
            return callee if isinstance(callee, FunctionSummary) else None

        def unit_of(node: ast.AST) -> str | None:
            if isinstance(node, ast.Name):
                return unit_of_name(node.id, registry)
            if isinstance(node, ast.Attribute):
                return unit_of_name(node.attr, registry)
            if isinstance(node, ast.Call):
                callee = resolve(node)
                return callee.return_unit if callee is not None else None
            return None

        def show(node: ast.AST) -> str:
            text = ast.unparse(node)
            return text if len(text) <= 50 else text[:47] + "..."

        for node in ast.walk(summary.node):
            if isinstance(node, ast.Call):
                callee = resolve(node)
                if callee is not None:
                    yield from self._check_call(
                        mod, node, callee, unit_of, show)
            elif isinstance(node, ast.Assign):
                # call-result flowing into a suffixed name: RP002 skips
                # Call values, this rule knows their return units
                if (len(node.targets) == 1
                        and isinstance(node.targets[0], (ast.Name, ast.Attribute))
                        and isinstance(node.value, ast.Call)):
                    callee = resolve(node.value)
                    if callee is None or callee.return_unit is None:
                        continue
                    target = unit_of(node.targets[0])
                    if target and not _compatible(target, callee.return_unit):
                        yield self.finding(mod, node, (
                            f"assigns `{callee.ref}` (returns "
                            f"`{callee.return_unit}`) to a `{target}` "
                            f"name: `{show(node)}` — convert explicitly "
                            f"or rename one side"
                        ))

    def _check_call(self, mod: ModuleInfo, call: ast.Call,
                    callee: FunctionSummary, unit_of, show) -> Iterator[Finding]:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                kw.arg is None for kw in call.keywords):
            return  # *args/**kwargs forwarding: mapping is unknowable
        positional = callee.positional()
        # self/cls slots don't line up with call arguments; a method
        # call's receiver is the attribute's value, not an argument.
        if positional and positional[0].name in ("self", "cls") \
                and isinstance(call.func, ast.Attribute):
            positional = positional[1:]
        pairs = list(zip(call.args, positional))
        for kw in call.keywords:
            param = callee.param_named(kw.arg)
            if param is not None:
                pairs.append((kw.value, param))
        for arg, param in pairs:
            got = unit_of(arg)
            want = unit_of_name(param.name)
            if got and want and not _compatible(got, want):
                yield self.finding(mod, arg, (
                    f"passes `{got}` value `{show(arg)}` as parameter "
                    f"`{param.name}` (`{want}`) of `{callee.ref}` — a "
                    f"unit conversion is missing at the call boundary"
                ))
