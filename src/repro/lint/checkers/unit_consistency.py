"""RP002: dimensional consistency across the performance model.

The performance layer reproduces Figures 6–13 only because seconds,
bytes, FLOPs and tokens flow through ``kernels.costmodel``,
``engine.latency``, ``engine.costs``, ``comm.primitives``, ``zero`` and
``hardware`` without mix-ups. The codebase encodes units in names —
``act_bytes``, ``hbm_gb``, ``peak_flops``, ``gen_tokens``, ``stall_s``,
``compute_time``, ``tokens_per_s`` — so a checker can infer the unit of
most operands and flag the additions, subtractions, comparisons and
bare assignments that combine two *different* units without an explicit
conversion.

Inference sources, in priority order:

1. inline annotations — ``# repro-lint: unit(budget)=seconds`` anywhere
   in the file binds a name that escapes the suffix convention;
2. :data:`DEFAULT_UNIT_REGISTRY` — repo-wide names with known units;
3. the suffix convention (``_bytes``/``_gb``/``_flops``/``_tokens``/
   ``_s``/``*_time``/``*_per_s`` ...).

Multiplication and division deliberately yield *unknown*: they are how
conversions are written (``bytes / bandwidth``, ``gb * 1e9``), so they
never trip the checker. Unitless constants combine with anything.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, ModuleInfo, own_nodes

__all__ = ["UnitConsistencyChecker", "DEFAULT_UNIT_REGISTRY", "unit_of_name"]

#: names that carry a unit but not a suffix — the explicit registry.
#: Extend here (or with an inline ``# repro-lint: unit(x)=u`` note) when
#: a new unitful name escapes the suffix convention.
DEFAULT_UNIT_REGISTRY: dict[str, str] = {
    "makespan": "seconds",
    "arrival": "seconds",
    "ttft": "seconds",
    "latency": "seconds",
    "deadline": "seconds",
    "elapsed": "seconds",
    "duration": "seconds",
    "timeout": "seconds",
    "hit_rate": "ratio",
}

# suffix -> unit; longest-match-first so ``_per_s`` beats ``_s`` and the
# cache-accounting suffixes (``_misses``) beat the ``_ms`` time suffix.
_SUFFIX_UNITS: tuple[tuple[str, str], ...] = (
    ("_dedup_ratio", "ratio"),
    ("_replicas", "count"),
    ("_hit_rate", "ratio"),
    ("_seconds", "seconds"),
    ("_gbytes", "gigabytes"),
    ("_misses", "count"),
    ("_tokens", "tokens"),
    ("_blocks", "count"),
    ("_depth", "count"),
    ("_turns", "count"),
    ("_steps", "steps"),
    ("_flops", "flops"),
    ("_bytes", "bytes"),
    ("_hits", "count"),
    ("_time", "seconds"),
    ("_util", "ratio"),
    ("_sec", "seconds"),
    ("_gib", "gigabytes"),
    ("_gb", "gigabytes"),
    ("_ms", "milliseconds"),
    ("_s", "seconds"),
)

_RATE_NUMERATORS = (("requests", "requests"), ("tokens", "tokens"),
                    ("bytes", "bytes"), ("flops", "flops"),
                    ("steps", "steps"))

_FLAGGED_BINOPS = (ast.Add, ast.Sub)


def unit_of_name(name: str, registry: dict[str, str] | None = None) -> str | None:
    """Infer the unit a bare identifier carries, or ``None``."""
    lowered = name.lower().lstrip("_")
    if registry and lowered in registry:
        return registry[lowered]
    if lowered in DEFAULT_UNIT_REGISTRY:
        return DEFAULT_UNIT_REGISTRY[lowered]
    if lowered.endswith("_per_s"):
        base = lowered[: -len("_per_s")]
        for needle, unit in _RATE_NUMERATORS:
            if base.endswith(needle):
                return f"{unit}/s"
        return "1/s"
    for suffix, unit in _SUFFIX_UNITS:
        if lowered.endswith(suffix):
            return unit
    return None


def _compatible(a: str, b: str) -> bool:
    if a == b:
        return True
    # The generic rate is compatible with any specific rate.
    if a.endswith("/s") and b.endswith("/s") and "1/s" in (a, b):
        return True
    return False


class UnitConsistencyChecker(Checker):
    code = "RP002"
    name = "unit-consistency"
    description = (
        "additions/comparisons/assignments must not mix units inferred "
        "from the _bytes/_gb/_flops/_tokens/_s/_time suffix convention"
    )
    packages = (
        "repro.kernels",
        "repro.engine",
        "repro.comm",
        "repro.zero",
        "repro.hardware",
        "repro.moe_placement",
        "repro.autoscale",
        "repro.scenarios",
    )

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        registry = {k.lower(): v for k, v in mod.unit_notes.items()}
        findings: list[Finding] = []
        seen: set[tuple[int, int, str]] = set()

        def emit(node: ast.AST, message: str) -> None:
            key = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
                   message)
            if key not in seen:
                seen.add(key)
                findings.append(self.finding(mod, node, message))

        def show(node: ast.AST) -> str:
            text = ast.unparse(node)
            return text if len(text) <= 50 else text[:47] + "..."

        def unit_of(node: ast.AST) -> str | None:
            """Infer an expression's unit, emitting findings for any
            mismatched combination found along the way."""
            if isinstance(node, ast.Name):
                return unit_of_name(node.id, registry)
            if isinstance(node, ast.Attribute):
                return unit_of_name(node.attr, registry)
            if isinstance(node, ast.UnaryOp):
                return unit_of(node.operand)
            if isinstance(node, ast.IfExp):
                return _unify(node, node.body, node.orelse, "mixes")
            if isinstance(node, ast.BinOp):
                left, right = unit_of(node.left), unit_of(node.right)
                if isinstance(node.op, _FLAGGED_BINOPS):
                    verb = "adds" if isinstance(node.op, ast.Add) else "subtracts"
                    if left and right and not _compatible(left, right):
                        emit(node, (
                            f"{verb} `{right}` to `{left}`: "
                            f"`{show(node)}` — insert an explicit "
                            f"conversion, or annotate the odd name with "
                            f"`# repro-lint: unit(name)=...`"
                        ))
                    return left or right
                return None  # * and / are how conversions are written
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id in ("min", "max")
                        and len(node.args) > 1
                        and not any(isinstance(a, ast.Starred)
                                    for a in node.args)):
                    units = [unit_of(a) for a in node.args]
                    known = [u for u in units if u]
                    for u in known[1:]:
                        if not _compatible(known[0], u):
                            emit(node, (
                                f"{func.id}() compares `{known[0]}` with "
                                f"`{u}`: `{show(node)}`"
                            ))
                            break
                    return known[0] if known else None
                return None
            return None

        def _unify(node, a, b, verb):
            ua, ub = unit_of(a), unit_of(b)
            if ua and ub and not _compatible(ua, ub):
                emit(node, f"{verb} `{ua}` and `{ub}`: `{show(node)}`")
            return ua or ub

        for node in ast.walk(mod.tree):
            if isinstance(node, ast.BinOp):
                unit_of(node)
            elif isinstance(node, ast.Compare):
                units = [unit_of(node.left)] + [unit_of(c) for c in node.comparators]
                known = [(u, n) for u, n in zip(units, [node.left] + node.comparators) if u]
                for (u, _), (v, _) in zip(known, known[1:]):
                    if not _compatible(u, v):
                        emit(node, (
                            f"compares `{u}` against `{v}`: "
                            f"`{show(node)}` — a unit conversion is missing"
                        ))
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, _FLAGGED_BINOPS):
                target = unit_of(node.target)
                value = unit_of(node.value)
                if target and value and not _compatible(target, value):
                    emit(node, (
                        f"accumulates `{value}` into a `{target}` "
                        f"variable: `{show(node.target)} += "
                        f"{show(node.value)}`"
                    ))
            elif isinstance(node, ast.Assign):
                # Only bare name-to-name copies: `x_bytes = y_flops` is a
                # missing conversion; anything computed may convert.
                if (len(node.targets) == 1
                        and isinstance(node.targets[0], (ast.Name, ast.Attribute))
                        and isinstance(node.value, (ast.Name, ast.Attribute))):
                    target = unit_of(node.targets[0])
                    value = unit_of(node.value)
                    if target and value and not _compatible(target, value):
                        emit(node, (
                            f"assigns a `{value}` value to a `{target}` "
                            f"name: `{show(node)}` — rename one side or "
                            f"convert explicitly"
                        ))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared = unit_of_name(node.name, registry)
                if declared is None:
                    continue
                for sub in own_nodes(node):
                    if not isinstance(sub, ast.Return) or sub.value is None:
                        continue
                    got = unit_of(sub.value)
                    if got and not _compatible(declared, got):
                        emit(sub, (
                            f"function `{node.name}` is named as "
                            f"`{declared}` but returns `{got}`: "
                            f"`return {show(sub.value)}`"
                        ))
        yield from findings
