"""repro-lint core: findings, checkers, the file walker, and baselines.

Generic linters (ruff runs in CI already) catch syntax-level smells;
they cannot know that every rank of an SPMD program must issue the same
collectives in the same order, or that a ``*_bytes`` value must never be
added to a ``*_flops`` value. ``repro.lint`` is the domain-aware pass:
a small AST framework (this module) plus a battery of checkers under
:mod:`repro.lint.checkers` that encode *this* codebase's invariants.

Vocabulary:

* :class:`Finding` — one diagnostic: code, message, location, and an
  ``occurrence`` index distinguishing identical findings in one file.
* :class:`Checker` — a rule. Subclasses implement :meth:`Checker.check`
  over a parsed :class:`ModuleInfo` and yield findings.
* :class:`ProjectChecker` — a whole-program rule. Subclasses implement
  :meth:`ProjectChecker.check_project` over a
  :class:`repro.lint.project.ProjectInfo` (symbol table, import graph,
  call graph, per-function summaries) built from *every* linted module
  at once — the layer the interprocedural rules (RP005–RP008) run on.
* :class:`Baseline` — a committed JSON file of *accepted* findings
  (each carrying a justification); matching findings are reported
  separately and do not fail the run. New debt therefore fails CI while
  grandfathered debt stays visible.
* suppression comments — ``# repro-lint: disable=RP001`` (or a
  comma-separated list, or no ``=`` part to disable every rule) on the
  flagged line silences it in place. For a multi-line statement the
  comment may sit on the statement's first or last physical line
  (decorator lines included), so wrapped and decorated statements can
  be silenced too.

The CLI lives in :mod:`repro.lint.__main__`; run it as
``python -m repro.lint src/repro``.
"""

from __future__ import annotations

import ast
import functools
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Baseline",
    "Checker",
    "Finding",
    "LintError",
    "LintResult",
    "ModuleInfo",
    "ProjectChecker",
    "child_nodes",
    "iter_python_files",
    "load_file",
    "load_source",
    "own_nodes",
    "run_lint",
]

# ``# repro-lint: disable=RP001,RP002`` or ``# repro-lint: disable`` (all).
_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable(?:=([A-Z0-9,\s]+))?")
# ``# repro-lint: unit(name)=seconds`` — explicit unit annotation, read by
# the RP002 checker through :attr:`ModuleInfo.unit_notes`.
_UNIT_NOTE_RE = re.compile(r"#\s*repro-lint:\s*unit\((\w+)\)\s*=\s*([\w/]+)")


class LintError(Exception):
    """A file could not be linted (unreadable, unparseable)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a checker.

    ``occurrence`` is the 0-based index among findings sharing the same
    ``(code, path, message)`` in one run, in (line, col) order. It keeps
    the fingerprints of *identical* findings in one file distinct, so
    baselining one of them does not silently baseline them all.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    occurrence: int = 0

    def fingerprint(self) -> str:
        """Line-insensitive identity used for baseline matching (lines
        drift on every edit; code+path+message rarely do). Repeated
        identical findings are disambiguated by their occurrence index
        (``...|#2`` for the second, and so on)."""
        base = f"{self.code}|{self.path}|{self.message}"
        return base if self.occurrence == 0 else f"{base}|#{self.occurrence + 1}"

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "occurrence": self.occurrence,
        }


@dataclass
class ModuleInfo:
    """One parsed source file plus the lint metadata checkers consume."""

    path: Path
    display_path: str            # path as reported in findings (posix)
    module: str                  # dotted module name, e.g. repro.comm.pcc
    source: str
    lines: list[str]
    tree: ast.Module
    unit_notes: dict[str, str] = field(default_factory=dict)
    # line number -> codes disabled there (empty set = all codes)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @functools.cached_property
    def stmt_spans(self) -> list[tuple[int, int]]:
        """Physical (first, last) line spans of statements, innermost
        last; lets a suppression on a wrapped statement's first or last
        line silence a finding reported anywhere inside the span."""
        return _statement_spans(self.tree)

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    def in_packages(self, packages: Sequence[str]) -> bool:
        """Whether this module lives under any of the dotted ``packages``."""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in packages
        )

    def _disabled_at(self, line: int, code: str) -> bool:
        codes = self.suppressions.get(line)
        if codes is None:
            return False
        return not codes or code in codes

    def suppressed(self, finding: Finding) -> bool:
        if not self.suppressions:
            return False
        if self._disabled_at(finding.line, finding.code):
            return True
        # Multi-line statements: honor a suppression on the statement's
        # first or last physical line (a finding on a decorated def or a
        # wrapped expression is otherwise unsilenceable inline).
        for first, last in self.stmt_spans:
            if first <= finding.line <= last and (
                self._disabled_at(first, finding.code)
                or self._disabled_at(last, finding.code)
            ):
                return True
        return False


class Checker:
    """Base class for one lint rule.

    Subclasses set :attr:`code` / :attr:`name` / :attr:`description`,
    optionally narrow :attr:`packages` (dotted prefixes; empty tuple =
    every module), and implement :meth:`check`.
    """

    code: str = "RP000"
    name: str = "abstract"
    description: str = ""
    #: dotted package prefixes this rule applies to ((,) = all modules)
    packages: tuple[str, ...] = ()

    def applies_to(self, mod: ModuleInfo) -> bool:
        return not self.packages or mod.in_packages(self.packages)

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, mod: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=mod.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


class ProjectChecker(Checker):
    """Base class for a whole-program rule.

    Unlike a per-module :class:`Checker`, a project checker sees the
    entire linted tree at once through a
    :class:`repro.lint.project.ProjectInfo` (project symbol table,
    import graph, call graph, per-function summaries) and can therefore
    reason across call boundaries. :attr:`Checker.packages` still
    scopes which modules the rule *reports on*; the project graph
    always covers every linted file.
    """

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        return iter(())  # the per-module pass is a no-op

    def check_project(self, project: "ProjectInfo") -> Iterator[Finding]:  # noqa: F821
        raise NotImplementedError


# -- walking ---------------------------------------------------------------


def child_nodes(node: ast.AST) -> list[ast.AST]:
    """``ast.iter_child_nodes`` as a list, minus the ``ctx`` markers: the
    walks built on it are the bulk of a lint run, and this halves them."""
    out: list[ast.AST] = []
    for name in node._fields:
        value = getattr(node, name, None)
        if value.__class__ is list:
            out.extend([v for v in value if isinstance(v, ast.AST)])
        elif isinstance(value, ast.AST) and name != "ctx":
            out.append(value)
    return out


def own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """``scope``'s nodes in source order, not descending into nested
    defs or lambdas (their bindings and returns are their own)."""
    stack = child_nodes(scope)[::-1]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(reversed(child_nodes(node)))


# -- loading ---------------------------------------------------------------


def _module_name_of(path: Path) -> str:
    """Dotted module name, anchored at the last ``repro`` path component
    so fixtures and installed trees resolve identically."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    return ".".join(parts[-4:]) if parts else path.stem


def _scan_comments(lines: list[str]) -> tuple[dict[int, set[str]], dict[str, str]]:
    suppressions: dict[int, set[str]] = {}
    unit_notes: dict[str, str] = {}
    for lineno, text in enumerate(lines, start=1):
        if "repro-lint" not in text:
            continue
        m = _DISABLE_RE.search(text)
        if m:
            codes = m.group(1)
            suppressions[lineno] = (
                set() if codes is None
                else {c.strip() for c in codes.split(",") if c.strip()}
            )
        for name, unit in _UNIT_NOTE_RE.findall(text):
            unit_notes[name] = unit
    return suppressions, unit_notes


def _statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Multi-line ``(first, last)`` physical spans of statements, for
    suppression matching.

    Simple statements span their full extent (a wrapped call, a
    parenthesized assignment). Compound statements span only their
    *header* — decorators through the ``def``/``class`` line, or the
    ``if``/``while``/``for``/``with`` line through the end of its test —
    so a trailing suppression never swallows a whole body.
    """
    spans: list[tuple[int, int]] = []

    def header_end(node: ast.stmt) -> int:
        if isinstance(node, (ast.If, ast.While)):
            return node.test.end_lineno or node.lineno
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return node.iter.end_lineno or node.lineno
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return max((i.context_expr.end_lineno or node.lineno)
                       for i in node.items)
        return node.lineno  # def/class/try: the header line itself

    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            last = node.lineno
        elif isinstance(node, (ast.If, ast.While, ast.For, ast.AsyncFor,
                               ast.With, ast.AsyncWith, ast.Try)):
            first, last = node.lineno, header_end(node)
        else:
            first, last = node.lineno, node.end_lineno or node.lineno
        if first != last:
            spans.append((first, last))
    return spans


def load_source(
    source: str, *, module: str = "fixture", path: str = "<fixture>"
) -> ModuleInfo:
    """Parse ``source`` into a :class:`ModuleInfo` (test/fixture entry
    point: ``module`` controls package scoping)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise LintError(f"{path}: syntax error: {exc.msg} (line {exc.lineno})") from exc
    lines = source.splitlines()
    suppressions, unit_notes = _scan_comments(lines)
    return ModuleInfo(
        path=Path(path),
        display_path=path,
        module=module,
        source=source,
        lines=lines,
        tree=tree,
        unit_notes=unit_notes,
        suppressions=suppressions,
    )


def load_file(path: Path | str, *, root: Path | str | None = None) -> ModuleInfo:
    """Read and parse one file; ``root`` anchors the reported path."""
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"{path}: {exc}") from exc
    base = Path(root) if root is not None else Path.cwd()
    try:
        display = path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        display = path.as_posix()
    # Under ``root`` a module is named by its path there, wherever the
    # checkout sits: examples/quickstart.py is ``examples.quickstart``.
    module = _module_name_of(Path(display) if root is not None else path)
    info = load_source(source, module=module, path=display)
    info.path = path
    return info


def iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(q for q in p.rglob("*.py")
                              if not any(part.startswith(".") for part in q.parts)))
        elif p.suffix == ".py" and p.exists():
            out.append(p)
        else:
            raise LintError(f"{p}: not a python file or directory")
    return out


# -- baseline --------------------------------------------------------------


@dataclass
class Baseline:
    """Accepted findings, persisted as ``lint-baseline.json``.

    Every entry must carry a ``justification`` — the baseline is a
    ledger of *argued* exceptions, not a mute button.
    """

    entries: list[dict] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path | str) -> "Baseline":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise LintError(f"{path}: cannot read baseline: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise LintError(f"{path}: invalid baseline JSON: {exc}") from exc
        if not isinstance(data, dict) or "entries" not in data:
            raise LintError(f"{path}: baseline must be an object with 'entries'")
        entries = data["entries"]
        for e in entries:
            missing = {"code", "path", "message", "justification"} - set(e)
            if missing:
                raise LintError(
                    f"{path}: baseline entry {e!r} missing {sorted(missing)}"
                )
        return cls(entries=list(entries))

    def save(self, path: Path | str) -> None:
        payload = {"version": 1, "entries": self.entries}
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def fingerprints(self) -> set[str]:
        """Fingerprints of every entry, occurrence-indexed.

        An entry may pin its index explicitly (``"occurrence": 1`` for
        the second identical finding); entries without one are numbered
        by their position among same-``(code, path, message)`` entries,
        so legacy baselines keep matching and duplicated entries cover
        the second, third, ... occurrences rather than collapsing."""
        out: set[str] = set()
        counters: dict[str, int] = {}
        for e in self.entries:
            base = f"{e['code']}|{e['path']}|{e['message']}"
            occurrence = e.get("occurrence")
            if occurrence is None:
                occurrence = counters.get(base, 0)
            counters[base] = max(counters.get(base, 0), occurrence) + 1
            out.add(base if occurrence == 0 else f"{base}|#{occurrence + 1}")
        return out

    @classmethod
    def from_findings(
        cls, findings: Iterable[Finding],
        justification: str = "TODO: justify this exception",
    ) -> "Baseline":
        return cls(entries=[
            {**f.to_dict(), "justification": justification}
            for f in sorted(findings)
        ])


# -- driver ----------------------------------------------------------------


@dataclass
class LintResult:
    """Outcome of one lint run over a set of files."""

    findings: list[Finding] = field(default_factory=list)    # fail the run
    baselined: list[Finding] = field(default_factory=list)   # accepted debt
    suppressed: list[Finding] = field(default_factory=list)  # inline disables
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "counts": {
                "findings": len(self.findings),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
            },
            "findings": [f.to_dict() for f in self.findings],
            "baselined": [f.to_dict() for f in self.baselined],
        }


def _assign_occurrences(findings: list[Finding]) -> list[Finding]:
    """Number findings sharing a ``(path, code, message)`` in (line,
    col) order so their fingerprints stay distinct."""
    groups: dict[tuple[str, str, str], list[Finding]] = {}
    for f in findings:
        groups.setdefault((f.path, f.code, f.message), []).append(f)
    out: list[Finding] = []
    for group in groups.values():
        group.sort(key=lambda f: (f.line, f.col))
        out.extend(replace(f, occurrence=i) for i, f in enumerate(group))
    return out


def run_lint(
    paths: Iterable[Path | str],
    checkers: Sequence[Checker],
    *,
    baseline: Baseline | None = None,
    root: Path | str | None = None,
    project: bool = True,
) -> LintResult:
    """Run ``checkers`` over every python file under ``paths``.

    Per-module checkers see one file at a time; :class:`ProjectChecker`
    subclasses run afterwards against a
    :class:`~repro.lint.project.ProjectInfo` built over *all* loaded
    modules (disable with ``project=False``).
    """
    result = LintResult()
    known = baseline.fingerprints() if baseline is not None else set()
    module_checkers = [c for c in checkers if not isinstance(c, ProjectChecker)]
    project_checkers = ([c for c in checkers if isinstance(c, ProjectChecker)]
                        if project else [])
    mods: list[ModuleInfo] = []
    raw: list[Finding] = []
    for path in iter_python_files(paths):
        mod = load_file(path, root=root)
        mods.append(mod)
        result.files_checked += 1
        for checker in module_checkers:
            if checker.applies_to(mod):
                raw.extend(checker.check(mod))
    if project_checkers:
        from .project import ProjectInfo  # late: project.py imports core
        info = ProjectInfo.build(mods)
        for checker in project_checkers:
            raw.extend(checker.check_project(info))
    by_path = {mod.display_path: mod for mod in mods}
    for finding in _assign_occurrences(raw):
        mod = by_path.get(finding.path)
        if mod is not None and mod.suppressed(finding):
            result.suppressed.append(finding)
        elif finding.fingerprint() in known:
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    result.findings.sort()
    result.baselined.sort()
    result.suppressed.sort()
    return result
