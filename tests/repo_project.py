"""The one :class:`~repro.lint.ProjectInfo` the tree-wide tests share,
built once per session over ``src/``, ``benchmarks/``, ``examples/`` and
the ```` ```python ```` blocks of README.md and ``docs/*.md`` (module
``path#index`` each). ``tests/`` is only scanned for reads."""

import contextlib
import functools
import gc
import re
from pathlib import Path

from repro.lint import ProjectInfo, iter_python_files, load_file, load_source
from repro.lint.project import ModuleSymbols

ROOT = Path(__file__).resolve().parents[1]

_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def python_blocks(markdown: str) -> list[str]:
    """The sources of the ```python blocks of a markdown text."""
    return _PYTHON_BLOCK.findall(markdown)


@contextlib.contextmanager
def _collector_paused():
    """Parsing the tree allocates a few hundred thousand AST nodes, each
    a tracked container, so the cyclic collector would rescan the whole
    session heap many times while they are made. They form no cycles:
    one collection afterwards loses nothing."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@functools.lru_cache(maxsize=None)
def doc_blocks() -> tuple[tuple[str, str], ...]:
    """(``path#index``, source) of every ```python block of README.md
    and docs/*.md."""
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    return tuple((f"{path.relative_to(ROOT)}#{i}", block)
                 for path in docs
                 for i, block in enumerate(python_blocks(path.read_text())))


@functools.lru_cache(maxsize=None)
def repo_project() -> ProjectInfo:
    files = iter_python_files(
        [ROOT / "src", ROOT / "benchmarks", ROOT / "examples"])
    with _collector_paused():
        mods = [load_file(path, root=ROOT) for path in files]
        mods += [load_source(block, module=where, path=where)
                 for where, block in doc_blocks()]
        return ProjectInfo.build(mods)


def scan_tests():
    """The reads of each ``tests/`` module, one at a time: a module's
    tree is dropped as soon as it is scanned."""
    with _collector_paused():
        for path in iter_python_files([ROOT / "tests"]):
            yield ModuleSymbols.scan(load_file(path, root=ROOT))
