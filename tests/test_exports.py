"""Every name the package exports has a reader besides its own unit tests.

A name counts as read when it appears, on any line but its own ``def`` or
``class`` line, in a package module other than ``__init__``, in a demo, in
the benchmark harness, or in the acceptance tests of the paper's criteria.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cantornormal"


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def _reader_lines() -> list[str]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]
    paths.append(ROOT / "tests" / "test_acceptance.py")
    return [line for p in paths for line in p.read_text(encoding="utf-8").splitlines()]


def test_every_export_is_read_outside_its_unit_tests():
    lines = _reader_lines()

    def read(name: str) -> bool:
        use = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        return any(use.search(line) and not definition.match(line) for line in lines)

    names = _exported_names()
    assert len(names) > 50
    assert [name for name in names if not read(name)] == []
