"""No module of the package imports a name it never uses, or restates the integer rule.

An import line may keep an unused name on purpose by carrying `# noqa: F401`;
the package's __init__ imports only to re-export and is not checked.  Only
errors.py may call isinstance(x, bool) or spell out "must be finite": every other
module checks a count through errors._integer and a number through errors._number.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hfon"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the source's imports that no expression reads, outside noqa lines."""
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not any(
            "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name != "annotations":  # from __future__ import annotations
                    unused.append(name)
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from dataclasses import dataclass, field\nimport numpy as np  # noqa: F401\n\n"
        "@dataclass\nclass A:\n    x: int\n"
    )
    assert unused_imports(source) == ["field"]


def bool_checks(source: str) -> list[int]:
    """Lines of the source's isinstance calls whose type argument is bool or a tuple holding it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if len(node.args) == 2 and isinstance(node.args[1], ast.Tuple) else node.args[1:]
            if any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "errors.py"], ids=lambda p: p.name)
def test_only_errors_checks_for_bool(path):
    assert bool_checks(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_a_bool_check():
    source = "def f(n):\n    if isinstance(n, bool) or isinstance(n, (bool, int)):\n        pass\n    isinstance(n, int)\n"
    assert bool_checks(source) == [2, 2]


def finite_phrases(source: str) -> list[int]:
    """Lines of the source's string constants, f-string parts included, that contain "must be finite"."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "must be finite" in node.value]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "errors.py"], ids=lambda p: p.name)
def test_only_errors_states_the_number_rule(path):
    assert finite_phrases(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_a_number_check():
    source = 'def f(x, t):\n    """x must be finite"""\n    raise ValueError(f"x at {t} must be finite, got {x}")\n'
    assert finite_phrases(source) == [2, 3]
