"""No module of the package imports a name it never uses.

An import line may keep an unused name on purpose by carrying `# noqa: F401`;
the package's __init__ imports only to re-export and is not checked.
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
