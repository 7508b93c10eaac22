"""Checks on the source of the ``ttpool`` package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ttpool"


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Callable, Optional\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return os.path.join(str(x))\n"
    )
    assert unused_imports(source) == ["Callable", "np"]


# ``__init__.py`` imports names to re-export them.
@pytest.mark.parametrize(
    "module",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_imports_only_what_it_reads(module):
    assert unused_imports(module.read_text()) == []
