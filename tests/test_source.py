"""Checks on the source of the ``ttpool`` package."""

import ast
import sys
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


def _private_definitions(tree: ast.Module) -> set[str]:
    """The ``_name``s (not dunders) that a module's top level defines or assigns."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def unread_private_names(sources: dict) -> list[str]:
    """``module.name`` for each module-level ``_name`` that no module of ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree) - read
    )


def test_unread_private_names_finds_what_is_never_read():
    sources = {
        "a": (
            "_LIMIT, _SPARE = 3, 4\n"
            "_table: dict = {}\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _dead():\n"
            "    _table['x'] = 1\n"
            "class _Unused:\n"
            "    pass\n"
        ),
        "b": "from .a import _helper\nvalue = _helper()\n",
    }
    assert unread_private_names(sources) == ["a._SPARE", "a._Unused", "a._dead"]


def test_every_private_module_name_is_read():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def fusion_mode_members(source: str) -> list[str]:
    """The ``FusionMode.<member>`` attributes that ``source`` names, sorted."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (getattr(owner, "id", None) or getattr(owner, "attr", None)) == "FusionMode":
                names.append(f"FusionMode.{node.attr}")
    return sorted(names)


def test_fusion_mode_members_finds_each_member_named():
    source = (
        "from . import fusion\n"
        "from .fusion import FusionMode\n"
        "mode = _parse_enum(FusionMode, text)\n"
        "if mode is FusionMode.EQUIVALENCE or mode is fusion.FusionMode.CLASSIC_PERMUTATION:\n"
        "    pass\n"
    )
    assert fusion_mode_members(source) == [
        "FusionMode.CLASSIC_PERMUTATION",
        "FusionMode.EQUIVALENCE",
    ]


# ``fusion.fusion_record`` is all that tells the fusion modes apart.
@pytest.mark.parametrize(
    "module",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "fusion.py"),
    ids=lambda p: p.name,
)
def test_only_fusion_names_a_fusion_mode(module):
    assert fusion_mode_members(module.read_text()) == []


def foreign_imports(source: str) -> list[str]:
    """Modules ``source`` imports that are not relative, ``__future__``, NumPy or stdlib."""
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted(name for name in names if name.split(".")[0] not in allowed)


def test_foreign_imports_finds_a_third_party_module():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy as np\n"
        "import scipy.special\n"
        "from statistics import NormalDist\n"
        "from .errors import ConfigError\n"
        "def f():\n"
        "    from pandas import DataFrame\n"
    )
    assert foreign_imports(source) == ["pandas", "scipy.special"]


# pyproject.toml promises NumPy alone at run time.
@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_numpy_and_the_standard_library(module):
    assert foreign_imports(module.read_text()) == []


def exported_names(source: str) -> set[str]:
    """Names that ``source``'s ``from … import`` statements bind."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


# One public name per concept: adding or removing one edits this list.
PUBLIC_API = {
    "Arm",
    "CampaignResult",
    "CausalityConfig",
    "CausalityOutcome",
    "ConfigError",
    "DataError",
    "DegenerateSample",
    "DiagnosticsReport",
    "DimensionMismatch",
    "Estimator",
    "FusionConfig",
    "FusionMode",
    "FusionOutcome",
    "GramCache",
    "IndexOutOfRange",
    "KernelFamily",
    "KernelSpec",
    "MMDValue",
    "MeanShift",
    "Method",
    "NullStudyRow",
    "Sample",
    "SampleTooSmall",
    "Scenario",
    "TTPConfig",
    "TTPReport",
    "TTPoolError",
    "VarShift",
    "ZeroBandwidth",
    "build_gram",
    "classic_fusion",
    "consistency_diagnostics",
    "derive_stage_seeds",
    "equivalence_fusion",
    "eval_kernel",
    "mmd2",
    "mmd2_slices",
    "mmd2_v",
    "null_study_sweep",
    "pooled_permutation_test",
    "resolve_bandwidth",
    "run_causality",
    "run_report",
    "run_sweep",
    "run_ttp",
    "standard_permutation_test",
}


def test_package_exports_the_listed_public_api():
    assert exported_names((PACKAGE / "__init__.py").read_text()) == PUBLIC_API
