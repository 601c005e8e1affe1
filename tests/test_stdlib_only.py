"""The runtime imports nothing outside the standard library and the package."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "flexglove").glob("*.py"))


def imported_modules(tree: ast.AST) -> list[str]:
    """Top-level names of every absolute import in ``tree``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def unused_imports(tree: ast.AST) -> list[str]:
    """Names that ``tree`` imports, __future__ features aside, and never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        name for name in imported_modules(tree)
        if name not in sys.stdlib_module_names and name != "flexglove"
    ]
    assert foreign == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_guard_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path, sys\n"
        "from math import fsum, isqrt as root\nprint(os.sep, fsum)\n"
    )
    assert unused_imports(tree) == ["sys", "root"]


def test_guard_flags_a_third_party_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom .errors import ArgumentError\nfrom yaml import safe_load\n")
    assert [n for n in imported_modules(tree) if n not in sys.stdlib_module_names] == ["numpy", "yaml"]


def test_cli_import_loads_no_slow_stdlib_module():
    """dataclasses (through inspect) and statistics (through fractions and
    decimal) cost ~20 ms of every command's start-up.  -I keeps the
    environment's PYTHONPATH out and -B keeps __pycache__ out of src/."""
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import flexglove.cli; "
        "print(sorted({'dataclasses', 'inspect', 'statistics'} & sys.modules.keys()))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
