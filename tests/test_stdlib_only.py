"""The runtime imports nothing outside the standard library and the package."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SOURCES = sorted((SRC / "flexglove").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Definitions kept with no caller in src/ or bench/, one reason each.
UNCALLED_ALLOWED = {
    "adc_to_voltage": "acceptance criterion 4 checks the count-to-voltage arithmetic through it",
    "min_max_normalize": "acceptance criterion 5 checks one sweep's normalization through it; "
    "build_cohort normalizes finger columns with the _normalized it wraps",
}

# Record fields that no attribute read in src/ or bench/ names, one reason each.
UNREAD_FIELDS_ALLOWED = {
    field: "resistance_at_diameter reads it by unpacking the curve"
    for field in ("CalibrationCurve.r_flat", "CalibrationCurve.r_min_diam", "CalibrationCurve.d_knee")
}


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


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Top-level functions, classes and constants of ``tree``, and the
    methods of its classes; dunder methods run implicitly and are left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.name, item) for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            )
    return found


def references(tree: ast.AST) -> list[tuple[str, int]]:
    """Every name ``tree`` reads, as a bare name, an attribute or a string
    equal to it (bench patches functions by name), with its line."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.append((node.value, node.lineno))
    return refs


def uncalled(defining: dict[object, ast.Module], reading: dict[object, ast.Module]) -> list[str]:
    """Names defined in ``defining`` that no file of ``reading`` refers to
    outside the lines of their own definition."""
    read_at: dict[str, list[tuple[object, int]]] = {}
    for path, tree in reading.items():
        for name, line in references(tree):
            read_at.setdefault(name, []).append((path, line))
    unused = []
    for path, tree in defining.items():
        for name, node in definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own for where, line in read_at.get(name, [])):
                unused.append(name)
    return unused


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


def test_every_definition_has_a_caller():
    # __init__.py only re-exports, and an export is not a caller.  It is left
    # out, so that no name it lists (an __all__ string, say) counts as a call.
    files = [p for p in SOURCES + BENCH if p.name != "__init__.py"]
    parsed = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in files}
    defining = {p: tree for p, tree in parsed.items() if p in SOURCES}
    assert sorted(uncalled(defining, parsed)) == sorted(UNCALLED_ALLOWED)


def test_guard_flags_an_uncalled_definition():
    module = ast.parse(
        "LIMIT = 3\nSPARE = 4\n\n"
        "def walk(n):\n    return walk(n - 1) if n > LIMIT else n\n\n"
        "def patched():\n    pass\n\n"
        "class Box:\n    def __init__(self):\n        pass\n\n"
        "    def size(self):\n        return 1\n\n"
        "    def spare(self):\n        return 2\n"
    )
    caller = ast.parse("import m\nprint(m.Box().size())\nsetattr(m, 'patched', print)\n")
    assert uncalled({"m": module}, {"m": module, "c": caller}) == ["SPARE", "walk", "spare"]


def record_fields(tree: ast.AST) -> list[str]:
    """"Record.field" for each field of each named tuple ``tree`` defines, as
    a typing.NamedTuple class or a subclass of a collections.namedtuple call."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id == "NamedTuple":
                names = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            elif isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
                names = base.args[1].value.replace(",", " ").split()
            else:
                continue
            found.extend(f"{node.name}.{name}" for name in names)
    return found


def unread_fields(defining: list[ast.AST], reading: list[ast.AST]) -> list[str]:
    """Fields of the records of ``defining`` that no attribute read in
    ``reading`` names.  A read matches by name alone, whatever it reads."""
    read = {
        node.attr for tree in reading for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [field for tree in defining for field in record_fields(tree) if field.split(".")[1] not in read]


def test_every_record_field_is_read():
    parsed = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES + BENCH}
    defining = [tree for p, tree in parsed.items() if p in SOURCES]
    assert sorted(unread_fields(defining, parsed.values())) == sorted(UNREAD_FIELDS_ALLOWED)


def test_guard_flags_an_unread_field():
    module = ast.parse(
        "from collections import namedtuple\nfrom typing import NamedTuple\n\n"
        "class Pair(NamedTuple):\n    left: int\n    right: int\n\n"
        "class Span(namedtuple('Span', 'lo hi')):\n    pass\n\n"
        "class Plain:\n    size: int\n"
    )
    caller = ast.parse("pair = Pair(left=1, right=2)\nprint(pair.left, Span(0, 1).hi)\npair.right = 3\n")
    assert unread_fields([module], [module, caller]) == ["Pair.right", "Span.lo"]


def random_constructions(tree: ast.AST) -> list[str]:
    """The function around each call of random.Random (or of a bare Random)
    in ``tree``, "<module>" for a call outside every function."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and "Random" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_generators_are_built_only_by_seeded_random():
    """seeded_random rejects a negative seed, which Random(-n) would read as n."""
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls.extend(random_constructions(tree))
    assert calls == ["seeded_random"]


def test_guard_flags_a_random_construction():
    tree = ast.parse(
        "import random\nrng = random.Random(1)\n\n"
        "def seeded_random(seed):\n    return random.Random(seed)\n\n"
        "def draw(seed):\n    return random.Random(seed).random()\n\n"
        "def bare(seed):\n    from random import Random\n    return Random(seed)\n"
    )
    assert random_constructions(tree) == ["<module>", "seeded_random", "draw", "bare"]


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


def attribute_reads(tree: ast.AST, name: str) -> list[int]:
    """The line of each read of an attribute called ``name`` in ``tree``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_read_no_frame_rows(path):
    """GraspSession.frames builds every row anew on each access.  It serves
    bench/ and the tests; the pipeline reads the stamp and count columns."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert attribute_reads(tree, "frames") == []


def test_guard_flags_a_frames_read():
    tree = ast.parse(
        "n = len(session.frames)\nfirst = s.frames[0]\nframes = 3\n\n"
        "def frames(self):\n    return self.stamps\n"
    )
    assert attribute_reads(tree, "frames") == [1, 2]
