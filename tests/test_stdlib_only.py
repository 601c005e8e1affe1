"""The runtime imports nothing outside the standard library and the package."""
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from flexglove.classify import build_centroids, centroids_to_csv
from flexglove.session_io import write_session_file

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


def namedtuple_fields(node: ast.AST) -> list[str] | None:
    """The field names of a collections.namedtuple call, None for any other node."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple":
        return node.args[1].value.replace(",", " ").split()
    return None


def record_fields(tree: ast.AST) -> list[str]:
    """"Record.field" for each field of each named tuple ``tree`` defines: a
    typing.NamedTuple class, a subclass of a collections.namedtuple call, or
    a name assigned such a call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and (names := namedtuple_fields(node.value)) is not None:
            found.extend(f"{t.id}.{name}" for t in node.targets if isinstance(t, ast.Name) for name in names)
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id == "NamedTuple":
                names = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            elif (names := namedtuple_fields(base)) is None:
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
        "Cell = namedtuple('Cell', 'row, col')\n\n"
        "class Plain:\n    size: int\n"
    )
    caller = ast.parse(
        "pair = Pair(left=1, right=2)\nprint(pair.left, Span(0, 1).hi, Cell(0, 1).row)\npair.right = 3\n"
    )
    assert unread_fields([module], [module, caller]) == ["Pair.right", "Span.lo", "Cell.col"]


def typing_records_and_paths(tree: ast.AST) -> list[str]:
    """Each import of typing or pathlib in ``tree``, by module, and each class
    derived from NamedTuple, by class: a record is a collections.namedtuple,
    and a path is a str joined by os.path."""
    found = [name for name in imported_modules(tree) if name in ("typing", "pathlib")]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            "NamedTuple" in (getattr(base, "id", None), getattr(base, "attr", None)) for base in node.bases
        ):
            found.append(node.name)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_typing_pathlib_or_namedtuple_class(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert typing_records_and_paths(tree) == []


def test_guard_flags_typing_pathlib_and_a_namedtuple_class():
    tree = ast.parse(
        "import typing\nfrom collections import namedtuple\nfrom pathlib import Path\n"
        "from .errors import ArgumentError\n\n"
        "class Pair(typing.NamedTuple):\n    left: int\n\n"
        "class Span(namedtuple('Span', 'lo hi')):\n    pass\n\n"
        "def load():\n    from typing import NamedTuple\n\n"
        "    class Cell(NamedTuple):\n        row: int\n"
    )
    assert typing_records_and_paths(tree) == ["typing", "pathlib", "typing", "Pair", "Cell"]


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


# dataclasses (through inspect) and statistics (through fractions and decimal)
# cost ~20 ms of every command's start-up.
SLOW_MODULES = {"dataclasses", "inspect", "statistics"}
# No command needs typing or pathlib, and only the manifest needs json.  A
# site-packages .pth file may import any of them before the package runs, so
# only a probe without site (-S) sees whether the package does.
UNNEEDED_MODULES = {"typing", "pathlib", "json"}


def modules_after(flags: list[str], code: str, names: set[str]) -> str:
    """What a child interpreter run with ``flags`` prints after running
    ``code`` with src/ on its path: the names of ``names`` it has loaded.
    -I keeps the environment's PYTHONPATH out and -B keeps __pycache__ out of
    src/."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}; print(sorted({names!r} & sys.modules.keys()))"
    return subprocess.run([sys.executable, *flags, "-c", probe], capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_slow_stdlib_module():
    assert modules_after(["-I", "-B"], "import flexglove.cli", SLOW_MODULES) == "[]\n"
    assert modules_after(["-I", "-S", "-B"], "import flexglove.cli", SLOW_MODULES | UNNEEDED_MODULES) == "[]\n"


def test_classify_loads_no_unneeded_stdlib_module(tmp_path, default_cohort, default_table):
    session, centroids = tmp_path / "query.session", tmp_path / "centroids.csv"
    write_session_file(default_cohort[0], session)
    centroids.write_text(centroids_to_csv(build_centroids(default_table), default_table.raw_scale))
    code = f"from flexglove.cli import main; assert main(['classify', {str(session)!r}, {str(centroids)!r}]) == 0"
    out = modules_after(["-I", "-S", "-B"], code, SLOW_MODULES | UNNEEDED_MODULES)
    assert out.splitlines()[-1] == "[]"


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


# Tokens that hold no code of their own: a comment, a line end, and the
# zero-width markers of indentation and of the file's ends.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines of the Python file ``path`` that hold a token other than a
    comment or a newline, module, class and function docstrings left out:
    the line count ROADMAP.md reports.  A token spanning lines counts on
    each of them."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_of_the_package():
    """The count ROADMAP.md reports for src/flexglove, shown with -s.  It
    sets no bound."""
    counts = {path.name: code_lines(path) for path in SOURCES}
    print(f"\ncode lines in src/flexglove: {sum(counts.values())} {counts}")
    assert all(n > 0 for n in counts.values())


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        '"""Module\ndocstring."""\n'
        "# a comment\n\n"
        "PATTERN = (  # one statement over two lines\n"
        "    'a')\n"
        'NOTE = """a string\nover two lines"""\n\n'
        "class Box:\n"
        "    '''One line.'''\n\n"
        "    def size(self):\n"
        '        """Two\n        lines."""\n'
        "        return 1  # a comment after code\n",
        encoding="utf-8",
    )
    assert code_lines(module) == 7
