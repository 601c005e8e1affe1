"""The README's code, run as written.  Every `flexglove ...` line of the CLI
walkthrough's shell block goes through `main()` in a fresh directory, and
the classify line it prints must be the one the README shows after `# -> `.
The "Library use" Python block runs through exec()."""
import re
import shlex
from pathlib import Path

from flexglove.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough():
    """(argv of each `flexglove` command, the README's expected classify line)."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI walkthrough\n+```sh\n(.*?)\n```", text, re.S).group(1)
    lines = block.splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("flexglove ")]
    expected = [line.removeprefix("# -> ") for line in lines if line.startswith("# -> ")]
    return commands, expected


def test_walkthrough_block_is_found():
    commands, expected = walkthrough()
    assert [argv[0] for argv in commands] == ["characterize", "simulate", "analyze", "classify"]
    assert len(expected) == 1


def test_walkthrough_runs_as_written(tmp_path, monkeypatch, capsys):
    commands, (expected,) = walkthrough()
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0, argv
    assert capsys.readouterr().out == expected + "\n"


def test_library_block_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n+```python\n(.*?)\n```", text, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    # 11 sphere and 10 cylinder diameters, each a centroid; 10 shared.
    assert len(namespace["centroids"]) == 21
    assert len(namespace["verdicts"]) == 10
