"""The README's CLI walkthrough, run as written: every `flexglove ...` line
of its shell block goes through `main()` in a fresh directory, and the
classify line it prints must be the one the README shows after `# -> `."""
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
