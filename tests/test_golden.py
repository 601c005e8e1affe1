"""Seed-2020 outputs against the committed digests in bench/golden_2020.json.

The rerun tests in test_cli.py compare two runs made by the same code, so a
change to the RNG stream, the wire format or the statistics that altered every
output would pass them.  These digests were recorded from the published
pipeline; this test reads them and never writes them.
"""
import hashlib
import json
from pathlib import Path

from flexglove.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden_2020.json"
ANALYZE_OUTPUTS = ("cohort.csv", "regression.csv", "discriminability.csv", "centroids.csv")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_seed_2020_simulate_and_analyze_match_committed_digests(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    assert golden["seed"] == 2020
    digests = golden["digests"]

    sessions, analysis = tmp_path / "sessions", tmp_path / "analysis"
    assert main(["simulate", "--seed", "2020", "--out", str(sessions)]) == 0
    written = {p.name: sha256(p.read_bytes()) for p in sessions.glob("*.session")}
    assert written == digests["cohort/0"]

    assert main(["analyze", str(sessions), "--out", str(analysis)]) == 0
    analyzed = {name: sha256((analysis / name).read_bytes()) for name in ANALYZE_OUTPUTS}
    assert analyzed == digests["replay-analyze/0"]

    # The README walkthrough's classify line, pinned by the same file.
    capsys.readouterr()
    session = sessions / "sphere_9cm_s03.session"
    assert main(["classify", str(session), str(analysis / "centroids.csv")]) == 0
    line = capsys.readouterr().out
    assert line == "shape=sphere diameter_cm=9 distance=0.030446\n"
    assert sha256(line.encode("ascii")) == digests["replay-classify/0"][session.name]
