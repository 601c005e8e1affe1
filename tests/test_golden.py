"""Seed-2020 outputs against the committed digests in bench/golden_2020.json.

The rerun tests in test_cli.py compare two runs made by the same code, so a
change to the RNG stream, the wire format or the statistics that altered every
output would pass them.  These digests were recorded from the published
pipeline; this test reads them and never writes them.
"""
import hashlib

from flexglove.cli import main

ANALYZE_OUTPUTS = ("cohort.csv", "regression.csv", "discriminability.csv", "centroids.csv")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def classify_digests(sessions, names, centroids, capsys, *flags):
    """The digest of each session's `classify` line, by session file name."""
    capsys.readouterr()
    digests = {}
    for name in names:
        assert main(["classify", str(sessions / name), str(centroids), *flags]) == 0
        digests[name] = sha256(capsys.readouterr().out.encode("ascii"))
    return digests


def test_seed_2020_simulate_analyze_and_classify_match_committed_digests(golden_digests, tmp_path, capsys):
    sessions, analysis = tmp_path / "sessions", tmp_path / "analysis"
    assert main(["simulate", "--seed", "2020", "--out", str(sessions)]) == 0
    written = {p.name: sha256(p.read_bytes()) for p in sessions.glob("*.session")}
    assert written == golden_digests["cohort/0"]

    assert main(["analyze", str(sessions), "--out", str(analysis)]) == 0
    analyzed = {name: sha256((analysis / name).read_bytes()) for name in ANALYZE_OUTPUTS}
    assert analyzed == golden_digests["replay-analyze/0"]

    # The README walkthrough's classify line, then every session's.
    capsys.readouterr()
    assert main(["classify", str(sessions / "sphere_9cm_s03.session"), str(analysis / "centroids.csv")]) == 0
    assert capsys.readouterr().out == "shape=sphere diameter_cm=9 distance=0.030446\n"
    classified = classify_digests(sessions, sorted(written), analysis / "centroids.csv", capsys)
    assert classified == golden_digests["replay-classify/0"]


def test_seed_2020_sweep_analyze_and_classify_match_committed_digests(golden_digests, sweep_analysis, capsys):
    """The benchmark's `sweep` job: 82 centroids, one four-frame query per
    (shape, diameter)."""
    sweep, analysis = sweep_analysis
    analyzed = {name: sha256((analysis / name).read_bytes()) for name in ANALYZE_OUTPUTS}
    assert analyzed == golden_digests["sweep-analyze"]
    flags = ("--expected-frames", str(sweep.frames))
    classified = classify_digests(sweep.directory, sweep.subset, analysis / "centroids.csv", capsys, *flags)
    assert len(classified) == 82
    assert classified == golden_digests["sweep-classify"]


# bench/golden_2020.json holds no characterize outputs; these digests were
# recorded from the same seed-2020 pipeline and pin its two files here.
CHARACTERIZE_DIGESTS = {
    "sweep.csv": "8ff64898277f604ed801bf888cd763086020af0d9713db0a018339a683e0f761",
    "stability.csv": "71f7fc299f0323b2c081fc5b5e0b9a14fec40e6d9378c55090541eb6c9d448d2",
}


def test_seed_2020_characterize_matches_recorded_digests(tmp_path):
    out = tmp_path / "characterize"
    assert main(["characterize", "--seed", "2020", "--out", str(out)]) == 0
    written = {name: sha256((out / name).read_bytes()) for name in CHARACTERIZE_DIGESTS}
    assert written == CHARACTERIZE_DIGESTS
