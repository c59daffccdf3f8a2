"""A criterion whose raw scores are all equal normalizes to zeros and drops
out of the mix: ``score`` and each ``run`` round name it on stderr, after
their outputs are written, and write the same bytes as without the warning."""

import numpy as np
import pytest

from driveselect import cli
from driveselect.cli import main
from driveselect.criteria import SCORE_COLUMNS, constant_criteria, save_predictions
from driveselect.pool import load_pool
from driveselect.synthworld import ToyPlanner, load_truth

WARNING = "warning: {}: criteria sc, au constant over {} scored clips; normalized to 0, they drop out of the mix"
OUTPUTS = ("out/manifest.json", "out/selection.json", "out/report.json", "out/report.tsv", "scores.tsv",
           "selected.json")


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def still_world(tmp_path_factory):
    """A 400-clip seed-3 world with no agents, its first selection and ToyPlanner predictions."""
    d = tmp_path_factory.mktemp("still")
    assert run_cli("gen", "--n", 400, "--seed", 3, "--set", "agent_rate=0",
                   "--pool", d / "pool.jsonl", "--truth", d / "truth.jsonl") == 0
    assert run_cli("init", "--pool", d / "pool.jsonl", "--n0", 40, "--out", d / "sel.json") == 0
    clips = load_pool(d / "pool.jsonl")[0]
    save_predictions(ToyPlanner(clips, load_truth(d / "truth.jsonl")).predict(clips.ids).values(), d / "preds.jsonl")
    return d


def run_all(world, out):
    """``run``, ``score`` and ``select`` on the world, writing into ``out``."""
    assert run_cli("run", "--pool", world / "pool.jsonl", "--truth", world / "truth.jsonl", "--out-dir", out / "out",
                   "--heldout-count", 40) == 0
    assert run_cli("score", "--pool", world / "pool.jsonl", "--selection", world / "sel.json",
                   "--predictions", world / "preds.jsonl", "--out", out / "scores.tsv") == 0
    assert run_cli("select", "--scores", out / "scores.tsv", "--selection", world / "sel.json", "--n-itr", 40,
                   "--out", out / "selected.json") == 0


def test_run_and_score_name_the_constant_criteria(still_world, tmp_path, capsys):
    run_all(still_world, tmp_path)
    assert capsys.readouterr().err.splitlines() == [
        WARNING.format("round 1", 324),
        WARNING.format("round 2", 288),
        WARNING.format(f"scores file {tmp_path / 'scores.tsv'}", 360),
    ]


def test_warnings_come_after_the_outputs(still_world, tmp_path, monkeypatch):
    warned = []
    warn = cli._warn_constant

    def checked(where, criteria, n_scored):
        written = [tmp_path / "out" / "report.tsv"] if where.startswith("round") else [tmp_path / "scores.tsv"]
        assert all(path.exists() for path in written), where
        warned.append(where)
        warn(where, criteria, n_scored)

    monkeypatch.setattr(cli, "_warn_constant", checked)
    run_all(still_world, tmp_path)
    assert warned == ["round 1", "round 2", f"scores file {tmp_path / 'scores.tsv'}"]


def test_the_warning_changes_no_output(still_world, tmp_path, monkeypatch, capsys):
    run_all(still_world, tmp_path / "warned")
    assert capsys.readouterr().err
    monkeypatch.setattr(cli, "constant_criteria", lambda columns: [])
    monkeypatch.setattr("driveselect.loop.constant_criteria", lambda columns: [])
    run_all(still_world, tmp_path / "quiet")
    assert capsys.readouterr().err == ""
    for name in OUTPUTS:
        assert (tmp_path / "warned" / name).read_bytes() == (tmp_path / "quiet" / name).read_bytes(), name


def test_a_world_with_agents_warns_nothing(tmp_path, capsys):
    pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
    assert run_cli("gen", "--n", 200, "--seed", 7, "--pool", pool, "--truth", truth) == 0
    assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", tmp_path / "out") == 0
    assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", tmp_path / "random",
                   "--baseline", "random") == 0
    assert capsys.readouterr().err == ""


def test_constant_criteria_of_columns():
    columns = dict.fromkeys(SCORE_COLUMNS[1:], np.array([1.0, 2.0]))
    assert constant_criteria(columns) == []
    # _normalized's lo == hi: -0.0 equals 0.0.
    columns |= {"de_raw": np.array([0.0, -0.0]), "au_raw": np.array([3.5])}
    assert constant_criteria(columns) == ["de", "au"]
