"""End-to-end CLI flows: gen / init / score / select / run / report."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driveselect import cli
from driveselect.cli import main
from driveselect.criteria import load_scores, rank_and_take, save_predictions
from driveselect.loop import ActiveConfig
from driveselect.pool import BUCKETS, load_pool, load_selection, save_selection, weather_lighting_bucket
from driveselect.synthworld import ToyPlanner, WorldConfig, generate_pool, load_truth


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def world(tmp_path):
    pool = tmp_path / "pool.jsonl"
    truth = tmp_path / "truth.jsonl"
    assert run_cli("gen", "--n", 120, "--seed", 7, "--pool", pool, "--truth", truth) == 0
    return pool, truth


class TestGen:
    def test_writes_both_files(self, world):
        pool, truth = world
        assert pool.exists() and truth.exists()
        clips, _ = load_pool(pool)
        assert len(clips) == 120

    def test_rerun_is_byte_identical(self, tmp_path, world):
        pool, truth = world
        pool2, truth2 = tmp_path / "pool2.jsonl", tmp_path / "truth2.jsonl"
        assert run_cli("gen", "--n", 120, "--seed", 7, "--pool", pool2, "--truth", truth2) == 0
        assert pool.read_bytes() == pool2.read_bytes()
        assert truth.read_bytes() == truth2.read_bytes()

    def test_invalid_probs_exit_nonzero_no_partial_files(self, tmp_path, capsys):
        pool = tmp_path / "bad_pool.jsonl"
        truth = tmp_path / "bad_truth.jsonl"
        code = run_cli("gen", "--n", 10, "--pool", pool, "--truth", truth,
                       "--set", "bucket_probs=[0.5, 0.5, 0.5, 0.5]")
        assert code == 1
        assert not pool.exists() and not truth.exists()

    def test_missing_truth_directory_leaves_no_pool(self, tmp_path, capsys):
        pool = tmp_path / "pool.jsonl"
        truth = tmp_path / "missing_dir" / "truth.jsonl"
        assert run_cli("gen", "--n", 10, "--pool", pool, "--truth", truth) == 1
        err = capsys.readouterr().err
        assert f"error: [Errno 2] No such file or directory: '{truth}'" in err
        assert list(tmp_path.iterdir()) == []

    def test_one_file_for_pool_and_truth_writes_nothing(self, tmp_path, capsys):
        """Otherwise the truth would be renamed over the pool."""
        same = tmp_path / "same.jsonl"
        assert run_cli("gen", "--n", 10, "--pool", same, "--truth", same) == 1
        assert f"error: outputs {same} and {same} are the same file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        code = run_cli("gen", "--n", 10, "--pool", tmp_path / "p", "--truth", tmp_path / "t",
                       "--set", "bogus=1")
        assert code == 2


class TestInit:
    def test_ego_diversity_matches_library(self, world, tmp_path):
        pool, _ = world
        sel = tmp_path / "sel.json"
        assert run_cli("init", "--pool", pool, "--mode", "ego-diversity",
                       "--n0", 12, "--gamma", 0.5, "--out", sel) == 0
        payload = json.loads(sel.read_text())
        assert payload["rounds"][0]["round"] == 0
        assert len(payload["rounds"][0]["ids"]) == 12

    def test_budget_beyond_pool_is_data_error(self, world, tmp_path):
        pool, _ = world
        assert run_cli("init", "--pool", pool, "--n0", 5000,
                       "--out", tmp_path / "sel.json") == 1

    def test_gamma_above_one_is_data_error(self, world, tmp_path, capsys):
        pool, _ = world
        sel = tmp_path / "sel.json"
        assert run_cli("init", "--pool", pool, "--n0", 12, "--gamma", 3, "--out", sel) == 1
        assert "gamma must be in (0, 1], got 3.0" in capsys.readouterr().err
        assert not sel.exists()

    def test_deterministic(self, world, tmp_path):
        pool, _ = world
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("init", "--pool", pool, "--mode", "random", "--n0", 10,
                           "--seed", 3, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_published_allocation_counts(self, tmp_path):
        # pool proportioned like the published long-tail counts, one clip per unit
        from conftest import make_clip
        from driveselect.pool import save_pool

        bucket_fields = {"DS": ("Sunny", "Day"), "DR": ("Rainy", "Day"),
                         "NS": ("Sunny", "Night"), "NR": ("Rainy", "Night")}
        counts = {"DS": 491, "DR": 125, "NS": 71, "NR": 13}
        clips, idx = [], 0
        for bucket, n in counts.items():
            weather, lighting = bucket_fields[bucket]
            for _ in range(n):
                clips.append(make_clip(f"c{idx:04d}", weather=weather, lighting=lighting,
                                       speeds=[2.0 + (idx % 89) * 0.15]))
                idx += 1
        pool = tmp_path / "tail_pool.jsonl"
        save_pool(clips, pool)
        sel = tmp_path / "sel.json"
        assert run_cli("init", "--pool", pool, "--mode", "ego-diversity",
                       "--n0", 70, "--gamma", 0.5, "--out", sel) == 0
        picked = set(json.loads(sel.read_text())["rounds"][0]["ids"])
        by_id = {c.id: c for c in clips}
        per_bucket = {b: 0 for b in BUCKETS}
        for cid in picked:
            per_bucket[weather_lighting_bucket(by_id[cid])] += 1
        assert per_bucket == {"DS": 34, "DR": 17, "NS": 13, "NR": 6}


class TestScoreSelect:
    def _init(self, pool, tmp_path, n0=10):
        sel = tmp_path / "sel.json"
        assert run_cli("init", "--pool", pool, "--n0", n0, "--out", sel) == 0
        return sel

    def test_identity_predictions_score_zero(self, world, tmp_path):
        pool, truth = world
        sel = self._init(pool, tmp_path)
        clips, _ = load_pool(pool)
        labeled = set(json.loads(sel.read_text())["rounds"][0]["ids"])
        unlabeled = [c for c in clips if c.id not in labeled]
        from driveselect.criteria import ClipPrediction

        preds = [ClipPrediction(clip_id=c.id, ego_plan=c.gt_future, agents=()) for c in unlabeled]
        pred_path = tmp_path / "preds.jsonl"
        save_predictions(preds, pred_path)
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--pool", pool, "--selection", sel,
                       "--predictions", pred_path, "--out", scores) == 0
        from driveselect.criteria import load_scores

        columns = load_scores(scores)
        assert len(columns["clip_id"]) == len(unlabeled)
        assert all((columns[c] == 0.0).all() for c in ("de_raw", "sc_raw", "au_raw"))

    def test_missing_prediction_names_clip(self, world, tmp_path, capsys):
        pool, truth = world
        sel = self._init(pool, tmp_path)
        clips, _ = load_pool(pool)
        labeled = set(json.loads(sel.read_text())["rounds"][0]["ids"])
        unlabeled = [c for c in clips if c.id not in labeled]
        from driveselect.criteria import ClipPrediction

        dropped = unlabeled[3].id
        preds = [ClipPrediction(clip_id=c.id, ego_plan=c.gt_future, agents=())
                 for c in unlabeled if c.id != dropped]
        pred_path = tmp_path / "preds.jsonl"
        save_predictions(preds, pred_path)
        code = run_cli("score", "--pool", pool, "--selection", sel,
                       "--predictions", pred_path, "--out", tmp_path / "scores.tsv")
        assert code == 1
        assert dropped in capsys.readouterr().err

    def test_select_appends_round(self, world, tmp_path):
        pool, truth = world
        sel = self._init(pool, tmp_path)
        clips, _ = load_pool(pool)
        truth_map = load_truth(truth)
        planner = ToyPlanner(clips, truth_map)
        labeled = json.loads(sel.read_text())["rounds"][0]["ids"]
        planner.train(labeled)
        unlabeled_ids = [c.id for c in clips if c.id not in set(labeled)]
        pred_path = tmp_path / "preds.jsonl"
        save_predictions(planner.predict(unlabeled_ids).values(), pred_path)
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--pool", pool, "--selection", sel,
                       "--predictions", pred_path, "--out", scores) == 0
        assert run_cli("select", "--scores", scores, "--selection", sel, "--n-itr", 10) == 0
        payload = json.loads(sel.read_text())
        assert [e["round"] for e in payload["rounds"]] == [0, 1]
        assert len(payload["rounds"][1]["ids"]) == 10

        # normalized columns are already in [0,1]: re-normalizing is a no-op
        from driveselect.criteria import load_scores, min_max_normalize

        columns = load_scores(scores)
        de_norm = dict(zip(columns["clip_id"], columns["de_norm"].tolist()))
        assert min_max_normalize(de_norm) == de_norm

    def test_select_too_many_is_data_error(self, world, tmp_path):
        pool, truth = world
        sel = self._init(pool, tmp_path, n0=115)
        clips, _ = load_pool(pool)
        labeled = set(json.loads(sel.read_text())["rounds"][0]["ids"])
        unlabeled = [c for c in clips if c.id not in labeled]
        from driveselect.criteria import ClipPrediction

        pred_path = tmp_path / "preds.jsonl"
        save_predictions(
            [ClipPrediction(clip_id=c.id, ego_plan=c.gt_future, agents=()) for c in unlabeled],
            pred_path,
        )
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--pool", pool, "--selection", sel,
                       "--predictions", pred_path, "--out", scores) == 0
        assert run_cli("select", "--scores", scores, "--selection", sel, "--n-itr", 10) == 1

    def test_predictions_of_another_horizon_name_file_and_line(self, world, tmp_path, capsys):
        pool, _ = world
        sel = self._init(pool, tmp_path)
        clips, _ = load_pool(pool, horizon=6)
        from driveselect.criteria import ClipPrediction

        pred_path = tmp_path / "preds.jsonl"
        save_predictions([ClipPrediction(clip_id=c.id, ego_plan=c.gt_future[:5], agents=()) for c in clips],
                         pred_path)
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--pool", pool, "--selection", sel,
                       "--predictions", pred_path, "--out", scores) == 1
        assert (f"error: predictions file {pred_path} line 1: ego_plan has 5 waypoints, expected 6"
                in capsys.readouterr().err)
        assert not scores.exists()

    def test_duplicate_scores_row_is_rejected(self, world, tmp_path, capsys):
        """A second clip_000010 row used to override the first one's 0.9."""
        from driveselect.criteria import SCORE_COLUMNS

        pool, _ = world
        sel = self._init(pool, tmp_path)
        scores = tmp_path / "scores.tsv"
        scores.write_text("\n".join([
            "\t".join(SCORE_COLUMNS),
            "clip_000010\t0\t0\t0\t0\t0\t0\t0.9",
            "clip_000011\t0\t0\t0\t0\t0\t0\t0.5",
            "clip_000010\t0\t0\t0\t0\t0\t0\t0.1",
        ]) + "\n")
        before = sel.read_text()
        for n_itr in (1, 3):
            assert run_cli("select", "--scores", scores, "--selection", sel, "--n-itr", n_itr) == 1
            assert f"error: scores file {scores} line 4: duplicate clip_id 'clip_000010'" in capsys.readouterr().err
            assert sel.read_text() == before

    @pytest.mark.parametrize("cells, message", [
        ("-5\t0\t0\t0\t0\t0\t0.5", "de_raw -5.0 not in [0.0, inf]"),
        ("0\t0\t0\t7.5\t0\t0\t0.5", "de_norm 7.5 not in [0.0, 1.0]"),
    ], ids=["de_raw", "de_norm"])
    def test_out_of_range_scores_are_rejected(self, world, tmp_path, capsys, cells, message):
        """Values ``score`` never writes: both loaded, and ``select`` ranked
        on them and exited 0. Now it exits 1, naming the line and column,
        and writes nothing."""
        from driveselect.criteria import SCORE_COLUMNS

        pool, _ = world
        sel = self._init(pool, tmp_path)
        scores = tmp_path / "scores.tsv"
        scores.write_text("\n".join(["\t".join(SCORE_COLUMNS), "clip_000010\t0\t0\t0\t0\t0\t0\t0.9",
                                     f"clip_000011\t{cells}"]) + "\n")
        before = sel.read_text()
        out = tmp_path / "out.json"
        assert run_cli("select", "--scores", scores, "--selection", sel, "--n-itr", 1, "--out", out) == 1
        assert f"error: scores file {scores} line 3: {message}" in capsys.readouterr().err
        assert sel.read_text() == before and not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"round": "0"}, 'round must be a JSON integer, got "0"'),
            ({"round": 1.9}, "round must be a JSON integer, got 1.9"),
            ({"round": True}, "round must be a JSON integer, got true"),
            ({"ids": [5]}, "id must be a JSON string, got 5"),
            ({"ids": [None]}, "id must be a JSON string, got null"),
        ],
    )
    def test_score_rejects_coercible_selection_values(self, world, tmp_path, capsys, entry, message):
        pool, _ = world
        sel = self._init(pool, tmp_path)
        payload = json.loads(sel.read_text())
        payload["rounds"][0].update(entry)
        sel.write_text(json.dumps(payload))
        clips, _ = load_pool(pool)
        pred_path = tmp_path / "preds.jsonl"
        from driveselect.criteria import ClipPrediction

        save_predictions([ClipPrediction(clip_id=c.id, ego_plan=c.gt_future, agents=()) for c in clips], pred_path)
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--pool", pool, "--selection", sel,
                       "--predictions", pred_path, "--out", scores) == 1
        assert f"error: selection file {sel}: {message}" in capsys.readouterr().err
        assert not scores.exists()

    @pytest.mark.parametrize(
        "bad_rounds, message",
        [
            (lambda ids: [(0, ids[:5]), (1, ids[4:6])], lambda ids: f"clip {ids[4]!r} already labeled"),
            (lambda ids: [(0, ids[:5]), (0, ids[5:])], lambda ids: "round index 0 must exceed previous 0"),
        ],
        ids=["already_labeled", "repeated_round"],
    )
    def test_select_rejects_what_score_rejects(self, world, tmp_path, capsys, bad_rounds, message):
        pool, _ = world
        sel = self._init(pool, tmp_path)
        labeled = json.loads(sel.read_text())["rounds"][0]["ids"]
        clips, _ = load_pool(pool)
        pred_path = tmp_path / "preds.jsonl"
        from driveselect.criteria import ClipPrediction

        save_predictions([ClipPrediction(clip_id=c.id, ego_plan=c.gt_future, agents=()) for c in clips], pred_path)
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--pool", pool, "--selection", sel, "--predictions", pred_path, "--out", scores) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rounds": [{"round": r, "ids": ids} for r, ids in bad_rounds(labeled)]}))
        before = bad.read_text()
        capsys.readouterr()
        assert run_cli("score", "--pool", pool, "--selection", bad, "--predictions", pred_path,
                       "--out", tmp_path / "bad_scores.tsv") == 1
        expected = f"error: selection file {bad}: {message(labeled)}\n"
        assert capsys.readouterr().err == expected
        for out in (tmp_path / "next.json", None):
            assert run_cli("select", "--scores", scores, "--selection", bad, "--n-itr", 3,
                           *(["--out", out] if out else [])) == 1
            assert capsys.readouterr().err == expected
        assert bad.read_text() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "pool.jsonl", "preds.jsonl",
                                                              "scores.tsv", "sel.json", "truth.jsonl"]

    @pytest.mark.parametrize("content", ['{"init": []}', "[1, 2]"])
    def test_select_rejects_file_without_rounds(self, tmp_path, capsys, content):
        from driveselect.criteria import SCORE_COLUMNS

        scores = tmp_path / "scores.tsv"
        scores.write_text("\t".join(SCORE_COLUMNS) + "\nc0\t0\t0\t0\t0\t0\t0\t0\n")
        sel = tmp_path / "sel.json"
        sel.write_text(content)
        assert run_cli("select", "--scores", scores, "--selection", sel, "--n-itr", 1) == 1
        assert f"selection file {sel}: missing 'rounds'" in capsys.readouterr().err
        assert sel.read_text() == content


class TestOneSelectionWriter:
    """``select`` writes the selection it loaded, plus its new round, with
    ``save_selection``, the writer of ``init`` and ``run``; so a selection
    file with a field that writer would drop is rejected by every reader."""

    @staticmethod
    def scored(world, tmp_path):
        """The pool's table, ``init --n0 10`` as ``sel.json``, and ToyPlanner
        predictions of every clip."""
        pool, truth = world
        clips, _ = load_pool(pool)
        sel, preds = tmp_path / "sel.json", tmp_path / "preds.jsonl"
        assert run_cli("init", "--pool", pool, "--n0", 10, "--out", sel) == 0
        save_predictions(ToyPlanner(clips, load_truth(truth)).predict(clips.ids).values(), preds)
        return clips, sel, preds

    def test_select_writes_what_save_selection_writes(self, world, tmp_path):
        """After one round and after two: the bytes of ``save_selection`` of
        the loaded selection with the top scored clips added, even where the
        input file was written compactly, with each round's keys reversed."""
        clips, sel, preds = self.scored(world, tmp_path)
        rounds = json.loads(sel.read_text())["rounds"]
        sel.write_text(json.dumps({"rounds": [{"ids": e["ids"], "round": e["round"]} for e in rounds]}))
        for n_itr in (7, 5):
            state = load_selection(sel, clips)
            scores = tmp_path / f"scores_{len(state.rounds)}.tsv"
            assert run_cli("score", "--pool", world[0], "--selection", sel, "--predictions", preds,
                           "--out", scores) == 0
            columns = load_scores(scores)
            state.add_round(len(state.rounds), rank_and_take(dict(zip(columns["clip_id"], columns["overall"])), n_itr))
            save_selection(state, tmp_path / "want.json")
            assert run_cli("select", "--scores", scores, "--selection", sel, "--n-itr", n_itr) == 0
            assert sel.read_bytes() == (tmp_path / "want.json").read_bytes()
        assert [len(ids) for _, ids in load_selection(sel, clips).rounds] == [10, 7, 5]

    @pytest.mark.parametrize("content, message", [
        ({"rounds": [], "note": "x"}, "unknown fields ['note']"),
        ({"rounds": [{"round": 0, "ids": ["clip_000001"], "note": "x"}]}, "unknown fields ['note']"),
        ({"init": []}, "missing 'rounds'"),
    ], ids=["top_level", "per_round", "no_rounds"])
    def test_unknown_field_fails_every_reader_and_writes_nothing(self, world, tmp_path, capsys, content, message):
        _, sel, preds = self.scored(world, tmp_path)
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--pool", world[0], "--selection", sel, "--predictions", preds, "--out", scores) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        listing = sorted(tmp_path.iterdir())
        capsys.readouterr()
        for argv in (
            ("score", "--pool", world[0], "--selection", bad, "--predictions", preds, "--out", tmp_path / "out.tsv"),
            ("select", "--scores", scores, "--selection", bad, "--n-itr", 3),
            ("select", "--scores", scores, "--selection", bad, "--n-itr", 3, "--out", tmp_path / "next.json"),
            ("report", "--selection", bad, "--selection", sel, "--out-dir", tmp_path / "overlap"),
        ):
            assert run_cli(*argv) == 1, argv[0]
            assert capsys.readouterr().err == f"error: selection file {bad}: {message}\n"
        assert bad.read_text() == json.dumps(content)
        assert sorted(tmp_path.iterdir()) == listing


def test_no_command_imports_numpy_ma(world, tmp_path):
    """np.unique imports numpy.ma (1.25 MB of RSS); no command may load it."""
    pool, truth = world
    clips, _ = load_pool(pool)
    save_predictions(ToyPlanner(clips, load_truth(truth)).predict(clips.ids).values(), tmp_path / "preds.jsonl")
    steps = [
        ["gen", "--n", "150", "--seed", "3", "--pool", "gen_pool.jsonl", "--truth", "gen_truth.jsonl"],
        ["run", "--pool", str(pool), "--truth", str(truth), "--out-dir", "run", "--heldout-count", "12"],
        ["init", "--pool", str(pool), "--n0", "12", "--out", "sel.json"],
        ["score", "--pool", str(pool), "--selection", "sel.json", "--predictions", "preds.jsonl", "--out", "s.tsv"],
        ["select", "--scores", "s.tsv", "--selection", "sel.json", "--n-itr", "12"],
        ["report", "--manifest", "run/manifest.json", "--selection", "sel.json", "--out-dir", "report"],
    ]
    code = (
        "import json, sys\n"
        "from driveselect.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv[0]\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(steps)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestNonFiniteSettings:
    """A setting that is not finite, or would make scores overflow, exits 1
    naming the key, and writes nothing."""

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("delta_d=nan", "delta_d must be finite and > 0, got nan"),
            ("delta_d=inf", "delta_d must be finite and > 0, got inf"),
            ("alpha=nan", "alpha must be in [0, 1e+06], got nan"),
            ("alpha=-inf", "alpha must be in [0, 1e+06], got -inf"),
            ("beta=1e308", "beta must be in [0, 1e+06], got 1e+308"),
            ("eps_a=nan", "eps_a must be in [0, 1], got nan"),
            ("gamma=nan", "gamma must be in (0, 1], got nan"),
        ],
    )
    def test_run_setting(self, world, tmp_path, capsys, setting, message):
        pool, truth = world
        out = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out,
                       "--heldout-count", 12, "--set", setting) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--delta-d", "nan", "delta_d must be finite and > 0, got nan"),
            ("--alpha", "inf", "alpha must be in [0, 1e+06], got inf"),
            ("--beta", "1e308", "beta must be in [0, 1e+06], got 1e+308"),
            ("--eps-a", "nan", "eps_a must be in [0, 1], got nan"),
        ],
    )
    def test_score_flag(self, world, tmp_path, capsys, flag, value, message):
        pool, _ = world
        sel = tmp_path / "sel.json"
        assert run_cli("init", "--pool", pool, "--n0", 10, "--out", sel) == 0
        clips, _ = load_pool(pool)
        preds = tmp_path / "preds.jsonl"
        save_predictions(ToyPlanner(clips, load_truth(world[1])).predict([c.id for c in clips]).values(), preds)
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--pool", pool, "--selection", sel, "--predictions", preds,
                       "--out", scores, flag, value) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not scores.exists()

    def test_init_gamma_flag(self, world, tmp_path, capsys):
        pool, _ = world
        sel = tmp_path / "sel.json"
        assert run_cli("init", "--pool", pool, "--n0", 12, "--gamma", "nan", "--out", sel) == 1
        assert "error: gamma must be in (0, 1], got nan" in capsys.readouterr().err
        assert not sel.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("noise_scale=nan", "noise_scale must be finite and >= 0, got nan"),
            ("agent_rate=inf", "agent_rate must be finite and >= 0, got inf"),
            ("bucket_probs=[NaN, 0.5, 0.25, 0.25]", "bucket_probs must be non-negative and sum to 1"),
        ],
    )
    def test_gen_setting(self, tmp_path, capsys, setting, message):
        pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        assert run_cli("gen", "--n", 10, "--pool", pool, "--truth", truth, "--set", setting) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not pool.exists() and not truth.exists()


class TestConfigFileTypes:
    """A config file value of the wrong JSON type is a usage error naming the
    key, where it used to be cast (10.7 to 10, true to 1, "2" to 2.0)."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_clips", 10.7, "config key 'n_clips' must be a JSON integer, got 10.7"),
            ("n_clips", 10.0, "config key 'n_clips' must be a JSON integer, got 10.0"),
            ("seed", True, "config key 'seed' must be a JSON integer, got true"),
            ("horizon", 6.9, "config key 'horizon' must be a JSON integer, got 6.9"),
            ("noise_scale", "0.5", 'config key \'noise_scale\' must be a JSON number, got "0.5"'),
            ("agent_rate", False, "config key 'agent_rate' must be a JSON number, got false"),
            ("bucket_probs", "[0.25, 0.25, 0.25, 0.25]",
             'config key \'bucket_probs\' must be a list of JSON numbers, got "[0.25, 0.25, 0.25, 0.25]"'),
            ("maneuver_probs", [0.5, True, 0.5],
             "config key 'maneuver_probs' must be a list of JSON numbers, got [0.5, true, 0.5]"),
            pytest.param("noise_scale", 10**400, "config key 'noise_scale': cannot parse", id="beyond-float"),
        ],
    )
    def test_gen(self, tmp_path, capsys, key, value, message):
        config = tmp_path / "world.json"
        config.write_text(json.dumps({"n_clips": 10, key: value}))
        pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        assert run_cli("gen", "--config", config, "--pool", pool, "--truth", truth) == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not pool.exists() and not truth.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("budget", 30.9, "config key 'budget' must be a JSON integer, got 30.9"),
            ("alpha", "2", 'config key \'alpha\' must be a JSON number, got "2"'),
            ("beta", None, "config key 'beta' must be a JSON number, got null"),
            ("init_mode", 5, "config key 'init_mode' must be a JSON string, got 5"),
        ],
    )
    def test_run(self, world, tmp_path, capsys, key, value, message):
        pool, truth = world
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"budget": 30, "n_init": 10, "n_rounds": 2, "n_per_round": 10, key: value}))
        out = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out,
                       "--heldout-count", 12, "--config", config) == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"alpha": -1}, "error: alpha must be in [0, 1e+06], got -1.0"),
            ({"alhpa": 1}, "usage error: unknown config key 'alhpa'; known keys: ["),
            ({"budget": 300, "n_init": 100, "n_rounds": 2, "n_per_round": 100},
             "error: budget 300 exceeds pool size 120"),
        ],
        ids=["value", "unknown-key", "budget"],
    )
    def test_run_error_names_config_file(self, world, tmp_path, capsys, config, message):
        pool, truth = world
        path, out = tmp_path / "c.json", tmp_path / "out"
        path.write_text(json.dumps(config))
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out, "--config", path) != 0
        err = capsys.readouterr().err
        assert err.startswith(message) and err.endswith(f" (config file {path})\n")
        assert not out.exists()

    def test_gen_error_names_config_file(self, tmp_path, capsys):
        path, pool, truth = tmp_path / "w.json", tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        path.write_text(json.dumps({"n_clips": 10, "horizon": 0}))
        assert run_cli("gen", "--config", path, "--pool", pool, "--truth", truth) == 1
        assert capsys.readouterr().err == f"error: horizon must be >= 1, got 0 (config file {path})\n"
        assert not pool.exists() and not truth.exists()

    def test_set_and_flag_errors_name_no_file(self, world, tmp_path, capsys):
        """A bad value from --set or a flag overrides the file's, and the error does not name the file."""
        pool, truth = world
        path, out = tmp_path / "c.json", tmp_path / "out"
        path.write_text(json.dumps({"alpha": 1, "seed": 3}))
        for flags in (["--set", "alpha=-1"], ["--seed", "-1"]):
            assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out, "--config", path, *flags) == 1
            assert "config file" not in capsys.readouterr().err
        assert not out.exists()

    def test_file_numbers_and_set_strings_still_parse(self, world, tmp_path):
        """An integer may fill a float key, and --set strings are parsed as before."""
        pool, truth = world
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"budget": 30, "n_init": 10, "n_rounds": 2, "n_per_round": 10, "alpha": 2}))
        from_file, from_set = tmp_path / "file", tmp_path / "set"
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", from_file,
                       "--heldout-count", 12, "--config", config) == 0
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", from_set, "--heldout-count", 12,
                       *[f"--set={k}={v}" for k, v in
                         (("budget", 30), ("n_init", "10"), ("n_rounds", 2), ("n_per_round", 10), ("alpha", "2"))]) == 0
        manifest = json.loads((from_file / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 2.0 and isinstance(manifest["config"]["alpha"], float)
        assert (from_file / "manifest.json").read_bytes() == (from_set / "manifest.json").read_bytes()


@pytest.fixture(scope="module")
def order_world(tmp_path_factory):
    """A small world and, per (init mode, baseline), the selection of ``run`` on it."""
    directory = tmp_path_factory.mktemp("order")
    generate_pool(WorldConfig(n_clips=150, seed=21), directory / "pool.jsonl", directory / "truth.jsonl")
    return directory, {}


class TestInputOrder:
    HELDOUT = 15

    def selection(self, directory, pool, init_mode, baseline):
        out = directory / "out"
        argv = ["run", "--pool", pool, "--truth", directory / "truth.jsonl", "--out-dir", out,
                "--heldout-count", self.HELDOUT, "--set", f"init_mode={init_mode}"]
        assert run_cli(*argv, *(["--baseline", baseline] if baseline else [])) == 0
        return (out / "selection.json").read_bytes()

    @pytest.mark.parametrize("baseline", [None, "random"], ids=["active", "random"])
    @pytest.mark.parametrize("init_mode", ["random", "ego-diversity"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuted_pool_lines_select_the_same(self, order_world, init_mode, baseline, seed):
        """The held-out clips are the last lines by design; the order of the
        other lines must not change what is selected."""
        directory, selections = order_world
        lines = (directory / "pool.jsonl").read_text().splitlines()
        key = (init_mode, baseline)
        if key not in selections:
            selections[key] = self.selection(directory, directory / "pool.jsonl", init_mode, baseline)
        body = [lines[i] for i in np.random.default_rng(seed).permutation(len(lines) - self.HELDOUT)]
        permuted = directory / "permuted.jsonl"
        permuted.write_text("\n".join(body + lines[-self.HELDOUT :]) + "\n")
        assert self.selection(directory, permuted, init_mode, baseline) == selections[key]


class TestHeldoutCount:
    """The held-out set is the last N of the 120 pool lines, and N must leave a pool."""

    @pytest.mark.parametrize("count", [120, 130])
    def test_no_pool_left_is_rejected(self, world, tmp_path, capsys, count):
        pool, truth = world
        out = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out, "--heldout-count", count) == 1
        assert f"error: --heldout-count must be less than the 120 pool clips, got {count}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_pool_clip_left_runs(self, world, tmp_path):
        pool, truth = world
        out = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out, "--heldout-count", 119,
                       "--set", "budget=1", "--set", "n_init=1", "--set", "n_rounds=0", "--set", "n_per_round=0") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pool"]["n_clips"] == 1
        assert manifest["pool"]["heldout_count"] == manifest["heldout"]["count"] == 119


class TestNegativeSeed:
    """A seed below 0 is named as a setting, whichever command takes it, and
    nothing is written."""

    MESSAGE = "error: seed must be >= 0, got -1\n"

    def test_gen(self, tmp_path, capsys):
        assert run_cli("gen", "--n", 10, "--seed", -1, "--pool", tmp_path / "p.jsonl",
                       "--truth", tmp_path / "t.jsonl") == 1
        assert capsys.readouterr().err == self.MESSAGE
        assert list(tmp_path.iterdir()) == []

    def test_init_random(self, world, tmp_path, capsys):
        pool, _ = world
        sel = tmp_path / "sel.json"
        assert run_cli("init", "--pool", pool, "--mode", "random", "--n0", 12, "--seed", -1, "--out", sel) == 1
        assert capsys.readouterr().err == self.MESSAGE
        assert not sel.exists()

    @pytest.mark.parametrize("flags", [("--seed", -1, "--baseline", "random"), ("--set", "seed=-1")])
    def test_run(self, world, tmp_path, capsys, flags):
        pool, truth = world
        out = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out, *flags) == 1
        assert capsys.readouterr().err == self.MESSAGE
        assert not out.exists()


class TestRun:
    def test_manifest_and_reports_written(self, world, tmp_path):
        pool, truth = world
        out = tmp_path / "out"
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out,
                       "--heldout-count", 20) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pool"]["n_clips"] == 100
        sizes = [len(manifest["init"]["ids"])] + [len(r["ids"]) for r in manifest["rounds"]]
        assert sizes == [10, 10, 10]  # default 10% + 10% + 10% schedule
        assert manifest["heldout"]["count"] == 20
        assert (out / "report.tsv").exists() and (out / "report.json").exists()
        assert (out / "selection.json").exists()

    def test_rerun_is_byte_identical(self, world, tmp_path):
        pool, truth = world
        for name in ("o1", "o2"):
            assert run_cli("run", "--pool", pool, "--truth", truth,
                           "--out-dir", tmp_path / name, "--heldout-count", 20) == 0
        for fname in ("manifest.json", "selection.json", "report.tsv", "report.json"):
            assert (tmp_path / "o1" / fname).read_bytes() == (tmp_path / "o2" / fname).read_bytes()

    def test_random_baseline_same_shape_different_ids(self, world, tmp_path):
        pool, truth = world
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", tmp_path / "act") == 0
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", tmp_path / "rnd",
                       "--baseline", "random") == 0
        act = json.loads((tmp_path / "act" / "manifest.json").read_text())
        rnd = json.loads((tmp_path / "rnd" / "manifest.json").read_text())
        assert len(act["init"]["ids"]) == len(rnd["init"]["ids"])
        assert act["init"]["ids"] != rnd["init"]["ids"]
        assert rnd["config"]["strategy"] == "random"

    def test_run_equals_manual_pipeline(self, world, tmp_path):
        """run == init -> (predictions file -> score -> select) x 2."""
        pool, truth = world
        out = tmp_path / "auto"
        assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out) == 0
        auto_sel = json.loads((out / "selection.json").read_text())

        sel = tmp_path / "manual_sel.json"
        assert run_cli("init", "--pool", pool, "--mode", "ego-diversity", "--n0", 12,
                       "--gamma", 0.5, "--out", sel) == 0
        clips, _ = load_pool(pool)
        truth_map = load_truth(truth)
        planner = ToyPlanner(clips, truth_map)
        for step in (1, 2):
            payload = json.loads(sel.read_text())
            labeled = [i for e in payload["rounds"] for i in e["ids"]]
            planner.train(labeled)
            unlabeled_ids = [c.id for c in clips if c.id not in set(labeled)]
            pred_path = tmp_path / f"preds_{step}.jsonl"
            save_predictions(planner.predict(unlabeled_ids).values(), pred_path)
            scores = tmp_path / f"scores_{step}.tsv"
            assert run_cli("score", "--pool", pool, "--selection", sel,
                           "--predictions", pred_path, "--out", scores) == 0
            assert run_cli("select", "--scores", scores, "--selection", sel,
                           "--n-itr", 12) == 0
        assert json.loads(sel.read_text()) == auto_sel

    def test_criterion_flag(self, world, tmp_path):
        pool, truth = world
        assert run_cli("run", "--pool", pool, "--truth", truth,
                       "--out-dir", tmp_path / "de_only", "--criterion", "de") == 0
        manifest = json.loads((tmp_path / "de_only" / "manifest.json").read_text())
        assert manifest["config"]["criterion"] == "de"


class TestReport:
    def test_two_manifests_comparison(self, world, tmp_path):
        pool, truth = world
        run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", tmp_path / "a",
                "--heldout-count", 20)
        run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", tmp_path / "b",
                "--baseline", "random", "--heldout-count", 20)
        out = tmp_path / "rep"
        assert run_cli("report", "--manifest", tmp_path / "a" / "manifest.json",
                       "--manifest", tmp_path / "b" / "manifest.json", "--out-dir", out) == 0
        assert "# comparison" in (out / "report.tsv").read_text()

    def test_single_manifest_stratified_only(self, world, tmp_path):
        pool, truth = world
        run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", tmp_path / "a",
                "--heldout-count", 20)
        out = tmp_path / "rep"
        assert run_cli("report", "--manifest", tmp_path / "a" / "manifest.json",
                       "--out-dir", out) == 0
        text = (out / "report.tsv").read_text()
        assert "# stratified" in text and "# comparison" not in text

    def test_selection_overlap_matrix(self, world, tmp_path):
        pool, truth = world
        for criterion in ("de", "sc", "au", "mix"):
            run_cli("run", "--pool", pool, "--truth", truth,
                    "--out-dir", tmp_path / criterion, "--criterion", criterion)
        out = tmp_path / "rep"
        assert run_cli(
            "report",
            "--selection", tmp_path / "de" / "selection.json",
            "--selection", tmp_path / "sc" / "selection.json",
            "--selection", tmp_path / "au" / "selection.json",
            "--selection", tmp_path / "mix" / "selection.json",
            "--out-dir", out,
        ) == 0
        doc = json.loads((out / "overlap.json").read_text())
        assert len(doc["labels"]) == 4
        mat = doc["matrix"]
        for i in range(4):
            assert mat[i][i] == 1.0
            for j in range(4):
                assert 0.0 <= mat[i][j] <= 1.0
        # Each overlap.tsv cell is the float literal of its overlap.json value.
        lines = (out / "overlap.tsv").read_text().splitlines()
        assert lines[:2] == ["# selection_overlap", "\t".join(["set", *doc["labels"]])]
        for line, label, row in zip(lines[2:], doc["labels"], mat, strict=True):
            assert line.split("\t") == [label, *map(repr, row)]

    def test_selection_labels_name_the_directory_of_every_shared_stem(self, world, tmp_path):
        """Files whose stems collide are all labelled <parent>/<stem>, the first
        one too; a full collision keeps its :<n> suffix, and a unique stem stays bare."""
        pool, truth = world
        for name in ("run_de", "run_sc"):
            run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", tmp_path / name, "--criterion", "de")
        (tmp_path / "other.json").write_text((tmp_path / "run_sc" / "selection.json").read_text())
        out = tmp_path / "rep"
        assert run_cli(
            "report",
            "--selection", tmp_path / "run_de" / "selection.json",
            "--selection", tmp_path / "run_sc" / "selection.json",
            "--selection", tmp_path / "run_sc" / "selection.json",
            "--selection", tmp_path / "other.json",
            "--out-dir", out,
        ) == 0
        labels = ["run_de/selection", "run_sc/selection", "run_sc/selection:2", "other"]
        assert json.loads((out / "overlap.json").read_text())["labels"] == labels
        assert (out / "overlap.tsv").read_text().splitlines()[1] == "\t".join(["set", *labels])

    def test_bad_manifest_schema_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "a manifest"}))
        assert run_cli("report", "--manifest", bad, "--out-dir", tmp_path / "rep") == 1

    @pytest.mark.parametrize(
        "manifest, field",
        [
            ({"config": {}, "rounds": []}, "pool"),
            ({"config": {}, "pool": {}, "init": {"mode": "random", "ids": []}, "rounds": [{"round": 1}]}, "ids"),
        ],
        ids=["no-pool", "round-without-ids"],
    )
    def test_missing_field_names_file_and_field(self, tmp_path, capsys, manifest, field):
        path, out = tmp_path / "m.json", tmp_path / "out"
        path.write_text(json.dumps(manifest))
        assert run_cli("report", "--manifest", path, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: manifest file {path}: missing field {field!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("[]", "expected a JSON object"),
            ('{"config": {}, "pool": {}, "init": {"mode": "random", "ids": []}, "rounds": [], "heldout": [1]}',
             "'list' object has no attribute 'get'"),
            ('{"config": {"alpha": NaN}, "pool": {}, "init": {"mode": "random", "ids": []}, "rounds": []}',
             "Out of range float values are not JSON compliant"),
        ],
        ids=["not-an-object", "wrong-type", "nan"],
    )
    def test_bad_manifest_names_file(self, tmp_path, capsys, text, problem):
        path, out = tmp_path / "m.json", tmp_path / "out"
        path.write_text(text)
        assert run_cli("report", "--manifest", path, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith(f"error: manifest file {path}: {problem}")
        assert not out.exists()

    def test_no_inputs_is_usage_error(self, tmp_path):
        assert run_cli("report", "--out-dir", tmp_path / "rep") == 2


@pytest.mark.parametrize("keys, config_class", [("ACTIVE_KEYS", ActiveConfig), ("WORLD_KEYS", WorldConfig)])
def test_config_keys_are_the_dataclass_fields(keys, config_class):
    """Every field of a config dataclass can be set, with the coercion of its type."""
    schema = getattr(cli, keys)
    assert list(schema) == [f.name for f in dataclasses.fields(config_class)]
    for f in dataclasses.fields(config_class):
        value = f.default if f.default is not dataclasses.MISSING else 3
        assert schema[f.name](value) == value
        assert type(schema[f.name](value)) is type(value)


def test_select_reads_its_selection_file_once(world, tmp_path, monkeypatch):
    """``select`` builds its state from the object it read, and opens the
    selection file once."""
    _, sel, preds = TestOneSelectionWriter.scored(world, tmp_path)
    scores = tmp_path / "scores.tsv"
    assert run_cli("score", "--pool", world[0], "--selection", sel, "--predictions", preds, "--out", scores) == 0
    opened = []
    builtin_open = open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(sel):
            opened.append(file)
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    for out in (tmp_path / "next.json", sel):
        opened.clear()
        assert run_cli("select", "--scores", scores, "--selection", sel, "--n-itr", 5, "--out", out) == 0
        assert len(opened) == 1
