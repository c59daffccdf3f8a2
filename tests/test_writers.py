"""The one orjson exactness rule (``pool.exact_rows``) and the one block
writer (``pool.write_lines``) behind every JSONL and TSV output."""

import json
import os
import re

import numpy as np
import orjson
import pytest

from driveselect import criteria
from driveselect.cli import main
from driveselect.criteria import SCORE_COLUMNS, prediction_batch, prediction_to_dict, save_predictions, save_scores
from driveselect.pool import encode_line, exact_rows, load_pool, save_pool, write_lines
from driveselect.synthworld import save_truth

from conftest import make_clip, make_forecast, make_pred


def assert_exact_means_alike(exact, records):
    """Each record that ``exact_rows`` passes, orjson writes as ``encode_line`` does."""
    for ok, record in zip(exact.tolist(), records):
        if ok:
            assert orjson.dumps(record) == encode_line(record), record


class TestExactRows:
    @pytest.mark.parametrize("value, taken", [(5e-324, False), (1e16, False), (1e-05, False), (-0.0, True),
                                              (9.999999999999998e15, True), (1e-4, True)])
    def test_floats_of_a_record_and_of_its_items(self, value, taken):
        """A value in a record's own group or in one of its agents' decides
        that record only; rows of a group are all their trailing axes. orjson
        writes 5e-324 alike, but outside the range it is not taken."""
        plans = np.ones((3, 6, 2))
        plans[1, 5, 1] = value
        starts = np.ones((4, 2))
        starts[3, 0] = value
        owners = np.array([0, 0, 2, 2])
        exact = exact_rows(3, [(None, plans), (owners, starts)], [])
        assert exact.tolist() == [True, taken, taken]
        records = [{"plan": plans[i].tolist(), "starts": starts[owners == i].tolist()} for i in range(3)]
        assert_exact_means_alike(exact, records)

    @pytest.mark.parametrize("bad", [7, None, "clïp", "c\x7f", "\x7f", "a\udc80"])
    @pytest.mark.parametrize("agent", [False, True])
    def test_ids_not_written_alike(self, bad, agent):
        """A clip id or an agent id that is not a str, not ASCII, or holds
        DEL (alone in its group, or among plain ids) fails its record only."""
        clip_ids = ["c0", "c1", "c2"]
        agent_ids = ["a0", "a1", "a2"]
        (agent_ids if agent else clip_ids)[1] = bad
        owners = np.array([0, 2, 2])
        exact = exact_rows(3, [], [(None, clip_ids), (owners, agent_ids)])
        assert exact.tolist() == ([True, True, False] if agent else [True, False, True])
        alone = exact_rows(1, [], [(np.array([0]), [bad])] if agent else [(None, [bad])])
        assert alone.tolist() == [False]

    def test_plain_ids_and_floats(self):
        exact = exact_rows(2, [(None, [2.5, 0.0])], [(None, ["c0", "c1"]), (np.array([1]), ["a\t1"])])
        assert exact.tolist() == [True, True]

    def test_empty_groups(self):
        """Groups with no values, of any shape, and no records at all."""
        none = np.array([], dtype=np.intp)
        exact = exact_rows(2, [(none, np.empty((0, 6, 2))), (none, np.empty(0)), (None, np.ones((2, 0)))],
                           [(none, []), (None, ["c0", "c1"])])
        assert exact.tolist() == [True, True]
        assert exact_rows(0, [(None, np.empty((0, 6, 2)))], [(None, [])]).tolist() == []

    def test_padded_modalities_are_not_checked(self, tmp_path, monkeypatch):
        """Padding that orjson would not write alike is never written, so
        rows of a batch whose padding holds it still skip ``encode_line``."""
        preds = [make_pred("c0", agents=[make_forecast("a0", 0.25, (0.5, 0.5)), make_forecast("a1", 0.75, (1.0,))]),
                 make_pred("c1", agents=[make_forecast("b0", 0.5, (0.25, 0.25, 0.5))])]
        batch = prediction_batch({p.clip_id: p for p in preds}, [make_clip(p.clip_id) for p in preds])
        padded = np.arange(3) >= batch.modality_counts[:, None]
        assert padded.any()
        batch.modality_probs[padded] = 1e-05
        batch.modality_trajs[padded] = 1e16
        expected = b"".join(encode_line(prediction_to_dict(p)) + b"\n" for p in preds)
        calls = []
        monkeypatch.setattr(criteria, "encode_line", lambda record: calls.append(record) or encode_line(record))
        save_predictions(batch.values(), tmp_path / "p.jsonl")
        assert calls == []
        assert (tmp_path / "p.jsonl").read_bytes() == expected


class TestWriteLines:
    @pytest.mark.parametrize("save, empty", [(save_pool, []), (save_truth, {}), (save_predictions, [])])
    def test_no_records_is_one_newline(self, tmp_path, save, empty):
        save(empty, tmp_path / "out")
        assert (tmp_path / "out").read_bytes() == b"\n"

    def test_each_line_ends_in_a_newline_and_each_file_gets_its_lines(self, tmp_path):
        paths = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
        write_lines(paths, [([b"1", b""], iter([b"x"]), []), ([b"2"], [], [])])
        assert [p.read_bytes() for p in paths] == [b"1\n\n2\n", b"x\n", b"\n"]

    def test_two_paths_of_one_file_make_nothing(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="are the same file"):
            write_lines([path, tmp_path / "." / "out.jsonl"], [([b"a"], [b"b"])])
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_block_leaves_nothing(self, tmp_path):
        def blocks():
            yield [b"a"], [b"b"]
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            write_lines([tmp_path / "a", tmp_path / "b"], blocks())
        assert list(tmp_path.iterdir()) == []


class TestScoresIds:
    @pytest.mark.parametrize("bad", ["bad\tid", "cr\rid", "lf\nid", "\r"])
    def test_id_with_a_separator_is_refused_before_any_file(self, tmp_path, bad):
        ids = ("c0", bad, "c2")
        columns = dict(zip(SCORE_COLUMNS, (ids, *np.full((7, 3), 0.5))))
        with pytest.raises(ValueError, match=f"^clip id {re.escape(repr(bad))} holds a tab or line break"):
            save_scores(columns, tmp_path / "scores.tsv")
        assert list(tmp_path.iterdir()) == []

    def test_score_exits_1_and_writes_no_scores(self, tmp_path, capsys):
        """On a 40-clip seed-3 world whose pool has the ids ``bad\\tid`` and
        ``cr\\rid``, ``score`` wrote a file that ``select`` then rejected."""
        pool, truth, sel, preds = (tmp_path / name for name in ("pool.jsonl", "truth.jsonl", "sel.json", "p.jsonl"))
        assert main(["gen", "--n", "40", "--seed", "3", "--pool", str(pool), "--truth", str(truth)]) == 0
        lines = pool.read_text().splitlines()
        for k, new in ((5, "bad\tid"), (20, "cr\rid")):
            lines[k] = json.dumps({**json.loads(lines[k]), "id": new})
        pool.write_text("\n".join(lines) + "\n")
        save_predictions([make_pred(clip.id) for clip in load_pool(pool)[0]], preds)
        assert main(["init", "--pool", str(pool), "--mode", "random", "--n0", "4", "--seed", "1",
                     "--out", str(sel)]) == 0
        capsys.readouterr()
        scores = tmp_path / "scores.tsv"
        assert main(["score", "--pool", str(pool), "--selection", str(sel), "--predictions", str(preds),
                     "--out", str(scores)]) == 1
        assert "error: clip id 'bad\\tid' holds a tab or line break" in capsys.readouterr().err
        assert not scores.exists()
        assert sorted(os.listdir(tmp_path)) == ["p.jsonl", "pool.jsonl", "sel.json", "truth.jsonl"]
