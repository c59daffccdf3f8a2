"""The JSONL input boundary: pool, predictions and truth files.

A file with one bad line must either load or raise a PoolFormatError that
names the file and the line; through the CLI it must exit 1 with that
message, before any output is written.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driveselect.cli import main
from driveselect.criteria import load_predictions, prediction_to_dict, rank_and_take, score_pool
from driveselect.pool import PoolFormatError, load_pool, pool_to_lines
from driveselect.synthworld import ToyPlanner, WorldConfig, generate_world, load_truth, truth_to_lines

HUGE_INT = 10**400  # parses as a JSON integer, overflows float()

_CLIPS, _TRUTH = generate_world(WorldConfig(n_clips=6, seed=3))
_PLANNER = ToyPlanner(_CLIPS, _TRUTH)
_PLANNER.train([c.id for c in _CLIPS[:3]])
_PREDICTIONS = _PLANNER.predict([c.id for c in _CLIPS])

#: kind -> (valid lines, loader, the name errors start with)
VALID = {
    "pool": (pool_to_lines(_CLIPS), load_pool, "pool"),
    "predictions": (
        [json.dumps(prediction_to_dict(p)) for p in _PREDICTIONS.values()],
        load_predictions,
        "predictions",
    ),
    "truth": (truth_to_lines(_TRUTH, [c.id for c in _CLIPS]), load_truth, "truth"),
}

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.just(HUGE_INT)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Replacement text for a whole line; a newline would renumber the lines.
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=40)


def json_paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def mutate_line(line: str, data) -> str:
    """One random edit of one line: a value, a deletion, a cut, or new text."""
    kind = data.draw(st.sampled_from(["set", "delete", "cut", "text"]))
    if kind == "cut":
        return line[: data.draw(st.integers(0, len(line)))]
    if kind == "text":
        return data.draw(LINE_TEXT)
    record = json.loads(line)
    path = data.draw(st.sampled_from(list(json_paths(record))[1:]))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    return json.dumps(record)


def check_error_names_line(exc: PoolFormatError, what: str, path, lineno: int) -> None:
    match = re.match(rf"{what} file {re.escape(str(path))} line (\d+): ", str(exc))
    assert match, str(exc)
    # A clashing id is reported where it appears the second time.
    assert int(match.group(1)) == lineno or "duplicate" in str(exc), str(exc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


class TestMutatedLines:
    @pytest.mark.parametrize("kind", sorted(VALID))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_loads_or_names_file_and_line(self, workdir, kind, data):
        lines, load, what = VALID[kind]
        index = data.draw(st.integers(0, len(lines) - 1))
        mutated = list(lines)
        mutated[index] = mutate_line(lines[index], data)
        path = workdir / f"{kind}.jsonl"
        path.write_text("\n".join(mutated) + "\n", encoding="utf-8")
        try:
            load(path)
        except PoolFormatError as exc:
            check_error_names_line(exc, what, path, index + 1)


def _with_record(lines, index, edit):
    record = json.loads(lines[index])
    edit(record)
    return lines[:index] + [json.dumps(record)] + lines[index + 1 :]


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestRegressions:
    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("pool", lambda r: r["frames"][0].update(speed=HUGE_INT)),
            ("pool", lambda r: r["gt_future"][2].__setitem__(0, HUGE_INT)),
            ("predictions", lambda r: r["ego_plan"][1].__setitem__(1, HUGE_INT)),
            ("truth", lambda r: r["ego_future"][0].__setitem__(0, HUGE_INT)),
        ],
    )
    def test_huge_integer_names_line(self, tmp_path, kind, edit):
        lines, load, what = VALID[kind]
        path = _write(tmp_path / "in.jsonl", _with_record(lines, 2, edit))
        with pytest.raises(PoolFormatError) as info:
            load(path)
        check_error_names_line(info.value, what, path, 3)
        assert "too large" in str(info.value)

    @pytest.mark.parametrize("kind, key", [("pool", "id"), ("predictions", "clip_id"), ("truth", "clip_id")])
    @pytest.mark.parametrize("value", [None, 7, ["a"]])
    def test_non_string_id_is_rejected(self, tmp_path, kind, key, value):
        lines, load, what = VALID[kind]
        path = _write(tmp_path / "in.jsonl", _with_record(lines, 1, lambda r: r.update({key: value})))
        with pytest.raises(PoolFormatError, match=f"{key} must be a JSON string, got {re.escape(json.dumps(value))}") as info:
            load(path)
        check_error_names_line(info.value, what, path, 2)

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_deep_nesting_names_line(self, tmp_path, kind):
        lines, load, what = VALID[kind]
        path = _write(tmp_path / "in.jsonl", lines[:3] + ["[" * 100_000] + lines[3:])
        with pytest.raises(PoolFormatError) as info:
            load(path)
        check_error_names_line(info.value, what, path, 4)

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_empty_file_names_the_file(self, tmp_path, kind):
        _, load, what = VALID[kind]
        path = _write(tmp_path / "in.jsonl", ["", "  "])
        with pytest.raises(PoolFormatError, match=re.escape(f"{what} file {path} is empty")):
            load(path)

    def test_nan_modality_probability_is_rejected(self, tmp_path):
        lines, _, _ = VALID["predictions"]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])

        def edit(record):
            record["agents"][0]["modality_probs"][0] = float("nan")

        path = _write(tmp_path / "preds.jsonl", _with_record(lines, index, edit))
        with pytest.raises(PoolFormatError, match="NaN modality probability") as info:
            load_predictions(path)
        check_error_names_line(info.value, "predictions", path, index + 1)

    @pytest.mark.parametrize("field", ["ego_future", "track"])
    def test_truth_horizon_is_checked(self, tmp_path, field):
        lines, _, _ = VALID["truth"]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])

        def edit(record):
            target = record if field == "ego_future" else record["agents"][0]
            target[field] = target[field][:5]

        path = _write(tmp_path / "truth.jsonl", _with_record(lines, index, edit))
        with pytest.raises(PoolFormatError, match=f"{field} has 5 waypoints, expected 6") as info:
            load_truth(path)
        check_error_names_line(info.value, "truth", path, index + 1)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("ego_plan", "ego_plan has 5 waypoints, expected 6"),
            ("modality_trajs", "modality_trajs have 5 waypoints, expected 6"),
            ("both", "ego_plan has 5 waypoints, expected 6"),
        ],
    )
    def test_predictions_horizon_is_checked(self, tmp_path, field, message):
        """A short plan used to load and fail later with an unnamed shape error."""
        lines, _, _ = VALID["predictions"]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])

        def edit(record):
            if field != "modality_trajs":
                record["ego_plan"] = record["ego_plan"][:5]
            if field != "ego_plan":
                for agent in record["agents"]:
                    agent["modality_trajs"] = [t[:5] for t in agent["modality_trajs"]]

        path = _write(tmp_path / "preds.jsonl", _with_record(lines, index, edit))
        with pytest.raises(PoolFormatError, match=message) as info:
            load_predictions(path)
        check_error_names_line(info.value, "predictions", path, index + 1)

    def test_score_pool_names_a_clip_of_another_horizon(self):
        scores = dict(alpha=1.0, beta=1.0, eps_a=0.5, delta_d=3.0)
        short_clips, short_truth = generate_world(WorldConfig(n_clips=6, seed=3, horizon=5))
        with pytest.raises(ValueError, match="clip 'clip_000002': gt_future has 5 waypoints, predictions have 6"):
            score_pool(_CLIPS[:2] + short_clips[2:3], _PREDICTIONS, **scores)
        preds = dict(_PREDICTIONS)
        preds["clip_000004"] = ToyPlanner(short_clips, short_truth).predict(["clip_000004"])["clip_000004"]
        with pytest.raises(ValueError, match="clip 'clip_000004': ego_plan has 5 waypoints, expected 6"):
            score_pool(_CLIPS, preds, **scores)

    def test_non_finite_truth_start_is_rejected(self, tmp_path):
        lines, _, _ = VALID["truth"]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])

        def edit(record):
            record["agents"][0]["start"][1] = float("inf")

        path = _write(tmp_path / "truth.jsonl", _with_record(lines, index, edit))
        with pytest.raises(PoolFormatError, match="finite"):
            load_truth(path)


@settings(max_examples=200, deadline=None)
@given(
    scores=st.dictionaries(
        st.text(max_size=3),
        st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    ),
    data=st.data(),
)
def test_rank_and_take_ignores_key_order(scores, data):
    n = data.draw(st.integers(0, len(scores)))
    order = data.draw(st.permutations(list(scores)))
    assert rank_and_take({k: scores[k] for k in order}, n) == rank_and_take(scores, n)


class TestCli:
    """Bad input files exit 1 naming the file and line (or clip), writing nothing."""

    @pytest.fixture
    def world(self, tmp_path):
        pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        assert main(["gen", "--n", "40", "--seed", "7", "--pool", str(pool), "--truth", str(truth)]) == 0
        return pool, truth

    def _run(self, pool, truth, out):
        return main(["run", "--pool", str(pool), "--truth", str(truth), "--out-dir", str(out),
                     "--heldout-count", "4"])

    def _edit_line(self, path, index, edit):
        lines = path.read_text(encoding="utf-8").splitlines()
        return _write(path.with_name("edited_" + path.name), _with_record(lines, index, edit))

    def test_truth_missing_a_clip(self, world, tmp_path, capsys):
        pool, truth = world
        short = _write(tmp_path / "short.jsonl", truth.read_text(encoding="utf-8").splitlines()[:-1])
        out = tmp_path / "out"
        assert self._run(pool, short, out) == 1
        assert f"error: truth file {short}: no record for clip 'clip_000039'" in capsys.readouterr().err
        assert not out.exists()

    def test_five_point_truth_line(self, world, tmp_path, capsys):
        pool, truth = world
        bad = self._edit_line(truth, 10, lambda r: r.update(ego_future=r["ego_future"][:5]))
        out = tmp_path / "out"
        assert self._run(pool, bad, out) == 1
        assert f"error: truth file {bad} line 11: ego_future has 5 waypoints" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_integer_in_truth(self, world, tmp_path, capsys):
        pool, truth = world
        bad = self._edit_line(truth, 4, lambda r: r["ego_future"][3].__setitem__(1, HUGE_INT))
        out = tmp_path / "out"
        assert self._run(pool, bad, out) == 1
        assert f"error: truth file {bad} line 5: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r["frames"][0].update(speed=HUGE_INT),
            lambda r: r.update(id=None),
        ],
        ids=["huge_integer", "null_id"],
    )
    def test_bad_pool_line(self, world, tmp_path, capsys, edit):
        pool, truth = world
        bad = self._edit_line(pool, 6, edit)
        out = tmp_path / "out"
        assert self._run(bad, truth, out) == 1
        assert f"error: pool file {bad} line 7: " in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_pool_line_names_the_file(self, world, tmp_path, capsys):
        pool, _ = world
        bad = _write(tmp_path / "bad.jsonl", pool.read_text(encoding="utf-8").splitlines() + ["{not json"])
        sel = tmp_path / "sel.json"
        assert main(["init", "--pool", str(bad), "--n0", "4", "--out", str(sel)]) == 1
        assert f"error: pool file {bad} line 41: " in capsys.readouterr().err
        assert not sel.exists()

    def test_huge_integer_in_predictions(self, world, tmp_path, capsys):
        pool, _ = world
        sel = tmp_path / "sel.json"
        assert main(["init", "--pool", str(pool), "--n0", "4", "--out", str(sel)]) == 0
        clips, _ = load_pool(pool)
        preds = tmp_path / "preds.jsonl"
        _write(preds, [json.dumps({"clip_id": c.id, "ego_plan": [list(p) for p in c.gt_future], "agents": []})
                       for c in clips])
        bad = self._edit_line(preds, 2, lambda r: r["ego_plan"][0].__setitem__(0, -HUGE_INT))
        scores = tmp_path / "scores.tsv"
        assert main(["score", "--pool", str(pool), "--selection", str(sel), "--predictions", str(bad),
                     "--out", str(scores)]) == 1
        assert f"error: predictions file {bad} line 3: " in capsys.readouterr().err
        assert not scores.exists()

