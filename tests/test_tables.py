"""Pool, truth and predictions files as column tables: ClipTable, TruthTable
and PredictionBatch against the per-record loaders and per-clip formulas
they replaced."""

import json
import re
import tracemalloc
import weakref
from functools import partial
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driveselect import criteria, synthworld
from driveselect import pool as pool_module
from driveselect.cli import main
from driveselect.criteria import (
    SCORE_COLUMNS,
    PredictionBatch,
    _batch_from_parts,
    _distances,
    _record_parts,
    load_predictions,
    prediction_batch,
    prediction_to_dict,
    save_predictions,
    save_scores,
    score_pool,
)
from driveselect.diversity import STRATUM_ORDER, ego_diversity_init, stratify
from driveselect.pool import (
    COMMAND_CLASSES,
    COMMAND_VALUES,
    LIGHTING_VALUES,
    WEATHER_VALUES,
    ClipRecord,
    ClipTable,
    classify_command,
    clip_from_dict,
    clip_table,
    clip_to_dict,
    encode_line,
    load_pool,
    mean_speed,
    parse_pool_lines,
    PoolFormatError,
    read_jsonl,
    row_index,
    save_pool,
    save_selection,
    share_pool_ids,
    weather_lighting_bucket,
)
from driveselect.synthworld import (
    ClipTruth,
    ToyPlanner,
    TruthTable,
    WorldConfig,
    _truth_from_dict,
    evaluate_clips,
    generate_pool,
    generate_world,
    load_truth,
    save_truth,
    share_pool,
    truth_table,
    truth_to_dict,
)

from conftest import random_clip, reference_bucket, reference_command_class, reference_mean_speed
from test_boundary import mutate_line


def reference_load_pool(source, horizon=6) -> list[ClipRecord]:
    """The pool loader before the pool became columns: one checked
    ClipRecord per line."""
    return list(read_jsonl(source, "pool", "id", partial(clip_from_dict, horizon=horizon)).values())


def reference_load_truth(source, horizon=6) -> dict[str, ClipTruth]:
    """The truth loader before truth became columns: three arrays per line."""
    return read_jsonl(source, "truth", "clip_id", partial(_truth_from_dict, horizon=horizon))


def reference_load_predictions(source, horizon=6):
    """The predictions loader before predictions became block columns: the
    arrays of each line, each checked as a batch of one so that the first
    bad line is named, joined into one batch."""
    def parse(record):
        parts = _record_parts(record, horizon)
        _batch_from_parts([record["clip_id"]], [parts], horizon)
        return parts

    return read_jsonl(
        source, "predictions", "clip_id", parse,
        lambda parts: _batch_from_parts(list(parts), list(parts.values()), horizon),
    )


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_table_equals_rows(table: ClipTable, rows: list[ClipRecord]) -> None:
    """Every column holds the records' values, floats bit for bit."""
    assert table.ids == tuple(c.id for c in rows)
    assert [WEATHER_VALUES[w] for w in table.weather.tolist()] == [c.weather for c in rows]
    assert [LIGHTING_VALUES[v] for v in table.lighting.tolist()] == [c.lighting for c in rows]
    assert table.offsets.tolist() == [0, *accumulate(len(c.speeds) for c in rows)]
    assert table.speeds.dtype == float and table.speeds.tobytes() == bits([v for c in rows for v in c.speeds])
    assert [COMMAND_VALUES[x] for x in table.commands.tolist()] == [x for c in rows for x in c.commands]
    assert table.gt_future.tobytes() == bits([c.gt_future for c in rows])
    assert table.annotations == tuple(c.annotation for c in rows)
    views = list(table)
    assert views == rows
    assert {type(v) for c in views for v in (*c.speeds, *(x for p in c.gt_future for x in p))} <= {float}


def assert_truth_equals_rows(table: TruthTable, rows: dict[str, ClipTruth]) -> None:
    assert table.clip_ids == tuple(rows)
    assert table.ego_future.tobytes() == bits([t.ego_future for t in rows.values()])
    assert table.agent_clip.tolist() == [row for row, t in enumerate(rows.values()) for _ in t.agent_ids]
    assert table.agent_ids.tolist() == [a for t in rows.values() for a in t.agent_ids]
    for clip_id, want in rows.items():
        got = table[clip_id]
        assert got.clip_id == want.clip_id and got.agent_ids == want.agent_ids
        for name in ("ego_future", "starts", "tracks"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == float and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_batch_equals(got, want) -> None:
    """The same clip ids and the same arrays: dtypes, shapes and bytes."""
    assert got.clip_ids == want.clip_ids
    for name in ("ego_plans", "agent_clip", "agent_ids", "confidence", "modality_counts", "modality_probs",
                 "modality_trajs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes(), name


def no_row_path():
    """Fails the test if a reader falls back to the per-record path."""
    return mock.patch.object(pool_module, "read_jsonl", side_effect=AssertionError("per-record path taken"))


# ---------------------------------------------------------------------------
# Generated files: ragged frame counts, JSON integers, annotations, blank
# lines and long fractions
# ---------------------------------------------------------------------------

#: Numbers as pool and truth files may hold them: floats, JSON integers (some
#: of 19+ digits, which json.loads decodes), and fractions of 19+ digits.
SPEEDS = (
    st.floats(0, 40)
    | st.integers(0, 40)
    | st.integers(10**18, 10**24)
    | st.sampled_from([0.0, -0.0, 5e-324, 0.00011746968799702769, 3.0000000000000004e-07])
)
COORDS = (
    st.floats(-1e3, 1e3)
    | st.integers(-50, 50)
    | st.sampled_from([-0.0, -0.00011746968799702769, 1.2345678901234567e-05, -9.094947017729282e-13])
)
ANNOTATIONS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _points(draw, n):
    return [[draw(COORDS), draw(COORDS)] for _ in range(n)]


@st.composite
def pool_records(draw, horizon):
    records = []
    for i in range(draw(st.integers(1, 12))):
        record = {
            "id": f"c{i}",
            "weather": draw(st.sampled_from(WEATHER_VALUES)),
            "lighting": draw(st.sampled_from(LIGHTING_VALUES)),
            "frames": [{"speed": draw(SPEEDS), "command": draw(st.sampled_from(COMMAND_VALUES))}
                       for _ in range(draw(st.integers(1, 6)))],
            "gt_future": _points(draw, horizon),
        }
        if draw(st.booleans()):
            record["annotation"] = draw(ANNOTATIONS)
        records.append(record)
    return records


@st.composite
def truth_records(draw, horizon):
    return [
        {
            "clip_id": f"c{i}",
            "ego_future": _points(draw, horizon),
            "agents": [
                {"agent_id": f"c{i}-a{j}", "start": _points(draw, 1)[0], "track": _points(draw, horizon)}
                for j in range(draw(st.integers(0, 3)))
            ],
        }
        for i in range(draw(st.integers(1, 12)))
    ]


def _probs(draw, m):
    """Probabilities of ``m`` modalities that sum to 1: a one-hot list of
    JSON integers, or positive weights over their sum."""
    if draw(st.booleans()):
        hot = draw(st.integers(0, m - 1))
        return [int(i == hot) for i in range(m)]
    weights = [draw(st.floats(0.01, 1.0)) for _ in range(m)]
    return [w / sum(weights) for w in weights]


@st.composite
def prediction_records(draw, horizon, modalities):
    """Predictions records whose agents have ``modalities`` modalities, or
    (None) the agents of each record a count from 1 to 4."""
    records = []
    for i in range(draw(st.integers(1, 12))):
        agents = []
        m = modalities or draw(st.integers(1, 4))
        for j in range(draw(st.integers(0, 3))):
            agents.append({
                "agent_id": f"c{i}-a{j}",
                "confidence": draw(st.floats(0, 1) | st.integers(0, 1)),
                "modality_probs": _probs(draw, m),
                "modality_trajs": [_points(draw, horizon) for _ in range(m)],
            })
        records.append({"clip_id": f"c{i}", "ego_plan": _points(draw, horizon), "agents": agents})
    return records


@st.composite
def jsonl_text(draw, records):
    """Lines of the records, as the writer or json.dumps writes them, with
    blank lines among them."""
    lines = [draw(st.sampled_from([encode_line, lambda r: json.dumps(r).encode()]))(r).decode() for r in records]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    return lines


class TestColumnsEqualRows:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), horizon=st.integers(1, 4), block=st.integers(1, 5))
    def test_pool(self, data, horizon, block):
        lines = data.draw(jsonl_text(data.draw(pool_records(horizon))))
        want = reference_load_pool(lines, horizon)
        with mock.patch.object(pool_module, "READ_BLOCK", block), no_row_path():
            table = parse_pool_lines(lines, horizon)
        assert_table_equals_rows(table, want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), horizon=st.integers(1, 4), block=st.integers(1, 5))
    def test_truth(self, tmp_path_factory, data, horizon, block):
        lines = data.draw(jsonl_text(data.draw(truth_records(horizon))))
        path = tmp_path_factory.mktemp("truth") / "truth.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = reference_load_truth(path, horizon)
        with mock.patch.object(pool_module, "READ_BLOCK", block), no_row_path():
            table = load_truth(path, horizon)
        assert_truth_equals_rows(table, want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), horizon=st.integers(1, 4), block=st.integers(1, 5),
           modalities=st.sampled_from([None, 1, 2, 3, 4]), given_horizon=st.booleans())
    def test_predictions(self, data, horizon, block, modalities, given_horizon):
        """Equal batches, and no per-record read: any one M, or agents of
        different M in one block."""
        lines = data.draw(jsonl_text(data.draw(prediction_records(horizon, modalities))))
        want = reference_load_predictions(lines, horizon)
        with mock.patch.object(pool_module, "READ_BLOCK", block), no_row_path():
            batch = load_predictions(lines, horizon if given_horizon else None)
        assert_batch_equals(batch, want)

    def test_predictions_of_mixed_m_in_one_record(self):
        """Agents of 2, 1 and 3 modalities: as many numbers as three agents
        of 2, which must not be read as such."""
        agents = [
            {"agent_id": f"a{m}", "confidence": 1, "modality_probs": [0] * (m - 1) + [1],
             "modality_trajs": [[[m, i]] for i in range(m)]}
            for m in (2, 1, 3)
        ]
        lines = [json.dumps({"clip_id": "c0", "ego_plan": [[0, 0]], "agents": agents})]
        want = reference_load_predictions(lines, 1)
        assert want.modality_counts.tolist() == [2, 1, 3]
        with no_row_path():
            assert_batch_equals(load_predictions(lines, 1), want)

    @pytest.mark.parametrize("horizons", [(2, 1, 1), (1, 2)])
    def test_predictions_of_two_horizons_fail_as_rows(self, horizons):
        """Without a given horizon, blocks whose first plans differ in length
        fail with the per-record message, whatever the lengths add up to."""
        lines = [json.dumps({"clip_id": f"c{i}", "ego_plan": [[0, 0]] * h, "agents": []})
                 for i, h in enumerate(horizons)]
        with mock.patch.object(pool_module, "READ_BLOCK", 1):
            assert _outcome(partial(load_predictions, horizon=None), lines) == _outcome(
                partial(reference_load_predictions, horizon=None), lines)

    def test_first_bad_line_wins_without_a_horizon(self, tmp_path):
        """Without a given horizon the first record's holds for the rest: a
        plan of another length on line 2 is named before a quoted confidence
        on line 4."""
        records = [{"clip_id": f"c{i}", "ego_plan": [[0, 0]] * 2, "agents": [
            {"agent_id": f"a{i}", "confidence": 1, "modality_probs": [1], "modality_trajs": [[[0, 0]] * 2]}
        ]} for i in range(4)]
        records[1].update(ego_plan=[[0, 0]] * 3, agents=[])
        records[3]["agents"][0]["confidence"] = "1"
        path = tmp_path / "preds.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(PoolFormatError) as error:
            load_predictions(path, None)
        assert str(error.value) == f"predictions file {path} line 2: ego_plan has 3 waypoints, expected 2"

    def test_generated_files(self, tmp_path):
        pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        generate_pool(WorldConfig(n_clips=300, seed=7, agent_rate=3.0), pool, truth)
        with no_row_path():
            table, state = load_pool(pool)
            truth_columns = load_truth(truth)
        assert state.pool_ids == table.ids
        assert_table_equals_rows(table, reference_load_pool(pool))
        assert_truth_equals_rows(truth_columns, reference_load_truth(truth))

    @pytest.mark.parametrize("seed, trained", [(7, 0), (11, 60)])
    def test_toy_planner_predictions(self, tmp_path, seed, trained):
        clips, truth = generate_world(WorldConfig(n_clips=300, seed=seed, agent_rate=3.0))
        planner = ToyPlanner(clips, truth)
        planner.train([c.id for c in clips[:trained]])
        path = tmp_path / "preds.jsonl"
        save_predictions(planner.predict([c.id for c in clips]).values(), path)
        want = reference_load_predictions(path)
        with no_row_path():
            assert_batch_equals(load_predictions(path), want)
            assert_batch_equals(load_predictions(path, None), want)

    def test_truth_rows_are_views(self, tmp_path):
        _, truth = generate_world(WorldConfig(n_clips=20, seed=3, agent_rate=3.0))
        table = truth_table(truth)
        row = table[next(i for i, t in truth.items() if len(t.agent_ids))]
        assert np.shares_memory(row.tracks, table.tracks) and np.shares_memory(row.ego_future, table.ego_future)


_WORLD = generate_world(WorldConfig(n_clips=6, seed=3, agent_rate=3.0))
_PLANNER = ToyPlanner(*_WORLD)
_PLANNER.train([c.id for c in _WORLD[0][:3]])
#: kind -> (valid lines, table loader, reference loader, check of a table against reference rows)
LOADERS = {
    "pool": ([encode_line(clip_to_dict(c)).decode() for c in _WORLD[0]],
             lambda path: load_pool(path)[0], reference_load_pool, assert_table_equals_rows),
    "truth": ([encode_line(truth_to_dict(t)).decode() for t in _WORLD[1].values()],
              load_truth, reference_load_truth, assert_truth_equals_rows),
    "predictions": ([encode_line(prediction_to_dict(p)).decode()
                     for p in _PLANNER.predict([c.id for c in _WORLD[0]]).values()],
                    load_predictions, reference_load_predictions, assert_batch_equals),
}
#: Values a mutated line may hold: what the column checks must reject just
#: as the per-record checks do (NaN, infinities, negatives, huge and
#: non-numbers), and valid replacements.
BAD_VALUES = st.recursive(
    st.sampled_from([float("nan"), float("inf"), -1.0, -0.0, 0, 10**400, "", "Left", "Sunny", "Day", None, True])
    | st.floats() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _outcome(load, path):
    try:
        return load(path)
    except pool_module.PoolFormatError as exc:
        return str(exc)


class TestSameErrors:
    """On any edited line the column reader loads what the per-record reader
    loads, or raises its error with the same text: file, line and message."""

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_line(self, tmp_path_factory, kind, data):
        lines, load, reference, check = LOADERS[kind]
        lines = list(lines)
        index = data.draw(st.integers(0, len(lines) - 1))
        lines[index] = mutate_line(lines[index], data, BAD_VALUES)
        if data.draw(st.booleans()):  # a clashing id
            lines.append(lines[data.draw(st.integers(0, len(lines) - 1))])
        path = tmp_path_factory.mktemp(kind) / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.check_same(kind, path)

    @pytest.mark.parametrize("kind, edit", [
        ("pool", lambda r: r.update(id="")),
        ("pool", lambda r: r.update(weather="Foggy")),
        ("pool", lambda r: r.update(frames=[])),
        ("pool", lambda r: r.update(frames={})),
        ("pool", lambda r: r["frames"][1].update(speed=float("nan"))),
        ("pool", lambda r: r["frames"][1].update(speed=-1e-300)),
        ("pool", lambda r: r["frames"][1].update(speed=10**400)),
        ("pool", lambda r: r["frames"][1].update(command="UTurn")),
        ("pool", lambda r: r["frames"][1].update(extra=1)),
        ("pool", lambda r: r["frames"].__setitem__(1, "Left")),
        ("pool", lambda r: r["gt_future"][2].pop()),
        ("pool", lambda r: r["gt_future"].pop()),
        ("pool", lambda r: r["gt_future"][2].__setitem__(0, float("-inf"))),
        ("pool", lambda r: r.update(annotation=[1, {"a": None}])),
        ("truth", lambda r: r.update(agents="")),
        ("truth", lambda r: r.update(agents={})),
        ("truth", lambda r: r.update(clip_id="")),
        ("truth", lambda r: r["agents"][0]["start"].__setitem__(1, float("inf"))),
        ("truth", lambda r: r["agents"][0].update(agent_id=None)),
        ("truth", lambda r: r["agents"][0]["track"].pop()),
        ("truth", lambda r: r["ego_future"][0].__setitem__(0, float("nan"))),
        ("predictions", lambda r: r.update(agents={})),
        ("predictions", lambda r: r["ego_plan"].pop()),
        ("predictions", lambda r: r["ego_plan"][1].__setitem__(1, float("inf"))),
        ("predictions", lambda r: r["agents"][0].update(confidence=1.5)),
        ("predictions", lambda r: r["agents"][0].update(agent_id=None)),
        ("predictions", lambda r: r["agents"][0]["modality_probs"].__setitem__(0, float("nan"))),
        ("predictions", lambda r: r["agents"][0]["modality_probs"].append(0.0)),
        ("predictions", lambda r: r["agents"][0]["modality_trajs"][1].pop()),
        ("predictions", lambda r: r["agents"][0].update(modality_probs=[], modality_trajs=[])),
        # One agent of one modality among agents of three: valid, and mixed M.
        ("predictions", lambda r: r["agents"][0].update(modality_probs=[1.0],
                                                        modality_trajs=r["agents"][0]["modality_trajs"][:1])),
    ])
    def test_edited_line(self, tmp_path, kind, edit):
        lines = list(LOADERS[kind][0])
        index = next(i for i, line in enumerate(lines) if kind == "pool" or json.loads(line)["agents"])
        record = json.loads(lines[index])
        edit(record)
        lines[index] = json.dumps(record)
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.check_same(kind, path)

    def check_same(self, kind, path):
        _, load, reference, check = LOADERS[kind]
        got, want = _outcome(load, path), _outcome(reference, path)
        if isinstance(want, str):
            assert got == want
        else:
            check(got, want)


# ---------------------------------------------------------------------------
# The table API
# ---------------------------------------------------------------------------


class TestClipTable:
    @pytest.fixture
    def clips(self, rng):
        return [random_clip(rng, f"c{i}") for i in range(9)]

    def test_converts_rows_and_keeps_a_table(self, clips):
        table = clip_table(clips)
        assert_table_equals_rows(table, clips)
        assert clip_table(table) is table

    def test_indexes_slices_and_takes(self, clips):
        table = clip_table(clips)
        assert table[-1] == clips[-1] and table[3] == clips[3]
        with pytest.raises(IndexError):
            table[9]
        for key in (slice(2, 7), slice(None, None, 3), slice(7, 2), slice(-4, None)):
            assert_table_equals_rows(table[key], clips[key])
        order = ["c5", "c0", "c8"]
        assert_table_equals_rows(table.take(order), [clips[5], clips[0], clips[8]])
        with pytest.raises(KeyError):
            table.take(["nope"])

    def test_equality_compares_columns(self, clips):
        assert clip_table(clips) == clip_table(list(clips))
        assert clip_table(clips) != clip_table(clips[:-1])
        assert clip_table(clips) != clips

    def test_duplicate_ids_are_rejected(self, clips):
        with pytest.raises(ValueError, match="duplicate clip id 'c1' in a clip table"):
            clip_table(clips + [clips[1]])

    def test_save_pool_writes_the_rows_bytes(self, clips, tmp_path):
        save_pool(clips, tmp_path / "rows.jsonl")
        save_pool(clip_table(clips), tmp_path / "table.jsonl")
        assert (tmp_path / "rows.jsonl").read_bytes() == (tmp_path / "table.jsonl").read_bytes()


@pytest.fixture(scope="module")
def three_tables():
    """The pool, truth and prediction tables of one 40-clip world."""
    clips, truth = generate_world(WorldConfig(n_clips=40, seed=3, agent_rate=3.0))
    table, truth = clip_table(clips), truth_table(truth)
    return {"clips": table, "truth": truth, "predictions": ToyPlanner(table, truth).predict(table.ids)}


def id_views(table) -> list:
    """(id, row view) of each row, in order; truth views as their bytes."""
    if isinstance(table, ClipTable):
        return list(zip(table.ids, table))
    views = [table[clip_id] for clip_id in table]
    if isinstance(table, TruthTable):
        views = [(t.clip_id, bits(t.ego_future), t.agent_ids, bits(t.starts), bits(t.tracks)) for t in views]
    return list(zip(table, views))


class TestRaggedTables:
    @pytest.mark.parametrize("name", ["clips", "truth", "predictions"])
    def test_length_lookup_and_take(self, three_tables, name, rng):
        table = three_tables[name]
        assert len(table) == 40
        with pytest.raises(KeyError):
            table.rows_of(["nope"])
        ids = [clip_id for clip_id, _ in id_views(table)]
        order = [ids[i] for i in rng.permutation(len(ids))[:15].tolist()]
        views = dict(id_views(table))
        assert id_views(table.take(order)) == [(clip_id, views[clip_id]) for clip_id in order]

    def test_clip_table_columns_must_agree(self):
        """Accepted before: ``table[1]`` and ``mean_speeds()`` then raised IndexError."""
        with pytest.raises(ValueError, match="clip table columns disagree in N: ids has 2, weather has 1"):
            ClipTable(("a", "b"), np.zeros(1, np.int8), np.zeros(3, np.int8), np.array([0, 2, 5]), np.zeros(4),
                      np.zeros(4, np.int8), np.zeros((2, 6, 2)), (None, None))

    @pytest.mark.parametrize("offsets", [[0, 2, 5], [0, 4], [1, 2, 4], [0, 5, 4]])
    def test_clip_table_offsets_must_rise_over_the_frames(self, offsets):
        with pytest.raises(ValueError, match="clip table offsets must rise from 0 to the length of speeds, 4, in 3"):
            ClipTable(("a", "b"), np.zeros(2, np.int8), np.zeros(2, np.int8), np.array(offsets), np.zeros(4),
                      np.zeros(4, np.int8), np.zeros((2, 6, 2)), (None, None))

    def test_truth_table_columns_must_agree(self):
        """Accepted before: ``["a"]`` then showed 1 agent id with a (1, 2)
        start and a (1, 6, 2) track."""
        columns = dict(clip_ids=("a",), ego_future=np.zeros((2, 6, 2)), agent_clip=np.zeros(1, np.intp),
                       agent_ids=np.array(["x", "y"], object), starts=np.zeros((3, 2)), tracks=np.zeros((1, 6, 2)))
        with pytest.raises(ValueError, match="truth table columns disagree in N: clip_ids has 1, ego_future has 2"):
            TruthTable(**columns)
        with pytest.raises(ValueError, match="truth table columns disagree in A: agent_clip has 1, agent_ids has 2"):
            TruthTable(**{**columns, "ego_future": np.zeros((1, 6, 2))})

    @pytest.mark.parametrize("agent_clip", [[1, 0], [0, 5], [-1, 0]])
    def test_batch_agents_must_belong_to_clips_in_order(self, agent_clip):
        """``[1, 0]`` was accepted: ``batch["a"]`` listed both agents, and
        the best distances measured agent x0 against clip b's plan."""
        with pytest.raises(ValueError, match=r"prediction batch agent_clip must be non-decreasing and within \[0, 2\)"):
            PredictionBatch(("a", "b"), np.zeros((2, 6, 2)), np.array(agent_clip), np.array(["x0", "x1"], object),
                            np.ones(2), np.ones(2, np.intp), np.ones((2, 1)), np.zeros((2, 1, 6, 2)))

    def test_truth_agents_must_belong_to_a_clip(self):
        with pytest.raises(ValueError, match=r"truth table agent_clip must be non-decreasing and within \[0, 1\)"):
            TruthTable(("a",), np.zeros((1, 6, 2)), np.array([3]), np.array(["x"], object), np.zeros((1, 2)),
                       np.zeros((1, 6, 2)))


CLIP_COLUMNS = dict(ids=("a", "b"), weather=np.zeros(2, np.int8), lighting=np.zeros(2, np.int8),
                    offsets=np.array([0, 2, 4]), speeds=np.zeros(4), commands=np.zeros(4, np.int8),
                    gt_future=np.zeros((2, 6, 2)), annotations=(None, None))
TRUTH_COLUMNS = dict(clip_ids=("a",), ego_future=np.zeros((1, 6, 2)), agent_clip=np.zeros(1, np.intp),
                     agent_ids=np.array(["x"], object), starts=np.zeros((1, 2)), tracks=np.zeros((1, 6, 2)))
BATCH_COLUMNS = dict(clip_ids=("a", "b"), ego_plans=np.zeros((2, 6, 2)), agent_clip=np.array([0, 1]),
                     agent_ids=np.array(["x0", "x1"], object), confidence=np.ones(2),
                     modality_counts=np.ones(2, np.intp), modality_probs=np.ones((2, 1)),
                     modality_trajs=np.zeros((2, 1, 6, 2)))


class TestShapesAndCodes:
    """Each table pins the (x, y) axis of its point columns and the range of
    its codes. All of these were accepted before: a weather code of 7 made
    ``buckets()`` return 7 and ``table[0]`` raise IndexError."""

    @pytest.mark.parametrize("column, value, message", [
        ("weather", np.array([0, 7], np.int8), "clip table weather codes must be within [0, 2), got 7"),
        ("lighting", np.array([-1, 0], np.int8), "clip table lighting codes must be within [0, 2), got -1"),
        ("commands", np.array([0, 2, 9, 1], np.int8), "clip table commands codes must be within [0, 3), got 9"),
        ("gt_future", np.zeros((2, 6, 3)),
         "clip table gt_future must have 3 axes, the last of 2 coordinates, got shape (2, 6, 3)"),
        ("gt_future", np.zeros((2, 6)),
         "clip table gt_future must have 3 axes, the last of 2 coordinates, got shape (2, 6)"),
    ])
    def test_clip_table(self, column, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ClipTable(**{**CLIP_COLUMNS, column: value})

    @pytest.mark.parametrize("column, shape", [("ego_future", (1, 6, 3)), ("starts", (1, 5)),
                                               ("tracks", (1, 6, 3)), ("tracks", (1, 6))])
    def test_truth_table(self, column, shape):
        axes = len(TRUTH_COLUMNS[column].shape)
        message = f"truth table {column} must have {axes} axes, the last of 2 coordinates, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            TruthTable(**{**TRUTH_COLUMNS, column: np.zeros(shape)})

    @pytest.mark.parametrize("column, shape", [("ego_plans", (2, 6, 3)), ("modality_trajs", (2, 1, 6, 3)),
                                               ("modality_trajs", (2, 1, 6))])
    def test_prediction_batch(self, column, shape):
        axes = len(BATCH_COLUMNS[column].shape)
        message = f"prediction batch {column} must have {axes} axes, the last of 2 coordinates, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PredictionBatch(**{**BATCH_COLUMNS, column: np.zeros(shape)})

    def test_the_edge_codes_and_empty_tables_pass(self):
        last = dict(weather=np.ones(2, np.int8), lighting=np.ones(2, np.int8), commands=np.full(4, 2, np.int8))
        assert clip_table(ClipTable(**{**CLIP_COLUMNS, **last})).buckets().tolist() == [3, 3]
        assert len(clip_table([])) == len(truth_table({})) == 0


@pytest.fixture
def fresh_tables():
    """The pool, truth and prediction tables of one 40-clip world, none of
    them looked up yet."""
    clips, truth = generate_world(WorldConfig(n_clips=40, seed=3, agent_rate=3.0))
    batch = ToyPlanner(clips, truth).predict([c.id for c in clips])
    return {"clips": clip_table(clips), "truth": truth_table(truth), "predictions": batch}


def has_index(table) -> bool:
    return "_rows" in vars(table)


class TestIdIndex:
    """A table builds its id index on the first lookup, and a contiguous
    slice of a table looks its ids up in that table's index."""

    KW = dict(alpha=0.7, beta=1.3, eps_a=0.5, delta_d=3.0)

    @pytest.fixture
    def table(self, rng):
        return clip_table([random_clip(rng, f"c{i}") for i in range(12)])

    @pytest.mark.parametrize("name", ["clips", "truth", "predictions"])
    def test_built_on_the_first_lookup(self, fresh_tables, name):
        table = fresh_tables[name]
        assert not has_index(table) and len(table) == 40
        ids = table.ids if name == "clips" else table.clip_ids
        assert table.rows_of([ids[7], ids[2]]).tolist() == [7, 2]
        assert has_index(table)

    def test_slice_lookups(self, table):
        part = table[3:9]
        assert len(part) == 6 and part.ids == table.ids[3:9]
        assert part.rows_of(["c8", "c3", "c5"]).tolist() == [5, 0, 2]
        assert part.rows_of(iter(["c4"])).tolist() == [1] and part.rows_of([]).tolist() == []
        assert has_index(table) and not has_index(part)
        for outside in ("c2", "c9", "c0", "c11", "nope"):
            with pytest.raises(KeyError, match=f"^'{outside}'$"):
                part.rows_of(["c5", outside])
        # The first of an id outside the slice and an unknown one is named,
        # as on the table itself for two unknown ids.
        for ids in (["c9", "nope"], ["nope", "c9"], ["c2", "c9"]):
            with pytest.raises(KeyError, match=f"^'{ids[0]}'$"):
                part.rows_of(iter(ids))
        inner = part[1:4]
        assert inner.rows_of(["c6", "c4"]).tolist() == [2, 0] and not has_index(inner)
        for outside in ("c3", "c7"):
            with pytest.raises(KeyError, match=f"^'{outside}'$"):
                inner.rows_of([outside])
        empty = table[7:2]
        assert len(empty) == 0 and empty.rows_of([]).tolist() == []
        with pytest.raises(KeyError, match="^'c7'$"):
            empty.rows_of(["c7"])

    def test_find_rows_gives_minus_one_where_rows_of_raises(self, table):
        ids = ("c2", "c8", "nope", "c3", "c9", "c5")
        assert table.find_rows(ids).tolist() == [2, 8, -1, 3, 9, 5]
        assert table[3:9].find_rows(ids).tolist() == [-1, 5, -1, 0, -1, 2]
        assert table[3:9][1:4].find_rows(ids).tolist() == [-1, -1, -1, -1, -1, 1]
        assert table[3:9].find_rows(()).tolist() == []

    def test_step_slice_lookups(self, table):
        for stepped, ids in ((table[1:10:3], ["c1", "c4", "c7"]), (table[3:9][::2], ["c3", "c5", "c7"])):
            assert list(stepped.ids) == ids
            assert stepped.rows_of(ids[::-1]).tolist() == [2, 1, 0]
            with pytest.raises(KeyError, match="^'c2'$"):
                stepped.rows_of(["c2"])

    def test_membership_and_length_follow_the_slice(self, table):
        part = table[3:9]
        assert len(part) == len(list(part)) == 6
        assert table[3] in part and table[8] in part
        assert table[2] not in part and table[9] not in part

    def test_take_of_a_slice(self, table):
        part = table[3:9]
        assert_table_equals_rows(part.take(["c8", "c3", "c6"]), [table[8], table[3], table[6]])
        with pytest.raises(KeyError, match="^'c9'$"):
            part.take(["c4", "c9"])

    def test_duplicate_ids_are_rejected_by_constructor_and_take(self, fresh_tables, table):
        with pytest.raises(ValueError, match="duplicate clip id 'c4' in a clip table"):
            table.take(["c4", "c1", "c4"])
        with pytest.raises(ValueError, match="duplicate clip id 'c4' in a clip table"):
            table[3:9].take(["c4", "c4"])
        with pytest.raises(ValueError, match="duplicate clip id 'b' in a clip table"):
            ClipTable(**{**CLIP_COLUMNS, "ids": ("b", "b")})
        with pytest.raises(ValueError, match="duplicate clip id 'a' in a prediction batch"):
            PredictionBatch(**{**BATCH_COLUMNS, "clip_ids": ("a", "a")})
        truth = fresh_tables["truth"]
        with pytest.raises(ValueError, match=f"duplicate clip id '{truth.clip_ids[5]}' in a truth table"):
            truth.take([truth.clip_ids[5], truth.clip_ids[5]])
        with pytest.raises(ValueError, match=f"duplicate clip id '{truth.clip_ids[0]}' in a truth table"):
            TruthTable(**{**TRUTH_COLUMNS, "clip_ids": (truth.clip_ids[0],) * 2,
                          "ego_future": np.zeros((2, 6, 2))})

    def test_duplicate_truth_id_in_a_file_names_the_line(self, fresh_tables, tmp_path):
        truth = fresh_tables["truth"]
        path = tmp_path / "truth.jsonl"
        save_truth(truth.take([*truth.clip_ids[:3]]), path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([*lines, lines[1]]))
        with pytest.raises(PoolFormatError, match=f"truth file {re.escape(str(path))} line 4: "
                                                  f"duplicate clip_id '{truth.clip_ids[1]}'"):
            load_truth(path)

    def test_batch_of_the_scored_ids_scores_as_a_shuffled_copy(self, fresh_tables, rng):
        table = fresh_tables["clips"]
        planner = ToyPlanner(table, fresh_tables["truth"])
        planner.train(table.ids[:10])
        ids = table.ids[10:]
        batch = planner.predict(ids)
        got = score_pool(table, batch, ids=ids, **self.KW)
        assert not has_index(batch)
        shuffled = batch.take([ids[i] for i in rng.permutation(len(ids)).tolist()])
        want = score_pool(table, shuffled, ids=ids, **self.KW)
        assert has_index(shuffled) and got["clip_id"] == want["clip_id"] == ids
        for name in SCORE_COLUMNS[1:]:
            assert bits(got[name]) == bits(want[name]), name


@pytest.fixture(scope="module")
def world_300(tmp_path_factory):
    """A 300-clip world's pool, truth and untrained ToyPlanner predictions
    files, and the same three with their lines in reverse."""
    directory = tmp_path_factory.mktemp("world_300")
    paths = {name: directory / f"{name}.jsonl" for name in ("pool", "truth", "predictions")}
    generate_pool(WorldConfig(n_clips=300, seed=7, agent_rate=3.0), paths["pool"], paths["truth"])
    clips, _ = load_pool(paths["pool"])
    save_predictions(ToyPlanner(clips, load_truth(paths["truth"])).predict(clips.ids).values(), paths["predictions"])
    for name in ("truth", "predictions"):
        lines = paths[name].read_bytes().splitlines(keepends=True)
        paths[f"{name}_reversed"] = directory / f"{name}_reversed.jsonl"
        paths[f"{name}_reversed"].write_bytes(b"".join(reversed(lines)))
    return paths


def assert_same_lookups(table, fresh) -> None:
    """``in``, ``[]`` and ``rows_of`` of ``table`` give what they give on
    ``fresh``, a table of the same file, for every id and for unknown ones."""
    ids = fresh.clip_ids
    probes = [*ids, "nope", "", ids[0] + " "]
    assert [i in table for i in probes] == [i in fresh for i in probes]
    assert table.rows_of(ids[::-1]).tolist() == fresh.rows_of(ids[::-1]).tolist()
    for clip_id in (ids[0], ids[len(ids) // 2], ids[-1]):
        got, want = table[clip_id], fresh[clip_id]
        if isinstance(fresh, TruthTable):
            assert got.clip_id == want.clip_id and got.agent_ids == want.agent_ids
            for name in ("ego_future", "starts", "tracks"):
                assert bits(getattr(got, name)) == bits(getattr(want, name)), name
        else:
            assert got == want
    for unknown in ("nope", ""):
        with pytest.raises(KeyError, match=f"^'{unknown}'$"):
            table[unknown]
        with pytest.raises(KeyError, match=f"^'{unknown}'$"):
            table.rows_of([ids[3], unknown])


class TestSharedPoolIds:
    """A truth or predictions table whose clip ids are the pool's, in the
    pool's order, holds the pool's id tuple and looks ids up in the pool's
    index; a truth whose futures also equal the pool's, bit for bit, holds
    the pool's array. Any other table keeps its own."""

    KW = dict(alpha=0.7, beta=1.3, eps_a=0.5, delta_d=3.0)

    def test_truth_of_a_generated_world_shares_ids_index_and_future(self, world_300):
        clips, _ = load_pool(world_300["pool"])
        truth = load_truth(world_300["truth"])
        share_pool(truth, clips)
        assert truth.clip_ids is clips.ids and truth.ego_future is clips.gt_future
        assert_same_lookups(truth, load_truth(world_300["truth"]))
        assert has_index(clips) and not has_index(truth)
        assert truth_table(truth) is truth

    def test_reversed_truth_keeps_its_own(self, world_300):
        clips, _ = load_pool(world_300["pool"])
        truth = load_truth(world_300["truth_reversed"])
        share_pool(truth, clips)
        assert truth.clip_ids == clips.ids[::-1] and truth.ego_future is not clips.gt_future
        assert_same_lookups(truth, load_truth(world_300["truth_reversed"]))
        assert has_index(truth)

    def test_a_future_one_ulp_away_keeps_its_own_array(self, world_300, tmp_path):
        clips, _ = load_pool(world_300["pool"])
        records = [json.loads(line) for line in world_300["truth"].read_bytes().splitlines()]
        x = records[150]["ego_future"][3][1]
        records[150]["ego_future"][3][1] = float(np.nextafter(x, np.inf))
        path = tmp_path / "truth.jsonl"
        path.write_bytes(b"".join(encode_line(record) + b"\n" for record in records))
        truth = load_truth(path)
        share_pool(truth, clips)
        assert truth.clip_ids is clips.ids and truth.ego_future is not clips.gt_future
        assert truth.ego_future[150, 3, 1] == np.nextafter(x, np.inf) != clips.gt_future[150, 3, 1]
        assert_same_lookups(truth, load_truth(path))

    def test_predictions_in_pool_order_share_ids_and_score_the_same_bytes(self, world_300, tmp_path):
        clips, _ = load_pool(world_300["pool"])
        ids = clips.ids[30:]
        scores = []
        for name, shared in (("predictions", True), ("predictions_reversed", False)):
            batch = load_predictions(world_300[name])
            assert share_pool_ids(batch, clips) is shared
            assert (batch.clip_ids is clips.ids) is shared
            assert_same_lookups(batch, load_predictions(world_300[name]))
            save_scores(score_pool(clips, batch, ids=ids, **self.KW), tmp_path / f"{name}.tsv")
            scores.append((tmp_path / f"{name}.tsv").read_bytes())
        assert scores[0] == scores[1]

    def test_a_slice_of_the_pool_shares_only_its_own_rows(self, world_300):
        clips, _ = load_pool(world_300["pool"])
        part = clips[100:200]
        truth = load_truth(world_300["truth"]).take(part.ids)
        share_pool(truth, part)
        assert truth.clip_ids is part.ids and truth.ego_future is part.gt_future
        assert_same_lookups(truth, load_truth(world_300["truth"]).take(part.ids))
        for outside in (clips.ids[99], clips.ids[200]):
            assert outside not in truth
            with pytest.raises(KeyError):
                truth.rows_of([outside])


# ---------------------------------------------------------------------------
# Column kernels against the per-clip formulas
# ---------------------------------------------------------------------------


class TestKernelsEqualRowFormulas:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_worlds(self, seed):
        clips, _ = generate_world(WorldConfig(n_clips=800, seed=seed))
        self.check(clips)

    def test_ragged_random_clips(self, rng):
        self.check([random_clip(rng, f"c{i}") for i in range(500)])

    def check(self, clips):
        table = clip_table(clips)
        assert table.mean_speeds().tobytes() == bits([reference_mean_speed(c) for c in clips])
        assert [mean_speed(c) for c in clips] == [reference_mean_speed(c) for c in clips]
        assert [weather_lighting_bucket(c) for c in clips] == [reference_bucket(c) for c in clips]
        for tau_c in (1, 3, 4, 9):
            classes = [reference_command_class(c, tau_c) for c in clips]
            assert [classify_command(c, tau_c) for c in clips] == classes
            strata = stratify(table, tau_c)
            assert list(strata) == list(STRATUM_ORDER)
            for key, rows in strata.items():
                want = [c.id for c, cls in zip(clips, classes) if (reference_bucket(c), cls) == key]
                assert [table.ids[r] for r in rows.tolist()] == want

    def test_command_classes_equal_the_cumsum_counts(self, rng):
        """The frame counts of the frame-length cumsum they replaced, also
        for tables built directly with frameless rows, their slices, and a
        table without frames."""
        def reference(table, tau_c):
            counts = []
            for code in ("Left", "Right"):
                total = np.concatenate(([0], np.cumsum(table.commands == COMMAND_VALUES.index(code), dtype=np.intp)))
                counts.append(total[table.offsets[1:]] - total[table.offsets[:-1]] >= tau_c)
            left, right = counts
            return np.select([left & right, left, right], [COMMAND_CLASSES.index(c) for c in "OLR"],
                             COMMAND_CLASSES.index("S"))

        tables = [clip_table(generate_world(WorldConfig(n_clips=200, seed=4))[0])]
        for frames in [rng.integers(0, 9, size=n) * (rng.uniform(size=n) < 0.6) for n in (1, 2, 7, 40)] + [[0, 0, 0]]:
            n = len(frames)
            offsets = np.concatenate(([0], np.cumsum(frames))).astype(np.intp)
            f = int(offsets[-1])
            table = ClipTable(
                tuple(f"c{i}" for i in range(n)), np.zeros(n, np.int8), np.zeros(n, np.int8), offsets,
                np.ones(f), rng.integers(0, len(COMMAND_VALUES), size=f).astype(np.int8), np.zeros((n, 6, 2)),
                (None,) * n,
            )
            tables += [table, table[n // 3 :]]
        assert any(0 in np.diff(t.offsets) for t in tables) and not len(tables[-1].commands)
        for table in tables:
            for tau_c in (1, 2, 4, 9):
                assert table.command_classes(tau_c).tolist() == reference(table, tau_c).tolist()

    def test_ego_diversity_init_sorts_by_the_row_mean_speed(self, rng):
        """Each stratum's picks come from its members sorted by (mean speed, id)."""
        clips = [random_clip(rng, f"c{i:03d}") for i in range(300)]
        picked, allocations = ego_diversity_init(clips, 60, 0.5, 4)
        expected = []
        for alloc in allocations:
            members = sorted((c for c in clips if (reference_bucket(c), reference_command_class(c, 4))
                              == (alloc.bucket, alloc.command)), key=lambda c: (reference_mean_speed(c), c.id))
            m, k = len(members), alloc.allocated
            expected += [members[int((j + 0.5) * m / k)].id for j in range(k)]
        assert picked == expected


def reference_evaluate_clips(provider, clips, truth):
    """evaluate_clips over truth rows: each clip's agents on their own."""
    batch = prediction_batch(provider.predict([c.id for c in clips]), clips)
    step_errors, collided = [], []
    for plan, clip in zip(batch.ego_plans, clips):
        t = truth[clip.id]
        step_errors.append(_distances(plan, t.ego_future))
        collided.append(bool(len(t.agent_ids)) and bool((_distances(plan, t.tracks).min(axis=1) < 0.5).any()))
    return np.array(step_errors), np.array(collided)


class TestPlannerOverTables:
    def test_loaded_tables_equal_generated_rows(self, tmp_path):
        """The planner and evaluation give the same bits on loaded tables as
        on the generated rows, and evaluation equals the per-clip reference."""
        config = WorldConfig(n_clips=400, seed=23, agent_rate=3.0)
        generate_pool(config, tmp_path / "pool.jsonl", tmp_path / "truth.jsonl")
        clips, truth = generate_world(config)
        table, _ = load_pool(tmp_path / "pool.jsonl")
        truth_columns = load_truth(tmp_path / "truth.jsonl")
        labeled = [c.id for c in clips[:120]]
        heldout = clips[300:]
        results = []
        for planner_clips, planner_truth in ((clips, truth), (table, truth_columns)):
            planner = ToyPlanner(planner_clips, planner_truth)
            planner.train(labeled)
            batch = planner.predict([c.id for c in clips[120:]])
            evals = evaluate_clips(planner, table[300:], truth_columns)
            results.append((batch.ego_plans.tobytes(), batch.modality_trajs.tobytes(), evals["de"].tobytes(),
                            evals["step_errors"].tobytes(), evals["collided"].tolist()))
        assert results[0] == results[1]
        step_errors, collided = reference_evaluate_clips(planner, heldout, truth)
        assert results[1][3] == step_errors.tobytes()
        assert results[1][2] == step_errors.mean(axis=1).tobytes()
        assert results[1][4] == collided.tolist() and any(collided)


@pytest.fixture(scope="module")
def file_records():
    """The decoded records of a 100-clip world's pool, truth and untrained
    predictions. Every agent of the first 16 clips and every 7th agent from
    clip 32 on keep one modality, so in blocks of 16 the first block's
    agents have one, the second's three, and the rest are padded in their
    block; the join pads the first block."""
    clips, truth = generate_world(WorldConfig(n_clips=100, seed=3, agent_rate=3.0))
    preds = [prediction_to_dict(p) for p in ToyPlanner(clips, truth).predict([c.id for c in clips]).values()]
    for agent in [a for r in preds[:16] for a in r["agents"]] + [a for r in preds[32:] for a in r["agents"]][::7]:
        agent.update(modality_probs=[1.0], modality_trajs=agent["modality_trajs"][:1])
    return {kind: json.loads(json.dumps(records)) for kind, records in (
        ("pool", [clip_to_dict(c) for c in clips]), ("truth", [truth_to_dict(t) for t in truth.values()]),
        ("predictions", preds))}


#: Per file kind: its block parser, its builder, the per-record loader and
#: the assertion that a table equals that loader's result.
BUILDERS = {
    "pool": (partial(pool_module._pool_block, horizon=6), pool_module._pool_table, reference_load_pool,
             assert_table_equals_rows),
    "truth": (partial(synthworld._truth_block, horizon=6), synthworld._truth_table, reference_load_truth,
              assert_truth_equals_rows),
    "predictions": (partial(criteria._prediction_block, horizon=6), criteria._prediction_table,
                    reference_load_predictions, assert_batch_equals),
}


class TestJoin:
    @pytest.mark.parametrize("kind", BUILDERS)
    def test_builders_consume_their_parts(self, file_records, kind):
        """Each builder empties the parts list it is given, and no block
        array outlives the join; the table equals the per-record loader's."""
        parse_block, build, reference, check = BUILDERS[kind]
        records = file_records[kind]
        parts = [parse_block(records[i : i + 16]) for i in range(0, len(records), 16)]
        arrays = [weakref.ref(column) for part in parts for column in part if isinstance(column, np.ndarray)]
        table = build(parts)
        assert parts == []
        assert arrays and all(ref() is None for ref in arrays)
        check(table, reference([json.dumps(record) for record in records]))


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world_3000(tmp_path_factory):
    directory = tmp_path_factory.mktemp("world_3000")
    pool, truth = directory / "pool.jsonl", directory / "truth.jsonl"
    generate_pool(WorldConfig(n_clips=3000, seed=5), pool, truth)
    return pool, truth


def retained_bytes(load, *args):
    """Bytes that ``load(*args)`` allocates and its result keeps."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = load(*args)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return result, retained


def peak_bytes(fn, *args):
    """``fn(*args)``, and the most bytes it had allocated at once."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


class TestMemory:
    """On this 3000-clip world the per-record loaders kept 2744 bytes per
    pool clip and 1371 per truth record (tracemalloc); the tables keep 657
    and 625."""

    def test_load_pool_per_clip(self, world_3000):
        (table, _), retained = retained_bytes(load_pool, world_3000[0])
        assert len(table) == 3000
        assert retained / 3000 < 900

    def test_load_truth_per_clip(self, world_3000):
        truth, retained = retained_bytes(load_truth, world_3000[1])
        assert len(truth) == 3000
        assert retained / 3000 < 750

    def test_load_truth_peak_near_the_table(self, tmp_path):
        """A 2000-clip truth file read in one process peaks at 1.55 times
        the table it keeps (tracemalloc): each block is dropped once joined,
        and its values are checked in the block. Joining with every block
        alive, and then checking the table, peaked at 1.72 times."""
        pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        generate_pool(WorldConfig(n_clips=2000, seed=7), pool, truth)
        with mock.patch.object(pool_module, "READ_RANGE", 1 << 40):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                table = load_truth(truth)
                kept, peak = (m - base for m in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
        assert len(table) == 2000
        assert peak <= 1.65 * kept, (peak, kept)

    def test_score_holds_no_prediction_batch(self, tmp_path):
        """``score`` of trained ToyPlanner predictions of a 2000-clip world,
        in one process, peaks less than a quarter of the batch that
        ``load_predictions`` keeps for the same file above what loading the
        pool alone peaks at (tracemalloc): each block of the file is scored
        as it is read and then dropped. The pool load itself peaks at 2.1 MB,
        above the 1.9 MB batch, so it is what the comparison starts from.
        Loading the batch whole and then scoring it peaked 2.5 MB above it;
        scoring block by block, 0.1 MB."""
        pool, truth, preds, sel = (tmp_path / name for name in ("pool.jsonl", "truth.jsonl", "preds.jsonl", "sel.json"))
        generate_pool(WorldConfig(n_clips=2000, seed=7), pool, truth)
        clips, state = load_pool(pool)
        planner = ToyPlanner(clips, load_truth(truth))
        planner.train(clips.ids[:200])
        save_predictions(planner.predict(clips.ids).values(), preds)
        state.add_round(0, clips.ids[:200])
        save_selection(state, sel)
        del clips, state, planner
        with mock.patch.object(pool_module, "READ_RANGE", 1 << 40):
            batch, kept = retained_bytes(load_predictions, preds)
            del batch
            _, pool_peak = peak_bytes(load_pool, pool)
            code, peak = peak_bytes(main, ["score", "--pool", str(pool), "--selection", str(sel),
                                           "--predictions", str(preds), "--out", str(tmp_path / "scores.tsv")])
        assert code == 0
        assert peak - pool_peak < kept / 4, (peak, pool_peak, kept)

    def test_a_slice_builds_no_index(self):
        """``clips[:15000]`` of a 20 000-clip table and a lookup on it peak
        under a quarter of what indexing the same ids of the table does
        (tracemalloc): the slice looks its ids up in the table's index. They
        peak at 0.25 MB against 1.08 MB, and at 1.28 MB when each slice built
        its own index."""
        n = 20000
        table = ClipTable(tuple(f"c{i:05d}" for i in range(n)), np.zeros(n, np.int8), np.zeros(n, np.int8),
                          np.arange(n + 1), np.zeros(n), np.zeros(n, np.int8), np.zeros((n, 6, 2)), (None,) * n)
        table.rows_of(table.ids[:1])  # the table's own index, as the planner builds it

        def slice_and_look_up():
            part = table[:15000]
            return part.rows_of(part.ids[::100])

        rows, peak = peak_bytes(slice_and_look_up)
        assert rows.tolist() == list(range(0, 15000, 100))
        _, index = peak_bytes(lambda: row_index(table.ids[:15000], "a clip table"))
        assert peak < index / 4, (peak, index)

    def test_commands_build_no_row_views(self, tmp_path, monkeypatch):
        """run, init and score index the columns: no clip or truth row is built."""
        pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        assert main(["gen", "--n", "300", "--seed", "7", "--pool", str(pool), "--truth", str(truth)]) == 0
        clips, _ = load_pool(pool)
        planner = ToyPlanner(clips, load_truth(truth))
        planner.train(clips.ids[:30])
        preds = tmp_path / "preds.jsonl"
        save_predictions(planner.predict(clips.ids).values(), preds)
        built = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                built.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ClipTable, "_row", counting("clip view", ClipTable._row))
        monkeypatch.setattr(TruthTable, "__getitem__", counting("truth view", TruthTable.__getitem__))
        monkeypatch.setattr(ClipRecord, "__post_init__", counting("clip", ClipRecord.__post_init__))
        monkeypatch.setattr(ClipTruth, "__init__", counting("truth", ClipTruth.__init__))
        sel = tmp_path / "sel.json"
        assert main(["run", "--pool", str(pool), "--truth", str(truth), "--out-dir", str(tmp_path / "out"),
                     "--heldout-count", "30"]) == 0
        assert main(["init", "--pool", str(pool), "--n0", "30", "--out", str(sel)]) == 0
        assert main(["score", "--pool", str(pool), "--selection", str(sel), "--predictions", str(preds),
                     "--out", str(tmp_path / "scores.tsv")]) == 0
        assert built == []
