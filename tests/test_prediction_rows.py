"""Rows of a prediction batch: lazy ClipPrediction rows, predictions written
from a batch's columns, and rows scored by their batch rows."""

import copy
import pickle
import random
from dataclasses import asdict, replace

import numpy as np
import pytest

from driveselect import criteria
from driveselect.criteria import (
    SCORE_COLUMNS,
    ClipPrediction,
    PredictionBatch,
    prediction_batch,
    prediction_to_dict,
    save_predictions,
    score_pool,
)
from driveselect.pool import clip_table, encode_line
from driveselect.synthworld import ToyPlanner, WorldConfig, evaluate_clips, generate_world

from conftest import make_clip, make_forecast, make_pred

SETTINGS = dict(alpha=1.0, beta=1.0, eps_a=0.5, delta_d=3.0)


@pytest.fixture(scope="module")
def world():
    clips, truth = generate_world(WorldConfig(n_clips=120, seed=7))
    planner = ToyPlanner(clips, truth)
    planner.train([c.id for c in clips[:30]])
    return clip_table(clips), truth, planner


@pytest.fixture(scope="module")
def batch(world):
    table, _, planner = world
    return planner.predict(table.ids)


def eager(batch, clip_id):
    """The clip's view as the batch builds it, all fields at once."""
    row = batch.rows_of([clip_id])[0]
    return batch._view(clip_id, row, slice(batch._offsets[row], batch._offsets[row + 1]))


def per_object_bytes(preds):
    """A predictions file of one ``encode_line(prediction_to_dict(p))`` line per prediction."""
    return b"".join(encode_line(prediction_to_dict(p)) + b"\n" for p in preds)


@pytest.fixture
def views(monkeypatch):
    """The clip ids of every eager view built from here on."""
    built = []
    view = PredictionBatch._view

    def counted(self, clip_id, row, agents):
        built.append(clip_id)
        return view(self, clip_id, row, agents)

    monkeypatch.setattr(PredictionBatch, "_view", counted)
    return built


def batch_of_objects(preds):
    """A batch of prediction objects, padded to their largest modality count."""
    return prediction_batch({p.clip_id: p for p in preds},
                            [make_clip(p.clip_id, horizon=len(p.ego_plan)) for p in preds])


# ---------------------------------------------------------------------------
# A row behaves as the eager view
# ---------------------------------------------------------------------------


class TestRow:
    def test_compares_hashes_and_prints_as_the_view(self, batch):
        for clip_id in batch.clip_ids[::17]:
            row, view = batch[clip_id], eager(batch, clip_id)
            assert type(row) is ClipPrediction
            assert row == view and view == row
            assert hash(batch[clip_id]) == hash(view)
            assert repr(batch[clip_id]) == repr(view)
            assert asdict(batch[clip_id]) == asdict(view)
            assert replace(batch[clip_id], clip_id="x") == replace(view, clip_id="x")
            assert replace(batch[clip_id], agents=()) == replace(view, agents=())

    def test_fields_are_built_once_on_first_read(self, batch, views):
        row = batch[batch.clip_ids[4]]
        assert row.clip_id == batch.clip_ids[4]
        assert views == []
        plan, agents = row.ego_plan, row.agents
        assert views == [batch.clip_ids[4]]
        assert row.ego_plan is plan and row.agents is agents and row.ego_plan == eager(batch, row.clip_id).ego_plan
        assert len(views) == 2  # the reference view alone

    @pytest.mark.parametrize("how", ["copy", "deepcopy", *(f"pickle{p}" for p in range(2, pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_and_pickles_carry_the_plain_fields(self, batch, how):
        clip_id = batch.clip_ids[9]
        view = eager(batch, clip_id)
        if how.startswith("pickle"):
            protocol = int(how[len("pickle"):])
            data = pickle.dumps(batch[clip_id], protocol)
            assert data == pickle.dumps(view, protocol)
            other = pickle.loads(data)
        else:
            other = getattr(copy, how)(batch[clip_id])
        assert other == view and type(other) is ClipPrediction
        assert vars(other).keys() == {"clip_id", "ego_plan", "agents"}

    def test_unknown_attribute_raises(self, batch):
        row = batch[batch.clip_ids[0]]
        with pytest.raises(AttributeError, match="'ClipPrediction' object has no attribute 'nope'"):
            row.nope
        assert not hasattr(row, "nope")
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            make_pred("c0").nope

    def test_unknown_clip_raises(self, batch):
        with pytest.raises(KeyError):
            batch["nope"]


# ---------------------------------------------------------------------------
# save_predictions writes rows from their batch's columns
# ---------------------------------------------------------------------------


class TestSaveRows:
    def test_values_of_a_batch_build_no_view(self, batch, views, tmp_path):
        save_predictions(batch.values(), tmp_path / "p.jsonl")
        assert views == []
        assert (tmp_path / "p.jsonl").read_bytes() == per_object_bytes(batch.values())

    def test_shuffled_subset_of_rows(self, batch, views, tmp_path):
        ids = list(batch.clip_ids[3::2])
        random.Random(5).shuffle(ids)
        rows = [batch[i] for i in ids]
        save_predictions(iter(rows), tmp_path / "p.jsonl")
        assert views == []
        assert (tmp_path / "p.jsonl").read_bytes() == per_object_bytes(rows)

    def test_rows_of_two_batches(self, world, batch, tmp_path, monkeypatch):
        table, _, planner = world
        other = planner.predict(table.ids[::-1])
        rows = [p for pair in zip(batch.values(), other.values()) for p in pair]
        save_predictions(rows, tmp_path / "mixed.jsonl")
        assert (tmp_path / "mixed.jsonl").read_bytes() == per_object_bytes(rows)
        # Blocks of a few rows: some of one batch, some of both.
        monkeypatch.setattr(criteria, "SCORE_BLOCK", 5)
        rows = [*batch.values()][:12] + [*other.values()][:7] + rows[:9]
        save_predictions(rows, tmp_path / "blocks.jsonl")
        assert (tmp_path / "blocks.jsonl").read_bytes() == per_object_bytes(rows)

    def test_plain_objects_and_no_objects(self, batch, tmp_path):
        preds = [eager(batch, i) for i in batch.clip_ids[:20]]
        save_predictions(preds, tmp_path / "p.jsonl")
        assert (tmp_path / "p.jsonl").read_bytes() == per_object_bytes(preds)
        save_predictions([], tmp_path / "none.jsonl")
        assert (tmp_path / "none.jsonl").read_bytes() == b"\n"

    def test_padded_modalities(self, views, tmp_path):
        preds = [
            make_pred("c0", agents=[make_forecast("a0", 0.25, (0.5, 0.5)), make_forecast("a1", 0.75, (1.0,))]),
            make_pred("c1", agents=[make_forecast("b0", 0.5, (0.25, 0.25, 0.5))]),
            make_pred("c2"),
        ]
        batch = batch_of_objects(preds)
        assert batch.modality_probs.shape[1] == 3 and not (batch.modality_counts == 3).all()
        views.clear()
        save_predictions(batch.values(), tmp_path / "p.jsonl")
        assert views == []
        assert (tmp_path / "p.jsonl").read_bytes() == per_object_bytes(preds)

    @pytest.mark.parametrize("value", [1e-05, 1e16, 5e-324, -3.5e-07])
    def test_floats_orjson_writes_otherwise(self, value, tmp_path):
        plan = [(value, 0.0)] + [(float(t), 0.0) for t in range(2, 7)]
        track = [[(float(t), value) for t in range(1, 7)], [(float(t), 1.0) for t in range(1, 7)]]
        preds = [
            make_pred("plan", ego_plan=plan),
            make_pred("clean", agents=[make_forecast("a0", 0.5, (0.5, 0.5))]),
            make_pred("track", agents=[make_forecast("a1", 0.5, (0.5, 0.5), track)]),
            make_pred("confidence", agents=[make_forecast("a2", min(abs(value), 1.0), (1.0,))]),
            make_pred("prob", agents=[make_forecast("a3", 1.0, (1.0 - abs(value), abs(value)))] if value < 1 else []),
        ]
        batch = batch_of_objects(preds)
        save_predictions(batch.values(), tmp_path / "p.jsonl")
        assert (tmp_path / "p.jsonl").read_bytes() == per_object_bytes(preds)

    @pytest.mark.parametrize("clip_id, agent_id", [("clïp", "a0"), ("c\x7f", "a0"), ("c1", "ägent"), ("c1", "a\x7f")])
    def test_ids_json_escapes(self, clip_id, agent_id, tmp_path):
        preds = [
            make_pred("c0", agents=[make_forecast("a0", 0.5)]),
            make_pred(clip_id, agents=[make_forecast(agent_id, 0.5), make_forecast("b", 0.5)]),
            make_pred("c2", agents=[make_forecast(" ", 0.5)] if agent_id == "a\x7f" else []),
        ]
        batch = batch_of_objects(preds)
        save_predictions(batch.values(), tmp_path / "p.jsonl")
        written = (tmp_path / "p.jsonl").read_bytes()
        assert written == per_object_bytes(preds)
        assert written.isascii() and b"\x7f" not in written

    def test_ids_that_are_not_strings(self, tmp_path):
        batch = batch_of_objects([make_pred("c0", agents=[make_forecast("a0")]), make_pred("c1"),
                                  make_pred("c2", agents=[make_forecast("a2")])])
        other = PredictionBatch((1, "c1", "c2"), batch.ego_plans, batch.agent_clip, np.array([7, "a2"], dtype=object),
                                batch.confidence, batch.modality_counts, batch.modality_probs, batch.modality_trajs)
        save_predictions(other.values(), tmp_path / "p.jsonl")
        assert (tmp_path / "p.jsonl").read_bytes() == per_object_bytes(other.values())
        assert b'{"clip_id":1,' in (tmp_path / "p.jsonl").read_bytes()

    def test_non_contiguous_columns(self, batch, views, tmp_path):
        def strided(column):
            wide = np.repeat(column, 2, axis=-1)
            return wide[..., ::2]

        spread = PredictionBatch(
            batch.clip_ids, strided(batch.ego_plans), batch.agent_clip, batch.agent_ids, batch.confidence[::-1][::-1],
            batch.modality_counts, strided(batch.modality_probs), strided(batch.modality_trajs),
        )
        assert not spread.ego_plans.flags.c_contiguous and not spread.modality_trajs.flags.c_contiguous
        save_predictions(spread.values(), tmp_path / "p.jsonl")
        assert views == []
        assert (tmp_path / "p.jsonl").read_bytes() == per_object_bytes(batch.values())

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_columns_of_another_dtype(self, dtype, tmp_path):
        batch = batch_of_objects([make_pred("c0", ego_plan=[(t + 0.1, 0.0) for t in range(6)]), make_pred("c1")])
        other = PredictionBatch(batch.clip_ids, batch.ego_plans.astype(dtype), batch.agent_clip, batch.agent_ids,
                                batch.confidence, batch.modality_counts, batch.modality_probs, batch.modality_trajs)
        save_predictions(other.values(), tmp_path / "p.jsonl")
        assert (tmp_path / "p.jsonl").read_bytes() == per_object_bytes(other.values())


# ---------------------------------------------------------------------------
# Rows are scored by their batch rows
# ---------------------------------------------------------------------------


@pytest.fixture
def no_conversion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("_batch_of called")

    monkeypatch.setattr(criteria, "_batch_of", refuse)


class TestScoreRows:
    def test_shuffled_subset_scores_as_the_batch(self, world, batch, views, no_conversion):
        table = world[0]
        ids = list(table.ids[1::3])
        random.Random(11).shuffle(ids)
        from_rows = score_pool(table, {i: batch[i] for i in ids}, ids=ids, **SETTINGS)
        assert views == []
        from_batch = score_pool(table, batch, ids=ids, **SETTINGS)
        assert from_rows["clip_id"] == from_batch["clip_id"] == tuple(ids)
        for name in SCORE_COLUMNS[1:]:
            assert np.array_equal(from_rows[name], from_batch[name]), name
        records = [table[i] for i in range(len(table))]
        from_records = score_pool(records, {i: batch[i] for i in ids}, ids=ids, **SETTINGS)
        for name in SCORE_COLUMNS[1:]:
            assert np.array_equal(from_records[name], from_batch[name]), name

    def test_rows_score_as_plain_objects(self, world, batch):
        table = world[0]
        ids = list(table.ids[::-4])
        plain = score_pool(table, {i: copy.copy(batch[i]) for i in ids}, ids=ids, **SETTINGS)
        rows = score_pool(table, {i: batch[i] for i in ids}, ids=ids, **SETTINGS)
        for name in SCORE_COLUMNS[1:]:
            assert np.array_equal(rows[name], plain[name]), name

    def test_prediction_batch_and_evaluation_of_rows(self, world, batch, no_conversion):
        table, truth, planner = world
        sub = table.take(table.ids[5:40][::-1])
        rows = {i: batch[i] for i in sub.ids}
        taken = prediction_batch(rows, sub)
        expected = batch.take(sub.ids)
        assert taken.clip_ids == sub.ids
        for name in ("ego_plans", "agent_clip", "agent_ids", "confidence", "modality_counts", "modality_probs",
                     "modality_trajs"):
            assert np.array_equal(getattr(taken, name), getattr(expected, name)), name
        assert prediction_batch({i: batch[i] for i in table.ids}, table) is batch

        class Rows:
            def predict(self, ids):
                return {i: batch[i] for i in ids}

        from_rows, from_planner = evaluate_clips(Rows(), sub, truth), evaluate_clips(planner, sub, truth)
        assert from_rows["clip_id"] == from_planner["clip_id"]
        for name in ("de", "step_errors", "collided"):
            assert np.array_equal(from_rows[name], from_planner[name]), name

    @pytest.mark.parametrize("whole", [False, True])
    def test_rows_under_other_keys_are_scored_as_objects_would_be(self, world, batch, whole):
        table = world[0]
        ids = table.ids[:6]
        source = batch.take(ids) if whole else batch  # whole: the batch of exactly these clips
        swapped = dict(zip(ids, (source[i] for i in ids[::-1])))
        plain = {k: copy.copy(v) for k, v in swapped.items()}
        taken, expected = prediction_batch(swapped, table.take(ids)), prediction_batch(plain, table.take(ids))
        assert taken.clip_ids == expected.clip_ids == ids
        assert np.array_equal(taken.ego_plans, expected.ego_plans)
        assert np.array_equal(taken.modality_trajs, expected.modality_trajs)

    def test_errors_are_those_of_plain_objects(self, world, batch):
        table = world[0]
        ids = table.ids[:8]
        rows = {i: batch[i] for i in ids[1:]}
        for predictions in (rows, {k: copy.copy(v) for k, v in rows.items()}):
            with pytest.raises(KeyError, match=f"missing prediction for clip {ids[0]!r}"):
                score_pool(table, predictions, ids=ids, **SETTINGS)
        short = batch_of_objects([make_pred(i, horizon=5) for i in ids])
        for clips in (table.take(ids), [table[i] for i in range(8)]):
            messages = []
            for predictions in ({i: short[i] for i in ids}, {i: copy.copy(short[i]) for i in ids}):
                with pytest.raises(ValueError) as error:
                    score_pool(clips, predictions, ids=ids, **SETTINGS)
                messages.append(str(error.value))
            assert messages[0] == messages[1] == f"clip {ids[0]!r}: ego_plan has 5 waypoints, expected 6"
