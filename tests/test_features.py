"""Pool tables read without frames keep three per-clip columns: each clip's
mean speed and its Left and Right frame counts. They are the columns a table
with frames derives, bit for bit, on one range and on forked ranges, and a
table without frames refuses what only its frames could answer."""

import numpy as np
import pytest

from driveselect import cli
from driveselect.cli import main
from driveselect.criteria import save_predictions
from driveselect.pool import COMMAND_CLASSES, ClipTable, clip_table, load_pool, parse_pool_lines, save_pool
from driveselect.synthworld import ToyPlanner, WorldConfig, generate_pool, load_truth

from conftest import make_clip, reference_command_class, reference_mean_speed
from test_read_ranges import assert_no_child_left, cpus
from test_tables import CLIP_COLUMNS, bits

TAUS = range(1, 6)


@pytest.fixture(scope="module")
def ragged_pool(tmp_path_factory):
    """Two clips for each Left and Right count from 0 to 6 (tau - 1, tau and
    tau + 1 for each tau in TAUS), of up to 40 frames whose speeds span seven
    orders of magnitude, and clips of one frame, in shuffled order; saved as
    a pool file."""
    rng = np.random.default_rng(31)
    clips = [make_clip("one", speeds=[3.25])]
    for left in range(7):
        for right in range(7):
            for _ in range(2):
                n = max(1, left + right + int(rng.integers(0, 30)))
                commands = ["Left"] * left + ["Right"] * right + ["Straight"] * (n - left - right)
                clips.append(make_clip(f"c{len(clips):03d}", speeds=rng.uniform(0, 20, n) * rng.choice([1e-3, 1e4], n),
                                       commands=[commands[i] for i in rng.permutation(n)]))
    clips += [make_clip(f"one{i}", speeds=[s]) for i, s in enumerate(rng.uniform(0, 20, 20).tolist())]
    clips = [clips[i] for i in rng.permutation(len(clips))]
    path = tmp_path_factory.mktemp("ragged") / "pool.jsonl"
    save_pool(clips, path)
    return clips, path


def assert_features_of(table, clips) -> None:
    """``table``'s mean speeds and command classes are those of the
    per-clip formulas over ``clips``, floats bit for bit."""
    assert table.mean_speeds().tobytes() == bits([reference_mean_speed(c) for c in clips])
    for tau_c in TAUS:
        assert table.command_classes(tau_c).tolist() == [
            COMMAND_CLASSES.index(reference_command_class(c, tau_c)) for c in clips]


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_features_without_frames_are_those_with_frames(ragged_pool, n_cpus):
    """The pool read with frames, without them, as lines without them, and
    converted from its records: every table, a slice of it and a ``take``
    of it hold the same features. The file is read in one range, or in three
    of which two are read by forked children."""
    clips, path = ragged_pool
    assert any(np.mean(c.speeds) != reference_mean_speed(c) for c in clips)  # a pairwise sum differs
    with cpus(n_cpus, path.stat().st_size // 4) as forks:
        tables = [load_pool(path)[0], load_pool(path, frames=False)[0]]
    assert len(forks) == 2 * (n_cpus - 1)
    assert_no_child_left()
    tables += [parse_pool_lines(path.read_text().splitlines(), frames=False), clip_table(clips)]
    assert tables[1].offsets is None and not len(tables[1].speeds) and not len(tables[1].commands)
    assert tables[0].offsets is not None
    rows = np.random.default_rng(5).permutation(len(clips))[:60].tolist()
    for table in tables:
        assert_features_of(table, clips)
        assert_features_of(table[7:90], clips[7:90])
        assert_features_of(table.take([clips[r].id for r in rows]), [clips[r] for r in rows])


def test_a_table_without_frames_refuses_its_records(ragged_pool, tmp_path):
    """Its rows, iteration, ``==`` (on either side) and ``save_pool`` raise,
    also on a slice and a ``take``, and ``save_pool`` leaves no file. Its
    columns without the per-clip ones build no table: there are no frames to
    derive them from. A table with frames still gives its records back."""
    clips, path = ragged_pool
    table, framed = load_pool(path, frames=False)[0], load_pool(path)[0]
    refused = [lambda: table[0], lambda: table._row(3), lambda: iter(table), lambda: table == framed,
               lambda: framed == table, lambda: table[2:9][0], lambda: list(table.take([clips[4].id])),
               lambda: save_pool(table, tmp_path / "copy.jsonl"),
               lambda: ClipTable(*(getattr(table, name) for name in CLIP_COLUMNS))]
    for action in refused:
        with pytest.raises(ValueError, match="clip table has no frames"):
            action()
    assert list(tmp_path.iterdir()) == []
    assert list(framed) == clips and framed == clip_table(clips)


def test_features_come_from_the_frames_or_all_from_the_caller(ragged_pool):
    """A table with frames derives its features, whatever it is given; a
    table without frames takes all three, as long as its ids, and else
    raises ValueError."""
    clips, path = ragged_pool
    framed, table = load_pool(path)[0], load_pool(path, frames=False)[0]
    given = ClipTable(**{name: getattr(framed, name) for name in CLIP_COLUMNS},
                      mean_speed=framed.mean_speed + 1, left=framed.right, right=framed.left)
    assert_features_of(given, clips)
    assert_features_of(given.take(given.ids[::-1]), clips[::-1])
    frame_free = {name: getattr(table, name) for name in CLIP_COLUMNS}
    features = dict(mean_speed=table.mean_speed, left=table.left, right=table.right)
    assert_features_of(ClipTable(**frame_free, **features), clips)
    for name in features:
        for wrong in (None, features[name][1:]):
            with pytest.raises(ValueError, match="clip table"):
                ClipTable(**frame_free, **{**features, name: wrong})


def test_init_score_and_run_load_the_pool_without_frames(tmp_path, monkeypatch):
    """Each of ``init``, ``score`` and ``run`` loads the pool once, and asks
    for no frames."""
    pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
    generate_pool(WorldConfig(n_clips=120, seed=7), pool, truth)
    clips = load_pool(pool)[0]
    save_predictions(ToyPlanner(clips, load_truth(truth)).predict(clips.ids).values(), tmp_path / "preds.jsonl")
    requested = []

    def recording(path, horizon=6, frames=True):
        requested.append(frames)
        return load_pool(path, horizon=horizon, frames=frames)

    monkeypatch.setattr(cli, "load_pool", recording)
    sel = str(tmp_path / "sel.json")
    for argv in (["init", "--pool", str(pool), "--n0", "12", "--out", sel],
                 ["score", "--pool", str(pool), "--selection", sel, "--predictions", str(tmp_path / "preds.jsonl"),
                  "--out", str(tmp_path / "scores.tsv")],
                 ["run", "--pool", str(pool), "--truth", str(truth), "--out-dir", str(tmp_path / "out"),
                  "--heldout-count", "12"]):
        assert main(argv) == 0
    assert requested == [False, False, False]
