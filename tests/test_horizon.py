"""The pool sets the horizon: ``init``, ``score`` and ``run`` take no
horizon option. A loader given ``horizon=None`` reads the first record's
horizon once, before any block is parsed or any reader forks, and checks
every later line against it."""

import json
from itertools import accumulate

import pytest

from driveselect import pool as pool_module
from driveselect.cli import main
from driveselect.criteria import load_predictions, save_predictions
from driveselect.pool import encode_line, load_pool, load_selection
from driveselect.synthworld import ToyPlanner, load_truth

from test_read_ranges import KINDS, VALID, assert_no_child_left, cpus, outcome, write_lines


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def world_8(tmp_path_factory):
    """A 300-clip seed-3 world of horizon 8, and ToyPlanner predictions of
    every clip saved by ``save_predictions``."""
    cwd = tmp_path_factory.mktemp("world_8")
    pool, truth, preds = cwd / "pool.jsonl", cwd / "truth.jsonl", cwd / "preds.jsonl"
    assert run_cli("gen", "--n", 300, "--seed", 3, "--set", "horizon=8", "--pool", pool, "--truth", truth) == 0
    clips, _ = load_pool(pool, horizon=8)
    planner = ToyPlanner(clips, load_truth(truth, horizon=8))
    planner.train(clips.ids[:30])
    save_predictions(planner.predict(clips.ids).values(), preds)
    return cwd


def test_a_horizon_8_world_runs_every_command_without_a_flag(world_8, capsys):
    pool, sel, scores, out = (world_8 / name for name in ("pool.jsonl", "sel.json", "scores.tsv", "run_out"))
    assert run_cli("init", "--pool", pool, "--n0", 30, "--out", sel) == 0
    assert run_cli("score", "--pool", pool, "--selection", sel, "--predictions", world_8 / "preds.jsonl",
                   "--out", scores) == 0
    assert run_cli("select", "--scores", scores, "--selection", sel, "--n-itr", 20) == 0
    assert run_cli("run", "--pool", pool, "--truth", world_8 / "truth.jsonl", "--out-dir", out,
                   "--heldout-count", 30) == 0
    assert "error" not in capsys.readouterr().err
    clips, _ = load_pool(pool, horizon=None)
    assert clips.horizon == 8
    assert [len(ids) for _, ids in load_selection(sel, clips).rounds] == [30, 20]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pool"]["horizon"] == 8
    assert manifest["heldout"]["count"] == 30 and "l2_by_second" not in manifest["heldout"]


def test_run_on_truth_of_another_horizon_fails_and_writes_nothing(world_8, tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    assert run_cli("gen", "--n", 300, "--seed", 3, "--pool", pool, "--truth", tmp_path / "truth.jsonl") == 0
    capsys.readouterr()
    truth, out = world_8 / "truth.jsonl", tmp_path / "run_out"
    assert run_cli("run", "--pool", pool, "--truth", truth, "--out-dir", out) == 1
    assert capsys.readouterr().err == f"error: truth file {truth} line 1: ego_future has 8 waypoints, expected 6\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("init", "--pool", "pool.jsonl", "--n0", "3"),
    ("score", "--pool", "pool.jsonl", "--selection", "sel.json", "--predictions", "preds.jsonl"),
    ("run", "--pool", "pool.jsonl", "--truth", "truth.jsonl"),
])
def test_a_horizon_option_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--horizon", "6"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --horizon 6" in capsys.readouterr().err


#: kind -> (loader at the first record's horizon, the key of the horizon)
LOADERS = {
    "pool": (lambda path: load_pool(path, horizon=None)[0], "gt_future"),
    "truth": (lambda path: load_truth(path, horizon=None), "ego_future"),
    "predictions": (lambda path: load_predictions(path, horizon=None), "ego_plan"),
}
BLANKS = ["", "  "]


def shortened(line: str, key: str, agents: bool = False) -> str:
    """``line`` with its ``key`` list cut to 5 waypoints, and with ``agents``
    every agent's track or trajectories too."""
    record = json.loads(line)
    record[key] = record[key][:5]
    for agent in record.get("agents", []) if agents else []:
        if "track" in agent:
            agent["track"] = agent["track"][:5]
        else:
            agent["modality_trajs"] = [traj[:5] for traj in agent["modality_trajs"]]
    return encode_line(record).decode()


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("index", [1, 6, 11])
def test_a_line_of_another_horizon_is_named_on_one_cpu_and_on_all(tmp_path, kind, index):
    """Blank lines, then the 12 records of a horizon-6 file with record
    ``index`` cut to 5 waypoints: its line is named with the per-record
    message, whether this process or a forked reader's range holds it."""
    load, key = LOADERS[kind]
    lines = list(VALID[kind])
    lines[index] = shortened(lines[index], key)
    path = write_lines(tmp_path / f"{kind}.jsonl", BLANKS + lines)
    with cpus(1) as forks:
        want = outcome(load, path)
    assert forks == []
    with cpus(3, 1) as forks:
        got = outcome(load, path)
    assert len(forks) == 2
    assert got == want == f"{kind} file {path} line {len(BLANKS) + index + 1}: {key} has 5 waypoints, expected 6"
    assert_no_child_left()


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_a_whole_forked_range_of_another_horizon_is_named_at_its_first_line(tmp_path, kind):
    """Blank lines, then a horizon-6 file whose last forked range is cut to
    5 waypoints, agents too, each line padded with spaces to its old length
    so that the ranges stay where they were. Every block of that range
    agrees with itself, so a horizon taken per range would join it to the
    rest zero-padded; read at the first record's horizon, its first line is
    named, as one range names it."""
    load, key = LOADERS[kind]
    lines = BLANKS + list(VALID[kind])
    path = write_lines(tmp_path / f"{kind}.jsonl", lines)
    with cpus(3, 1):
        last = pool_module._ranges(path)[-1][0]
    starts = [0, *accumulate(len(line.encode()) + 1 for line in lines)]
    first = starts.index(last)
    for i in range(first, len(lines)):
        cut = shortened(lines[i], key, True)
        lines[i] = cut + " " * (len(lines[i].encode()) - len(cut.encode()))
    write_lines(path, lines)
    with cpus(1):
        want = outcome(load, path)
    with cpus(3, 1) as forks:
        got = outcome(load, path)
        assert pool_module._ranges(path)[-1][0] == last
    assert len(forks) == 2
    assert got == want == f"{kind} file {path} line {first + 1}: {key} has 5 waypoints, expected 6"
    assert_no_child_left()


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_the_first_record_sets_the_horizon_of_the_rest(tmp_path, kind):
    """Blank lines, then a file of horizon 5, which the loader's default of
    6 rejects at its first record: read at the first record's horizon, one
    range and forked ranges give the same table of horizon 5."""
    load, key = LOADERS[kind]
    path = write_lines(tmp_path / f"{kind}.jsonl", BLANKS + [shortened(line, key, True) for line in VALID[kind]])
    assert f"line {len(BLANKS) + 1}: " in outcome(KINDS[kind][0], path)
    with cpus(1):
        want = load(path)
    with cpus(3, 1) as forks:
        got = load(path)
    assert len(forks) == 2
    assert {table.ego_future.shape[1] if kind == "truth" else table.horizon for table in (want, got)} == {5}
    KINDS[kind][1](got, want)
    assert_no_child_left()


def first_records(kind: str, key: str) -> list[str]:
    """Bad first records: not an object, not JSON, and the valid first
    record with its ``key`` list a number, gone, or empty."""
    record = json.loads(VALID[kind][0])
    number, empty = {**record, key: 3}, {**record, key: []}
    del record[key]
    return ["[]", "{not json", json.dumps(number), json.dumps(record), json.dumps(empty)]


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_a_first_record_without_a_horizon_is_named_at_its_line(tmp_path, kind):
    """A first record that holds no list to take the horizon from fails at
    its own line; but for an empty list, whose horizon is taken as 1, the
    message is the loader default's."""
    load, key = LOADERS[kind]
    for first in first_records(kind, key):
        path = write_lines(tmp_path / f"{kind}.jsonl", BLANKS + [first] + list(VALID[kind][1:]))
        message = outcome(load, path)
        assert message.startswith(f"{kind} file {path} line {len(BLANKS) + 1}: "), (first, message)
        if '": []' not in first:
            assert message == outcome(KINDS[kind][0], path)
