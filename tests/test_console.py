"""The console checks of the CI workflow's "Console script" step, as tests.

Each test runs ``python -m driveselect`` in a subprocess, as the step runs
the ``driveselect`` script, and its docstring names the check it carries.
Where the step pins ``taskset -c 0``, the child pins itself to one CPU with
``os.sched_setaffinity`` before it runs.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import driveselect
from driveselect.criteria import load_predictions, save_predictions
from driveselect.pool import encode_line, load_pool, load_selection, save_pool
from driveselect.synthworld import ToyPlanner, load_truth, save_truth

from test_read_ranges import one_modality_every_7th

SRC = os.path.dirname(os.path.dirname(driveselect.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def one_cpu() -> None:
    """Pin the calling process to the lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def driveselect_cli(cwd, *args: str, pin: bool = False) -> subprocess.CompletedProcess:
    """``driveselect ARGS`` in ``cwd``, on one CPU if ``pin``."""
    return subprocess.run([sys.executable, "-m", "driveselect", *args], cwd=cwd, env=ENV, capture_output=True,
                          text=True, preexec_fn=one_cpu if pin else None)


def reversed_lines(source, target) -> None:
    """``tac source > target``."""
    target.write_bytes(b"".join(reversed(source.read_bytes().splitlines(keepends=True))))


RUN_300 = ("run", "--pool", "pool.jsonl", "--truth", "truth.jsonl", "--out-dir", "run_out", "--heldout-count", "30")
RUN_FILES = ("manifest.json", "selection.json", "report.json", "report.tsv")


@pytest.fixture(scope="module")
def world_300(tmp_path_factory):
    """``driveselect gen --n 300 --pool pool.jsonl --truth truth.jsonl``,
    then ``driveselect run`` with 30 held-out clips and ``driveselect init
    --n0 30``, as the step starts."""
    cwd = tmp_path_factory.mktemp("world_300")
    for args in (("gen", "--n", "300", "--pool", "pool.jsonl", "--truth", "truth.jsonl"), RUN_300,
                 ("init", "--pool", "pool.jsonl", "--n0", "30", "--out", "sel.json")):
        done = driveselect_cli(cwd, *args)
        assert done.returncode == 0, done.stderr
    return cwd


def test_run_on_reversed_truth_writes_the_same_files(world_300):
    """The truth lines in reverse, so truth rows differ from pool rows
    (``tac truth.jsonl > reversed/truth.jsonl`` beside a copy of the pool):
    ``run`` from that sibling directory, with the same relative paths, must
    write the same four files (``cmp``)."""
    reversed_dir = world_300 / "reversed"
    reversed_dir.mkdir()
    shutil.copyfile(world_300 / "pool.jsonl", reversed_dir / "pool.jsonl")
    reversed_lines(world_300 / "truth.jsonl", reversed_dir / "truth.jsonl")
    done = driveselect_cli(reversed_dir, *RUN_300)
    assert done.returncode == 0, done.stderr
    for name in RUN_FILES:
        assert (reversed_dir / "run_out" / name).read_bytes() == (world_300 / "run_out" / name).read_bytes(), name


def test_score_of_reversed_predictions_writes_the_same_scores(world_300):
    """ToyPlanner predictions of the whole pool, and ``tac preds.jsonl >
    preds_reversed.jsonl``: predictions for more clips than are scored, in
    another order, must score the same bytes (``cmp scores.tsv
    scores_reversed.tsv``)."""
    clips, _ = load_pool(world_300 / "pool.jsonl")
    preds = ToyPlanner(clips, load_truth(world_300 / "truth.jsonl")).predict(list(clips.ids))
    save_predictions(preds.values(), world_300 / "preds.jsonl")
    reversed_lines(world_300 / "preds.jsonl", world_300 / "preds_reversed.jsonl")
    for name in ("", "_reversed"):
        done = driveselect_cli(world_300, "score", "--pool", "pool.jsonl", "--selection", "sel.json",
                               "--predictions", f"preds{name}.jsonl", "--out", f"scores{name}.tsv")
        assert done.returncode == 0, done.stderr
    assert (world_300 / "scores.tsv").read_bytes() == (world_300 / "scores_reversed.tsv").read_bytes()


def quote_confidence(line: bytes) -> bytes:
    """``sed 's/"confidence":\\([^,]*\\)/"confidence":"\\1"/'`` of one line:
    its first confidence, quoted."""
    return re.sub(rb'"confidence":([^,]*)', rb'"confidence":"\1"', line, count=1)


def test_score_of_a_quoted_confidence_fails_and_writes_nothing(world_300):
    """ToyPlanner predictions of the pool with the file's first confidence
    quoted (``sed`` to ``quoted.jsonl``, then ``grep -q '"confidence":"'``):
    ``score`` must exit 1 and write no ``quoted_scores.tsv``."""
    clips, _ = load_pool(world_300 / "pool.jsonl")
    preds = ToyPlanner(clips, load_truth(world_300 / "truth.jsonl")).predict(list(clips.ids))
    save_predictions(preds.values(), world_300 / "quoted.jsonl")
    lines = (world_300 / "quoted.jsonl").read_bytes().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if b'"confidence":' in line)
    lines[first] = quote_confidence(lines[first])
    (world_300 / "quoted.jsonl").write_bytes(b"".join(lines))
    assert b'"confidence":"' in lines[first]
    done = driveselect_cli(world_300, "score", "--pool", "pool.jsonl", "--selection", "sel.json",
                           "--predictions", "quoted.jsonl", "--out", "quoted_scores.tsv")
    assert done.returncode == 1
    assert not (world_300 / "quoted_scores.tsv").exists()


def test_report_of_the_run_manifest(world_300):
    """``driveselect report --manifest run_out/manifest.json --out-dir
    report_out`` exits 0 and writes both reports."""
    done = driveselect_cli(world_300, "report", "--manifest", "run_out/manifest.json", "--out-dir", "report_out")
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (world_300 / "report_out").iterdir()) == ["report.json", "report.tsv"]


def test_a_ragged_pool_round_trips_and_init_and_run_take_it(world_300):
    """``ragged.jsonl``: the pool with every 7th clip's last frame dropped
    and one annotation. ``load_pool`` then ``save_pool`` gives its bytes
    back (``cmp ragged.jsonl ragged_copy.jsonl``), and ``init --n0 30`` and
    ``run --heldout-count 30`` exit 0 on it."""
    records = [json.loads(line) for line in (world_300 / "pool.jsonl").read_bytes().splitlines()]
    for record in records[::7]:
        record["frames"].pop()
    records[3]["annotation"] = {"boxes": [[0.5, -1.25e-05, 2]], "note": "café"}
    (world_300 / "ragged.jsonl").write_bytes(b"".join(encode_line(record) + b"\n" for record in records))
    save_pool(load_pool(world_300 / "ragged.jsonl")[0], world_300 / "ragged_copy.jsonl")
    assert (world_300 / "ragged_copy.jsonl").read_bytes() == (world_300 / "ragged.jsonl").read_bytes()
    for args in (("init", "--pool", "ragged.jsonl", "--n0", "30", "--out", "ragged_sel.json"),
                 ("run", "--pool", "ragged.jsonl", "--truth", "truth.jsonl", "--out-dir", "ragged_run",
                  "--heldout-count", "30")):
        done = driveselect_cli(world_300, *args)
        assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def whole_pool_predictions(world_300):
    """``whole.jsonl``: untrained ToyPlanner predictions of the whole pool,
    in one ``predict`` call."""
    clips, _ = load_pool(world_300 / "pool.jsonl")
    save_predictions(ToyPlanner(clips, load_truth(world_300 / "truth.jsonl")).predict(list(clips.ids)).values(),
                     world_300 / "whole.jsonl")
    return world_300 / "whole.jsonl"


def test_two_half_pool_predict_calls_write_the_whole_pools_bytes(world_300, whole_pool_predictions):
    """One planner's ``predict`` of the first half of the pool and then of
    the second, saved as ``halves.jsonl``: ``cmp`` with ``whole.jsonl``."""
    clips, _ = load_pool(world_300 / "pool.jsonl")
    planner = ToyPlanner(clips, load_truth(world_300 / "truth.jsonl"))
    ids = list(clips.ids)
    half = len(ids) // 2
    save_predictions([*planner.predict(ids[:half]).values(), *planner.predict(ids[half:]).values()],
                     world_300 / "halves.jsonl")
    assert (world_300 / "halves.jsonl").read_bytes() == whole_pool_predictions.read_bytes()


def test_init_score_select_chain(world_300, whole_pool_predictions):
    """``init --n0 30`` (the fixture's ``sel.json``), ``score`` of
    ``whole.jsonl``, then ``select --n-itr 30`` in place, on a copy of
    ``sel.json`` so the fixture's file stays as ``init`` wrote it: each
    exits 0, and the copy gains a round 1 of 30 unlabeled clips."""
    shutil.copyfile(world_300 / "sel.json", world_300 / "chain_sel.json")
    for args in (("score", "--pool", "pool.jsonl", "--selection", "chain_sel.json", "--predictions", "whole.jsonl",
                  "--out", "chain_scores.tsv"),
                 ("select", "--scores", "chain_scores.tsv", "--selection", "chain_sel.json", "--n-itr", "30")):
        done = driveselect_cli(world_300, *args)
        assert done.returncode == 0, done.stderr
    clips, _ = load_pool(world_300 / "pool.jsonl")
    (_, init), (index, picked) = load_selection(world_300 / "chain_sel.json", clips).rounds
    assert init == tuple(json.loads((world_300 / "sel.json").read_text())["rounds"][0]["ids"])
    assert index == 1 and len(picked) == 30


def test_overlap_of_two_run_selections_has_plain_float_cells(world_300):
    """``run --criterion de`` and ``run --criterion sc``, then ``report
    --selection`` of both selections: every data cell of ``overlap.tsv``
    (from its third line, after the label column) is a plain float literal,
    such as 1.0, not np.float64(1.0)."""
    for criterion in ("de", "sc"):
        done = driveselect_cli(world_300, "run", "--pool", "pool.jsonl", "--truth", "truth.jsonl",
                               "--out-dir", f"run_{criterion}", "--criterion", criterion)
        assert done.returncode == 0, done.stderr
    done = driveselect_cli(world_300, "report", "--selection", "run_de/selection.json",
                           "--selection", "run_sc/selection.json", "--out-dir", "overlap_out")
    assert done.returncode == 0, done.stderr
    rows = (world_300 / "overlap_out" / "overlap.tsv").read_text().splitlines()[2:]
    cells = [cell for row in rows for cell in row.split("\t")[1:]]
    assert cells
    for cell in cells:
        assert re.fullmatch(r"-?[0-9]+\.[0-9]+(e[-+][0-9]+)?", cell), cell


GEN_1200 = ("gen", "--n", "1200", "--seed", "5")


@pytest.fixture(scope="module")
def world_1200(tmp_path_factory):
    """The 1200-clip world of seed 5, generated on all CPUs."""
    cwd = tmp_path_factory.mktemp("world_1200")
    done = driveselect_cli(cwd, *GEN_1200, "--pool", "pool_all.jsonl", "--truth", "truth_all.jsonl")
    assert done.returncode == 0, done.stderr
    return cwd


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_gen_on_one_cpu_writes_the_bytes_of_all_cpus(world_1200):
    """``taskset -c 0 driveselect gen --n 1200 --seed 5`` (in process) and
    the same ``gen`` on all CPUs (forked children): ``cmp`` of both files."""
    done = driveselect_cli(world_1200, *GEN_1200, "--pool", "pool_one.jsonl", "--truth", "truth_one.jsonl", pin=True)
    assert done.returncode == 0, done.stderr
    for kind in ("pool", "truth"):
        assert (world_1200 / f"{kind}_one.jsonl").read_bytes() == (world_1200 / f"{kind}_all.jsonl").read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_run_on_one_cpu_writes_the_files_of_all_cpus(world_1200):
    """``pool_all.jsonl`` is over 2 MiB, so it is read in byte ranges, one
    process per CPU: ``taskset -c 0 driveselect run --heldout-count 120`` and
    the same ``run`` on all CPUs write the same four files (``cmp``)."""
    assert (world_1200 / "pool_all.jsonl").stat().st_size > 2 * 1024 * 1024
    for cpus in ("one", "all"):
        done = driveselect_cli(world_1200, "run", "--pool", "pool_all.jsonl", "--truth", "truth_all.jsonl",
                               "--out-dir", f"range_run_{cpus}", "--heldout-count", "120", pin=cpus == "one")
        assert done.returncode == 0, done.stderr
    for name in RUN_FILES:
        assert (world_1200 / "range_run_one" / name).read_bytes() == (world_1200 / "range_run_all" / name).read_bytes()


def test_gen_to_one_file_for_both_outputs_fails_and_makes_nothing(tmp_path):
    """``driveselect gen --n 50 --pool same.jsonl --truth same.jsonl``: exit
    status 1, no ``same.jsonl`` and no ``.tmp-*.part``."""
    done = driveselect_cli(tmp_path, "gen", "--n", "50", "--pool", "same.jsonl", "--truth", "same.jsonl")
    assert done.returncode == 1
    assert "error: outputs same.jsonl and same.jsonl are the same file" in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def range_predictions(world_1200):
    """``driveselect init --pool pool_all.jsonl --n0 120 --out
    range_sel.json``; ToyPlanner predictions of every clip, trained on the
    first 120, as ``range_preds.jsonl``; and ``range_mixed.jsonl``, where every
    7th agent keeps only its middle modality, with probability 1.0. Both
    files are over 2 MiB, so ``score`` reads them in byte ranges on more
    than one CPU."""
    done = driveselect_cli(world_1200, "init", "--pool", "pool_all.jsonl", "--n0", "120", "--out", "range_sel.json")
    assert done.returncode == 0, done.stderr
    clips, _ = load_pool(world_1200 / "pool_all.jsonl")
    planner = ToyPlanner(clips, load_truth(world_1200 / "truth_all.jsonl"))
    planner.train(clips.ids[:120])
    save_predictions(planner.predict(clips.ids).values(), world_1200 / "range_preds.jsonl")
    records = one_modality_every_7th(
        [json.loads(line) for line in (world_1200 / "range_preds.jsonl").read_bytes().splitlines()])
    (world_1200 / "range_mixed.jsonl").write_bytes(b"".join(encode_line(record) + b"\n" for record in records))
    for name in ("range_preds.jsonl", "range_mixed.jsonl"):
        assert (world_1200 / name).stat().st_size > 2 * 1024 * 1024
    return world_1200


def score_range(cwd, predictions: str, out: str, pin: bool) -> subprocess.CompletedProcess:
    return driveselect_cli(cwd, "score", "--pool", "pool_all.jsonl", "--selection", "range_sel.json",
                           "--predictions", predictions, "--out", out, pin=pin)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("name", ["range_preds", "range_mixed"])
def test_score_on_one_cpu_writes_the_bytes_of_all_cpus(range_predictions, name):
    """``taskset -c 0 driveselect score`` and ``score`` on all CPUs, of
    ``range_preds.jsonl`` and of the mixed-modality ``range_mixed.jsonl``:
    ``cmp`` of the two scores files."""
    for cpus in ("one", "all"):
        done = score_range(range_predictions, f"{name}.jsonl", f"{name}_{cpus}.tsv", pin=cpus == "one")
        assert done.returncode == 0, done.stderr
    assert (range_predictions / f"{name}_one.tsv").read_bytes() == (range_predictions / f"{name}_all.tsv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_score_of_a_quoted_last_confidence_fails_alike_on_one_and_all_cpus(range_predictions):
    """``range_bad.jsonl``: ``range_preds.jsonl`` with the last line that has
    an agent given a quoted confidence. ``score`` on one CPU and on all CPUs,
    where a forked reader's range holds that line: exit status 1, no scores
    file, the same standard error, naming the file, the line and the
    confidence."""
    lines = (range_predictions / "range_preds.jsonl").read_bytes().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if b'"confidence":' in line)
    lines[last] = quote_confidence(lines[last])
    (range_predictions / "range_bad.jsonl").write_bytes(b"".join(lines))
    assert b'"confidence":"' in lines[last]
    errors = []
    for cpus in ("one", "all"):
        done = score_range(range_predictions, "range_bad.jsonl", f"range_bad_{cpus}.tsv", pin=cpus == "one")
        assert done.returncode == 1
        assert not (range_predictions / f"range_bad_{cpus}.tsv").exists()
        errors.append(done.stderr)
    assert re.search(f"predictions file range_bad.jsonl line {last + 1}: agent .* confidence must be a JSON number",
                     errors[0])
    assert errors[0] == errors[1]


def test_two_predict_calls_split_at_clip_777_write_the_bytes_of_one(range_predictions):
    """One ToyPlanner of ``pool_all.jsonl``, trained on its first 120 clips,
    predicting the clips before 777 and then the rest, saved as
    ``range_split.jsonl``: ``cmp range_preds.jsonl range_split.jsonl``. The
    whole pool and the first call hold more agents than AGENT_BLOCK, and the
    split moves the forecast block edges."""
    clips, _ = load_pool(range_predictions / "pool_all.jsonl")
    planner = ToyPlanner(clips, load_truth(range_predictions / "truth_all.jsonl"))
    planner.train(clips.ids[:120])
    ids = list(clips.ids)
    save_predictions([*planner.predict(ids[:777]).values(), *planner.predict(ids[777:]).values()],
                     range_predictions / "range_split.jsonl")
    assert (range_predictions / "range_split.jsonl").read_bytes() == \
        (range_predictions / "range_preds.jsonl").read_bytes()


@pytest.mark.parametrize("name", ["range_preds", "range_mixed"])
def test_predictions_read_in_byte_ranges_save_to_their_own_bytes(range_predictions, name):
    """``load_predictions`` then ``save_predictions`` of ``range_preds.jsonl``
    and of the mixed-modality ``range_mixed.jsonl``, both over 2 MiB and so
    read in byte ranges: ``cmp`` with the copy."""
    source, copy = range_predictions / f"{name}.jsonl", range_predictions / f"{name}_copy.jsonl"
    save_predictions(load_predictions(source).values(), copy)
    assert copy.read_bytes() == source.read_bytes()


def test_truth_saves_to_its_own_bytes(world_1200):
    """``load_truth`` then ``save_truth`` of ``truth_all.jsonl``: ``cmp
    truth_all.jsonl truth_all_copy.jsonl``."""
    save_truth(load_truth(world_1200 / "truth_all.jsonl"), world_1200 / "truth_all_copy.jsonl")
    assert (world_1200 / "truth_all_copy.jsonl").read_bytes() == (world_1200 / "truth_all.jsonl").read_bytes()


@pytest.fixture(scope="module")
def world_3000(tmp_path_factory):
    """``driveselect gen --n 3000 --seed 5 --pool pool_3000.jsonl --truth
    truth_3000.jsonl``: a truth file over 2 MiB, which ``truth_all.jsonl``
    is not."""
    cwd = tmp_path_factory.mktemp("world_3000")
    done = driveselect_cli(cwd, "gen", "--n", "3000", "--seed", "5", "--pool", "pool_3000.jsonl",
                           "--truth", "truth_3000.jsonl")
    assert done.returncode == 0, done.stderr
    return cwd


def test_a_truth_file_over_2_mib_saves_to_its_own_bytes(world_3000):
    """``truth_3000.jsonl`` is over 2 MiB, so it is read in byte ranges:
    ``load_truth`` then ``save_truth`` gives its bytes back (``cmp``)."""
    truth, copy = world_3000 / "truth_3000.jsonl", world_3000 / "truth_3000_copy.jsonl"
    assert truth.stat().st_size > 2 * 1024 * 1024
    save_truth(load_truth(truth), copy)
    assert copy.read_bytes() == truth.read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_run_on_a_1e400_track_coordinate_fails_alike_on_one_and_all_cpus(world_3000):
    """``truth_inf.jsonl``: ``truth_3000.jsonl`` whose last record with an
    agent carries 1e400 as a track coordinate (``grep -q '\\[\\[1e400,'``).
    ``run`` on one CPU and on all CPUs, where a forked reader's block finds
    it: exit status 1, no out dir, and the same standard error, naming that
    line."""
    lines = (world_3000 / "truth_3000.jsonl").read_bytes().splitlines()
    n = max(i for i, line in enumerate(lines) if json.loads(line)["agents"])
    record = json.loads(lines[n])
    record["agents"][0]["track"][0][0] = "X"
    lines[n] = encode_line(record).replace(b'"X"', b"1e400")
    (world_3000 / "truth_inf.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))
    assert b"[[1e400," in lines[n]
    errors = []
    for cpus in ("one", "all"):
        done = driveselect_cli(world_3000, "run", "--pool", "pool_3000.jsonl", "--truth", "truth_inf.jsonl",
                               "--out-dir", f"inf_run_{cpus}", pin=cpus == "one")
        assert done.returncode == 1
        assert not (world_3000 / f"inf_run_{cpus}").exists()
        errors.append(done.stderr)
    assert f"truth file truth_inf.jsonl line {n + 1}: waypoint coordinates must be finite, got (inf, " in errors[0]
    assert errors[0] == errors[1]
