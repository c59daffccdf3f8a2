"""The console checks of the CI workflow's "Console script" step, as tests.

Each test runs ``python -m driveselect`` in a subprocess, as the step runs
the ``driveselect`` script, and its docstring names the check it carries.
Where the step pins ``taskset -c 0``, the child pins itself to one CPU with
``os.sched_setaffinity`` before it runs.
"""

import os
import shutil
import subprocess
import sys

import pytest

import driveselect
from driveselect.criteria import save_predictions
from driveselect.pool import load_pool
from driveselect.synthworld import ToyPlanner, load_truth

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


def test_gen_to_one_file_for_both_outputs_fails_and_makes_nothing(tmp_path):
    """``driveselect gen --n 50 --pool same.jsonl --truth same.jsonl``: exit
    status 1, no ``same.jsonl`` and no ``.tmp-*.part``."""
    done = driveselect_cli(tmp_path, "gen", "--n", "50", "--pool", "same.jsonl", "--truth", "same.jsonl")
    assert done.returncode == 1
    assert "error: outputs same.jsonl and same.jsonl are the same file" in done.stderr
    assert list(tmp_path.iterdir()) == []
