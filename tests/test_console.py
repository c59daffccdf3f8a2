"""The console checks of the CI workflow's "Console script" step, as tests.

Each test runs ``python -m driveselect`` in a subprocess, as the step runs
the ``driveselect`` script, and its docstring names the check it carries.
Where the step pins ``taskset -c 0``, the child pins itself to one CPU with
``os.sched_setaffinity`` before it runs.
"""

import os
import subprocess
import sys

import pytest

import driveselect

SRC = os.path.dirname(os.path.dirname(driveselect.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def one_cpu() -> None:
    """Pin the calling process to the lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def driveselect_cli(cwd, *args: str, pin: bool = False) -> subprocess.CompletedProcess:
    """``driveselect ARGS`` in ``cwd``, on one CPU if ``pin``."""
    return subprocess.run([sys.executable, "-m", "driveselect", *args], cwd=cwd, env=ENV, capture_output=True,
                          text=True, preexec_fn=one_cpu if pin else None)


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
