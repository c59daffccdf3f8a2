"""Time `driveselect gen` and `driveselect run` on one large seeded pool.

    python scripts/scale_run.py --clips 50000 [--seed 7] [--src src] [--work DIR]

Run it from the root of a checkout; ``--src`` picks the source tree to
import, so two checkouts can be compared on the same machine. `run` holds
out the last 10% of the pool and uses the default schedule. Each command is
one child process; the script prints its wall time and its own peak RSS
(``ru_maxrss`` from ``os.wait4``, taken in this small parent), then the
sha256 of each file that `run` writes. The manifest records the input
paths, so give two checkouts the same ``--work`` to compare their hashes.
The work directory is removed at the end unless ``--work`` names one.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUN_OUTPUTS = ("manifest.json", "selection.json", "report.json", "report.tsv")


def timed(argv: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one child running ``argv``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{argv[3]} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--clips", type=int, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--src", default="src")
    parser.add_argument("--work")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve()), "PYTHONHASHSEED": "0"}
    work = Path(args.work or tempfile.mkdtemp(prefix="scale_run_"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli = [sys.executable, "-m", "driveselect"]
        pool, truth, out = str(work / "pool.jsonl"), str(work / "truth.jsonl"), work / "run_out"
        gen = timed([*cli, "gen", "--n", str(args.clips), "--seed", str(args.seed), "--pool", pool, "--truth", truth], env)
        print(f"gen  {args.clips} clips: {gen[0]:.2f} s, {gen[1]:.1f} MB")
        run = timed([*cli, "run", "--seed", str(args.seed), "--pool", pool, "--truth", truth,
                     "--out-dir", str(out), "--heldout-count", str(args.clips // 10)], env)
        print(f"run  {args.clips} clips: {run[0]:.2f} s, {run[1]:.1f} MB")
        for name in RUN_OUTPUTS:
            print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}")
    finally:
        if not args.work:
            shutil.rmtree(work)


if __name__ == "__main__":
    main()
