"""driveselect benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload closed_loop|replay|generate|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``. For
each workload the benchmark

1. builds the inputs from ``--seed`` several times, each in its own set-up
   process (``prepare.py``), checks that every set-up wrote the same bytes,
   and reports the median set-up time as ``setup_s``;
2. runs workload passes, each one child process (``child.py``), one after
   another, until ``--seconds`` have passed. ``run_s`` is a pass's wall time
   from spawn to exit and ``peak_rss_mb`` the child's own ``ru_maxrss`` from
   ``os.wait4``; both are reported as the median over passes;
3. checks every pass's outputs against the sha256 digests recorded at the
   seed commit (``reference.json``, default seed only) and against the first
   pass, and for ``replay`` that the selected ids per round equal those of
   the closed loop (``loop.run``, behind ``driveselect run``) on the same
   pool and seed. A pass fails on a non-zero
   exit, a signal, the memory cap or a mismatch; ``error_rate`` is failed
   passes over attempted passes.

With ``--trace 1`` the passes alternate between untraced and traced, and the
per-layer metrics are medians over the traced passes of spans recorded around
calls into each module (see ``spans.py``). ``trace.overhead_s`` is the traced
median ``run_s`` minus the untraced one. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import spans
from child import MEMORY_CAP_EXIT
from workloads import DEFAULT_SEED, WORKLOADS, Workload, reference_digests

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".bench_work"

SETUP_REPEATS = 3
#: A workload stops starting passes once this many seconds could be exceeded,
#: and its child processes are killed at CHILD_DEADLINE_S.
PASS_BUDGET_S = 150.0
CHILD_DEADLINE_S = 170.0
#: Fixed child environment: no more BLAS/OpenMP threads than the single-threaded
#: program uses, and a fixed hash seed.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_THREADS = "1"
PYTHONHASHSEED = "0"


class BenchError(Exception):
    """The benchmark could not run: no program, or a set-up failed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    for var in THREAD_VARS:
        env[var] = CHILD_THREADS
    return env


def spawn(cmd: list[str], cwd: Path, log: Path, timeout_s: float) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, its own peak RSS in MB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


def log_tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def setup(workload: Workload, seed: int, wdir: Path, started: float) -> tuple[Path, list[float]]:
    """Build the inputs SETUP_REPEATS times; return the last input directory and the timings."""
    times, first, inputs = [], None, None
    for i in range(SETUP_REPEATS):
        if inputs is not None:
            shutil.rmtree(inputs)
        inputs = wdir / f"inputs{i}"
        inputs.mkdir()
        log = wdir / "setup.log"
        cmd = [sys.executable, str(HERE / "prepare.py"), workload.name, str(seed)]
        elapsed, rc, _ = spawn(cmd, inputs, log, CHILD_DEADLINE_S - (time.perf_counter() - started))
        if rc != 0:
            raise BenchError(f"{workload.name} set-up exited with {rc}:\n{log_tail(log)}")
        digests = tree_digests(inputs)
        if first is not None and digests != first:
            raise BenchError(f"{workload.name} set-up {i} wrote other bytes than set-up 0 for seed {seed}")
        first = digests
        times.append(elapsed)
    return inputs, times


def selected_rounds(path: Path) -> list[list[str]]:
    return [entry["ids"] for entry in json.loads(path.read_text(encoding="utf-8"))["rounds"]]


def run_pass(workload: Workload, wdir: Path, inputs: Path, traced: bool,
             expected: dict | None, started: float) -> dict:
    """One workload pass, its output check, and (when traced) its per-layer metrics."""
    out = inputs / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    spans_file = wdir / "spans.json"
    spans_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(workload.as_limit_mb), "1" if traced else "0",
           str(spans_file)]
    log = wdir / "child.log"
    elapsed, rc, rss_mb = spawn(cmd, inputs, log, CHILD_DEADLINE_S - (time.perf_counter() - started))
    result = {"run_s": elapsed, "peak_rss_mb": rss_mb, "traced": traced, "error": None, "digests": None}
    if rc != 0:
        reason = "memory cap hit" if rc == MEMORY_CAP_EXIT else f"exit code {rc}"
        result["error"] = f"{reason}:\n{log_tail(log)}"
        return result
    missing = [f for f in workload.outputs if not (inputs / f).is_file()]
    if missing:
        result["error"] = f"missing outputs {missing}"
        return result
    result["digests"] = {f: sha256(inputs / f) for f in workload.outputs}
    if expected is not None and result["digests"] != expected:
        bad = sorted(f for f in workload.outputs if result["digests"][f] != expected[f])
        result["error"] = f"output digest mismatch: {bad}"
        return result
    if workload.name == "replay":
        closed_loop = selected_rounds(inputs / "expected_selection.json")
        if selected_rounds(inputs / "out" / "selection.json") != closed_loop:
            result["error"] = "replay selection differs from the closed loop on the same pool and seed"
            return result
    if traced:
        recorded = json.loads(spans_file.read_text(encoding="utf-8"))
        result["layers"] = spans.layer_metrics(recorded["spans"], recorded["counts"])
    return result


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}; " + " ".join(f"{v:.4f}" for v in values)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    started = time.perf_counter()
    wdir = WORK / workload.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    try:
        inputs, setup_times = setup(workload, seed, wdir, started)
        reference = reference_digests(workload, seed)
        passes: list[dict] = []
        measure_start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            expected = reference or next((p["digests"] for p in passes if p["digests"]), None)
            passes.append(run_pass(workload, wdir, inputs, traced, expected, started))
            if passes[-1]["error"]:
                print(f"{workload.name}: pass {len(passes)} failed: {passes[-1]['error']}", file=sys.stderr)
            done = time.perf_counter() - measure_start >= seconds and (not trace or len(passes) % 2 == 0)
            longest = max(p["run_s"] for p in passes)
            if done or time.perf_counter() - started + longest > PASS_BUDGET_S:
                break
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = sum(1 for p in passes if p["error"])

    def passes_of(traced: bool) -> list[dict]:
        """Successful passes of one kind, or all of that kind when none succeeded."""
        kind = [p for p in passes if p["traced"] == traced]
        return [p for p in kind if not p["error"]] or kind

    untraced = passes_of(False)
    print("provenance " + json.dumps(provenance(workload, seed, len(passes))))
    print(f"{workload.name} outputs " + json.dumps(next((p["digests"] for p in passes if p["digests"]), None)))
    metrics: dict[str, dict] = {}
    correct = failed == 0
    if not trace:
        values = {
            "run_s": [p["run_s"] for p in untraced],
            "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
            "setup_s": setup_times,
        }
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
            print(f"{workload.name} {m['name']} {metrics[m['name']]['value']:.4f} {m['unit']} "
                  f"(median; {quartiles(values[m['name']])})")
    else:
        layers = [p["layers"] for p in passes_of(True) if "layers" in p]
        traced_run = statistics.median(p["run_s"] for p in passes_of(True))
        derived = {"trace.run_s": traced_run,
                   "trace.overhead_s": traced_run - statistics.median(p["run_s"] for p in untraced)}
        for m in bench["per_layer"]:
            name = m["name"]
            samples = [derived[name]] if name in derived else [lay.get(name, 0.0) for lay in layers] or [0.0]
            if m["unit"] in ("count", "bytes") and len(set(samples)) > 1:
                print(f"{workload.name}: count {name} differs between passes: {samples}", file=sys.stderr)
                correct = False
            metrics[name] = {"value": statistics.median(samples), "unit": m["unit"]}
            print(f"{workload.name} {name} {metrics[name]['value']:.6g} {m['unit']}")
    print(f"{workload.name} error_rate {failed / len(passes):.4f} ratio ({failed} failed of {len(passes)} passes)")
    return {"correct": correct, "attempted": len(passes), "failed": failed, "metrics": metrics}


def provenance(workload: Workload, seed: int, passes: int) -> dict:
    commit = None
    if (CHECKOUT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": seed, "n_clips": workload.n_clips, "passes": passes,
        "setups": SETUP_REPEATS, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "commit": commit, "src_sha256": src.hexdigest(),
        "blas_threads": CHILD_THREADS, "pythonhashseed": PYTHONHASHSEED,
    }


def check_benchmark_file(bench: dict) -> None:
    for m in bench["per_layer"]:
        name = m["name"]
        prefix = name.rsplit(".", 1)[0]
        if prefix not in spans.SPAN_NAMES | {"cli", "trace"} or spans.unit_of(name) != m["unit"]:
            raise BenchError(f"BENCHMARK.json: per-layer metric {name!r} ({m['unit']}) is not measured")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (SRC / "driveselect" / "__init__.py").is_file():
            raise BenchError(f"no driveselect sources under {SRC}")
        bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
        check_benchmark_file(bench)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), bench)
                   for n in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
