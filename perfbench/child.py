"""One workload pass: call ``driveselect.cli.main`` once per step, in this process.

    python3 child.py <as_limit_mb> <trace 0|1> <spans.json>

Run from the workload's input directory, which holds ``steps.json``, with
``src`` on PYTHONPATH. The address-space cap is set before anything is
imported, so it applies to this process only. Exit codes: 0 on success, the
failing step's code if a step fails, 3 when the memory cap is hit.
"""

import json
import resource
import sys
import time

MEMORY_CAP_EXIT = 3


def main() -> int:
    as_limit_mb, trace, spans_path = sys.argv[1:4]
    cap = int(as_limit_mb) * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    from driveselect import cli
    import_s = time.perf_counter() - start

    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    with open("steps.json", encoding="utf-8") as fh:
        steps = json.load(fh)
    try:
        for argv in steps:
            rc = cli.main(argv)
            if rc != 0:
                print(f"step {argv[0]} exited with {rc}", file=sys.stderr)
                return rc
    except MemoryError:
        print(f"memory cap of {as_limit_mb} MB hit", file=sys.stderr)
        return MEMORY_CAP_EXIT
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": {"cli.import_s": import_s, **tracer.counts}}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
