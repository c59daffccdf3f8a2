"""Workload definitions shared by the benchmark's parent and set-up processes."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: Seed used when ``--seed`` is not given; ``reference.json`` holds digests for it.
DEFAULT_SEED = 7
#: Pool sizes. CPU speed on a shared host drifts by 10-20% within seconds, so
#: every pass lasts several seconds and a 20-second run still holds three or
#: more of them. closed_loop stays large enough for the quadratic k-NN memory
#: to dominate its peak RSS.
CLOSED_LOOP_CLIPS = 8_000
REPLAY_CLIPS = 5_000
GENERATE_CLIPS = 10_000

ROOT = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    n_clips: int
    #: Address-space cap of the workload child, two to three times the peak
    #: RSS measured at the seed commit, so a memory regression fails the pass
    #: with MemoryError before the kernel's OOM killer fires.
    as_limit_mb: int
    #: Output files, relative to the working directory, whose sha256 digests
    #: are checked after every pass.
    outputs: tuple[str, ...]


WORKLOADS = {
    "closed_loop": Workload(
        "closed_loop", CLOSED_LOOP_CLIPS, 3000,
        ("out/manifest.json", "out/selection.json", "out/report.json", "out/report.tsv"),
    ),
    "replay": Workload(
        "replay", REPLAY_CLIPS, 300,
        ("out/selection.json", "out/scores_round_1.tsv", "out/scores_round_2.tsv"),
    ),
    "generate": Workload("generate", GENERATE_CLIPS, 400, ("out/pool.jsonl", "out/truth.jsonl")),
}


def reference_digests(workload: Workload, seed: int) -> dict[str, str] | None:
    """Digests recorded at the seed commit, or None for a seed without them."""
    ref = json.loads((ROOT / "reference.json").read_text(encoding="utf-8"))
    entry = ref["workloads"].get(workload.name)
    if seed != ref["seed"] or entry is None or entry["n_clips"] != workload.n_clips:
        return None
    return entry["digests"]
