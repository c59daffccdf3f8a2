"""Build one workload's inputs in the current directory (the benchmark's set-up).

    python3 prepare.py <workload> <seed>

Runs in its own process, so that generation memory never counts towards the
workload child's peak RSS.

- ``closed_loop``: a generated world, ``pool.jsonl`` and ``truth.jsonl``.
- ``replay``: ``pool.jsonl``, plus ``predictions_round_<k>.jsonl`` for every
  pool clip, from the bundled ToyPlanner trained on round k's labeled set.
  The predictions are recorded while ``loop.run``, the closed loop behind
  ``driveselect run``, selects on this pool with the CLI's default schedule.
  Its selection, ``expected_selection.json``, is what the replay chain must
  reproduce.
- ``generate``: nothing more; ``gen`` only needs its size and seed.

Every workload also gets ``steps.json``: the ``driveselect`` command lines of
one pass, which the workload child runs in this directory, so that the paths
the program records in its outputs are the same relative names everywhere.
"""

import json
import sys

from driveselect.criteria import save_predictions
from driveselect.loop import ActiveConfig, derive_schedule, run
from driveselect.pool import save_pool, save_selection
from driveselect.synthworld import ToyPlanner, WorldConfig, generate_pool, generate_world

from workloads import WORKLOADS


class RecordingProvider:
    """Serves the planner's predictions and writes them for every pool clip."""

    def __init__(self, planner, pool_ids):
        self._planner = planner
        self._pool_ids = pool_ids
        self._round = 0

    def train(self, labeled_ids):
        self._round += 1
        self._planner.train(labeled_ids)

    def predict(self, ids):
        # ToyPlanner predicts each clip independently of the rest of the
        # batch, so predicting the whole pool gives the loop the same values.
        everything = self._planner.predict(self._pool_ids)
        save_predictions(everything.values(), f"predictions_round_{self._round}.jsonl")
        return {i: everything[i] for i in ids}


def steps(name: str, n_clips: int, seed: int) -> list[list[str]]:
    """The command lines of one workload pass, run in order."""
    if name == "closed_loop":
        return [["run", "--pool", "pool.jsonl", "--truth", "truth.jsonl", "--out-dir", "out",
                 "--heldout-count", str(n_clips // 10)]]
    if name == "replay":
        n = str(derive_schedule(n_clips)[3])
        chain = [["init", "--pool", "pool.jsonl", "--mode", "ego-diversity", "--n0", n,
                  "--out", "out/selection.json"]]
        for k in (1, 2):
            chain.append(["score", "--pool", "pool.jsonl", "--selection", "out/selection.json",
                          "--predictions", f"predictions_round_{k}.jsonl",
                          "--out", f"out/scores_round_{k}.tsv"])
            chain.append(["select", "--scores", f"out/scores_round_{k}.tsv",
                          "--selection", "out/selection.json", "--n-itr", n])
        return chain
    return [["gen", "--n", str(n_clips), "--seed", str(seed),
             "--pool", "out/pool.jsonl", "--truth", "out/truth.jsonl"]]


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    n_clips = WORKLOADS[name].n_clips
    with open("steps.json", "w", encoding="utf-8") as fh:
        json.dump(steps(name, n_clips, seed), fh)
    config = WorldConfig(n_clips=n_clips, seed=seed)
    if name == "closed_loop":
        generate_pool(config, "pool.jsonl", "truth.jsonl")
    elif name == "replay":
        clips, truth = generate_world(config)
        save_pool(clips, "pool.jsonl")
        provider = RecordingProvider(ToyPlanner(clips, truth), [c.id for c in clips])
        result = run(clips, provider, ActiveConfig(*derive_schedule(len(clips))))
        save_selection(result.state, "expected_selection.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
