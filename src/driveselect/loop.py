"""Budgeted selection loop: initialization plus train/predict/score/select rounds.

The loop is model-agnostic: anything satisfying :class:`PredictionProvider`
can drive it, such as the bundled synthetic planner. An externally trained
model's per-round prediction files are replayed through the CLI instead:
``init``, then ``score --predictions predictions_round_<k>.jsonl`` and
``select`` for each round, between the model's retraining. A random-selection
comparator runs the same schedule without scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from .criteria import (
    ClipPrediction,
    _top,
    check_score_settings,
    constant_criteria,
    score_pool,
)
from .diversity import StratumAllocation, ego_diversity_init
from .pool import ClipRecord, ClipTable, SelectionState, clip_table

INIT_MODES = ("random", "ego-diversity")
#: Ranking keys, the three single criteria plus their mixture, to the column each ranks.
CRITERIA = {"de": "de_norm", "sc": "sc_norm", "au": "au_norm", "mix": "overall"}


@dataclass(frozen=True)
class ActiveConfig:
    """All hyperparameters of one selection run.

    The budget identity ``budget = n_init + n_rounds * n_per_round`` is
    enforced here; ``budget <= pool size`` is checked against a concrete pool.
    """

    budget: int
    n_init: int
    n_rounds: int
    n_per_round: int
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.5
    tau_c: int = 4
    eps_a: float = 0.5
    delta_d: float = 3.0
    seed: int = 0
    init_mode: str = "ego-diversity"

    def __post_init__(self) -> None:
        if self.n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {self.n_init}")
        if self.n_rounds < 0 or self.n_per_round < 0:
            raise ValueError("n_rounds and n_per_round must be >= 0")
        if self.n_rounds > 0 and self.n_per_round < 1:
            raise ValueError("n_per_round must be >= 1 when rounds are scheduled")
        if self.budget != self.n_init + self.n_rounds * self.n_per_round:
            raise ValueError(
                f"budget {self.budget} != n_init {self.n_init} + "
                f"{self.n_rounds} rounds * {self.n_per_round}"
            )
        check_score_settings(alpha=self.alpha, beta=self.beta, eps_a=self.eps_a, delta_d=self.delta_d)
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.tau_c < 1:
            raise ValueError(f"tau_c must be >= 1, got {self.tau_c}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")

    def validate_for_pool(self, n_clips: int) -> None:
        if self.budget > n_clips:
            raise ValueError(f"budget {self.budget} exceeds pool size {n_clips}")


class PredictionProvider(Protocol):
    """Behavioral contract for the trained model behind the loop.

    ``predict`` must be deterministic given the provider state and cover every
    requested id exactly once.
    """

    def train(self, labeled_ids: Sequence[str]) -> None: ...

    def predict(self, ids: Sequence[str]) -> Mapping[str, ClipPrediction]: ...


def random_init(clips: ClipTable | Sequence[ClipRecord], n_init: int, seed: int) -> list[str]:
    """Seeded uniform sample of n_init clip ids, in id order.

    The sample is drawn over the sorted ids, so it does not depend on the
    order of the pool file."""
    ids = clip_table(clips).ids
    if n_init > len(ids):
        raise ValueError(f"n_init {n_init} exceeds pool size {len(ids)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return _sample_in_id_order(np.random.default_rng(seed), ids, n_init)


def _sample_in_id_order(rng: np.random.Generator, ids: Sequence[str], n: int) -> list[str]:
    ordered = sorted(ids)
    return [ordered[i] for i in sorted(rng.choice(len(ordered), size=n, replace=False))]


@dataclass
class RoundTrace:
    """What one scored round did: who was picked, and a summary of the scores."""

    round_index: int
    selected_ids: tuple[str, ...]
    summary: dict = field(default_factory=dict)
    # Hypothetical top-n sets under each single criterion, for overlap analysis.
    criterion_picks: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # Criteria whose raw scores were all equal, and so normalized to zeros.
    constant_criteria: tuple[str, ...] = ()


def _summarize(columns: dict) -> dict:
    overall = columns["overall"]
    return {
        "n_scored": len(columns["clip_id"]),
        "de_raw_mean": float(np.mean(columns["de_raw"])),
        "sc_raw_mean": float(np.mean(columns["sc_raw"])),
        "au_raw_mean": float(np.mean(columns["au_raw"])),
        "overall_mean": float(np.mean(overall)),
        # The first of equal values, as max() takes it: 0.0 and -0.0 differ in JSON.
        "overall_max": float(overall[overall.argmax()]),
    }


def run_round(
    clips: ClipTable | Sequence[ClipRecord],
    state: SelectionState,
    provider: PredictionProvider,
    config: ActiveConfig,
    round_index: int,
    *,
    criterion: str = "mix",
) -> RoundTrace:
    """One train/predict/score/select cycle; the state is updated on success.

    The provider is trained on the current labeled set, every unlabeled clip
    is scored, and the top ``config.n_per_round`` clips by the chosen ranking
    key move to labeled. A provider failure propagates before any state mutation.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {tuple(CRITERIA)}, got {criterion!r}")
    n = config.n_per_round
    unlabeled = state.unlabeled_ids
    if n > len(unlabeled):
        raise ValueError(f"cannot select {n} clips, only {len(unlabeled)} unlabeled")
    provider.train(state.labeled_ids)
    predictions = provider.predict(unlabeled)
    columns = score_pool(
        clips,
        predictions,
        ids=unlabeled,
        alpha=config.alpha,
        beta=config.beta,
        eps_a=config.eps_a,
        delta_d=config.delta_d,
    )
    picks = {c: tuple(_top(columns["clip_id"], columns[key], n)) for c, key in CRITERIA.items()}
    selected = picks[criterion]
    state.add_round(round_index, selected)
    return RoundTrace(
        round_index=round_index,
        selected_ids=selected,
        summary=_summarize(columns),
        criterion_picks=picks,
        constant_criteria=tuple(constant_criteria(columns)),
    )


@dataclass
class RunResult:
    state: SelectionState
    traces: list[RoundTrace]
    init_allocations: list[StratumAllocation] | None = None


def run(
    clips: ClipTable | Sequence[ClipRecord],
    provider: PredictionProvider,
    config: ActiveConfig,
    *,
    criterion: str = "mix",
    strategy: str = "active",
) -> RunResult:
    """Full budgeted selection: initialization plus n_rounds selection rounds.

    ``strategy="random"`` replaces the scored rounds with seeded uniform picks
    over the sorted unlabeled ids (the random-selection comparator); the
    provider is then never consulted.
    The labeled set ends at exactly the configured budget, with disjoint
    per-round increments, and is bit-reproducible for a fixed seed.
    """
    if strategy not in ("active", "random"):
        raise ValueError(f"strategy must be 'active' or 'random', got {strategy!r}")
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {tuple(CRITERIA)}, got {criterion!r}")
    clips = clip_table(clips)
    config.validate_for_pool(len(clips))

    state = SelectionState(clips)
    if config.init_mode == "ego-diversity":
        init_ids, allocations = ego_diversity_init(clips, config.n_init, config.gamma, config.tau_c)
    else:
        init_ids, allocations = random_init(clips, config.n_init, config.seed), None
    state.add_round(0, init_ids)
    traces: list[RoundTrace] = []

    for itr in range(1, config.n_rounds + 1):
        if strategy == "active":
            traces.append(run_round(clips, state, provider, config, itr, criterion=criterion))
        else:
            rng = np.random.default_rng([config.seed, itr])
            ids = _sample_in_id_order(rng, state.unlabeled_ids, config.n_per_round)
            state.add_round(itr, ids)
            traces.append(RoundTrace(round_index=itr, selected_ids=tuple(ids)))
    return RunResult(state=state, traces=traces, init_allocations=allocations)


def derive_schedule(n_pool: int, fraction: float = 0.10, n_rounds: int = 2) -> tuple[int, int, int, int]:
    """Default budget schedule: an initial fraction plus n_rounds equal slices.

    Returns (budget, n_init, n_rounds, n_per_round); with the defaults this is
    the 10% + 10% + 10% schedule.
    """
    n_init = max(1, round(n_pool * fraction))
    budget = n_init * (1 + n_rounds)
    if budget > n_pool:
        raise ValueError(f"derived budget {budget} exceeds pool size {n_pool}")
    return budget, n_init, n_rounds, n_init


__all__ = [
    "ActiveConfig",
    "CRITERIA",
    "PredictionProvider",
    "RoundTrace",
    "RunResult",
    "derive_schedule",
    "random_init",
    "run",
    "run_round",
]
