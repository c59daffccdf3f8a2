"""Planning-oriented scoring criteria, per-round normalization, and ranking.

Three per-clip criteria are computed from a model's outputs on an unlabeled
clip:

* displacement error — mean Euclidean gap between the planned route and the
  recorded ego trajectory (the one label-free performance signal);
* soft collision — exp(-closest agent distance) summed over the horizon, a
  dense stand-in for collision rate;
* agent uncertainty — proximity-weighted entropy of nearby agents' modality
  probabilities.

Raw values are min-max normalized over all clips scored in the round and
mixed into one overall loss; the top-ranked clips go to labeling.

Predictions are scored as one :class:`PredictionBatch` of arrays, and each
criterion is a masked array reduction over it. The one-clip functions
(:func:`soft_collision`, :func:`agent_uncertainty`) run the same kernels on a
batch of one, and the one-clip dataclasses validate with the batch's checks.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .pool import (
    ClipRecord,
    PoolFormatError,
    RowError,
    _check_fields,
    _check_string,
    atomic_write_text,
    read_jsonl,
    write_jsonl,
)

PROB_SUM_TOL = 1e-6


def _agent_arrays(agent_id: str, probs, trajs) -> tuple[np.ndarray, np.ndarray]:
    """One agent's (M,) modality probabilities and (M, H, 2) trajectories."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"agent {agent_id}: modality probabilities must be a flat list")
    if len(p) < 1:
        raise ValueError(f"agent {agent_id}: needs at least one modality")
    if len(trajs) != len(p):
        raise ValueError(f"agent {agent_id}: {len(trajs)} trajectories for {len(p)} probabilities")
    if len({len(t) for t in trajs}) != 1:
        raise ValueError(f"agent {agent_id}: modality trajectories differ in length")
    t = np.asarray(trajs, dtype=float)
    if t.ndim != 3 or t.shape[2] != 2:
        raise ValueError(f"agent {agent_id}: waypoints must be (x, y) pairs")
    return p, t


def _agent_errors(agent_ids, confidence, probs, trajs) -> list[tuple[int, str]]:
    """(index, message) of the first agent failing each value check."""
    sums = np.zeros(len(probs))
    for column in probs.T:  # in modality order, as sum() adds a tuple
        sums = sums + column
    checks = (
        (~((confidence >= 0.0) & (confidence <= 1.0)), lambda i: f"confidence {confidence[i]} not in [0, 1]"),
        (~(probs >= 0.0).all(axis=1), lambda i: "negative or NaN modality probability"),
        (np.abs(sums - 1.0) > PROB_SUM_TOL, lambda i: f"modality probabilities sum to {sums[i]}"),
        (~np.isfinite(trajs).all(axis=(1, 2, 3)), lambda i: "non-finite waypoint"),
    )
    errors = []
    for bad, message in checks:
        if bad.any():
            i = int(bad.argmax())
            errors.append((i, f"agent {agent_ids[i]}: {message(i)}"))
    return errors


def _plan_errors(ego_plans: np.ndarray) -> list[tuple[int, str]]:
    """(row, message) of the first (N, H, 2) plan with a non-finite waypoint."""
    bad = ~np.isfinite(ego_plans).all(axis=(1, 2))
    return [(int(bad.argmax()), "non-finite plan waypoint")] if bad.any() else []


def _unchecked(cls, *values):
    """An instance of a frozen prediction dataclass, from batch rows already validated."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def _points(rows: list) -> tuple[tuple[float, float], ...]:
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class AgentForecast:
    """Multimodal forecast for one agent: trajectories with probabilities."""

    agent_id: str
    confidence: float
    modality_probs: tuple[float, ...]
    modality_trajs: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self) -> None:
        probs, trajs = _agent_arrays(self.agent_id, self.modality_probs, self.modality_trajs)
        errors = _agent_errors([self.agent_id], np.array([self.confidence], dtype=float), probs[None], trajs[None])
        if errors:
            raise ValueError(errors[0][1])


@dataclass(frozen=True)
class ClipPrediction:
    """Model output for one clip: the planned ego route plus agent forecasts."""

    clip_id: str
    ego_plan: tuple[tuple[float, float], ...]
    agents: tuple[AgentForecast, ...]

    def __post_init__(self) -> None:
        plan = np.asarray(self.ego_plan, dtype=float)
        if len(plan) == 0:
            raise ValueError(f"clip {self.clip_id}: empty ego plan")
        if plan.ndim != 2 or plan.shape[1] != 2:
            raise ValueError(f"clip {self.clip_id}: waypoints must be (x, y) pairs")
        errors = _plan_errors(plan[None])
        if errors:
            raise ValueError(f"clip {self.clip_id}: {errors[0][1]}")
        horizon = len(plan)
        for agent in self.agents:
            if len(agent.modality_trajs[0]) != horizon:
                raise ValueError(
                    f"clip {self.clip_id}: agent {agent.agent_id} horizon "
                    f"{len(agent.modality_trajs[0])} != plan horizon {horizon}"
                )


@dataclass(frozen=True, eq=False)
class PredictionBatch(Mapping):
    """Model outputs for N clips as arrays: ego plans of horizon H, and A
    agents over all clips with at most M modalities each.

    Agents are stored clip by clip, each clip's in its own order; an agent
    with fewer than M modalities is padded with probability 0 (and zero
    trajectories), which no criterion ever picks or weighs. Every value is
    validated once, on construction. The batch is a Mapping from clip id to
    a :class:`ClipPrediction` view of that clip's rows.
    """

    clip_ids: tuple[str, ...]
    ego_plans: np.ndarray        # (N, H, 2)
    agent_clip: np.ndarray       # (A,) row of each agent's clip, non-decreasing
    agent_ids: np.ndarray        # (A,) str objects
    confidence: np.ndarray       # (A,)
    modality_counts: np.ndarray  # (A,) modalities before padding
    modality_probs: np.ndarray   # (A, M)
    modality_trajs: np.ndarray   # (A, M, H, 2)
    _rows: dict = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = {clip_id: row for row, clip_id in enumerate(self.clip_ids)}
        if len(rows) != len(self.clip_ids):
            duplicate = next(i for row, i in enumerate(self.clip_ids) if rows[i] != row)
            raise ValueError(f"duplicate clip id {duplicate!r} in a prediction batch")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_offsets", np.searchsorted(self.agent_clip, np.arange(len(rows) + 1)))
        agent_errors = _agent_errors(self.agent_ids, self.confidence, self.modality_probs, self.modality_trajs)
        errors = _plan_errors(self.ego_plans) + [(int(self.agent_clip[i]), m) for i, m in agent_errors]
        if errors:
            raise RowError(*min(errors))

    @property
    def horizon(self) -> int:
        return self.ego_plans.shape[1]

    def __len__(self) -> int:
        return len(self.clip_ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.clip_ids)

    def __contains__(self, clip_id: object) -> bool:
        return clip_id in self._rows

    def __getitem__(self, clip_id: str) -> ClipPrediction:
        row = self._rows[clip_id]
        agents = slice(self._offsets[row], self._offsets[row + 1])
        return _unchecked(
            ClipPrediction,
            clip_id,
            _points(self.ego_plans[row].tolist()),
            tuple(
                _unchecked(AgentForecast, agent_id, confidence, tuple(probs[:m]), tuple(map(_points, trajs[:m])))
                for agent_id, confidence, m, probs, trajs in zip(
                    self.agent_ids[agents].tolist(),
                    self.confidence[agents].tolist(),
                    self.modality_counts[agents].tolist(),
                    self.modality_probs[agents].tolist(),
                    self.modality_trajs[agents].tolist(),
                )
            ),
        )

    def take(self, clip_ids: Sequence[str]) -> PredictionBatch:
        """The batch of the given clips' rows, in that order."""
        rows = np.array([self._rows[i] for i in clip_ids], dtype=np.intp)
        starts = self._offsets[rows]
        counts = self._offsets[rows + 1] - starts
        new_starts = np.cumsum(counts) - counts
        agents = np.arange(counts.sum()) + np.repeat(starts - new_starts, counts)
        return PredictionBatch(
            clip_ids=tuple(clip_ids),
            ego_plans=self.ego_plans[rows],
            agent_clip=np.repeat(np.arange(len(rows)), counts),
            agent_ids=self.agent_ids[agents],
            confidence=self.confidence[agents],
            modality_counts=self.modality_counts[agents],
            modality_probs=self.modality_probs[agents],
            modality_trajs=self.modality_trajs[agents],
        )


def _batch_from_parts(clip_ids: Sequence[str], parts: Sequence[tuple], horizon: int | None = None) -> PredictionBatch:
    """One batch from per-clip ``(plan, [(agent_id, confidence, probs, trajs), ...])``
    arrays. Every plan and trajectory must have ``horizon`` waypoints (None:
    the first plan's); a RowError names the first clip that fails this or a
    value check."""
    if horizon is None:
        horizon = len(parts[0][0]) if parts else 0
    for row, (plan, clip_agents) in enumerate(parts):
        if len(plan) != horizon:
            raise RowError(row, f"ego_plan has {len(plan)} waypoints, expected {horizon}")
        for agent_id, _, _, trajs in clip_agents:
            if trajs.shape[1] != horizon:
                raise RowError(row, f"agent {agent_id}: modality_trajs have {trajs.shape[1]} waypoints, expected {horizon}")
    agents = [(row, agent) for row, (_, clip_agents) in enumerate(parts) for agent in clip_agents]
    counts = np.array([len(a[2]) for _, a in agents], dtype=np.intp)
    probs = np.zeros((len(agents), counts.max(initial=1)))
    trajs = np.zeros(probs.shape + (horizon, 2))
    for i, (_, (_, _, p, t)) in enumerate(agents):
        probs[i, : len(p)] = p
        trajs[i, : len(p)] = t
    return PredictionBatch(
        clip_ids=tuple(clip_ids),
        ego_plans=np.array([plan for plan, _ in parts], dtype=float).reshape(len(parts), horizon, 2),
        agent_clip=np.array([row for row, _ in agents], dtype=np.intp),
        agent_ids=np.array([a[0] for _, a in agents], dtype=object),
        confidence=np.array([a[1] for _, a in agents], dtype=float),
        modality_counts=counts,
        modality_probs=probs,
        modality_trajs=trajs,
    )


def _batch_of(clip_ids: Sequence[str], preds: Sequence[ClipPrediction], horizon: int | None = None) -> PredictionBatch:
    """The batch of prediction objects; a bad one raises ValueError naming its clip."""
    parts = [
        (
            np.asarray(p.ego_plan, dtype=float),
            [
                (a.agent_id, a.confidence, np.asarray(a.modality_probs, dtype=float),
                 np.asarray(a.modality_trajs, dtype=float))
                for a in p.agents
            ],
        )
        for p in preds
    ]
    try:
        return _batch_from_parts(clip_ids, parts, horizon)
    except RowError as exc:
        raise ValueError(f"clip {clip_ids[exc.row]!r}: {exc}") from exc


def prediction_batch(predictions: Mapping[str, ClipPrediction], clips: Sequence[ClipRecord]) -> PredictionBatch:
    """The predictions for ``clips``, as one batch in clip order.

    A PredictionBatch gives its rows as they are; any other mapping is
    converted. A clip without a prediction raises KeyError, and one whose
    ``gt_future`` has another horizon than the predictions raises
    ValueError; both name the clip.
    """
    ids = [c.id for c in clips]
    for clip_id in ids:
        if clip_id not in predictions:
            raise KeyError(f"missing prediction for clip {clip_id!r}")
    if isinstance(predictions, PredictionBatch):
        batch = predictions.take(ids)
    else:
        batch = _batch_of(ids, [predictions[i] for i in ids], len(clips[0].gt_future) if clips else None)
    for clip in clips:
        if len(clip.gt_future) != batch.horizon:
            raise ValueError(
                f"clip {clip.id!r}: gt_future has {len(clip.gt_future)} waypoints, "
                f"predictions have {batch.horizon}"
            )
    return batch


@dataclass(frozen=True)
class CriterionScores:
    """Raw and normalized criterion values plus the mixed overall loss."""

    clip_id: str
    de_raw: float
    sc_raw: float
    au_raw: float
    de_norm: float
    sc_norm: float
    au_norm: float
    overall: float


# ---------------------------------------------------------------------------
# Criterion kernels. Each reduces in the order the one-clip definition does,
# so a batch value is bit-equal to scoring that clip on its own: row sums
# equal 1-D sums in numpy, minima are exact in any order, and per-clip totals
# accumulate with ufunc.at in agent order.
# ---------------------------------------------------------------------------


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between matching points, as norm(a - b, axis=-1)."""
    d = a - b
    return np.sqrt((d * d).sum(axis=-1))


def _displacement_errors(plans: np.ndarray, gts: np.ndarray) -> np.ndarray:
    return _distances(plans, gts).mean(axis=1)


def _best_distances(batch: PredictionBatch) -> np.ndarray:
    """(A, H) distances between each agent's highest-probability trajectory
    (ties go to the lowest index) and its clip's ego plan."""
    best = batch.modality_probs.argmax(axis=1)
    tracks = batch.modality_trajs[np.arange(len(best)), best]
    return _distances(tracks, batch.ego_plans[batch.agent_clip])


def _soft_collisions(batch: PredictionBatch, dists: np.ndarray, eps_a: float) -> np.ndarray:
    closest = np.full(batch.ego_plans.shape[:2], np.inf)
    confident = batch.confidence >= eps_a
    np.minimum.at(closest, batch.agent_clip[confident], dists[confident])
    return np.exp(-closest).sum(axis=1)  # exp(-inf) = 0: no confident agent, no risk


def _entropies(probs: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy in nats, with 0*ln(0) = 0. Each row's nonzero
    terms are summed alone, as a 1-D sum of them would be."""
    positive = probs > 0
    p = np.where(positive, probs, 1.0)
    order = np.argsort(~positive, axis=1, kind="stable")  # nonzero terms first, in order
    terms = np.take_along_axis(p * np.log(p), order, axis=1)
    counts = positive.sum(axis=1)
    out = np.empty(len(probs))
    for k in np.unique(counts):
        rows = counts == k
        out[rows] = -terms[rows, :k].sum(axis=1)
    return out


def _agent_uncertainties(batch: PredictionBatch, dists: np.ndarray, delta_d: float) -> np.ndarray:
    d_a = dists.min(axis=1)
    near = np.flatnonzero(d_a <= delta_d)
    # math.exp, not np.exp: the two round differently in the last bit.
    weights = np.array([math.exp(delta_d - d) for d in d_a[near].tolist()], dtype=float)
    totals = np.zeros(len(batch))
    np.add.at(totals, batch.agent_clip[near], weights * _entropies(batch.modality_probs[near]))
    return totals


def displacement_error(ego_plan: Sequence[Sequence[float]], gt_future: Sequence[Sequence[float]]) -> float:
    """Mean Euclidean distance between planned and recorded waypoints, in meters."""
    plan = np.asarray(ego_plan, dtype=float)
    gt = np.asarray(gt_future, dtype=float)
    if plan.shape != gt.shape:
        raise ValueError(f"trajectory shapes differ: {plan.shape} vs {gt.shape}")
    if plan.ndim != 2 or plan.shape[1] != 2:
        raise ValueError(f"expected (H, 2) trajectories, got {plan.shape}")
    return float(_displacement_errors(plan[None], gt[None])[0])


def best_modality_traj(forecast: AgentForecast) -> np.ndarray:
    """The agent's highest-probability trajectory; ties go to the lowest index."""
    idx = int(np.argmax(forecast.modality_probs))
    return np.asarray(forecast.modality_trajs[idx], dtype=float)


def modality_entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in nats, with the 0*ln(0) = 0 convention."""
    return float(_entropies(np.asarray(probs, dtype=float)[None])[0])


#: Largest mixing weight. The normalized criteria lie in [0, 1], so
#: ``overall`` stays at most 1 + 2 * MAX_WEIGHT, and its mean over any pool
#: stays finite.
MAX_WEIGHT = 1e6


def _check_eps_a(eps_a: float) -> None:
    if not 0.0 <= eps_a <= 1.0:
        raise ValueError(f"eps_a must be in [0, 1], got {eps_a}")


def _check_delta_d(delta_d: float) -> None:
    if not (delta_d > 0 and math.isfinite(delta_d)):
        raise ValueError(f"delta_d must be finite and > 0, got {delta_d}")


def check_score_settings(*, alpha: float, beta: float, eps_a: float, delta_d: float) -> None:
    """Raise ValueError naming the first scoring setting out of its range."""
    for name, weight in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= weight <= MAX_WEIGHT:
            raise ValueError(f"{name} must be in [0, {MAX_WEIGHT:g}], got {weight}")
    _check_eps_a(eps_a)
    _check_delta_d(delta_d)


def soft_collision(pred: ClipPrediction, eps_a: float) -> float:
    """Horizon-summed exp(-closest agent distance), over confident agents.

    Agents below the confidence threshold are ignored; each remaining agent
    contributes its highest-probability trajectory. Timesteps with no
    qualifying agent contribute zero risk.
    """
    _check_eps_a(eps_a)
    batch = _batch_of([pred.clip_id], [pred])
    return float(_soft_collisions(batch, _best_distances(batch), eps_a)[0])


def agent_uncertainty(pred: ClipPrediction, delta_d: float) -> float:
    """Proximity-weighted modality entropy, summed over nearby agents.

    An agent qualifies when the minimum distance between the ego plan and its
    highest-probability trajectory is at most ``delta_d``; its entropy is then
    weighted by exp(delta_d - d), which is >= 1 for every qualifying agent.
    """
    _check_delta_d(delta_d)
    batch = _batch_of([pred.clip_id], [pred])
    return float(_agent_uncertainties(batch, _best_distances(batch), delta_d)[0])


def _normalized(values: np.ndarray) -> np.ndarray:
    """:func:`min_max_normalize` of a float64 column. ``lo`` and ``hi`` are the
    first of equal values, as ``min`` and ``max`` take them: 0.0 is not -0.0."""
    if not len(values):
        raise ValueError("cannot normalize an empty score map")
    if not np.isfinite(values).all():
        raise ValueError("scores must be finite")
    lo, hi = values[values.argmin()], values[values.argmax()]
    if hi == lo:
        return np.zeros(len(values))
    # Python floats overflow to inf and divide inf by inf to NaN silently.
    with np.errstate(over="ignore", invalid="ignore"):
        return (values - lo) / (hi - lo)


def min_max_normalize(values: Mapping[str, float]) -> dict[str, float]:
    """Affine rescale of a score map to [0, 1]; a constant map becomes all zeros."""
    return dict(zip(values, _normalized(np.array(list(values.values()), dtype=float)).tolist()))


def overall_loss(de_norm: float, sc_norm: float, au_norm: float, alpha: float, beta: float) -> float:
    """Mixture of the normalized criteria: de + alpha * sc + beta * au."""
    return de_norm + alpha * sc_norm + beta * au_norm


def _top(ids: Sequence[str], keys: np.ndarray, n: int) -> list[str]:
    """:func:`rank_and_take` of an id sequence and its float64 keys. Ids sort
    as Python strings: numpy's string arrays drop trailing NULs."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > len(ids):
        raise ValueError(f"cannot take {n} of {len(ids)} scored clips")
    bad = ~np.isfinite(keys)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"clip {ids[i]!r} has non-finite score {float(keys[i])}")
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    top = by_id[np.argsort(-keys[by_id], kind="stable")[:n]]
    return [ids[i] for i in top.tolist()]


def rank_and_take(scores: Mapping[str, float], n: int) -> list[str]:
    """Ids of the n largest scores, descending; ties break by ascending id.

    A non-finite score raises ValueError naming the clip: NaN has no rank.
    """
    return _top(list(scores), np.array(list(scores.values()), dtype=float), n)


SCORE_COLUMNS = ("clip_id", "de_raw", "sc_raw", "au_raw", "de_norm", "sc_norm", "au_norm", "overall")


def score_columns(
    clips: Sequence[ClipRecord],
    predictions: Mapping[str, ClipPrediction],
    *,
    alpha: float,
    beta: float,
    eps_a: float,
    delta_d: float,
) -> dict:
    """Score every clip, normalize each criterion over the batch, and mix,
    into a dict keyed by :data:`SCORE_COLUMNS`: the clip-id tuple, then one
    float64 array per score, in clip order. ``predictions`` is any mapping
    from clip id (see :func:`prediction_batch`); every clip needs a prediction
    of its horizon, and a missing one raises KeyError naming the clip.
    """
    if not clips:
        raise ValueError("no clips to score")
    check_score_settings(alpha=alpha, beta=beta, eps_a=eps_a, delta_d=delta_d)
    batch = prediction_batch(predictions, clips)
    gts = np.array([c.gt_future for c in clips], dtype=float).reshape(batch.ego_plans.shape)
    dists = _best_distances(batch)
    raw = (
        _displacement_errors(batch.ego_plans, gts),
        _soft_collisions(batch, dists, eps_a),
        _agent_uncertainties(batch, dists, delta_d),
    )
    norm = [_normalized(column) for column in raw]
    return dict(zip(SCORE_COLUMNS, (batch.clip_ids, *raw, *norm, overall_loss(*norm, alpha, beta))))


def score_pool(
    clips: Sequence[ClipRecord],
    predictions: Mapping[str, ClipPrediction],
    *,
    alpha: float,
    beta: float,
    eps_a: float,
    delta_d: float,
) -> list[CriterionScores]:
    """The rows of :func:`score_columns`, one per clip, in clip order."""
    columns = score_columns(clips, predictions, alpha=alpha, beta=beta, eps_a=eps_a, delta_d=delta_d)
    ids, *values = columns.values()
    return list(map(CriterionScores, ids, *(v.tolist() for v in values)))


# ---------------------------------------------------------------------------
# Predictions file (JSONL) and scores table (TSV)
# ---------------------------------------------------------------------------


def prediction_to_dict(pred: ClipPrediction) -> dict:
    return {
        "clip_id": pred.clip_id,
        "ego_plan": [[x, y] for x, y in pred.ego_plan],
        "agents": [
            {
                "agent_id": a.agent_id,
                "confidence": a.confidence,
                "modality_probs": list(a.modality_probs),
                "modality_trajs": [[[x, y] for x, y in t] for t in a.modality_trajs],
            }
            for a in pred.agents
        ],
    }


_PREDICTION_FIELDS = frozenset({"clip_id", "ego_plan", "agents"})
_FORECAST_FIELDS = frozenset({"agent_id", "confidence", "modality_probs", "modality_trajs"})


def _record_parts(record: dict) -> tuple:
    """A predictions record as the arrays of :func:`_batch_from_parts`."""
    _check_fields(record, _PREDICTION_FIELDS, "record")
    plan = np.asarray(record["ego_plan"], dtype=float)
    if plan.size == 0:
        plan = plan.reshape(0, 2)
    if plan.ndim != 2 or plan.shape[1] != 2:
        raise ValueError("ego_plan waypoints must be (x, y) pairs")
    agents = []
    for a in record["agents"]:
        _check_fields(a, _FORECAST_FIELDS, "agent")
        agent_id = _check_string(a["agent_id"], "agent_id")
        probs, trajs = _agent_arrays(agent_id, a["modality_probs"], a["modality_trajs"])
        agents.append((agent_id, float(a["confidence"]), probs, trajs))
    return plan, agents


def parse_prediction_lines(
    lines: str | os.PathLike | Iterable[str], horizon: int | None = 6
) -> PredictionBatch:
    """Parse predictions lines, or the predictions file at a path, with
    :func:`read_jsonl`, into one batch. Every plan and agent trajectory has
    ``horizon`` waypoints; ``None`` takes the horizon of the first record."""
    return read_jsonl(
        lines, "predictions", "clip_id", _record_parts,
        lambda parts: _batch_from_parts(list(parts), list(parts.values()), horizon),
    )


def load_predictions(path: str | os.PathLike, horizon: int | None = 6) -> PredictionBatch:
    return parse_prediction_lines(path, horizon)


def save_predictions(preds: Iterable[ClipPrediction], path: str | os.PathLike) -> None:
    write_jsonl(path, map(prediction_to_dict, preds))


def scores_to_table(rows: Sequence[CriterionScores]) -> str:
    """Render scores as a TSV table; floats use repr so they round-trip exactly."""
    out = ["\t".join(SCORE_COLUMNS)]
    for r in rows:
        out.append(
            "\t".join(
                [r.clip_id]
                + [repr(v) for v in (r.de_raw, r.sc_raw, r.au_raw, r.de_norm, r.sc_norm, r.au_norm, r.overall)]
            )
        )
    return "\n".join(out) + "\n"


def save_scores(rows: Sequence[CriterionScores], path: str | os.PathLike) -> None:
    atomic_write_text(path, scores_to_table(rows))


def load_scores(path: str | os.PathLike) -> list[CriterionScores]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or tuple(lines[0].split("\t")) != SCORE_COLUMNS:
        raise PoolFormatError(f"scores file {path}: bad or missing header")
    rows = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(SCORE_COLUMNS):
            raise PoolFormatError(f"scores file {path} line {lineno}: expected {len(SCORE_COLUMNS)} columns")
        if parts[0] in seen:
            raise PoolFormatError(f"scores file {path} line {lineno}: duplicate clip_id {parts[0]!r}")
        seen.add(parts[0])
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise PoolFormatError(f"scores file {path} line {lineno}: {exc}") from exc
        bad = [c for c, v in zip(SCORE_COLUMNS[1:], values) if not math.isfinite(v)]
        if bad:
            raise PoolFormatError(f"scores file {path} line {lineno}: non-finite {bad[0]}")
        rows.append(CriterionScores(parts[0], *values))
    return rows
