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

Predictions are scored as one :class:`PredictionBatch` of arrays, or, read
from a file by :func:`score_predictions`, one block's batch at a time, and
each criterion is a masked array reduction over it. The one-clip functions
(:func:`soft_collision`, :func:`agent_uncertainty`) run the same kernels on a
batch of one, and the one-clip dataclasses validate with the batch's checks.
"""

from __future__ import annotations

import math
import os
import re
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np
import orjson

from .pool import (
    AgentTable,
    ClipRecord,
    ClipTable,
    PoolFormatError,
    RowError,
    _check_fields,
    _check_list,
    _check_numbers,
    _check_string,
    _joined,
    _nested_block,
    _NotColumnar,
    _numbers,
    _offsets,
    _path_numbers,
    _unchecked,
    check_unique,
    clip_table,
    encode_line,
    exact_rows,
    float_rows,
    read_table,
    with_horizon,
    write_lines,
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
    if len(set(map(len, trajs))) != 1:
        raise ValueError(f"agent {agent_id}: modality trajectories differ in length")
    t = np.asarray(trajs, dtype=float)
    if t.ndim != 3 or t.shape[2] != 2:
        raise ValueError(f"agent {agent_id}: waypoints must be (x, y) pairs")
    return p, t


def _nonfinite_rows(values: np.ndarray) -> np.ndarray:
    """(len(values),) bool: which rows hold a NaN or an infinity, found
    without a bool array of the values' size. A row whose sum is finite
    holds neither; only the rest, whose finite values may have overflowed
    the sum, are checked value by value."""
    axes = tuple(range(1, values.ndim))
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(values.sum(axis=axes))
    if bad.any():
        rows = np.flatnonzero(bad)
        bad[rows] = ~np.isfinite(values[rows]).all(axis=axes)
    return bad


def _agent_errors(agent_ids, confidence, probs, trajs) -> list[tuple[int, str]]:
    """(index, message) of the first agent failing each value check."""
    sums = np.zeros(len(probs))
    for column in probs.T:  # in modality order, as sum() adds a tuple
        sums = sums + column
    checks = (
        (~((confidence >= 0.0) & (confidence <= 1.0)), lambda i: f"confidence {confidence[i]} not in [0, 1]"),
        (~(probs >= 0.0).all(axis=1), lambda i: "negative or NaN modality probability"),
        (np.abs(sums - 1.0) > PROB_SUM_TOL, lambda i: f"modality probabilities sum to {sums[i]}"),
        (_nonfinite_rows(trajs), lambda i: "non-finite waypoint"),
    )
    errors = []
    for bad, message in checks:
        if bad.any():
            i = int(bad.argmax())
            errors.append((i, f"agent {agent_ids[i]}: {message(i)}"))
    return errors


def _check_plan(ego_plan, agent_horizons: Iterable[tuple[str, int]], horizon: int | None = None) -> np.ndarray:
    """``ego_plan`` as an (H, 2) float array with H >= 1, where the plan and
    each agent's ``(agent_id, trajectory waypoints)`` have ``horizon``
    waypoints (None: the plan's). These are the plan rules of prediction
    objects and predictions records alike."""
    plan = np.asarray(ego_plan, dtype=float)
    if plan.size == 0:
        raise ValueError("ego_plan is empty")
    if plan.ndim != 2 or plan.shape[1] != 2:
        raise ValueError("ego_plan waypoints must be (x, y) pairs")
    if horizon is None:
        horizon = len(plan)
    if len(plan) != horizon:
        raise ValueError(f"ego_plan has {len(plan)} waypoints, expected {horizon}")
    for agent_id, waypoints in agent_horizons:
        if waypoints != horizon:
            raise ValueError(f"agent {agent_id}: modality_trajs have {waypoints} waypoints, expected {horizon}")
    return plan


def _plan_errors(ego_plans: np.ndarray) -> list[tuple[int, str]]:
    """(row, message) of the first (N, H, 2) plan with a non-finite waypoint."""
    bad = _nonfinite_rows(ego_plans)
    return [(int(bad.argmax()), "non-finite plan waypoint")] if bad.any() else []


def _value_errors(ego_plans, agent_clip, agent_ids, confidence, probs, trajs) -> list[tuple[int, str]]:
    """(row, message) of the first plan, and of the first agent, failing each
    value check of a batch's columns; the least of them is the batch's error."""
    agent_errors = _agent_errors(agent_ids, confidence, probs, trajs)
    return _plan_errors(ego_plans) + [(int(agent_clip[i]), m) for i, m in agent_errors]


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
    """Model output for one clip: the planned ego route plus agent forecasts.

    A :class:`PredictionBatch` gives each of its clips as a row: a
    ClipPrediction that holds its id and its ``(batch, row)`` in
    ``_batch_row``, and builds its ``ego_plan`` and ``agents`` from the
    batch's columns when they are first read. It compares, hashes and
    prints as the clip's eager view would, and it copies and pickles as its
    plain fields, without the batch."""

    clip_id: str
    ego_plan: tuple[tuple[float, float], ...]
    agents: tuple[AgentForecast, ...]

    def __post_init__(self) -> None:
        try:
            plan = _check_plan(self.ego_plan, [(a.agent_id, len(a.modality_trajs[0])) for a in self.agents])
        except ValueError as exc:
            raise ValueError(f"clip {self.clip_id}: {exc}") from exc
        errors = _plan_errors(plan[None])
        if errors:
            raise ValueError(f"clip {self.clip_id}: {errors[0][1]}")

    def __getattr__(self, name: str):
        # Reached only by a name missing from the instance: a row's unread fields.
        at = self.__dict__.get("_batch_row")
        if at is None or name not in ("ego_plan", "agents"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}", name=name, obj=self)
        batch, row = at
        view = batch._view(self.clip_id, row, slice(batch._offsets[row], batch._offsets[row + 1]))
        object.__setattr__(self, "ego_plan", view.ego_plan)
        object.__setattr__(self, "agents", view.agents)
        return getattr(view, name)

    def __getstate__(self) -> dict:
        return {"clip_id": self.clip_id, "ego_plan": self.ego_plan, "agents": self.agents}


@dataclass(frozen=True, eq=False)
class PredictionBatch(AgentTable):
    """Model outputs for N clips as arrays: ego plans of horizon H, and A
    agents over all clips with at most M modalities each.

    Agents are stored clip by clip, each clip's in its own order; an agent
    with fewer than M modalities is padded with probability 0 (and zero
    trajectories), which no criterion ever picks or weighs. Every value is
    validated once, on construction. The batch is a Mapping from clip id to
    that clip's :class:`ClipPrediction` row, which reads the columns when
    first used and keeps the batch alive. A batch of the pool's
    clips in the pool's order can hold the pool's id tuple and look ids up
    in the pool's index (:func:`~driveselect.pool.share_pool_ids`). ``score``
    builds no batch of the whole file: :func:`score_predictions` builds one
    per block of lines and drops it once the block is scored.
    """

    clip_ids: tuple[str, ...]
    ego_plans: np.ndarray        # (N, H, 2)
    agent_clip: np.ndarray       # (A,) row of each agent's clip, non-decreasing
    agent_ids: np.ndarray        # (A,) str objects
    confidence: np.ndarray       # (A,)
    modality_counts: np.ndarray  # (A,) modalities before padding
    modality_probs: np.ndarray   # (A, M)
    modality_trajs: np.ndarray   # (A, M, H, 2)

    def __post_init__(self) -> None:
        self._index_agents("prediction batch", {
            "N": [("clip_ids", 0), ("ego_plans", 0)],
            "A": [(name, 0) for name in ("agent_clip", "agent_ids", "confidence", "modality_counts",
                                         "modality_probs", "modality_trajs")],
            "M": [("modality_probs", 1), ("modality_trajs", 1)],
            "H": [("ego_plans", 1), ("modality_trajs", 2)],
        }, {"ego_plans": 3, "modality_trajs": 4})
        errors = _value_errors(self.ego_plans, self.agent_clip, self.agent_ids, self.confidence,
                               self.modality_probs, self.modality_trajs)
        if errors:
            raise RowError(*min(errors))

    @property
    def horizon(self) -> int:
        return self.ego_plans.shape[1]

    def __getitem__(self, clip_id: str) -> ClipPrediction:
        row = self._row_of(clip_id)
        if row < 0:
            raise KeyError(clip_id)
        pred = object.__new__(ClipPrediction)
        object.__setattr__(pred, "clip_id", clip_id)
        object.__setattr__(pred, "_batch_row", (self, row))
        return pred

    def _view(self, clip_id: str, row: int, agents: slice) -> ClipPrediction:
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

    def _taken(self, ids: tuple[str, ...], rows: np.ndarray, agents: np.ndarray, owners: np.ndarray) -> PredictionBatch:
        return PredictionBatch(
            ids, self.ego_plans[rows], owners, self.agent_ids[agents], self.confidence[agents],
            self.modality_counts[agents], self.modality_probs[agents], self.modality_trajs[agents],
        )


def _padded(counts: np.ndarray, probs: np.ndarray, trajs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, M) probabilities and (A, M, H, 2) trajectories from the flat ones
    of A agents of ``counts`` modalities, each padded to the largest count M
    (at least 1) with probability 0 and zero trajectories: views of the flat
    arrays when no agent is padded."""
    m = counts.max(initial=1)
    if (counts == m).all():
        return probs.reshape(len(counts), m), trajs.reshape(len(counts), m, *trajs.shape[1:])
    real = np.arange(m) < counts[:, None]
    padded_probs, padded_trajs = np.zeros(real.shape), np.zeros(real.shape + trajs.shape[1:])
    padded_probs[real], padded_trajs[real] = probs, trajs
    return padded_probs, padded_trajs


def _agent_columns(agents: Sequence[tuple], horizon: int) -> tuple:
    """The agent_ids, confidence, modality_counts, modality_probs and
    modality_trajs columns of ``(agent_id, confidence, probs, trajs)``
    arrays, padded by :func:`_padded`."""
    modality_counts = np.array([len(a[2]) for a in agents], dtype=np.intp)
    probs, trajs = _padded(modality_counts, np.concatenate([np.empty(0), *(a[2] for a in agents)]),
                           np.concatenate([np.empty((0, horizon, 2)), *(a[3] for a in agents)]))
    return (np.fromiter((a[0] for a in agents), dtype=object, count=len(agents)),
            np.array([a[1] for a in agents], dtype=float), modality_counts, probs, trajs)


def _batch_from_parts(clip_ids: Sequence[str], parts: Sequence[tuple], horizon: int | None = None) -> PredictionBatch:
    """One batch from per-clip ``(plan, [(agent_id, confidence, probs, trajs), ...])``
    arrays, each clip's trajectories as long as its plan (see :func:`_check_plan`).
    Every plan must have ``horizon`` waypoints (None: the first plan's); a
    RowError names the first clip that fails this or a value check."""
    if horizon is None:
        horizon = len(parts[0][0]) if parts else 0
    for row, (plan, _) in enumerate(parts):
        if len(plan) != horizon:
            raise RowError(row, f"ego_plan has {len(plan)} waypoints, expected {horizon}")
    agent_ids, confidence, modality_counts, probs, trajs = _agent_columns(
        [agent for _, clip_agents in parts for agent in clip_agents], horizon
    )
    return PredictionBatch(
        clip_ids=tuple(clip_ids),
        ego_plans=np.array([plan for plan, _ in parts], dtype=float).reshape(len(parts), horizon, 2),
        agent_clip=np.repeat(np.arange(len(parts)), [len(clip_agents) for _, clip_agents in parts]),
        agent_ids=agent_ids,
        confidence=confidence,
        modality_counts=modality_counts,
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


def _batch_rows(preds: Sequence) -> tuple[PredictionBatch, np.ndarray] | None:
    """The one batch that every prediction of ``preds`` is a row of, and
    their rows in it, in order; None when there is no prediction, or when
    any is not such a row."""
    try:
        at = [p.__dict__["_batch_row"] for p in preds]
    except (AttributeError, KeyError):
        return None
    if not at or any(batch is not at[0][0] for batch, _ in at):
        return None
    return at[0][0], np.fromiter((row for _, row in at), dtype=np.intp, count=len(at))


def _prediction_rows(
    predictions: Mapping[str, ClipPrediction], clips: ClipTable | Sequence[ClipRecord], ids: tuple[str, ...]
) -> tuple[PredictionBatch, np.ndarray]:
    """A batch holding the predictions of ``ids``, clips of ``clips``, and
    their rows in it. A PredictionBatch is used as it is, with its clips in
    any order, and so is the batch of a mapping whose predictions of
    ``ids`` are all its rows; any other mapping is converted. A clip
    without a prediction raises KeyError, and one whose ``gt_future`` has
    another horizon than the predictions raises ValueError; both name the
    clip."""
    if isinstance(clips, ClipTable):
        # One horizon for the whole table: its first scored clip stands for all.
        horizons = [(ids[0], clips.horizon)] if ids else []
    else:
        horizons = [(c.id, len(c.gt_future)) for c in clips]
    # A batch of exactly these clips in this order, as every round's is,
    # needs no lookup.
    exact = isinstance(predictions, PredictionBatch) and predictions.clip_ids == ids
    if not exact:
        for clip_id in ids:
            if clip_id not in predictions:
                raise KeyError(f"missing prediction for clip {clip_id!r}")
    if isinstance(predictions, PredictionBatch):
        rows = np.arange(len(ids)) if exact else predictions.rows_of(ids)
    else:
        preds = [predictions[i] for i in ids]
        found = _batch_rows(preds)
        if found is None:
            predictions, rows = _batch_of(ids, preds, horizons[0][1] if horizons else None), np.arange(len(ids))
        else:
            predictions, rows = found
            if horizons and predictions.horizon != horizons[0][1]:  # as _batch_of names its first row
                raise ValueError(f"clip {ids[0]!r}: ego_plan has {predictions.horizon} waypoints, "
                                 f"expected {horizons[0][1]}")
    for clip_id, horizon in horizons:
        if horizon != predictions.horizon:
            raise ValueError(
                f"clip {clip_id!r}: gt_future has {horizon} waypoints, predictions have {predictions.horizon}"
            )
    return predictions, rows


def prediction_batch(
    predictions: Mapping[str, ClipPrediction], clips: ClipTable | Sequence[ClipRecord]
) -> PredictionBatch:
    """The predictions for ``clips`` (a table or records), as one batch in
    clip order.

    A PredictionBatch of just these clips in this order is returned as it
    is, any other batch, or the batch of rows of one, gives the clips'
    rows, and any other mapping is converted. The errors are those of
    :func:`_prediction_rows`.
    """
    ids = clips.ids if isinstance(clips, ClipTable) else tuple(c.id for c in clips)
    batch, rows = _prediction_rows(predictions, clips, ids)
    if batch.clip_ids == ids and np.array_equal(rows, np.arange(len(ids))):
        return batch
    return batch._taken(ids, rows, *batch.items_of(rows))


# ---------------------------------------------------------------------------
# Criterion kernels. Each reduces in the order the one-clip definition does,
# so a batch value is bit-equal to scoring that clip on its own: row sums
# equal 1-D sums in numpy, minima are exact in any order, and per-clip totals
# accumulate with ufunc.at in agent order. The agent kernels read the agents
# of the scored clips by index (see :meth:`RaggedTable.items_of`), so a batch
# is never copied to score some of its clips.
# ---------------------------------------------------------------------------

#: Agents per block of :func:`_best_distances`; bounds its temporaries.
AGENT_BLOCK = 1024
#: Scored clips per block of :func:`score_pool`; bounds its agent temporaries.
SCORE_BLOCK = 1024


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between matching points, as norm(a - b, axis=-1)."""
    d = a - b
    np.multiply(d, d, out=d)
    return np.sqrt(d.sum(axis=-1))


def _displacement_errors(plans: np.ndarray, gts: np.ndarray) -> np.ndarray:
    return _distances(plans, gts).mean(axis=1)


def _best_distances(batch: PredictionBatch, agents: np.ndarray) -> np.ndarray:
    """(len(agents), H) distances between each given agent's
    highest-probability trajectory (ties go to the lowest index) and its
    clip's ego plan, :func:`_distances` computed ``AGENT_BLOCK`` agents at a time."""
    out = np.empty((len(agents), batch.horizon))
    for lo in range(0, len(agents), AGENT_BLOCK):
        block = agents[lo : lo + AGENT_BLOCK]
        d = batch.modality_trajs[block, batch.modality_probs[block].argmax(axis=1)]
        d -= batch.ego_plans[batch.agent_clip[block]]
        np.multiply(d, d, out=d)
        np.sqrt(d.sum(axis=-1), out=out[lo : lo + len(block)])
    return out


def _soft_collisions(batch: PredictionBatch, agents: np.ndarray, owners: np.ndarray, n: int,
                     dists: np.ndarray, eps_a: float) -> np.ndarray:
    closest = np.full((n, batch.horizon), np.inf)
    confident = batch.confidence[agents] >= eps_a
    np.minimum.at(closest, owners[confident], dists[confident])
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
    # The counts present, ascending; np.unique would import numpy.ma.
    for k in np.flatnonzero(np.bincount(counts)):
        rows = counts == k
        out[rows] = -terms[rows, :k].sum(axis=1)
    return out


def _agent_uncertainties(batch: PredictionBatch, agents: np.ndarray, owners: np.ndarray, n: int,
                         dists: np.ndarray, delta_d: float) -> np.ndarray:
    d_a = dists.min(axis=1)
    near = np.flatnonzero(d_a <= delta_d)
    # math.exp, not np.exp: the two round differently in the last bit.
    weights = np.array([math.exp(delta_d - d) for d in d_a[near].tolist()], dtype=float)
    totals = np.zeros(n)
    np.add.at(totals, owners[near], weights * _entropies(batch.modality_probs[agents[near]]))
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
    agents, owners = batch.items_of(np.zeros(1, dtype=np.intp))
    return float(_soft_collisions(batch, agents, owners, 1, _best_distances(batch, agents), eps_a)[0])


def agent_uncertainty(pred: ClipPrediction, delta_d: float) -> float:
    """Proximity-weighted modality entropy, summed over nearby agents.

    An agent qualifies when the minimum distance between the ego plan and its
    highest-probability trajectory is at most ``delta_d``; its entropy is then
    weighted by exp(delta_d - d), which is >= 1 for every qualifying agent.
    """
    _check_delta_d(delta_d)
    batch = _batch_of([pred.clip_id], [pred])
    agents, owners = batch.items_of(np.zeros(1, dtype=np.intp))
    return float(_agent_uncertainties(batch, agents, owners, 1, _best_distances(batch, agents), delta_d)[0])


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


def score_pool(
    clips: ClipTable | Sequence[ClipRecord],
    predictions: Mapping[str, ClipPrediction],
    *,
    ids: Sequence[str] | None = None,
    alpha: float,
    beta: float,
    eps_a: float,
    delta_d: float,
) -> dict:
    """Score the clips of ``ids`` (default: every clip, in clip order),
    normalize each criterion over them, and mix, into a dict keyed by
    :data:`SCORE_COLUMNS`: the id tuple, then one float64 array per score,
    in ``ids`` order.

    ``predictions`` is any mapping from clip id (see :func:`_prediction_rows`);
    every scored clip needs a prediction of its horizon, and a missing one
    raises KeyError naming the clip. Nothing is copied to score a subset:
    the clips' ``gt_future`` and a PredictionBatch's plans and agents are
    read by row, and the batch may hold more clips, in any order.
    """
    if ids is None:
        ids = clips.ids if isinstance(clips, ClipTable) else tuple(c.id for c in clips)
    ids = tuple(ids)
    if not ids:
        raise ValueError("no clips to score")
    check_unique(ids, "the scored ids")
    check_score_settings(alpha=alpha, beta=beta, eps_a=eps_a, delta_d=delta_d)
    batch, rows = _prediction_rows(predictions, clips, ids)
    table = clip_table(clips)
    raw = _raw_criteria(batch, rows, table.gt_future, table.rows_of(ids), eps_a, delta_d)
    return _score_columns(ids, raw, alpha, beta)


def _raw_criteria(batch: PredictionBatch, rows: np.ndarray, gt_future: np.ndarray, gt_rows: np.ndarray,
                  eps_a: float, delta_d: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw DE, SC and AU of the batch's ``rows``, each against the
    recorded future ``gt_future[gt_rows]`` of the same position, computed
    ``SCORE_BLOCK`` clips at a time. A clip's raw values do not depend on the
    other clips, so the columns built block by block, or from batches of
    any other clips, equal one whole-batch pass bit for bit."""
    raw = (np.empty(len(rows)), np.empty(len(rows)), np.empty(len(rows)))
    for lo in range(0, len(rows), SCORE_BLOCK):
        block = rows[lo : lo + SCORE_BLOCK]
        n = len(block)
        agents, owners = batch.items_of(block)
        dists = _best_distances(batch, agents)
        raw[0][lo : lo + n] = _displacement_errors(batch.ego_plans[block], gt_future[gt_rows[lo : lo + n]])
        raw[1][lo : lo + n] = _soft_collisions(batch, agents, owners, n, dists, eps_a)
        raw[2][lo : lo + n] = _agent_uncertainties(batch, agents, owners, n, dists, delta_d)
    return raw


def constant_criteria(columns: Mapping) -> list[str]:
    """The criteria (``de``, ``sc``, ``au``) whose raw column of
    :func:`score_pool` holds one value: :func:`_normalized` makes it all
    zeros, so it carries no signal into the mix."""
    return [name[:2] for name in SCORE_COLUMNS[1:4] if columns[name].min() == columns[name].max()]


def _score_columns(ids: tuple[str, ...], raw: Sequence[np.ndarray], alpha: float, beta: float) -> dict:
    """The :data:`SCORE_COLUMNS` of the raw criteria of ``ids``: each column
    normalized once over all of them, and the normalized columns mixed."""
    norm = [_normalized(column) for column in raw]
    return dict(zip(SCORE_COLUMNS, (ids, *raw, *norm, overall_loss(*norm, alpha, beta))))


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


# In column order: the id first, and a record's agents last.
_PREDICTION_FIELDS = ("clip_id", "ego_plan", "agents")
_FORECAST_FIELDS = ("agent_id", "confidence", "modality_probs", "modality_trajs")


def _record_parts(record: dict, horizon: int | None) -> tuple:
    """A predictions record as the arrays of :func:`_batch_from_parts`. Every
    number in it must be a JSON number, and its plan must pass :func:`_check_plan`."""
    _check_fields(record, _PREDICTION_FIELDS, "record")
    _check_numbers(record["ego_plan"], "ego_plan", 2)
    agents = []
    for a in _check_list(record["agents"], "agents"):
        _check_fields(a, _FORECAST_FIELDS, "agent")
        agent_id = _check_string(a["agent_id"], "agent_id")
        _check_numbers([a["confidence"]], f"agent {agent_id} confidence")
        _check_numbers(a["modality_probs"], f"agent {agent_id} modality_probs")
        _check_numbers(a["modality_trajs"], f"agent {agent_id} modality_trajs", 3)
        probs, trajs = _agent_arrays(agent_id, a["modality_probs"], a["modality_trajs"])
        agents.append((agent_id, float(a["confidence"]), probs, trajs))
    plan = _check_plan(record["ego_plan"], [(agent_id, trajs.shape[1]) for agent_id, _, _, trajs in agents], horizon)
    return plan, agents


def _prediction_block(records: list, horizon: int) -> tuple:
    """The column parts of a block of predictions records, each agent padded
    to the block's largest M."""
    (ids, plans), counts, (agent_ids, confidence, probs, trajs) = _nested_block(
        records, _PREDICTION_FIELDS, _FORECAST_FIELDS
    )
    modalities = list(map(len, probs))
    if 0 in modalities or list(map(len, trajs)) != modalities or set(map(type, chain(probs, trajs))) - {list}:
        raise _NotColumnar
    plan, prob = _path_numbers(plans, horizon), list(chain.from_iterable(probs))
    numbers = _numbers(plan + list(confidence) + prob + _path_numbers(chain.from_iterable(trajs), horizon))
    plans, confidence, probs, trajs = np.split(numbers, np.cumsum([len(plan), len(agent_ids), len(prob)]))
    modalities = np.array(modalities, dtype=np.intp)
    probs, trajs = _padded(modalities, probs, trajs.reshape(-1, horizon, 2))
    if probs.base is not numbers:  # padded: views of plans and confidence would keep ``numbers``
        plans, confidence = plans.copy(), confidence.copy()
    return ids, counts, agent_ids, plans.reshape(-1, horizon, 2), confidence, modalities, probs, trajs


def _prediction_table(parts: list[tuple]) -> PredictionBatch:
    """The batch of a predictions file's block parts, which it consumes,
    with agents padded to the largest M of any block; one block's arrays
    are taken as they are."""
    columns = parts.pop() if len(parts) == 1 else _joined(parts)
    ids, counts, agent_ids, plans, confidence, modalities, probs, trajs = columns
    n = len(plans)
    return PredictionBatch(tuple(ids), plans, np.repeat(np.arange(n), np.fromiter(counts, np.intp, n)),
                           np.fromiter(agent_ids, object, len(confidence)), confidence, modalities, probs, trajs)


def _check_record(record: dict, horizon: int) -> None:
    """The record check of a predictions file's record pass: :func:`_record_parts`'s
    checks and then the batch's value checks, run on each record alone, so
    the first bad line in the file is named, whichever check it fails."""
    plan, agents = _record_parts(record, horizon)
    agent_ids, confidence, _, probs, trajs = _agent_columns(agents, horizon)
    errors = _value_errors(plan[None], np.zeros(len(agents), dtype=np.intp), agent_ids, confidence, probs, trajs)
    if errors:
        raise ValueError(min(errors)[1])


def load_predictions(path: str | os.PathLike | Iterable[str], horizon: int | None = 6) -> PredictionBatch:
    """Parse the predictions file at a path, or predictions lines, into one
    batch, by :func:`read_table`; a bad line is named by :func:`_check_record`.
    Every plan and agent trajectory has ``horizon`` waypoints; ``None`` takes
    the first record's (:func:`with_horizon`)."""
    path, horizon = with_horizon(path, horizon, "ego_plan")
    return read_table(path, "predictions", "clip_id", partial(_prediction_block, horizon=horizon),
                      _prediction_table, partial(_check_record, horizon=horizon))


def score_predictions(
    path: str | os.PathLike,
    clips: ClipTable | Sequence[ClipRecord],
    ids: Sequence[str],
    *,
    alpha: float,
    beta: float,
    eps_a: float,
    delta_d: float,
) -> dict:
    """``score_pool(clips, load_predictions(path, horizon), ids=ids, ...)``
    at the horizon of ``clips``, bit for bit, without holding the file's
    batch.

    The file is read by :func:`read_table` as :func:`load_predictions` reads
    it, and each block's records are checked as a batch of their own; the
    block's clips of ``ids`` are then scored (:func:`_raw_criteria`) and the
    batch dropped. A block keeps only its clip ids, the positions of its
    scored clips in ``ids`` and their three raw criteria, and that is all a
    forked reader sends back. The settings and the uniqueness of ``ids``
    (clips of ``clips``) are checked before the file is read; then come the
    file's errors, as the record pass names them, and then ``score_pool``'s.
    Each criterion is normalized once, over ``ids``.
    """
    check_score_settings(alpha=alpha, beta=beta, eps_a=eps_a, delta_d=delta_d)
    table = clip_table(clips)
    ids = tuple(ids)
    check_unique(ids, "the scored ids")
    # Each pool row's position in ids, else -1, as is the extra last entry,
    # which a clip outside the pool (row -1) reads. It and the pool's index
    # are built here, before the readers fork.
    position = np.full(len(table) + 1, -1, dtype=np.intp)
    position[table.rows_of(ids)] = np.arange(len(ids))

    def parse_block(records: list) -> tuple:
        batch = _prediction_table([_prediction_block(records, table.horizon)])
        pool_rows = table.find_rows(batch.clip_ids)
        rows = np.flatnonzero(position[pool_rows] >= 0)
        raw = _raw_criteria(batch, rows, table.gt_future, pool_rows[rows], eps_a, delta_d)
        return batch.clip_ids, position[pool_rows[rows]], *raw

    def build(parts: list[tuple]) -> list:
        clip_ids, *columns = _joined(parts)
        check_unique(tuple(clip_ids), "a prediction batch")
        return columns

    at, *block_raw = read_table(path, "predictions", "clip_id", parse_block, build,
                                partial(_check_record, horizon=table.horizon))
    if not ids:
        raise ValueError("no clips to score")
    found = np.zeros(len(ids), dtype=bool)
    found[at] = True
    if not found.all():
        raise KeyError(f"missing prediction for clip {ids[found.argmin()]!r}")
    raw = (np.empty(len(ids)), np.empty(len(ids)), np.empty(len(ids)))
    for column, values in zip(raw, block_raw):
        column[at] = values
    return _score_columns(ids, raw, alpha, beta)


def _row_lines(batch: PredictionBatch, rows: np.ndarray, preds: Sequence[ClipPrediction]) -> list[bytes]:
    """``encode_line(prediction_to_dict(p))`` of each of ``preds``, the
    batch's ``rows``, written from the columns of those rows: a clip that
    :func:`exact_rows` passes, its agents' padded modalities left out, is
    written by ``orjson.dumps`` of its arrays, its agents' modalities cut at
    their counts."""
    agents, owners = batch.items_of(rows)
    plans = batch.ego_plans[rows]
    confidence, counts = batch.confidence[agents], batch.modality_counts[agents]
    probs, trajs = batch.modality_probs[agents], batch.modality_trajs[agents]
    ids, agent_ids = [p.clip_id for p in preds], batch.agent_ids[agents].tolist()
    modalities, modality_owners = np.arange(probs.shape[1]) < counts[:, None], np.repeat(owners, counts)
    exact = exact_rows(len(rows), [(None, plans), (owners, confidence), (modality_owners, probs[modalities]),
                                   (modality_owners, trajs[modalities])], [(None, ids), (owners, agent_ids)])
    bounds = _offsets(np.bincount(owners, minlength=len(rows))).tolist()
    confidence, counts = confidence.tolist(), counts.tolist()
    lines = []
    for i, (clip_id, ok) in enumerate(zip(ids, exact.tolist())):
        if not ok:
            lines.append(encode_line(prediction_to_dict(preds[i])))
            continue
        record = {"clip_id": clip_id, "ego_plan": plans[i], "agents": [
            {"agent_id": agent_ids[a], "confidence": confidence[a], "modality_probs": probs[a, : counts[a]],
             "modality_trajs": trajs[a, : counts[a]]}
            for a in range(bounds[i], bounds[i + 1])
        ]}
        lines.append(orjson.dumps(record, option=orjson.OPT_SERIALIZE_NUMPY))
    return lines


def _prediction_lines(preds: list) -> list[bytes]:
    """The lines of :func:`save_predictions` for ``preds``: from the columns
    of their batch (:func:`_row_lines`) when all are rows of one batch of
    float64 columns, else one :func:`encode_line` per prediction."""
    found = _batch_rows(preds)
    if found is not None:
        batch, rows = found
        columns = (batch.ego_plans, batch.confidence, batch.modality_probs, batch.modality_trajs)
        if all(column.dtype == np.float64 for column in columns):
            return _row_lines(batch, rows, preds)
    return [encode_line(prediction_to_dict(p)) for p in preds]


def save_predictions(preds: Iterable[ClipPrediction], path: str | os.PathLike) -> None:
    """Write one ``encode_line(prediction_to_dict(p))`` line per prediction
    by :func:`~driveselect.pool.write_lines`, ``SCORE_BLOCK`` at a time
    (:func:`_prediction_lines`): rows of one batch are written from its
    columns, with no view built, and any other prediction as an object."""
    preds = iter(preds)
    blocks = iter(lambda: list(islice(preds, SCORE_BLOCK)), [])
    write_lines([path], ((_prediction_lines(block),) for block in blocks))


#: A float cell as ``repr`` writes it, or a plain integer: ASCII digits, no
#: underscores or spaces.
_DECIMAL = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?", re.ASCII)
_BREAKS = re.compile("[\t\r\n]")
_DECIMAL_CELLS = re.compile("\t".join([_DECIMAL.pattern] * (len(SCORE_COLUMNS) - 1)), re.ASCII)
#: The float cells of one scores row, as float64 bytes.
_SCORE_ROW = struct.Struct(f"{len(SCORE_COLUMNS) - 1}d")
#: Each float column's lowest and highest value that ``score`` writes: raw, normalized, overall.
SCORE_RANGES = np.array([[0.0] * 7, [math.inf] * 3 + [1.0] * 3 + [1 + 2 * MAX_WEIGHT]])


def save_scores(columns: Mapping, path: str | os.PathLike) -> None:
    """Write the float columns of :func:`score_pool` as a TSV table; floats
    are written as ``repr`` writes them, so they round-trip exactly. Rows
    are formatted (by :func:`~driveselect.pool.float_rows`) and written
    ``SCORE_BLOCK`` at a time, so no copy of the whole table is built. A
    clip id with a tab, CR or LF, which :func:`load_scores` would split,
    raises ValueError naming it before any file is made."""
    ids, *values = (columns[name] for name in SCORE_COLUMNS)
    broken = next(filter(_BREAKS.search, map(str, ids)), None)
    if broken is not None:
        raise ValueError(f"clip id {broken!r} holds a tab or line break, which a scores file cannot hold")
    rows = ("\t".join(row).encode() for lo in range(0, len(ids), SCORE_BLOCK)
            for row in zip(ids[lo:lo + SCORE_BLOCK], float_rows([v[lo:lo + SCORE_BLOCK] for v in values])))
    write_lines([path], [(chain(["\t".join(SCORE_COLUMNS).encode()], rows),)])


def load_scores(path: str | os.PathLike, ranges: bool = False) -> dict:
    """The columns of a scores table, as :func:`score_pool` returns them: each line checked as it
    is read and its values appended to one flat column. Errors name the file and its line, counting
    blank lines. Any finite values that :func:`save_scores` wrote load back; with ``ranges``, as
    ``select`` reads the files of ``score``, a value outside ``SCORE_RANGES`` raises."""
    ids: dict[str, int] = {}  # each id's line, in line order
    values = bytearray()  # float64 rows
    with open(path, "r", encoding="utf-8") as fh:
        lines = ((lineno, ln.rstrip("\n")) for lineno, ln in enumerate(fh, start=1) if ln.strip())
        if tuple(next(lines, (0, ""))[1].split("\t")) != SCORE_COLUMNS:
            raise PoolFormatError(f"scores file {path}: bad or missing header")
        for lineno, line in lines:
            where = f"scores file {path} line {lineno}"
            clip_id, *cells = line.split("\t")
            if len(cells) != len(SCORE_COLUMNS) - 1:
                raise PoolFormatError(f"{where}: expected {len(SCORE_COLUMNS)} columns")
            if clip_id in ids:
                raise PoolFormatError(f"{where}: duplicate clip_id {clip_id!r}")
            try:
                row = [float(v) for v in cells]
            except ValueError as exc:
                raise PoolFormatError(f"{where}: {exc}") from exc
            if not (all(map(math.isfinite, row)) and _DECIMAL_CELLS.fullmatch(line, len(clip_id) + 1)):
                # One match per line; the cell loop only names the bad cell.
                for column, cell, value in zip(SCORE_COLUMNS[1:], cells, row):
                    if not math.isfinite(value):
                        raise PoolFormatError(f"{where}: non-finite {column}")
                    if not _DECIMAL.fullmatch(cell):
                        raise PoolFormatError(f"{where}: {column} {cell!r} is not a decimal number")
            ids[clip_id] = lineno
            values += _SCORE_ROW.pack(*row)
    table = np.frombuffer(values, dtype=float).reshape(len(ids), len(SCORE_COLUMNS) - 1).T.copy()
    bad = np.argwhere((table.T < SCORE_RANGES[0]) | (table.T > SCORE_RANGES[1])) if ranges else ()
    if len(bad):  # the first bad line's first bad column
        (at, column), (low, high) = bad[0], SCORE_RANGES[:, bad[0, 1]]
        raise PoolFormatError(f"scores file {path} line {list(ids.values())[at]}: "
                              f"{SCORE_COLUMNS[column + 1]} {table[column, at]} not in [{low}, {high}]")
    return dict(zip(SCORE_COLUMNS, (tuple(ids), *table)))
