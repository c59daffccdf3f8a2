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
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pool import ClipRecord, PoolFormatError, atomic_write_text, read_jsonl

PROB_SUM_TOL = 1e-6


@dataclass(frozen=True)
class AgentForecast:
    """Multimodal forecast for one agent: trajectories with probabilities."""

    agent_id: str
    confidence: float
    modality_probs: tuple[float, ...]
    modality_trajs: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"agent {self.agent_id}: confidence {self.confidence} not in [0, 1]")
        n_m = len(self.modality_probs)
        if n_m < 1:
            raise ValueError(f"agent {self.agent_id}: needs at least one modality")
        if len(self.modality_trajs) != n_m:
            raise ValueError(
                f"agent {self.agent_id}: {len(self.modality_trajs)} trajectories for {n_m} probabilities"
            )
        if not all(p >= 0 for p in self.modality_probs):
            raise ValueError(f"agent {self.agent_id}: negative or NaN modality probability")
        if abs(sum(self.modality_probs) - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"agent {self.agent_id}: modality probabilities sum to {sum(self.modality_probs)}"
            )
        lengths = {len(t) for t in self.modality_trajs}
        if len(lengths) != 1:
            raise ValueError(f"agent {self.agent_id}: modality trajectories differ in length")
        for traj in self.modality_trajs:
            for x, y in traj:
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"agent {self.agent_id}: non-finite waypoint")


@dataclass(frozen=True)
class ClipPrediction:
    """Model output for one clip: the planned ego route plus agent forecasts."""

    clip_id: str
    ego_plan: tuple[tuple[float, float], ...]
    agents: tuple[AgentForecast, ...]

    def __post_init__(self) -> None:
        if len(self.ego_plan) == 0:
            raise ValueError(f"clip {self.clip_id}: empty ego plan")
        for x, y in self.ego_plan:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"clip {self.clip_id}: non-finite plan waypoint")
        horizon = len(self.ego_plan)
        for agent in self.agents:
            if len(agent.modality_trajs[0]) != horizon:
                raise ValueError(
                    f"clip {self.clip_id}: agent {agent.agent_id} horizon "
                    f"{len(agent.modality_trajs[0])} != plan horizon {horizon}"
                )


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


def displacement_error(ego_plan: Sequence[Sequence[float]], gt_future: Sequence[Sequence[float]]) -> float:
    """Mean Euclidean distance between planned and recorded waypoints, in meters."""
    plan = np.asarray(ego_plan, dtype=float)
    gt = np.asarray(gt_future, dtype=float)
    if plan.shape != gt.shape:
        raise ValueError(f"trajectory shapes differ: {plan.shape} vs {gt.shape}")
    if plan.ndim != 2 or plan.shape[1] != 2:
        raise ValueError(f"expected (H, 2) trajectories, got {plan.shape}")
    return float(np.linalg.norm(plan - gt, axis=1).mean())


def best_modality_traj(forecast: AgentForecast) -> np.ndarray:
    """The agent's highest-probability trajectory; ties go to the lowest index."""
    idx = int(np.argmax(forecast.modality_probs))
    return np.asarray(forecast.modality_trajs[idx], dtype=float)


def modality_entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in nats, with the 0*ln(0) = 0 convention."""
    p = np.asarray(probs, dtype=float)
    nonzero = p[p > 0]
    return float(-(nonzero * np.log(nonzero)).sum())


def soft_collision(pred: ClipPrediction, eps_a: float) -> float:
    """Horizon-summed exp(-closest agent distance), over confident agents.

    Agents below the confidence threshold are ignored; each remaining agent
    contributes its highest-probability trajectory. Timesteps with no
    qualifying agent contribute zero risk.
    """
    if not 0.0 <= eps_a <= 1.0:
        raise ValueError(f"eps_a must be in [0, 1], got {eps_a}")
    tracks = [best_modality_traj(a) for a in pred.agents if a.confidence >= eps_a]
    if not tracks:
        return 0.0
    ego = np.asarray(pred.ego_plan, dtype=float)
    dists = np.linalg.norm(np.stack(tracks) - ego[None, :, :], axis=2)
    return float(np.exp(-dists.min(axis=0)).sum())


def agent_uncertainty(pred: ClipPrediction, delta_d: float) -> float:
    """Proximity-weighted modality entropy, summed over nearby agents.

    An agent qualifies when the minimum distance between the ego plan and its
    highest-probability trajectory is at most ``delta_d``; its entropy is then
    weighted by exp(delta_d - d), which is >= 1 for every qualifying agent.
    """
    if delta_d <= 0:
        raise ValueError(f"delta_d must be > 0, got {delta_d}")
    ego = np.asarray(pred.ego_plan, dtype=float)
    total = 0.0
    for agent in pred.agents:
        track = best_modality_traj(agent)
        d_a = float(np.linalg.norm(track - ego, axis=1).min())
        if d_a <= delta_d:
            total += math.exp(delta_d - d_a) * modality_entropy(agent.modality_probs)
    return total


def min_max_normalize(values: Mapping[str, float]) -> dict[str, float]:
    """Affine rescale of a score map to [0, 1]; a constant map becomes all zeros."""
    if not values:
        raise ValueError("cannot normalize an empty score map")
    vals = list(values.values())
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("scores must be finite")
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return {k: 0.0 for k in values}
    span = hi - lo
    return {k: (v - lo) / span for k, v in values.items()}


def overall_loss(de_norm: float, sc_norm: float, au_norm: float, alpha: float, beta: float) -> float:
    """Mixture of the normalized criteria: de + alpha * sc + beta * au."""
    return de_norm + alpha * sc_norm + beta * au_norm


def rank_and_take(scores: Mapping[str, float], n: int) -> list[str]:
    """Ids of the n largest scores, descending; ties break by ascending id.

    A non-finite score raises ValueError naming the clip: NaN has no rank.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > len(scores):
        raise ValueError(f"cannot take {n} of {len(scores)} scored clips")
    for clip_id, score in scores.items():
        if not math.isfinite(score):
            raise ValueError(f"clip {clip_id!r} has non-finite score {score}")
    best = heapq.nsmallest(n, scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [clip_id for clip_id, _ in best]


def score_pool(
    clips: Sequence[ClipRecord],
    predictions: Mapping[str, ClipPrediction],
    *,
    alpha: float,
    beta: float,
    eps_a: float,
    delta_d: float,
) -> list[CriterionScores]:
    """Score every clip, normalize each criterion over the batch, and mix.

    Every clip needs a prediction; a missing one raises KeyError naming the
    clip. Per-clip scoring is pure, so callers may parallelize it; the
    normalization is a reduce over the whole batch.
    """
    de_raw: dict[str, float] = {}
    sc_raw: dict[str, float] = {}
    au_raw: dict[str, float] = {}
    for clip in clips:
        if clip.id not in predictions:
            raise KeyError(f"missing prediction for clip {clip.id!r}")
        pred = predictions[clip.id]
        de_raw[clip.id] = displacement_error(pred.ego_plan, clip.gt_future)
        sc_raw[clip.id] = soft_collision(pred, eps_a)
        au_raw[clip.id] = agent_uncertainty(pred, delta_d)
    de_norm = min_max_normalize(de_raw)
    sc_norm = min_max_normalize(sc_raw)
    au_norm = min_max_normalize(au_raw)
    return [
        CriterionScores(
            clip_id=clip.id,
            de_raw=de_raw[clip.id],
            sc_raw=sc_raw[clip.id],
            au_raw=au_raw[clip.id],
            de_norm=de_norm[clip.id],
            sc_norm=sc_norm[clip.id],
            au_norm=au_norm[clip.id],
            overall=overall_loss(
                de_norm[clip.id], sc_norm[clip.id], au_norm[clip.id], alpha, beta
            ),
        )
        for clip in clips
    ]


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


def prediction_from_dict(record: dict) -> ClipPrediction:
    agents = tuple(
        AgentForecast(
            agent_id=str(a["agent_id"]),
            confidence=float(a["confidence"]),
            modality_probs=tuple(float(p) for p in a["modality_probs"]),
            modality_trajs=tuple(
                tuple((float(x), float(y)) for x, y in traj) for traj in a["modality_trajs"]
            ),
        )
        for a in record["agents"]
    )
    return ClipPrediction(
        clip_id=str(record["clip_id"]),
        ego_plan=tuple((float(x), float(y)) for x, y in record["ego_plan"]),
        agents=agents,
    )


def parse_prediction_lines(lines: str | os.PathLike | Iterable[str]) -> dict[str, ClipPrediction]:
    """Parse predictions lines, or the predictions file at a path, with :func:`read_jsonl`."""
    return read_jsonl(lines, "predictions", "clip_id", prediction_from_dict)


def load_predictions(path: str | os.PathLike) -> dict[str, ClipPrediction]:
    return parse_prediction_lines(path)


def save_predictions(preds: Iterable[ClipPrediction], path: str | os.PathLike) -> None:
    lines = [json.dumps(prediction_to_dict(p), separators=(",", ":")) for p in preds]
    atomic_write_text(path, "\n".join(lines) + "\n")


SCORE_COLUMNS = ("clip_id", "de_raw", "sc_raw", "au_raw", "de_norm", "sc_norm", "au_norm", "overall")


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
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(SCORE_COLUMNS):
            raise PoolFormatError(f"scores file {path} line {lineno}: expected {len(SCORE_COLUMNS)} columns")
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise PoolFormatError(f"scores file {path} line {lineno}: {exc}") from exc
        bad = [c for c, v in zip(SCORE_COLUMNS[1:], values) if not math.isfinite(v)]
        if bad:
            raise PoolFormatError(f"scores file {path} line {lineno}: non-finite {bad[0]}")
        rows.append(CriterionScores(parts[0], *values))
    return rows
