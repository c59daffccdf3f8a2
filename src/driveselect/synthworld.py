"""Deterministic synthetic long-tail driving world plus a trainable toy planner.

Each generated clip has a constant-speed ego that drives straight, turns, or
swerves through an overtake; the maneuver is timed so that its commands land
in the per-frame history while its geometry bends the recorded future. Rainy
and night clips carry inflated recording noise, so the rare buckets are also
the hard ones. Constant-velocity agents are seeded near the ego path.

The toy planner is a k-nearest-neighbor lookup over cheap clip features
(bucket, command class, mean speed), searched within each (bucket, command)
stratum so memory stays linear in the pool. Its agent forecasts read the true
agent tracks: the planner exists to give the selection criteria an
informative signal at desk scale, not to model perception, and is labeled as
such.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .criteria import ClipPrediction, PredictionBatch, _distances, prediction_batch
from .pool import (
    BUCKETS,
    COMMAND_CLASSES,
    ClipRecord,
    FrameState,
    _check_finite_point,
    _check_path,
    atomic_write_text,
    classify_command,
    mean_speed,
    pool_to_lines,
    read_jsonl,
    weather_lighting_bucket,
)

FRAME_DT = 0.5        # seconds between frames (2 Hz keyframes)
HISTORY_FRAMES = 40   # ~20 s of per-frame ego state per clip

# Long-tail defaults: bucket proportions 491/125/71/13 and command-class
# proportions L 112, R 132, O 33, S 423 out of 700.
DEFAULT_BUCKET_PROBS = (491 / 700, 125 / 700, 71 / 700, 13 / 700)
DEFAULT_MANEUVER_PROBS = (112 / 700, 132 / 700, 33 / 700, 423 / 700)

# Driving style varies with conditions: turns are wider in rain and sharper
# at night. This couples maneuver geometry to the bucket, so a planner only
# generalizes across buckets if it has seen exemplars from them.
BUCKET_TURN_SCALE = {"DS": 1.0, "DR": 0.7, "NS": 1.3, "NR": 0.55}


@dataclass(frozen=True)
class WorldConfig:
    """Generator knobs. Probability vectors follow the canonical orders
    ``BUCKETS`` = (DS, DR, NS, NR) and ``COMMAND_CLASSES`` = (L, R, O, S)."""

    n_clips: int
    bucket_probs: tuple[float, ...] = DEFAULT_BUCKET_PROBS
    maneuver_probs: tuple[float, ...] = DEFAULT_MANEUVER_PROBS
    horizon: int = 6
    agent_rate: float = 2.0
    noise_scale: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clips < 1:
            raise ValueError(f"n_clips must be >= 1, got {self.n_clips}")
        for name, probs, size in (
            ("bucket_probs", self.bucket_probs, len(BUCKETS)),
            ("maneuver_probs", self.maneuver_probs, len(COMMAND_CLASSES)),
        ):
            if len(probs) != size:
                raise ValueError(f"{name} must have {size} entries")
            if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
                raise ValueError(f"{name} must be non-negative and sum to 1")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.agent_rate < 0:
            raise ValueError(f"agent_rate must be >= 0, got {self.agent_rate}")
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")


@dataclass(frozen=True)
class AgentTruth:
    """One agent's true constant-velocity motion, in the clip's local frame."""

    agent_id: str
    start: tuple[float, float]
    track: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ClipTruth:
    """Hidden ground truth for one clip: revealed only to evaluation and,
    for labeled clips, to the provider."""

    clip_id: str
    ego_future: tuple[tuple[float, float], ...]
    agents: tuple[AgentTruth, ...]


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms of the rows of an (n, 2) array, each bit-equal to np.linalg.norm
    of that row alone (a dot product; norm(axis=1) rounds differently)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


def _maneuver_curvature(
    rng: np.random.Generator, maneuver: str, bucket: str, v: float, total_steps: int
) -> np.ndarray:
    """Per-step curvature plan. Turn windows start late in the history so the
    commands are observable while the geometry bends the future; each window
    keeps at least 5 in-history frames per required command sign."""
    kappa = np.zeros(total_steps)
    dt = FRAME_DT
    scale = BUCKET_TURN_SCALE[bucket]
    if maneuver == "S":
        return kappa
    if maneuver in ("L", "R"):
        duration = int(rng.integers(8, 11))
        start = int(rng.integers(34, 36))
        dtheta = scale * rng.uniform(0.08, 0.18)
        sign = 1.0 if maneuver == "L" else -1.0
        kappa[start : start + duration] = sign * dtheta / (v * dt)
        return kappa
    # Overtake: a left-then-right swerve spanning the history/future boundary.
    start = int(rng.integers(29, 31))
    phase1 = int(rng.integers(5, 7))
    phase2 = int(rng.integers(7, 9))
    dtheta = scale * rng.uniform(0.05, 0.10)
    kappa[start : start + phase1] = dtheta / (v * dt)
    kappa[start + phase1 : start + phase1 + phase2] = -dtheta / (v * dt)
    return kappa


def _integrate(kappa: np.ndarray, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Unicycle rollout at constant speed: positions and headings per step."""
    theta = np.cumsum(kappa * v * FRAME_DT)
    steps = v * FRAME_DT * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return np.cumsum(steps, axis=0), theta


def _commands_from_curvature(kappa: np.ndarray) -> list[str]:
    commands = []
    for k in kappa[:HISTORY_FRAMES]:
        if k > 1e-12:
            commands.append("Left")
        elif k < -1e-12:
            commands.append("Right")
        else:
            commands.append("Straight")
    return commands


# Every agent track keeps at least this same-timestep distance from the true
# ego future, so an accurate plan never trips the collision proxy: proxy
# collisions are plan-error events, not luck.
AGENT_CLEARANCE = 1.25


def _draw_agent(
    rng: np.random.Generator, anchored_points: np.ndarray, v: float, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    if rng.uniform() < 0.8:
        # Traffic near the ego path, offset laterally from a late future
        # waypoint: late anchors separate accurate plans from wrong ones,
        # whose lateral error is largest at the end of the horizon.
        t_a = int(rng.integers(max(1, horizon // 2), horizon + 1))
        anchor = anchored_points[t_a]
        direction = anchored_points[t_a] - anchored_points[t_a - 1]
        heading = math.atan2(direction[1], direction[0])
        perp = np.array([-math.sin(heading), math.cos(heading)])
        ahead = np.array([math.cos(heading), math.sin(heading)])
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        pos_at_anchor = (
            anchor
            + side * rng.uniform(1.5, 4.5) * perp
            + rng.uniform(-2.0, 2.0) * ahead
        )
        speed = min(14.0, v * rng.uniform(0.3, 1.2))
        vel_heading = heading + rng.uniform(-0.6, 0.6)
        vel = speed * np.array([math.cos(vel_heading), math.sin(vel_heading)])
        start = pos_at_anchor - vel * (FRAME_DT * t_a)
    else:
        # Background traffic anywhere around the ego.
        radius = rng.uniform(5.0, 35.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        start = radius * np.array([math.cos(angle), math.sin(angle)])
        speed = rng.uniform(0.0, 12.0)
        vel_heading = rng.uniform(0.0, 2.0 * math.pi)
        vel = speed * np.array([math.cos(vel_heading), math.sin(vel_heading)])
    return start, vel


def _make_agents(
    rng: np.random.Generator,
    clip_id: str,
    plan_future: np.ndarray,
    v: float,
    horizon: int,
    agent_rate: float,
) -> tuple[AgentTruth, ...]:
    n_agents = int(rng.poisson(agent_rate))
    agents = []
    steps = np.arange(1, horizon + 1)[:, None] * FRAME_DT
    anchored_points = np.vstack([[0.0, 0.0], plan_future])
    for j in range(n_agents):
        track = None
        for _ in range(20):
            start, vel = _draw_agent(rng, anchored_points, v, horizon)
            candidate = start[None, :] + steps * vel[None, :]
            gap = float(np.linalg.norm(candidate - plan_future, axis=1).min())
            if gap >= AGENT_CLEARANCE:
                track = candidate
                break
        if track is None:
            # Could not place it near the path with clearance: park it far out.
            angle = rng.uniform(0.0, 2.0 * math.pi)
            start = 25.0 * np.array([math.cos(angle), math.sin(angle)])
            vel = np.zeros(2)
            track = start[None, :] + steps * vel[None, :]
        agents.append(
            AgentTruth(
                agent_id=f"{clip_id}-a{j}",
                start=(float(start[0]), float(start[1])),
                track=tuple((float(x), float(y)) for x, y in track),
            )
        )
    return tuple(agents)


def generate_world(config: WorldConfig) -> tuple[list[ClipRecord], dict[str, ClipTruth]]:
    """Generate the clip pool and its hidden truth; identical seeds give
    identical output."""
    children = np.random.SeedSequence(config.seed).spawn(config.n_clips)
    total_steps = HISTORY_FRAMES + config.horizon
    clips: list[ClipRecord] = []
    truth: dict[str, ClipTruth] = {}
    for i in range(config.n_clips):
        rng = np.random.default_rng(children[i])
        clip_id = f"clip_{i:06d}"
        bucket = BUCKETS[int(rng.choice(len(BUCKETS), p=config.bucket_probs))]
        maneuver = COMMAND_CLASSES[int(rng.choice(len(COMMAND_CLASSES), p=config.maneuver_probs))]
        v = float(rng.uniform(2.0, 15.0))

        kappa = _maneuver_curvature(rng, maneuver, bucket, v, total_steps)
        positions, headings = _integrate(kappa, v)
        ref_pos = positions[HISTORY_FRAMES - 1]
        ref_rot = _rotation(-headings[HISTORY_FRAMES - 1])
        plan_future = (positions[HISTORY_FRAMES:] - ref_pos) @ ref_rot.T

        sigma = config.noise_scale
        if bucket in ("DR", "NR"):
            sigma *= 2.0
        if bucket in ("NS", "NR"):
            sigma *= 2.0
        gt_future = plan_future + rng.normal(0.0, sigma, size=plan_future.shape)

        lighting = "Day" if bucket[0] == "D" else "Night"
        weather = "Sunny" if bucket[1] == "S" else "Rainy"
        commands = _commands_from_curvature(kappa)
        frames = tuple(FrameState(speed=v, command=cmd) for cmd in commands)
        clip = ClipRecord(
            id=clip_id,
            weather=weather,
            lighting=lighting,
            frames=frames,
            gt_future=tuple((float(x), float(y)) for x, y in gt_future),
        )
        clips.append(clip)
        truth[clip_id] = ClipTruth(
            clip_id=clip_id,
            ego_future=clip.gt_future,
            agents=_make_agents(rng, clip_id, plan_future, v, config.horizon, config.agent_rate),
        )
    return clips, truth


# ---------------------------------------------------------------------------
# Truth file (JSONL, parallel to the pool file by clip_id)
# ---------------------------------------------------------------------------


def truth_to_lines(truth: Mapping[str, ClipTruth], order: Iterable[str]) -> list[str]:
    lines = []
    for clip_id in order:
        t = truth[clip_id]
        lines.append(
            json.dumps(
                {
                    "clip_id": t.clip_id,
                    "ego_future": [[x, y] for x, y in t.ego_future],
                    "agents": [
                        {
                            "agent_id": a.agent_id,
                            "start": [a.start[0], a.start[1]],
                            "track": [[x, y] for x, y in a.track],
                        }
                        for a in t.agents
                    ],
                },
                separators=(",", ":"),
            )
        )
    return lines


def save_truth(truth: Mapping[str, ClipTruth], order: Iterable[str], path: str | os.PathLike) -> None:
    atomic_write_text(path, "\n".join(truth_to_lines(truth, order)) + "\n")


def _truth_from_dict(record: dict, horizon: int) -> ClipTruth:
    return ClipTruth(
        clip_id=record["clip_id"],
        ego_future=_check_path(record["ego_future"], horizon, "ego_future"),
        agents=tuple(
            AgentTruth(
                agent_id=str(a["agent_id"]),
                start=_check_finite_point(a["start"]),
                track=_check_path(a["track"], horizon, f"agent {a['agent_id']} track"),
            )
            for a in record["agents"]
        ),
    )


def load_truth(path: str | os.PathLike, horizon: int = 6) -> dict[str, ClipTruth]:
    """Load a truth file; every future and agent track has ``horizon`` finite points."""
    return read_jsonl(path, "truth", "clip_id", partial(_truth_from_dict, horizon=horizon))


def generate_pool(config: WorldConfig, pool_path: str | os.PathLike, truth_path: str | os.PathLike) -> None:
    """Generate and write the pool and truth files (atomically, byte-stable)."""
    clips, truth = generate_world(config)
    atomic_write_text(pool_path, "\n".join(pool_to_lines(clips)) + "\n")
    save_truth(truth, (c.id for c in clips), truth_path)


# ---------------------------------------------------------------------------
# Toy planner
# ---------------------------------------------------------------------------

SPEED_SCALE = 15.0  # m/s; normalizes the speed feature to roughly [0, 1]
KNN_BLOCK = 128     # queries per k-NN block; bounds the distance arrays
# Clips in different strata differ in at least two one-hot entries, so their
# computed feature distance is never below this.
STRATUM_GAP = math.sqrt(2.0)


def _strata(feats: np.ndarray) -> np.ndarray:
    """(bucket, command) stratum code of each feature row."""
    n_b = len(BUCKETS)
    return feats[:, :n_b].argmax(axis=1) * len(COMMAND_CLASSES) + feats[:, n_b:-1].argmax(axis=1)


class ToyPlanner:
    """k-nearest-neighbor planner over cheap clip features.

    Training stores one exemplar per labeled clip, keyed by (bucket one-hot,
    command one-hot, mean speed / 15). Prediction averages the true futures of
    the k nearest exemplars, so it is only accurate where the labeled set is
    locally dense; before any training it falls back to constant-velocity
    extrapolation. The search is exact but stratum-local: within a (bucket,
    command) stratum the feature distance is the speed gap, and other strata
    are at least ``STRATUM_GAP`` away, so a query only scans its own stratum's
    exemplars unless that stratum has fewer than k of them (or they are that
    far away). Queries go in blocks of ``KNN_BLOCK``, so memory is linear in
    the pool. Agent forecasts are built from the true agent tracks (a
    deliberate oracle shortcut) with three rotated constant-velocity
    modalities; they do not depend on training, so they are built once, for
    every clip in one array pass, and ``predict`` returns a
    :class:`PredictionBatch` that takes its rows.
    """

    MODALITY_ANGLES = (-15.0, 0.0, 15.0)  # degrees
    AGENT_RADIUS = 30.0    # meters; agents starting farther out get no forecast
    ENDPOINT_SCALE = 5.0   # meters; softmax temperature of the modality probabilities

    def __init__(
        self,
        clips: Sequence[ClipRecord],
        truth: Mapping[str, ClipTruth],
        *,
        tau_c: int = 4,
        n_neighbors: int = 5,
    ):
        self._clips = {c.id: c for c in clips}
        if len(self._clips) != len(clips):
            raise ValueError("duplicate clip ids")
        self._truth = dict(truth)
        self.tau_c = tau_c
        self.n_neighbors = n_neighbors
        self.trained_ids: tuple[str, ...] = ()
        self._exemplar_feats: np.ndarray | None = None
        self._exemplar_futures: np.ndarray | None = None
        self._forecasts: PredictionBatch | None = None

    def _features(self, clip: ClipRecord) -> np.ndarray:
        feats = np.zeros(len(BUCKETS) + len(COMMAND_CLASSES) + 1)
        feats[BUCKETS.index(weather_lighting_bucket(clip))] = 1.0
        feats[len(BUCKETS) + COMMAND_CLASSES.index(classify_command(clip, self.tau_c))] = 1.0
        feats[-1] = mean_speed(clip) / SPEED_SCALE
        return feats

    def train(self, labeled_ids: Sequence[str]) -> None:
        """Store exemplars for the labeled clips; their truth is now revealed."""
        ids = list(labeled_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("labeled set contains duplicate clip ids")
        ids.sort()  # stable exemplar order: ties in feature distance break by id
        self.trained_ids = tuple(ids)
        if not ids:
            self._exemplar_feats = None
            self._exemplar_futures = None
            return
        feats, futures = [], []
        for clip_id in ids:
            clip = self._clips[clip_id]
            feats.append(self._features(clip))
            futures.append(np.asarray(self._truth[clip_id].ego_future))
        self._exemplar_feats = np.stack(feats)
        self._exemplar_futures = np.stack(futures)

    @property
    def is_trained(self) -> bool:
        return self._exemplar_feats is not None

    def _plans(self, clips: Sequence[ClipRecord]) -> np.ndarray:
        horizon = len(clips[0].gt_future)
        steps = np.arange(1, horizon + 1) * FRAME_DT
        if not self.is_trained:
            plans = np.zeros((len(clips), horizon, 2))
            for i, clip in enumerate(clips):
                plans[i, :, 0] = mean_speed(clip) * steps
            return plans
        queries = np.stack([self._features(c) for c in clips])
        exemplars = self._exemplar_feats
        k = min(self.n_neighbors, len(exemplars))
        q_strata, e_strata = _strata(queries), _strata(exemplars)
        nearest = np.empty((len(queries), k), dtype=np.intp)
        # Stable argsort + id-sorted exemplars = deterministic id tie-break.
        for stratum in np.unique(q_strata):
            local = np.flatnonzero(e_strata == stratum)
            local_speeds = exemplars[local, -1]
            in_stratum = np.flatnonzero(q_strata == stratum)
            for start in range(0, len(in_stratum), KNN_BLOCK):
                rows = in_stratum[start : start + KNN_BLOCK]
                if len(local) >= k:
                    # The one-hot terms are exact zeros, so this equals the
                    # full feature norm bit for bit.
                    gap = queries[rows, -1:] - local_speeds
                    dists = np.sqrt(gap * gap)
                    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
                    nearest[rows] = local[order]
                    kth = np.take_along_axis(dists, order[:, -1:], axis=1)[:, 0]
                    rows = rows[kth >= STRATUM_GAP]
                if len(rows):
                    dists = np.linalg.norm(queries[rows, None, :] - exemplars[None, :, :], axis=2)
                    nearest[rows] = np.argsort(dists, axis=1, kind="stable")[:, :k]
        return self._exemplar_futures[nearest].mean(axis=1)

    def _build_forecasts(self) -> PredictionBatch:
        """Agent forecasts of every clip with truth, in one array pass; the ego
        plans are placeholders that :meth:`predict` replaces."""
        clip_ids = [clip_id for clip_id in self._clips if clip_id in self._truth]
        horizon = len(next(iter(self._clips.values())).gt_future) if self._clips else 0
        agents = [(row, a) for row, clip_id in enumerate(clip_ids) for a in self._truth[clip_id].agents]
        starts = np.array([a.start for _, a in agents], dtype=float).reshape(-1, 2)
        d0 = _norms(starts)
        keep = np.flatnonzero(d0 <= self.AGENT_RADIUS)
        agents = [agents[i] for i in keep]
        starts = starts[keep]
        firsts = np.array([a.track[0] for _, a in agents], dtype=float).reshape(-1, 2)
        lasts = np.array([a.track[-1] for _, a in agents], dtype=float).reshape(-1, 2)
        vel = (firsts - starts) / FRAME_DT
        steps = np.arange(1, horizon + 1)[:, None] * FRAME_DT
        n_modes = len(self.MODALITY_ANGLES)
        trajs = np.empty((len(agents), n_modes, horizon, 2))
        endpoint_err = np.empty((len(agents), n_modes))
        for m, angle_deg in enumerate(self.MODALITY_ANGLES):
            # One rotation per modality, applied as stacked 2x2 @ 2x1 products.
            rot_vel = np.matmul(_rotation(math.radians(angle_deg)), vel[:, :, None])[:, :, 0]
            trajs[:, m] = starts[:, None, :] + steps * rot_vel[:, None, :]
            endpoint_err[:, m] = _norms(trajs[:, m, -1] - lasts)
        logits = -endpoint_err / self.ENDPOINT_SCALE
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        # math.exp, not np.exp: the two round differently in the last bit.
        confidence = [math.exp(-d / self.AGENT_RADIUS) for d in d0[keep].tolist()]
        return PredictionBatch(
            clip_ids=tuple(clip_ids),
            ego_plans=np.zeros((len(clip_ids), horizon, 2)),
            agent_clip=np.array([row for row, _ in agents], dtype=np.intp),
            agent_ids=np.array([a.agent_id for _, a in agents], dtype=object),
            confidence=np.array(confidence, dtype=float),
            modality_counts=np.full(len(agents), n_modes, dtype=np.intp),
            modality_probs=probs,
            modality_trajs=trajs,
        )

    def predict(self, ids: Sequence[str]) -> Mapping[str, ClipPrediction]:
        clips = [self._clips[i] for i in ids]
        if not clips:
            return {}
        if self._forecasts is None:
            self._forecasts = self._build_forecasts()
        return replace(self._forecasts.take(ids), ego_plans=self._plans(clips))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

COLLISION_RADIUS = 0.5  # meters; proxy threshold against true agent tracks


@dataclass(frozen=True)
class ClipEval:
    """Held-out evaluation of one clip's plan against the hidden truth."""

    clip_id: str
    de: float
    step_errors: tuple[float, ...]
    collided: bool


def evaluate_clips(
    provider, clips: Sequence[ClipRecord], truth: Mapping[str, ClipTruth]
) -> list[ClipEval]:
    if not clips:
        return []
    batch = prediction_batch(provider.predict([c.id for c in clips]), clips)
    plans = batch.ego_plans
    targets = np.array([truth[c.id].ego_future for c in clips], dtype=float).reshape(plans.shape)
    step_errors = _distances(plans, targets)
    tracks = [(row, a.track) for row, clip in enumerate(clips) for a in truth[clip.id].agents]
    rows = np.array([row for row, _ in tracks], dtype=np.intp)
    paths = np.array([track for _, track in tracks], dtype=float).reshape((len(tracks),) + plans.shape[1:])
    collided = np.zeros(len(clips), dtype=bool)
    collided[rows[_distances(plans[rows], paths).min(axis=1) < COLLISION_RADIUS]] = True
    return [
        ClipEval(clip_id=clip.id, de=de, step_errors=tuple(errors), collided=hit)
        for clip, de, errors, hit in zip(
            clips, step_errors.mean(axis=1).tolist(), step_errors.tolist(), collided.tolist()
        )
    ]


def summarize_evals(results: Sequence[ClipEval]) -> tuple[float, float]:
    """(average displacement error in meters, proxy collision rate in percent)."""
    if not results:
        raise ValueError("held-out set is empty")
    return float(np.mean([r.de for r in results])), 100.0 * sum(r.collided for r in results) / len(results)


def heldout_eval(
    provider, heldout_clips: Sequence[ClipRecord], truth: Mapping[str, ClipTruth]
) -> tuple[float, float]:
    """(average displacement error in meters, proxy collision rate in percent)
    of the provider's plans on the held-out clips.

    The held-out set must be disjoint from the clips the provider trained on.
    """
    overlap = set(getattr(provider, "trained_ids", ())) & {c.id for c in heldout_clips}
    if overlap:
        raise ValueError(f"held-out clips overlap training set: {sorted(overlap)[:5]}")
    return summarize_evals(evaluate_clips(provider, heldout_clips, truth))
