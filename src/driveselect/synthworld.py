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

A clip's hidden truth (:class:`ClipTruth`) is arrays: the ego future (H, 2),
and its A agents' ids, starts (A, 2) and tracks (A, H, 2), which the planner
and evaluation index and concatenate. The truth file holds the same floats:
written with ``.tolist()``, read back through the pool's waypoint checks.

Generation is bit-stable, and changing it changes the written files. Clip
``i`` draws from ``SeedSequence(seed, spawn_key=(i,))``, which is
``SeedSequence(seed).spawn(n_clips)[i]``, so any range of clips can be
generated on its own: ``generate_pool`` generates chunks of them in worker
processes. Each clip draws always in the same order: bucket, maneuver, speed,
maneuver timing, noise, then per agent its count and placement draws. Buckets
and maneuvers are drawn exactly as ``Generator.choice(n, p=p)`` draws them,
from the same normalised cdf, and uniform floats as ``Generator.uniform``
draws them: ``_uniform`` is its ``low + (high - low) * random()``. The ego
rollout and its rotation are numpy array operations. The agent geometry runs
in Python floats, in the operation order of the array code it replaced:
elementwise ``+ - *``, ``math.cos``/``math.sin``, and ``sqrt(dx*dx + dy*dy)``
for a row of ``np.linalg.norm(axis=1)``, all rounding alike. The tests keep
that array code as the reference the written bytes must equal.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .criteria import ClipPrediction, PredictionBatch, _distances, prediction_batch
from .pool import (
    BUCKETS,
    COMMAND_CLASSES,
    ClipRecord,
    _check_fields,
    _check_finite_point,
    _check_path,
    _check_string,
    atomic_outputs,
    classify_command,
    clip_to_dict,
    encode_line,
    mean_speed,
    read_jsonl,
    weather_lighting_bucket,
    write_jsonl,
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
            if not all(p >= 0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-9:
                raise ValueError(f"{name} must be non-negative and sum to 1")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not (self.agent_rate >= 0 and math.isfinite(self.agent_rate)):
            raise ValueError(f"agent_rate must be finite and >= 0, got {self.agent_rate}")
        if not (self.noise_scale >= 0 and math.isfinite(self.noise_scale)):
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")


@dataclass(frozen=True, eq=False)
class ClipTruth:
    """Hidden ground truth for one clip: revealed only to evaluation and,
    for labeled clips, to the provider. Its A agents move at constant
    velocity in the clip's local frame. Readers share the arrays, so none
    may write to them."""

    clip_id: str
    ego_future: np.ndarray         # (H, 2)
    agent_ids: tuple[str, ...]     # (A,)
    starts: np.ndarray             # (A, 2)
    tracks: np.ndarray             # (A, H, 2)


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms of the rows of an (n, 2) array, each bit-equal to np.linalg.norm
    of that row alone (a dot product; norm(axis=1) rounds differently)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``rng.uniform(low, high)``: the same float from the same draw, without
    its per-call set-up."""
    return low + (high - low) * rng.random()


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
        dtheta = scale * _uniform(rng, 0.08, 0.18)
        sign = 1.0 if maneuver == "L" else -1.0
        kappa[start : start + duration] = sign * dtheta / (v * dt)
        return kappa
    # Overtake: a left-then-right swerve spanning the history/future boundary.
    start = int(rng.integers(29, 31))
    phase1 = int(rng.integers(5, 7))
    phase2 = int(rng.integers(7, 9))
    dtheta = scale * _uniform(rng, 0.05, 0.10)
    kappa[start : start + phase1] = dtheta / (v * dt)
    kappa[start + phase1 : start + phase1 + phase2] = -dtheta / (v * dt)
    return kappa


def _integrate(kappa: np.ndarray, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Unicycle rollout at constant speed: positions and headings per step."""
    theta = np.cumsum(kappa * v * FRAME_DT)
    steps = v * FRAME_DT * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return np.cumsum(steps, axis=0), theta


def _commands_from_curvature(kappa: np.ndarray) -> tuple[str, ...]:
    return tuple(
        "Left" if k > 1e-12 else "Right" if k < -1e-12 else "Straight"
        for k in kappa[:HISTORY_FRAMES].tolist()
    )


def _choice_cdf(probs: Sequence[float]) -> list[float]:
    """The normalised cdf that ``Generator.choice(len(probs), p=probs)`` searches."""
    cdf = np.cumsum(probs, dtype=float)
    cdf /= cdf[-1]
    return cdf.tolist()


def _choose(rng: np.random.Generator, cdf: list[float]) -> int:
    """``rng.choice(len(cdf), p=probs)`` for ``cdf = _choice_cdf(probs)``: the
    same draw and the same index, without its per-call set-up."""
    return bisect_right(cdf, rng.random())


# Every agent track keeps at least this same-timestep distance from the true
# ego future, so an accurate plan never trips the collision proxy: proxy
# collisions are plan-error events, not luck.
AGENT_CLEARANCE = 1.25

Point = tuple[float, float]


def _draw_agent(
    rng: np.random.Generator, anchored_points: Sequence[Sequence[float]], v: float, horizon: int
) -> tuple[Point, Point]:
    """One candidate agent's start and velocity."""
    if rng.random() < 0.8:
        # Traffic near the ego path, offset laterally from a late future
        # waypoint: late anchors separate accurate plans from wrong ones,
        # whose lateral error is largest at the end of the horizon.
        t_a = int(rng.integers(max(1, horizon // 2), horizon + 1))
        (px, py), (ax, ay) = anchored_points[t_a - 1], anchored_points[t_a]
        heading = math.atan2(ay - py, ax - px)
        cos_h, sin_h = math.cos(heading), math.sin(heading)
        lateral = (1.0 if rng.random() < 0.5 else -1.0) * _uniform(rng, 1.5, 4.5)
        along = _uniform(rng, -2.0, 2.0)
        # anchor + lateral * perp + along * ahead, with perp = (-sin, cos).
        x = ax + lateral * -sin_h + along * cos_h
        y = ay + lateral * cos_h + along * sin_h
        speed = min(14.0, v * _uniform(rng, 0.3, 1.2))
        vel_heading = heading + _uniform(rng, -0.6, 0.6)
        vx, vy = speed * math.cos(vel_heading), speed * math.sin(vel_heading)
        lead = FRAME_DT * t_a
        return (x - vx * lead, y - vy * lead), (vx, vy)
    # Background traffic anywhere around the ego.
    radius = _uniform(rng, 5.0, 35.0)
    angle = _uniform(rng, 0.0, 2.0 * math.pi)
    start = (radius * math.cos(angle), radius * math.sin(angle))
    speed = _uniform(rng, 0.0, 12.0)
    vel_heading = _uniform(rng, 0.0, 2.0 * math.pi)
    return start, (speed * math.cos(vel_heading), speed * math.sin(vel_heading))


def _track(start: Point, vel: Point, times: Sequence[float]) -> tuple[Point, ...]:
    (x, y), (vx, vy) = start, vel
    return tuple((x + t * vx, y + t * vy) for t in times)


def _min_gap(track: Sequence[Point], path: Sequence[Sequence[float]]) -> float:
    """Smallest same-step distance, as ``np.linalg.norm(track - path, axis=1).min()``."""
    gaps = []
    for (x, y), (px, py) in zip(track, path):
        dx, dy = x - px, y - py
        gaps.append(math.sqrt(dx * dx + dy * dy))
    return min(gaps)


def _make_agents(
    rng: np.random.Generator,
    clip_id: str,
    plan_future: list[list[float]],
    v: float,
    horizon: int,
    agent_rate: float,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Agent ids, starts and tracks: the last three fields of a :class:`ClipTruth`."""
    n_agents = int(rng.poisson(agent_rate))
    times = [t * FRAME_DT for t in range(1, horizon + 1)]
    anchored_points = [[0.0, 0.0], *plan_future]
    starts, tracks = [], []
    for _ in range(n_agents):
        for _ in range(20):
            start, vel = _draw_agent(rng, anchored_points, v, horizon)
            track = _track(start, vel, times)
            if _min_gap(track, plan_future) >= AGENT_CLEARANCE:
                break
        else:
            # Could not place it near the path with clearance: park it far out.
            angle = _uniform(rng, 0.0, 2.0 * math.pi)
            start = (25.0 * math.cos(angle), 25.0 * math.sin(angle))
            track = _track(start, (0.0, 0.0), times)
        starts.append(start)
        tracks.append(track)
    ids = tuple(f"{clip_id}-a{j}" for j in range(n_agents))
    return ids, np.array(starts, dtype=float).reshape(-1, 2), np.array(tracks, dtype=float).reshape(-1, horizon, 2)


def _generate_clips(config: WorldConfig, lo: int, hi: int) -> tuple[list[ClipRecord], dict[str, ClipTruth]]:
    """Clips ``lo`` to ``hi - 1`` of the world and their truth. Clip ``i``
    draws from ``SeedSequence(seed, spawn_key=(i,))``, which is
    ``SeedSequence(seed).spawn(n_clips)[i]``."""
    total_steps = HISTORY_FRAMES + config.horizon
    bucket_cdf = _choice_cdf(config.bucket_probs)
    maneuver_cdf = _choice_cdf(config.maneuver_probs)
    clips: list[ClipRecord] = []
    truth: dict[str, ClipTruth] = {}
    for i in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
        clip_id = f"clip_{i:06d}"
        bucket = BUCKETS[_choose(rng, bucket_cdf)]
        maneuver = COMMAND_CLASSES[_choose(rng, maneuver_cdf)]
        v = _uniform(rng, 2.0, 15.0)

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

        commands = _commands_from_curvature(kappa)
        clip = ClipRecord(
            id=clip_id,
            weather="Sunny" if bucket[1] == "S" else "Rainy",
            lighting="Day" if bucket[0] == "D" else "Night",
            speeds=(v,) * len(commands),
            commands=commands,
            gt_future=tuple(map(tuple, gt_future.tolist())),
        )
        clips.append(clip)
        agents = _make_agents(rng, clip_id, plan_future.tolist(), v, config.horizon, config.agent_rate)
        truth[clip_id] = ClipTruth(clip_id, gt_future, *agents)
    return clips, truth


def generate_world(config: WorldConfig) -> tuple[list[ClipRecord], dict[str, ClipTruth]]:
    """Generate the clip pool and its hidden truth; identical seeds give
    identical output."""
    return _generate_clips(config, 0, config.n_clips)


# ---------------------------------------------------------------------------
# Truth file (JSONL, parallel to the pool file by clip_id)
# ---------------------------------------------------------------------------


def truth_to_dict(t: ClipTruth) -> dict:
    return {
        "clip_id": t.clip_id,
        "ego_future": t.ego_future.tolist(),
        "agents": [
            {"agent_id": agent_id, "start": start, "track": track}
            for agent_id, start, track in zip(t.agent_ids, t.starts.tolist(), t.tracks.tolist())
        ],
    }


def save_truth(truth: Mapping[str, ClipTruth], path: str | os.PathLike) -> None:
    """Write the truth records in the mapping's order."""
    write_jsonl(path, map(truth_to_dict, truth.values()))


_TRUTH_FIELDS = frozenset({"clip_id", "ego_future", "agents"})
_TRUTH_AGENT_FIELDS = frozenset({"agent_id", "start", "track"})


def _truth_from_dict(record: dict, horizon: int) -> ClipTruth:
    _check_fields(record, _TRUTH_FIELDS, "record")
    agents = [_check_fields(a, _TRUTH_AGENT_FIELDS, "agent") for a in record["agents"]]
    ids = tuple(_check_string(a["agent_id"], "agent_id") for a in agents)
    tracks = [_check_path(a["track"], horizon, f"agent {agent_id} track") for agent_id, a in zip(ids, agents)]
    return ClipTruth(
        record["clip_id"],
        np.array(_check_path(record["ego_future"], horizon, "ego_future"), dtype=float),
        ids,
        np.array([_check_finite_point(a["start"]) for a in agents], dtype=float).reshape(-1, 2),
        np.array(tracks, dtype=float).reshape(-1, horizon, 2),
    )


def load_truth(path: str | os.PathLike, horizon: int = 6) -> dict[str, ClipTruth]:
    """Load a truth file; every future and agent track has ``horizon`` finite
    points, and every ``agent_id`` is a JSON string."""
    return read_jsonl(path, "truth", "clip_id", partial(_truth_from_dict, horizon=horizon))


GEN_CHUNK = 250  # clips per generation task; bounds gen's memory


def _encode_chunk(config: WorldConfig, bounds: tuple[int, int]) -> tuple[bytes, bytes]:
    """The pool lines and the truth lines of clips ``bounds[0]`` to
    ``bounds[1] - 1``, as :func:`save_pool` and :func:`save_truth` write them."""
    clips, truth = _generate_clips(config, *bounds)
    return (
        b"".join(encode_line(clip_to_dict(c)) + b"\n" for c in clips),
        b"".join(encode_line(truth_to_dict(t)) + b"\n" for t in truth.values()),
    )


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def generate_pool(config: WorldConfig, pool_path: str | os.PathLike, truth_path: str | os.PathLike) -> None:
    """Generate and write the pool and truth files (byte-stable). Both are
    written in full before either is renamed into place, so a failure leaves
    neither.

    Chunks of ``GEN_CHUNK`` clips are generated and encoded by one forked
    worker process per available CPU (in this process when that is one), and
    written here in clip order, so memory does not grow with the pool. A
    worker's exception reaches the caller, and a worker that dies raises
    ``BrokenProcessPool``.
    """
    # Imported here, not at module level: only gen pays for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunks = [(lo, min(lo + GEN_CHUNK, config.n_clips)) for lo in range(0, config.n_clips, GEN_CHUNK)]
    workers = min(_cpu_count(), len(chunks))
    task = partial(_encode_chunk, config)
    with atomic_outputs(pool_path, truth_path) as (pool_tmp, truth_tmp), ExitStack() as stack:
        if workers == 1:
            encoded = map(task, chunks)
        else:
            # fork, not spawn: spawned workers import numpy again, which added
            # 0.2-0.5 s to a 2 s gen of 10k clips. The executor forks all its
            # workers at the first submit, before it starts any thread.
            executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            # Leaving the block drops the chunks not yet started and joins the workers.
            stack.callback(executor.shutdown, cancel_futures=True)
            encoded = executor.map(task, chunks)
        with open(pool_tmp, "wb") as pool_fh, open(truth_tmp, "wb") as truth_fh:
            for pool_bytes, truth_bytes in encoded:
                pool_fh.write(pool_bytes)
                truth_fh.write(truth_bytes)


# ---------------------------------------------------------------------------
# Toy planner
# ---------------------------------------------------------------------------

SPEED_SCALE = 15.0  # m/s; normalizes the speed feature to roughly [0, 1]
KNN_BLOCK = 128     # queries per k-NN block; bounds the distance arrays
# Clips in different strata differ in at least two one-hot entries, so their
# computed feature distance is never below this.
STRATUM_GAP = math.sqrt(2.0)


def _agents_of(truths: Sequence[ClipTruth], horizon: int) -> tuple[np.ndarray, ...]:
    """Every agent of ``truths``, in order, as arrays: its row in ``truths``,
    its id, start (A, 2) and track (A, ``horizon``, 2)."""
    counts = [len(t.agent_ids) for t in truths]
    return (
        np.repeat(np.arange(len(truths), dtype=np.intp), counts),
        np.array([agent_id for t in truths for agent_id in t.agent_ids], dtype=object),
        np.concatenate([np.empty((0, 2)), *(t.starts for t in truths)]),
        np.concatenate([np.empty((0, horizon, 2)), *(t.tracks for t in truths)]),
    )


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
        self._exemplar_feats = np.stack([self._features(self._clips[clip_id]) for clip_id in ids])
        self._exemplar_futures = np.stack([self._truth[clip_id].ego_future for clip_id in ids])

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
        rows, agent_ids, starts, tracks = _agents_of([self._truth[clip_id] for clip_id in clip_ids], horizon)
        d0 = _norms(starts)
        keep = np.flatnonzero(d0 <= self.AGENT_RADIUS)
        rows, agent_ids, starts, tracks = rows[keep], agent_ids[keep], starts[keep], tracks[keep]
        vel = (tracks[:, 0] - starts) / FRAME_DT
        steps = np.arange(1, horizon + 1)[:, None] * FRAME_DT
        n_modes = len(self.MODALITY_ANGLES)
        trajs = np.empty((len(rows), n_modes, horizon, 2))
        endpoint_err = np.empty((len(rows), n_modes))
        for m, angle_deg in enumerate(self.MODALITY_ANGLES):
            # One rotation per modality, applied as stacked 2x2 @ 2x1 products.
            rot_vel = np.matmul(_rotation(math.radians(angle_deg)), vel[:, :, None])[:, :, 0]
            trajs[:, m] = starts[:, None, :] + steps * rot_vel[:, None, :]
            endpoint_err[:, m] = _norms(trajs[:, m, -1] - tracks[:, -1])
        logits = -endpoint_err / self.ENDPOINT_SCALE
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        # math.exp, not np.exp: the two round differently in the last bit.
        confidence = [math.exp(-d / self.AGENT_RADIUS) for d in d0[keep].tolist()]
        return PredictionBatch(
            clip_ids=tuple(clip_ids),
            ego_plans=np.zeros((len(clip_ids), horizon, 2)),
            agent_clip=rows,
            agent_ids=agent_ids,
            confidence=np.array(confidence, dtype=float),
            modality_counts=np.full(len(rows), n_modes, dtype=np.intp),
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
    truths = [truth[c.id] for c in clips]
    step_errors = _distances(plans, np.stack([t.ego_future for t in truths]))
    rows, _, _, paths = _agents_of(truths, plans.shape[1])
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
