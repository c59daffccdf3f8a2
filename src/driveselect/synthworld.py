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
and its A agents' ids, starts (A, 2) and tracks (A, H, 2). A loaded truth
file is a :class:`TruthTable`, the same arrays for every clip, whose rows are
ClipTruth views; the planner and evaluation index its columns. The truth file
holds the same floats: written with ``.tolist()``, read back with the pool's
waypoint checks.

Generation is bit-stable, and changing it changes the written files. Clip
``i`` draws from ``SeedSequence(seed, spawn_key=(i,))``, which is
``SeedSequence(seed).spawn(n_clips)[i]``, so any range of clips can be
generated on its own: ``generate_pool`` generates chunks of them in forked
children. One draw pass gives each clip's values; ``generate_world`` wraps
them in records, and ``generate_pool`` turns them straight into the pool and
truth lines. Each clip draws always in the same order: bucket, maneuver, speed,
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
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterator, Sequence

import numpy as np
import orjson

from .criteria import AGENT_BLOCK, ClipPrediction, PredictionBatch, _distances, prediction_batch
from .pool import (
    BUCKETS,
    COMMAND_CLASSES,
    LIGHTING_VALUES,
    WEATHER_VALUES,
    AgentTable,
    ClipRecord,
    ClipTable,
    _COMMAND_SET,
    _check_fields,
    _check_finite_point,
    _check_list,
    _check_path,
    _check_string,
    _fork_count,
    _forked,
    _joined,
    _nested_block,
    _NotColumnar,
    _numbers,
    _pair_numbers,
    _path_numbers,
    _unchecked,
    atomic_outputs,
    clip_table,
    encode_line,
    orjson_exact,
    read_table,
    share_pool_ids,
    with_horizon,
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.agent_rate >= 0 and math.isfinite(self.agent_rate)):
            raise ValueError(f"agent_rate must be finite and >= 0, got {self.agent_rate}")
        if not (self.noise_scale >= 0 and math.isfinite(self.noise_scale)):
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")


@dataclass(frozen=True, eq=False)
class ClipTruth:
    """Hidden ground truth for one clip: revealed only to evaluation and,
    for labeled clips, to the provider. Its A agents move at constant
    velocity in the clip's local frame. The rows of a :class:`TruthTable`
    are ClipTruth views whose arrays are slices of the table's columns.
    Readers share the arrays, so none may write to them."""

    clip_id: str
    ego_future: np.ndarray         # (H, 2)
    agent_ids: tuple[str, ...]     # (A,)
    starts: np.ndarray             # (A, 2)
    tracks: np.ndarray             # (A, H, 2)


@dataclass(frozen=True, eq=False)
class TruthTable(AgentTable):
    """The truth of N clips as columns, with their A agents clip by clip.

    A Mapping from clip id to a :class:`ClipTruth` view of that clip's rows.
    Readers share the arrays, so none may write to them. A truth read
    beside its pool (:func:`share_pool`) holds the pool's id tuple and looks
    ids up in the pool's index when its ids are the pool's in order, and
    holds the pool's ``gt_future`` as its ``ego_future`` when the two are
    equal bit for bit, as in every generated world.
    """

    clip_ids: tuple[str, ...]
    ego_future: np.ndarray         # (N, H, 2)
    agent_clip: np.ndarray         # (A,) row of each agent's clip, non-decreasing
    agent_ids: np.ndarray          # (A,) str objects
    starts: np.ndarray             # (A, 2)
    tracks: np.ndarray             # (A, H, 2)

    def __post_init__(self) -> None:
        self._index_agents("truth table", {
            "N": [("clip_ids", 0), ("ego_future", 0)],
            "A": [("agent_clip", 0), ("agent_ids", 0), ("starts", 0), ("tracks", 0)],
            "H": [("ego_future", 1), ("tracks", 1)],
        }, {"ego_future": 3, "starts": 2, "tracks": 3})

    def _view(self, clip_id: str, row: int, agents: slice) -> ClipTruth:
        return _unchecked(
            ClipTruth, clip_id, self.ego_future[row], tuple(self.agent_ids[agents].tolist()),
            self.starts[agents], self.tracks[agents],
        )

    def _taken(self, ids: tuple[str, ...], rows: np.ndarray, agents: np.ndarray, owners: np.ndarray) -> TruthTable:
        return TruthTable(ids, self.ego_future[rows], owners, self.agent_ids[agents], self.starts[agents],
                          self.tracks[agents])


def truth_table(truth: Mapping[str, ClipTruth]) -> TruthTable:
    """``truth`` as a table: a TruthTable as it is, and any other mapping
    from clip id converted, in its order."""
    if isinstance(truth, TruthTable):
        return truth
    rows = list(truth.values())
    horizon = len(rows[0].ego_future) if rows else 0
    return TruthTable(
        clip_ids=tuple(truth),
        ego_future=np.array([t.ego_future for t in rows], dtype=float).reshape(len(rows), horizon, 2),
        agent_clip=np.repeat(np.arange(len(rows)), [len(t.agent_ids) for t in rows]),
        agent_ids=np.array([agent_id for t in rows for agent_id in t.agent_ids], dtype=object),
        starts=np.concatenate([np.empty((0, 2)), *(t.starts for t in rows)]),
        tracks=np.concatenate([np.empty((0, horizon, 2)), *(t.tracks for t in rows)]),
    )


def share_pool(truth: TruthTable, clips: ClipTable) -> None:
    """Make ``truth``, read beside the pool ``clips``, hold the pool's ids
    and look them up in the pool's index when its clip ids are the pool's
    in the pool's order (:func:`~driveselect.pool.share_pool_ids`), as in
    every generated world; and, when its ``ego_future`` then also equals
    the pool's ``gt_future`` bit for bit (0.0 is not -0.0), hold the pool's
    array too. Any other truth is left as it is."""
    if share_pool_ids(truth, clips) and np.array_equal(truth.ego_future.view(np.int64),
                                                       clips.gt_future.view(np.int64)):
        object.__setattr__(truth, "ego_future", clips.gt_future)


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
    steps = np.empty((len(theta), 2))
    np.cos(theta, out=steps[:, 0])
    np.sin(theta, out=steps[:, 1])
    steps *= v * FRAME_DT
    return np.cumsum(steps, axis=0), theta


def _commands_from_curvature(kappa: np.ndarray) -> tuple[str, ...]:
    history = kappa[:HISTORY_FRAMES]
    signs = (history > 1e-12).astype(np.int8) - (history < -1e-12)  # indices 0, 1 and -1
    return tuple(map(("Straight", "Left", "Right").__getitem__, signs.tolist()))


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


def _track(start: Point, vel: Point, times: Sequence[float], path: Sequence[Sequence[float]]) -> tuple[tuple, float]:
    """The agent's points at ``times``, and its smallest same-step distance
    to ``path``, as ``np.linalg.norm(track - path, axis=1).min()``."""
    (x, y), (vx, vy) = start, vel
    track, gap = [], math.inf
    for t, (px, py) in zip(times, path):
        tx, ty = x + t * vx, y + t * vy
        track.append((tx, ty))
        dx, dy = tx - px, ty - py
        d = math.sqrt(dx * dx + dy * dy)
        if d < gap:
            gap = d
    return tuple(track), gap


def _make_agents(
    rng: np.random.Generator, clip_id: str, plan_future: list[list[float]], v: float, agent_rate: float
) -> tuple[tuple[str, ...], list[Point], list[tuple[Point, ...]]]:
    """Agent ids, starts and tracks."""
    n_agents = int(rng.poisson(agent_rate))
    horizon = len(plan_future)
    times = [t * FRAME_DT for t in range(1, horizon + 1)]
    anchored_points = [[0.0, 0.0], *plan_future]
    starts, tracks = [], []
    for _ in range(n_agents):
        for _ in range(20):
            start, vel = _draw_agent(rng, anchored_points, v, horizon)
            track, gap = _track(start, vel, times, plan_future)
            if gap >= AGENT_CLEARANCE:
                break
        else:
            # Could not place it near the path with clearance: park it far out.
            angle = _uniform(rng, 0.0, 2.0 * math.pi)
            start = (25.0 * math.cos(angle), 25.0 * math.sin(angle))
            track, _ = _track(start, (0.0, 0.0), times, plan_future)
        starts.append(start)
        tracks.append(track)
    return tuple(f"{clip_id}-a{j}" for j in range(n_agents)), starts, tracks


def _draws(config: WorldConfig, lo: int, hi: int) -> Iterator[tuple]:
    """The drawn values of clips ``lo`` to ``hi - 1``, one tuple per clip:
    id, weather, lighting, speed, commands, recorded future (H, 2), and its
    agents' ids, starts and tracks as Python tuples. Clip ``i`` draws from
    ``SeedSequence(seed, spawn_key=(i,))``, which is
    ``SeedSequence(seed).spawn(n_clips)[i]``."""
    total_steps = HISTORY_FRAMES + config.horizon
    bucket_cdf = _choice_cdf(config.bucket_probs)
    maneuver_cdf = _choice_cdf(config.maneuver_probs)
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
        agents = _make_agents(rng, clip_id, plan_future.tolist(), v, config.agent_rate)
        weather, lighting = "Sunny" if bucket[1] == "S" else "Rainy", "Day" if bucket[0] == "D" else "Night"
        yield (clip_id, weather, lighting, v, _commands_from_curvature(kappa), gt_future, *agents)


def _generate_clips(config: WorldConfig, lo: int, hi: int) -> tuple[list[ClipRecord], dict[str, ClipTruth]]:
    """Clips ``lo`` to ``hi - 1`` of the world and their truth."""
    clips: list[ClipRecord] = []
    truth: dict[str, ClipTruth] = {}
    for clip_id, weather, lighting, v, commands, gt_future, agent_ids, starts, tracks in _draws(config, lo, hi):
        clips.append(ClipRecord(clip_id, weather, lighting, (v,) * len(commands), commands,
                                tuple(map(tuple, gt_future.tolist()))))
        truth[clip_id] = ClipTruth(clip_id, gt_future, agent_ids, np.array(starts, dtype=float).reshape(-1, 2),
                                   np.array(tracks, dtype=float).reshape(-1, config.horizon, 2))
    return clips, truth


def generate_world(config: WorldConfig) -> tuple[list[ClipRecord], dict[str, ClipTruth]]:
    """Generate the clip pool and its hidden truth; identical seeds give
    identical output."""
    return _generate_clips(config, 0, config.n_clips)


# ---------------------------------------------------------------------------
# Truth file (JSONL, parallel to the pool file by clip_id)
# ---------------------------------------------------------------------------


def _truth_dict(clip_id: str, ego_future: list, agent_ids: Sequence[str], starts: Sequence, tracks: Sequence) -> dict:
    agents = [{"agent_id": a, "start": start, "track": track} for a, start, track in zip(agent_ids, starts, tracks)]
    return {"clip_id": clip_id, "ego_future": ego_future, "agents": agents}


def truth_to_dict(t: ClipTruth) -> dict:
    return _truth_dict(t.clip_id, t.ego_future.tolist(), t.agent_ids, t.starts.tolist(), t.tracks.tolist())


def save_truth(truth: Mapping[str, ClipTruth], path: str | os.PathLike) -> None:
    """Write the truth records in the mapping's order."""
    write_jsonl(path, map(truth_to_dict, truth.values()))


# In column order: the id first, and a truth record's agents last.
_TRUTH_FIELDS = ("clip_id", "ego_future", "agents")
_TRUTH_AGENT_FIELDS = ("agent_id", "start", "track")


def _truth_from_dict(record: dict, horizon: int) -> ClipTruth:
    _check_fields(record, _TRUTH_FIELDS, "record")
    ego_future = np.array(_check_path(record["ego_future"], horizon, "ego_future"), dtype=float)
    agents = [_check_fields(a, _TRUTH_AGENT_FIELDS, "agent") for a in _check_list(record["agents"], "agents")]
    ids = tuple(_check_string(a["agent_id"], "agent_id") for a in agents)
    tracks = [_check_path(a["track"], horizon, f"agent {agent_id} track") for agent_id, a in zip(ids, agents)]
    starts = [_check_finite_point(a["start"], f"agent {agent_id} start") for agent_id, a in zip(ids, agents)]
    return ClipTruth(
        record["clip_id"], ego_future, ids,
        np.array(starts, dtype=float).reshape(-1, 2),
        np.array(tracks, dtype=float).reshape(-1, horizon, 2),
    )


def _truth_block(records: list, horizon: int) -> tuple:
    """The column parts of a block of truth records, whose values it checks."""
    (ids, egos), counts, (agent_ids, starts, tracks) = _nested_block(records, _TRUTH_FIELDS, _TRUTH_AGENT_FIELDS)
    ego, start, track = _path_numbers(egos, horizon), _pair_numbers(starts), _path_numbers(tracks, horizon)
    numbers = _numbers(ego + start + track)
    if not np.isfinite(numbers).all():
        raise _NotColumnar
    egos, starts, tracks = np.split(numbers, [len(ego), len(ego) + len(start)])
    return ids, counts, agent_ids, egos.reshape(-1, horizon, 2), starts.reshape(-1, 2), tracks.reshape(-1, horizon, 2)


def _truth_table(parts: list[tuple]) -> TruthTable:
    """The table of a truth file's block parts, which it consumes."""
    ids, counts, agent_ids, ego_future, starts, tracks = _joined(parts)
    n = len(ego_future)
    return TruthTable(tuple(ids), ego_future, np.repeat(np.arange(n), np.fromiter(counts, np.intp, n)),
                      np.fromiter(agent_ids, object, len(starts)), starts, tracks)


def load_truth(path: str | os.PathLike, horizon: int | None = 6) -> TruthTable:
    """Load a truth file into a table; every future and agent track has ``horizon`` finite
    points (None: :func:`with_horizon`), and every ``agent_id`` is a JSON string."""
    path, horizon = with_horizon(path, horizon, "ego_future")
    return read_table(path, "truth", "clip_id", partial(_truth_block, horizon=horizon), _truth_table,
                      partial(_truth_from_dict, horizon=horizon))


GEN_CHUNK = 250  # clips per generation task; bounds gen's memory


def _exact_clips(draws: list[tuple], horizon: int) -> np.ndarray:
    """Whether ``orjson.dumps`` writes each clip's lines as :func:`encode_line`
    does: every float of the clip passes :func:`orjson_exact`, and every id
    of the chunk is ASCII with no DEL (weather, lighting and commands are
    known values). Checked over the chunk's values at once."""
    exact = orjson_exact(np.array([draw[3] for draw in draws]))
    exact &= orjson_exact(np.array([draw[5] for draw in draws])).all(axis=(1, 2))
    starts = np.fromiter(chain.from_iterable(chain.from_iterable(draw[7] for draw in draws)), float)
    track_points = chain.from_iterable(chain.from_iterable(draw[8] for draw in draws))
    tracks = np.fromiter(chain.from_iterable(track_points), float)
    owners = np.repeat(np.arange(len(draws)), [len(draw[6]) for draw in draws])
    agents = orjson_exact(starts).reshape(-1, 2).all(axis=1) & orjson_exact(tracks).reshape(-1, 2 * horizon).all(axis=1)
    exact[owners[~agents]] = False
    ids = "".join(chain((draw[0] for draw in draws), chain.from_iterable(draw[6] for draw in draws)))
    return exact if ids.isascii() and "\x7f" not in ids else np.zeros_like(exact)


def _encode_chunk(config: WorldConfig, bounds: tuple[int, int]) -> tuple[list[bytes], list[bytes]]:
    """The pool lines and the truth lines of clips ``bounds[0]`` to
    ``bounds[1] - 1``, as :func:`save_pool` and :func:`save_truth` write
    them, built straight from the draws; as lists, since joining them raised
    gen's peaks by about 2 MB. :class:`ClipRecord`'s rules are checked over
    the chunk at once; a chunk that breaks one is drawn again as records,
    whose first bad one raises. A clip that :func:`_exact_clips` passes is
    encoded by orjson alone, any other by :func:`encode_line`."""
    draws = list(_draws(config, *bounds))
    if not all(draw[0] and draw[1] in WEATHER_VALUES and draw[2] in LIGHTING_VALUES and 0.0 <= draw[3] < math.inf
               and draw[4] and _COMMAND_SET.issuperset(draw[4]) and len(draw[5]) for draw in draws):
        _generate_clips(config, *bounds)
    pool_lines, truth_lines = [], []
    for draw, exact in zip(draws, _exact_clips(draws, config.horizon).tolist()):
        clip_id, weather, lighting, v, commands, gt_future, agent_ids, starts, tracks = draw
        encode = orjson.dumps if exact else encode_line
        frames = [{"speed": v, "command": command} for command in commands]
        future = gt_future.tolist()
        pool_lines.append(encode(
            {"id": clip_id, "weather": weather, "lighting": lighting, "frames": frames, "gt_future": future}) + b"\n")
        truth_lines.append(encode(_truth_dict(clip_id, future, agent_ids, starts, tracks)) + b"\n")
    return pool_lines, truth_lines


def generate_pool(config: WorldConfig, pool_path: str | os.PathLike, truth_path: str | os.PathLike) -> None:
    """Generate and write the pool and truth files (byte-stable). Both are
    written in full before either is renamed into place, so a failure leaves
    neither.

    Chunks of ``GEN_CHUNK`` clips are generated and encoded by one forked
    child per CPU it may run on, chunk ``j`` by child ``j`` modulo their
    count, and received and written here in clip order: this process only
    writes, and memory does not grow with the pool. The chunks run in this
    process where :func:`~driveselect.pool._fork_count` gives one: one CPU,
    one chunk, or another live thread. A child's exception reaches the
    caller, and a child that ends without its result raises
    ChildProcessError naming the outputs.
    """
    chunks = [(lo, min(lo + GEN_CHUNK, config.n_clips)) for lo in range(0, config.n_clips, GEN_CHUNK)]
    task = partial(_encode_chunk, config)
    workers = _fork_count(len(chunks))
    streams = [map(task, chunks[k::workers]) for k in range(workers)] if workers > 1 else []
    label = f"pool file {os.fspath(pool_path)} and truth file {os.fspath(truth_path)}: generator"
    with atomic_outputs(pool_path, truth_path) as (pool_tmp, truth_tmp), _forked(label, streams) as receivers:
        encoded = (receivers[j % workers]() for j in range(len(chunks))) if receivers else map(task, chunks)
        with open(pool_tmp, "wb") as pool_fh, open(truth_tmp, "wb") as truth_fh:
            for pool_lines, truth_lines in encoded:
                pool_fh.writelines(pool_lines)
                truth_fh.writelines(truth_lines)


# ---------------------------------------------------------------------------
# Toy planner
# ---------------------------------------------------------------------------

SPEED_SCALE = 15.0  # m/s; normalizes the speed feature to roughly [0, 1]
#: Rows x exemplars x features per block of the all-exemplar k-NN path;
#: bounds its difference array at 512 KiB.
KNN_ELEMENTS = 2**16
# Clips in different strata differ in at least two one-hot entries, so their
# computed feature distance is never below this.
STRATUM_GAP = math.sqrt(2.0)


def _strata(feats: np.ndarray) -> np.ndarray:
    """(bucket, command) stratum code of each feature row."""
    n_b = len(BUCKETS)
    return feats[:, :n_b].argmax(axis=1) * len(COMMAND_CLASSES) + feats[:, n_b:-1].argmax(axis=1)


def _speed_distances(queries: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """sqrt(gap * gap) of the speed-feature gaps. Within a stratum the
    one-hot terms are exact zeros, so this equals the full feature norm bit
    for bit."""
    gap = queries - speeds
    return np.sqrt(gap * gap)


def _window_nearest(queries: np.ndarray, speeds: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest of one stratum's id-ordered exemplar ``speeds`` to each
    query speed, by (distance, index), searched in a window of min(2k, n)
    exemplars around the query in speed order; and which rows must take the
    exact all-exemplar path instead.

    A computed distance never falls as an exemplar's speed moves away from
    the query's on either side (rounding is monotone), so every exemplar
    outside the window is at least as far as the one just left or just right
    of it. A row whose two neighbours are both strictly farther than its
    k-th distance has its k nearest in the window; any other row, and any
    row whose k-th distance reaches ``STRATUM_GAP``, is flagged.
    """
    n = len(speeds)
    by_speed = np.argsort(speeds, kind="stable")
    sorted_speeds = speeds[by_speed]
    width = min(2 * k, n)
    lo = np.clip(np.searchsorted(sorted_speeds, queries) - k, 0, n - width)
    # Back in exemplar order, so the stable argsort breaks ties by index.
    candidates = np.sort(by_speed[lo[:, None] + np.arange(width)], axis=1)
    dists = _speed_distances(queries[:, None], speeds[candidates])
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    kth = np.take_along_axis(dists, order[:, -1:], axis=1)[:, 0]
    exact = kth >= STRATUM_GAP
    for edge in (lo - 1, lo + width):
        rows = np.flatnonzero((edge >= 0) & (edge < n))
        exact[rows] |= _speed_distances(queries[rows], sorted_speeds[edge[rows]]) <= kth[rows]
    return np.take_along_axis(candidates, order, axis=1), exact


def _nearest_all(queries: np.ndarray, exemplars: np.ndarray, k: int) -> np.ndarray:
    """The k nearest exemplars of each query over all of them, by the full
    feature norm and a stable argsort over the id-ordered exemplars, in
    blocks of at most ``KNN_ELEMENTS`` difference elements."""
    nearest = np.empty((len(queries), k), dtype=np.intp)
    step = max(1, KNN_ELEMENTS // exemplars.size)
    for lo in range(0, len(queries), step):
        dists = np.linalg.norm(queries[lo : lo + step, None, :] - exemplars[None, :, :], axis=2)
        nearest[lo : lo + step] = np.argsort(dists, axis=1, kind="stable")[:, :k]
    return nearest


class ToyPlanner:
    """k-nearest-neighbor planner over cheap clip features.

    Training stores one exemplar per labeled clip, keyed by (bucket one-hot,
    command one-hot, mean speed / 15). Prediction averages the true futures of
    the k nearest exemplars, so it is only accurate where the labeled set is
    locally dense; before any training it falls back to constant-velocity
    extrapolation. The search is exact but stratum-local: within a (bucket,
    command) stratum the feature distance is the speed gap, and other strata
    are at least ``STRATUM_GAP`` away. So a query looks only at the 2k
    exemplars of its stratum nearest its speed (:func:`_window_nearest`),
    and a round costs O(Q k) after one sort of each stratum's speeds. A row
    whose window cannot be proven to hold its k nearest (a tie at the
    window's edge), whose stratum has fewer than k exemplars, or whose k-th
    distance reaches ``STRATUM_GAP`` takes the all-exemplar search, in
    blocks of at most ``KNN_ELEMENTS`` difference elements. Agent forecasts
    are built from the true agent tracks (a deliberate oracle shortcut) with
    three rotated constant-velocity modalities. They do not depend on
    training, so ``predict`` builds them per call, for the asked clips only,
    after the plans and from each track's first and last points, and returns
    them with the plans as one :class:`PredictionBatch`.
    """

    MODALITY_ANGLES = (-15.0, 0.0, 15.0)  # degrees
    AGENT_RADIUS = 30.0    # meters; agents starting farther out get no forecast
    ENDPOINT_SCALE = 5.0   # meters; softmax temperature of the modality probabilities

    def __init__(
        self,
        clips: ClipTable | Sequence[ClipRecord],
        truth: Mapping[str, ClipTruth],
        *,
        tau_c: int = 4,
        n_neighbors: int = 5,
    ):
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        self._clips = clip_table(clips)
        self._truth = truth_table(truth)
        self.tau_c = tau_c
        self.n_neighbors = n_neighbors
        self.trained_ids: tuple[str, ...] = ()
        self._exemplar_feats: np.ndarray | None = None
        self._exemplar_futures: np.ndarray | None = None
        # Every clip's features, built once: bucket one-hot, command one-hot,
        # mean speed / SPEED_SCALE.
        n = len(self._clips)
        self._mean_speeds = self._clips.mean_speeds()
        self._features = np.zeros((n, len(BUCKETS) + len(COMMAND_CLASSES) + 1))
        self._features[np.arange(n), self._clips.buckets()] = 1.0
        self._features[np.arange(n), len(BUCKETS) + self._clips.command_classes(tau_c)] = 1.0
        self._features[:, -1] = self._mean_speeds / SPEED_SCALE

    def train(self, labeled_ids: Sequence[str]) -> None:
        """Store exemplars for the labeled clips; their truth is now revealed."""
        ids = list(labeled_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("labeled set contains duplicate clip ids")
        ids.sort()  # stable exemplar order: ties in feature distance break by id
        # Every lookup before any state changes: a bad id leaves the planner as it was.
        try:
            clip_rows = self._clips.rows_of(ids)
        except KeyError as e:
            raise KeyError(f"clip {e.args[0]!r} is not in the planner's pool") from None
        truth_rows = self._truth.rows_of(ids)
        self.trained_ids = tuple(ids)
        if not ids:
            self._exemplar_feats = None
            self._exemplar_futures = None
            return
        self._exemplar_feats = self._features[clip_rows]
        self._exemplar_futures = self._truth.ego_future[truth_rows]

    @property
    def is_trained(self) -> bool:
        return self._exemplar_feats is not None

    def _plans(self, clip_rows: np.ndarray) -> np.ndarray:
        """The k-NN plans of the clips at the given table rows."""
        horizon = self._clips.horizon
        steps = np.arange(1, horizon + 1) * FRAME_DT
        if not self.is_trained:
            plans = np.zeros((len(clip_rows), horizon, 2))
            plans[:, :, 0] = self._mean_speeds[clip_rows, None] * steps
            return plans
        queries = self._features[clip_rows]
        exemplars = self._exemplar_feats
        k = min(self.n_neighbors, len(exemplars))
        q_strata, e_strata = _strata(queries), _strata(exemplars)
        nearest = np.empty((len(queries), k), dtype=np.intp)
        exact = np.zeros(len(queries), dtype=bool)
        # The strata present, ascending; np.unique would import numpy.ma.
        for stratum in np.flatnonzero(np.bincount(q_strata)):
            rows = np.flatnonzero(q_strata == stratum)
            local = np.flatnonzero(e_strata == stratum)
            if len(local) < k:
                exact[rows] = True
                continue
            found, exact[rows] = _window_nearest(queries[rows, -1], exemplars[local, -1], k)
            nearest[rows] = local[found]
        rows = np.flatnonzero(exact)
        if len(rows):
            nearest[rows] = _nearest_all(queries[rows], exemplars, k)
        # .mean(axis=1) of the k futures without its (Q, k, H, 2) copy: the
        # same sum from 0.0 in neighbour order (so -0.0 turns to 0.0), over k.
        plans = np.zeros((len(queries), horizon, 2))
        for j in range(k):
            plans += self._exemplar_futures[nearest[:, j]]
        plans /= k
        return plans

    def predict(self, ids: Sequence[str]) -> Mapping[str, ClipPrediction]:
        """The plans and agent forecasts of the given clips, as one
        :class:`PredictionBatch` in that order; no row depends on the others."""
        clip_rows = self._clips.rows_of(ids)
        if not len(clip_rows):
            return {}
        truth_rows = self._truth.rows_of(ids)
        # The plans first: their temporaries are freed before the forecasts exist.
        plans = self._plans(clip_rows)
        agents, rows = self._truth.items_of(truth_rows)
        d0 = _norms(self._truth.starts[agents])
        keep = np.flatnonzero(d0 <= self.AGENT_RADIUS)
        rows, agents, d0 = rows[keep], agents[keep], d0[keep]
        # math.exp, not np.exp: the two round differently in the last bit.
        confidence = np.fromiter((math.exp(-d / self.AGENT_RADIUS) for d in d0.tolist()), float, len(d0))
        probs, trajs = self._modalities(agents)
        return PredictionBatch(
            clip_ids=tuple(ids),
            ego_plans=plans,
            agent_clip=rows,
            agent_ids=self._truth.agent_ids[agents],
            confidence=confidence,
            modality_counts=np.full(len(rows), len(self.MODALITY_ANGLES), dtype=np.intp),
            modality_probs=probs,
            modality_trajs=trajs,
        )

    def _modalities(self, agents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The modality probabilities (A, M) and trajectories (A, M, H, 2) of
        the given truth agents. Only each track's first and last points are
        read, and they are written ``AGENT_BLOCK`` agents at a time into the
        two arrays, each modality in place: no row depends on another, so
        the temporaries are a block's and the rows equal one whole pass."""
        horizon = self._clips.horizon
        steps = np.arange(1, horizon + 1)[:, None] * FRAME_DT
        rotations = [_rotation(math.radians(angle_deg)) for angle_deg in self.MODALITY_ANGLES]
        probs = np.empty((len(agents), len(rotations)))
        trajs = np.empty((len(agents), len(rotations), horizon, 2))
        for lo in range(0, len(agents), AGENT_BLOCK):
            block = agents[lo : lo + AGENT_BLOCK]
            starts = self._truth.starts[block]
            vel = (self._truth.tracks[block, 0] - starts) / FRAME_DT
            ends = self._truth.tracks[block, -1]
            p = probs[lo : lo + len(block)]  # the endpoint errors, then the logits, then the probabilities
            for m, rotation in enumerate(rotations):
                # One rotation per modality, applied as stacked 2x2 @ 2x1 products.
                rot_vel = np.matmul(rotation, vel[:, :, None])[:, :, 0]
                traj = trajs[lo : lo + len(block), m]
                np.multiply(steps, rot_vel[:, None, :], out=traj)
                traj += starts[:, None, :]  # starts + steps * rot_vel: addition commutes
                p[:, m] = _norms(traj[:, -1] - ends)
            np.negative(p, out=p)
            p /= self.ENDPOINT_SCALE
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=1, keepdims=True)
        return probs, trajs


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

COLLISION_RADIUS = 0.5  # meters; proxy threshold against true agent tracks


def evaluate_clips(provider, clips: ClipTable | Sequence[ClipRecord], truth: Mapping[str, ClipTruth]) -> dict:
    """The provider's plans for ``clips`` against the hidden truth, as columns
    in clip order: ``clip_id`` (the id tuple), ``de`` (N,) and ``step_errors``
    (N, H) displacement errors in meters, and ``collided`` (N,) bool."""
    clips = clip_table(clips)
    if not len(clips):
        return {"clip_id": (), "de": np.empty(0), "step_errors": np.empty((0, 0)), "collided": np.zeros(0, bool)}
    batch = prediction_batch(provider.predict(list(clips.ids)), clips)
    plans = batch.ego_plans
    truth = truth_table(truth)
    rows = truth.rows_of(clips.ids)
    step_errors = _distances(plans, truth.ego_future[rows])
    agents, owners = truth.items_of(rows)
    collided = np.zeros(len(clips), dtype=bool)
    collided[owners[_distances(plans[owners], truth.tracks[agents]).min(axis=1) < COLLISION_RADIUS]] = True
    return {"clip_id": batch.clip_ids, "de": step_errors.mean(axis=1), "step_errors": step_errors, "collided": collided}


def summarize_evals(evals: Mapping[str, np.ndarray]) -> tuple[float, float]:
    """(average displacement error in meters, proxy collision rate in percent)
    of the ``de`` and ``collided`` columns of :func:`evaluate_clips`."""
    n = len(evals["de"])
    if not n:
        raise ValueError("held-out set is empty")
    return float(np.mean(evals["de"])), 100.0 * int(np.count_nonzero(evals["collided"])) / n


def heldout_eval(
    provider, heldout_clips: ClipTable | Sequence[ClipRecord], truth: Mapping[str, ClipTruth]
) -> tuple[float, float]:
    """(average displacement error in meters, proxy collision rate in percent)
    of the provider's plans on the held-out clips.

    The held-out set must be disjoint from the clips the provider trained on.
    """
    heldout_clips = clip_table(heldout_clips)
    overlap = set(getattr(provider, "trained_ids", ())) & set(heldout_clips.ids)
    if overlap:
        raise ValueError(f"held-out clips overlap training set: {sorted(overlap)[:5]}")
    return summarize_evals(evaluate_clips(provider, heldout_clips, truth))
