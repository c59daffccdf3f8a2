"""Synthetic world generation, toy planner behavior, and held-out evaluation."""

import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driveselect import synthworld
from driveselect.criteria import AgentForecast, ClipPrediction
from driveselect.pool import (
    BUCKETS,
    COMMAND_CLASSES,
    ClipRecord,
    classify_command,
    clip_to_dict,
    save_pool,
    weather_lighting_bucket,
)
from driveselect.synthworld import (
    AGENT_CLEARANCE,
    BUCKET_TURN_SCALE,
    DEFAULT_BUCKET_PROBS,
    DEFAULT_MANEUVER_PROBS,
    FRAME_DT,
    HISTORY_FRAMES,
    SPEED_SCALE,
    ToyPlanner,
    WorldConfig,
    _choice_cdf,
    _choose,
    _generate_clips,
    _rotation,
    _uniform,
    evaluate_clips,
    generate_pool,
    generate_world,
    heldout_eval,
    load_truth,
    save_truth,
    truth_to_dict,
)
from driveselect.pool import load_pool

from conftest import jsonl_lines, make_truth, reference_bucket, reference_command_class, reference_mean_speed

N_CASES = 1000


def reference_features(clip, tau_c):
    """Reference features: the per-clip 9-vector ToyPlanner built on every
    predict before it built every clip's row once from the pool's columns."""
    feats = np.zeros(len(BUCKETS) + len(COMMAND_CLASSES) + 1)
    feats[BUCKETS.index(reference_bucket(clip))] = 1.0
    feats[len(BUCKETS) + COMMAND_CLASSES.index(reference_command_class(clip, tau_c))] = 1.0
    feats[-1] = reference_mean_speed(clip) / SPEED_SCALE
    return feats


def plans_of(planner, clips):
    """``ToyPlanner._plans`` of clips of the planner's pool."""
    return planner._plans(planner._clips.rows_of([c.id for c in clips]))


def brute_force_plans(planner, clips):
    """Reference k-NN: one (queries x exemplars x 9) distance array, stable
    argsort over the id-sorted exemplars."""
    horizon = len(clips[0].gt_future)
    steps = np.arange(1, horizon + 1) * FRAME_DT
    if not planner.is_trained:
        plans = np.zeros((len(clips), horizon, 2))
        for i, clip in enumerate(clips):
            plans[i, :, 0] = reference_mean_speed(clip) * steps
        return plans
    queries = np.stack([reference_features(c, planner.tau_c) for c in clips])
    dists = np.linalg.norm(queries[:, None, :] - planner._exemplar_feats[None, :, :], axis=2)
    k = min(planner.n_neighbors, len(planner._exemplar_feats))
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
    return planner._exemplar_futures[nearest].mean(axis=1)


def reference_forecasts(planner, clip_id, horizon):
    """Reference agent forecasts: the per-agent loop ToyPlanner ran for each
    clip before it built all forecasts in one array pass."""
    truth = planner._truth[clip_id]
    steps = np.arange(1, horizon + 1)[:, None] * FRAME_DT
    forecasts = []
    for agent_id, start, true_track in zip(truth.agent_ids, truth.starts, truth.tracks):
        d0 = float(np.linalg.norm(start))
        if d0 > planner.AGENT_RADIUS:
            continue
        confidence = math.exp(-d0 / planner.AGENT_RADIUS)
        vel = (true_track[0] - start) / FRAME_DT
        trajs = []
        endpoint_err = []
        for angle_deg in planner.MODALITY_ANGLES:
            rot_vel = _rotation(math.radians(angle_deg)) @ vel
            traj = start[None, :] + steps * rot_vel[None, :]
            trajs.append(tuple((float(x), float(y)) for x, y in traj))
            endpoint_err.append(float(np.linalg.norm(traj[-1] - true_track[-1])))
        logits = -np.asarray(endpoint_err) / planner.ENDPOINT_SCALE
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        forecasts.append(
            AgentForecast(
                agent_id=agent_id,
                confidence=confidence,
                modality_probs=tuple(float(p) for p in probs),
                modality_trajs=tuple(trajs),
            )
        )
    return tuple(forecasts)


def _reference_curvature(rng, maneuver, bucket, v, total_steps):
    kappa = np.zeros(total_steps)
    scale = BUCKET_TURN_SCALE[bucket]
    if maneuver == "S":
        return kappa
    if maneuver in ("L", "R"):
        duration = int(rng.integers(8, 11))
        start = int(rng.integers(34, 36))
        dtheta = scale * rng.uniform(0.08, 0.18)
        sign = 1.0 if maneuver == "L" else -1.0
        kappa[start : start + duration] = sign * dtheta / (v * FRAME_DT)
        return kappa
    start = int(rng.integers(29, 31))
    phase1 = int(rng.integers(5, 7))
    phase2 = int(rng.integers(7, 9))
    dtheta = scale * rng.uniform(0.05, 0.10)
    kappa[start : start + phase1] = dtheta / (v * FRAME_DT)
    kappa[start + phase1 : start + phase1 + phase2] = -dtheta / (v * FRAME_DT)
    return kappa


def _reference_draw_agent(rng, anchored_points, v, horizon):
    if rng.uniform() < 0.8:
        t_a = int(rng.integers(max(1, horizon // 2), horizon + 1))
        anchor = anchored_points[t_a]
        direction = anchored_points[t_a] - anchored_points[t_a - 1]
        heading = math.atan2(direction[1], direction[0])
        perp = np.array([-math.sin(heading), math.cos(heading)])
        ahead = np.array([math.cos(heading), math.sin(heading)])
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        pos_at_anchor = anchor + side * rng.uniform(1.5, 4.5) * perp + rng.uniform(-2.0, 2.0) * ahead
        speed = min(14.0, v * rng.uniform(0.3, 1.2))
        vel_heading = heading + rng.uniform(-0.6, 0.6)
        vel = speed * np.array([math.cos(vel_heading), math.sin(vel_heading)])
        start = pos_at_anchor - vel * (FRAME_DT * t_a)
    else:
        radius = rng.uniform(5.0, 35.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        start = radius * np.array([math.cos(angle), math.sin(angle)])
        speed = rng.uniform(0.0, 12.0)
        vel_heading = rng.uniform(0.0, 2.0 * math.pi)
        vel = speed * np.array([math.cos(vel_heading), math.sin(vel_heading)])
    return start, vel


def _reference_agents(rng, clip_id, plan_future, v, horizon, agent_rate):
    n_agents = int(rng.poisson(agent_rate))
    agents = []
    steps = np.arange(1, horizon + 1)[:, None] * FRAME_DT
    anchored_points = np.vstack([[0.0, 0.0], plan_future])
    for j in range(n_agents):
        track = None
        for _ in range(20):
            start, vel = _reference_draw_agent(rng, anchored_points, v, horizon)
            candidate = start[None, :] + steps * vel[None, :]
            gap = float(np.linalg.norm(candidate - plan_future, axis=1).min())
            if gap >= synthworld.AGENT_CLEARANCE:
                track = candidate
                break
        if track is None:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            start = 25.0 * np.array([math.cos(angle), math.sin(angle)])
            vel = np.zeros(2)
            track = start[None, :] + steps * vel[None, :]
        agents.append((f"{clip_id}-a{j}", (float(start[0]), float(start[1])),
                       tuple((float(x), float(y)) for x, y in track)))
    return agents


def reference_generate_world(config):
    """Reference generator: the array-per-agent code ``generate_world`` ran
    before it did agent geometry in Python floats and drew buckets and
    maneuvers from a precomputed cdf."""
    children = np.random.SeedSequence(config.seed).spawn(config.n_clips)
    total_steps = HISTORY_FRAMES + config.horizon
    clips, truth = [], {}
    for i in range(config.n_clips):
        rng = np.random.default_rng(children[i])
        clip_id = f"clip_{i:06d}"
        bucket = BUCKETS[int(rng.choice(len(BUCKETS), p=config.bucket_probs))]
        maneuver = COMMAND_CLASSES[int(rng.choice(len(COMMAND_CLASSES), p=config.maneuver_probs))]
        v = float(rng.uniform(2.0, 15.0))
        kappa = _reference_curvature(rng, maneuver, bucket, v, total_steps)
        theta = np.cumsum(kappa * v * FRAME_DT)
        positions = np.cumsum(v * FRAME_DT * np.stack([np.cos(theta), np.sin(theta)], axis=1), axis=0)
        ref_pos = positions[HISTORY_FRAMES - 1]
        ref_rot = _rotation(-theta[HISTORY_FRAMES - 1])
        plan_future = (positions[HISTORY_FRAMES:] - ref_pos) @ ref_rot.T
        sigma = config.noise_scale
        if bucket in ("DR", "NR"):
            sigma *= 2.0
        if bucket in ("NS", "NR"):
            sigma *= 2.0
        gt_future = plan_future + rng.normal(0.0, sigma, size=plan_future.shape)
        commands = []
        for k in kappa[:HISTORY_FRAMES]:
            if k > 1e-12:
                commands.append("Left")
            elif k < -1e-12:
                commands.append("Right")
            else:
                commands.append("Straight")
        clip = ClipRecord(
            id=clip_id,
            weather="Sunny" if bucket[1] == "S" else "Rainy",
            lighting="Day" if bucket[0] == "D" else "Night",
            speeds=(v,) * len(commands),
            commands=tuple(commands),
            gt_future=tuple((float(x), float(y)) for x, y in gt_future),
        )
        clips.append(clip)
        truth[clip_id] = make_truth(
            clip, _reference_agents(rng, clip_id, plan_future, v, config.horizon, config.agent_rate)
        )
    return clips, truth


def reference_files(config):
    """Pool and truth bytes of the reference world, each line a ``json.dumps``."""
    clips, truth = reference_generate_world(config)

    def dumps(record):
        return json.dumps(record, separators=(",", ":"), allow_nan=False)

    pool = "\n".join(dumps(clip_to_dict(c)) for c in clips) + "\n"
    truth_text = "\n".join(
        dumps({
            "clip_id": t.clip_id,
            "ego_future": [[x, y] for x, y in t.ego_future.tolist()],
            "agents": [
                {"agent_id": agent_id, "start": [start[0], start[1]], "track": [[x, y] for x, y in track]}
                for agent_id, start, track in zip(t.agent_ids, t.starts.tolist(), t.tracks.tolist())
            ],
        })
        for t in (truth[c.id] for c in clips)
    ) + "\n"
    return pool.encode("ascii"), truth_text.encode("ascii")


def tagged_clip(cid, speed, weather="Sunny", lighting="Day", tag=0.0):
    """One-frame straight clip whose future encodes ``tag``, so an averaged
    plan shows which exemplars were picked."""
    from conftest import make_clip

    future = [(float(t), tag) for t in range(1, 7)]
    return make_clip(cid, weather=weather, lighting=lighting, speeds=[speed], gt_future=future)


def planner_over(clips, labeled, **kwargs):
    truth = {c.id: make_truth(c) for c in clips}
    planner = ToyPlanner(clips, truth, **kwargs)
    planner.train(labeled)
    return planner


class TruthReplayProvider:
    """Replays the true ego future as the plan; the identity upper bound."""

    trained_ids = ()

    def __init__(self, truth):
        self._truth = truth

    def predict(self, ids):
        return {
            i: ClipPrediction(clip_id=i, ego_plan=tuple(map(tuple, self._truth[i].ego_future.tolist())), agents=())
            for i in ids
        }


class TestWorldConfig:
    def test_rejects_bad_probability_vector(self):
        with pytest.raises(ValueError, match="bucket_probs"):
            WorldConfig(n_clips=5, bucket_probs=(0.5, 0.5, 0.5, 0.5))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="maneuver_probs"):
            WorldConfig(n_clips=5, maneuver_probs=(1.0,))

    def test_defaults_are_long_tailed(self):
        cfg = WorldConfig(n_clips=5)
        assert cfg.bucket_probs[0] == pytest.approx(491 / 700)
        assert cfg.maneuver_probs[3] == pytest.approx(423 / 700)


class TestGeneration:
    def test_identical_seed_identical_bytes(self, tmp_path):
        for name in ("a", "b"):
            generate_pool(WorldConfig(n_clips=40, seed=9),
                          tmp_path / f"pool_{name}.jsonl", tmp_path / f"truth_{name}.jsonl")
        assert (tmp_path / "pool_a.jsonl").read_bytes() == (tmp_path / "pool_b.jsonl").read_bytes()
        assert (tmp_path / "truth_a.jsonl").read_bytes() == (tmp_path / "truth_b.jsonl").read_bytes()

    def test_different_seeds_differ(self):
        clips_a, _ = generate_world(WorldConfig(n_clips=20, seed=1))
        clips_b, _ = generate_world(WorldConfig(n_clips=20, seed=2))
        assert clips_a != clips_b

    def test_determinism_property(self, rng):
        """Byte-identical serialization across repeated generation."""
        for _ in range(N_CASES // 4):
            seed = int(rng.integers(0, 10_000))
            n = int(rng.integers(1, 6))
            cfg = WorldConfig(n_clips=n, seed=seed)
            clips_a, truth_a = generate_world(cfg)
            clips_b, truth_b = generate_world(cfg)
            assert jsonl_lines(map(clip_to_dict, clips_a)) == jsonl_lines(map(clip_to_dict, clips_b))
            truth_lines = [jsonl_lines(map(truth_to_dict, t.values())) for t in (truth_a, truth_b)]
            assert truth_lines[0] == truth_lines[1]

    def test_bucket_frequencies_match_config(self):
        """Law of large numbers: empirical bucket rates within +-2% absolute."""
        cfg = WorldConfig(n_clips=10_000, seed=123)
        clips, _ = generate_world(cfg)
        counts = {b: 0 for b in BUCKETS}
        for c in clips:
            counts[weather_lighting_bucket(c)] += 1
        for b, p in zip(BUCKETS, cfg.bucket_probs):
            assert abs(counts[b] / cfg.n_clips - p) < 0.02

    def test_maneuver_matches_command_classification(self):
        """The generator emits enough turn commands for tau_c=4 by construction."""
        cfg = WorldConfig(n_clips=400, seed=77,
                          maneuver_probs=(0.25, 0.25, 0.25, 0.25))
        clips, _ = generate_world(cfg)
        counts = {c: 0 for c in COMMAND_CLASSES}
        for clip in clips:
            counts[classify_command(clip, tau_c=4)] += 1
        # every class present in roughly equal numbers
        assert all(counts[c] > 50 for c in COMMAND_CLASSES)

    def test_clip_shape(self):
        clips, truth = generate_world(WorldConfig(n_clips=5, seed=3))
        for clip in clips:
            assert len(clip.speeds) == len(clip.commands) == HISTORY_FRAMES
            assert len(clip.gt_future) == 6
            assert np.array_equal(truth[clip.id].ego_future, clip.gt_future)

    def test_agent_tracks_keep_clearance_from_future(self):
        clips, truth = generate_world(WorldConfig(n_clips=200, seed=31, noise_scale=0.0))
        checked = 0
        for clip in clips:
            future = np.asarray(clip.gt_future)
            for track in truth[clip.id].tracks:
                gap = float(np.linalg.norm(track - future, axis=1).min())
                assert gap >= AGENT_CLEARANCE - 1e-9
                checked += 1
        assert checked > 100

    def test_truth_round_trip(self, tmp_path):
        cfg = WorldConfig(n_clips=25, seed=5)
        generate_pool(cfg, tmp_path / "pool.jsonl", tmp_path / "truth.jsonl")
        clips, _ = load_pool(tmp_path / "pool.jsonl")
        truth = load_truth(tmp_path / "truth.jsonl")
        assert list(truth) == [c.id for c in clips]
        _, regenerated = generate_world(cfg)
        save_truth(truth, tmp_path / "loaded.jsonl")
        save_truth(regenerated, tmp_path / "regenerated.jsonl")
        written = (tmp_path / "truth.jsonl").read_bytes()
        assert (tmp_path / "loaded.jsonl").read_bytes() == written
        assert (tmp_path / "regenerated.jsonl").read_bytes() == written

    def test_truth_without_agents_loads_empty_arrays(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        record = {"clip_id": "c0", "ego_future": [[float(t), 0.0] for t in range(1, 10)], "agents": []}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        truth = load_truth(path, horizon=9)["c0"]
        assert truth.ego_future.shape == (9, 2) and truth.ego_future.dtype == float
        assert truth.agent_ids == ()
        assert truth.starts.shape == (0, 2) and truth.starts.dtype == float
        assert truth.tracks.shape == (0, 9, 2) and truth.tracks.dtype == float


def parked_agents(truth):
    """Agents of the far-out fallback, the only ones with zero velocity, as
    (id, start, track) lists."""
    return [
        (agent_id, start, track)
        for t in truth.values()
        for agent_id, start, track in zip(t.agent_ids, t.starts.tolist(), t.tracks.tolist())
        if track.count(track[0]) == len(track)
    ]


class TestGeneratorMatchesReference:
    """``generate_pool`` writes the reference generator's bytes."""

    CONFIGS = {
        "default": WorldConfig(n_clips=600, seed=7),
        "horizon_9_agents_4": WorldConfig(n_clips=300, seed=4242, horizon=9, agent_rate=4.0),
        # Straight clips then have exact zero coordinates: 0.0 and -0.0
        # compare equal as floats, so only the bytes show their sign.
        "noiseless": WorldConfig(n_clips=300, seed=3, noise_scale=0.0),
        "zero_probabilities": WorldConfig(
            n_clips=300, seed=5, bucket_probs=(0.5, 0.0, 0.5, 0.0), maneuver_probs=(0.0, 0.5, 0.0, 0.5)
        ),
    }

    def assert_same_files(self, config, tmp_path):
        generate_pool(config, tmp_path / "pool.jsonl", tmp_path / "truth.jsonl")
        pool, truth = reference_files(config)
        assert (tmp_path / "pool.jsonl").read_bytes() == pool
        assert (tmp_path / "truth.jsonl").read_bytes() == truth
        return pool, truth

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_written_bytes(self, tmp_path, name):
        pool, _ = self.assert_same_files(self.CONFIGS[name], tmp_path)
        if name == "noiseless":
            assert b",0.0]" in pool
        if name == "zero_probabilities":
            clips, _ = load_pool(tmp_path / "pool.jsonl")
            assert {weather_lighting_bucket(c) for c in clips} == {"DS", "NS"}

    def test_parked_agents(self, tmp_path, monkeypatch):
        """A clearance few placements meet sends agents to the far-out fallback."""
        monkeypatch.setattr(synthworld, "AGENT_CLEARANCE", 6.0)
        config = WorldConfig(n_clips=200, seed=17, agent_rate=3.0)
        self.assert_same_files(config, tmp_path)
        parked = parked_agents(generate_world(config)[1])
        assert len(parked) >= 5
        assert all(math.isclose(math.hypot(*start), 25.0) for _, start, _ in parked)
        assert parked_agents(reference_generate_world(config)[1]) == parked

    @pytest.mark.parametrize(
        "probs",
        [
            DEFAULT_BUCKET_PROBS,
            DEFAULT_MANEUVER_PROBS,
            (0.5, 0.0, 0.5, 0.0),
            (0.0, 0.0, 0.0, 1.0),
            (1 / 3, 1 / 3, 1 / 3),
            (0.1,) * 10,
            (1e-12, 1.0 - 1e-12),
        ],
    )
    def test_cdf_draw_is_rng_choice(self, probs):
        """Each draw takes the index and the stream position of
        ``Generator.choice``, so a numpy change to either fails here."""
        cdf = _choice_cdf(probs)
        for seed in range(1000):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert _choose(ours, cdf) == int(theirs.choice(len(probs), p=probs))
            assert ours.random() == theirs.random()


class TestChunkedGeneration:
    """``generate_pool`` generates and encodes chunks of ``GEN_CHUNK`` clips in
    forked children and writes what the sequential writers write."""

    @staticmethod
    def use_cpus(monkeypatch, cpus):
        """Chunks of 7 clips, and ``cpus`` CPUs to run on."""
        monkeypatch.setattr(synthworld, "GEN_CHUNK", 7)
        monkeypatch.setattr(synthworld.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two CPUs; the list collects one entry per fork."""
        self.use_cpus(monkeypatch, 2)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    @pytest.mark.parametrize("n_clips, workers", [(1, []), (7, []), (17, [1, 1])])
    def test_bytes_equal_sequential_writers(self, tmp_path, forks, n_clips, workers):
        config = WorldConfig(n_clips=n_clips, seed=11)
        generate_pool(config, tmp_path / "pool.jsonl", tmp_path / "truth.jsonl")
        assert forks == workers
        clips, truth = generate_world(config)
        save_pool(clips, tmp_path / "seq_pool.jsonl")
        save_truth(truth, tmp_path / "seq_truth.jsonl")
        written = [(tmp_path / name).read_bytes() for name in ("pool.jsonl", "truth.jsonl")]
        assert written == [(tmp_path / name).read_bytes() for name in ("seq_pool.jsonl", "seq_truth.jsonl")]
        assert written == list(reference_files(config))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**63), n_clips=st.integers(1, 12), data=st.data())
    def test_clip_range_is_a_slice_of_the_world(self, seed, n_clips, data):
        lo = data.draw(st.integers(0, n_clips))
        hi = data.draw(st.integers(lo, n_clips))
        config = WorldConfig(n_clips=n_clips, seed=seed, agent_rate=3.0)
        clips, truth = generate_world(config)
        part_clips, part_truth = _generate_clips(config, lo, hi)
        assert jsonl_lines(map(clip_to_dict, part_clips)) == jsonl_lines(map(clip_to_dict, clips[lo:hi]))
        assert jsonl_lines(map(truth_to_dict, part_truth.values())) == jsonl_lines(
            truth_to_dict(truth[c.id]) for c in clips[lo:hi]
        )

    def fail_chunk_at_7(self, monkeypatch, failure):
        draws = synthworld._draws

        def failing(config, lo, hi):
            if lo == 7:
                failure()
            return draws(config, lo, hi)

        monkeypatch.setattr(synthworld, "_draws", failing)

    def assert_fails_leaving_nothing(self, tmp_path, error, match=None):
        with pytest.raises(error, match=match):
            generate_pool(WorldConfig(n_clips=17, seed=3), tmp_path / "pool.jsonl", tmp_path / "truth.jsonl")
        assert list(tmp_path.iterdir()) == []  # no output and no .tmp-*.part file
        with pytest.raises(ChildProcessError):  # no child left
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_chunk_error_reaches_caller_and_leaves_nothing(self, tmp_path, monkeypatch, cpus):
        self.use_cpus(monkeypatch, cpus)

        def out_of_memory():
            raise MemoryError("chunk at 7")

        self.fail_chunk_at_7(monkeypatch, out_of_memory)
        self.assert_fails_leaving_nothing(tmp_path, MemoryError, "chunk at 7")

    def test_killed_worker_fails_instead_of_hanging(self, tmp_path, monkeypatch):
        """A child that dies without an exception, as under the OOM killer."""
        self.use_cpus(monkeypatch, 2)
        self.fail_chunk_at_7(monkeypatch, lambda: os._exit(1))
        self.assert_fails_leaving_nothing(
            tmp_path, ChildProcessError,
            re.escape(f"pool file {tmp_path / 'pool.jsonl'} and truth file {tmp_path / 'truth.jsonl'}: generator ")
            + r"process \d+ ended without its result \(exit code 1\)",
        )

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("field, value, message", [
        (0, "", "clip id must be non-empty"),
        (1, "Foggy", "unknown weather 'Foggy'"),
        (2, "Dusk", "unknown lighting 'Dusk'"),
        (3, -1.0, "speed must be finite and non-negative, got -1.0"),
        (3, math.nan, "speed must be finite and non-negative, got nan"),
        (4, (), "clip clip_000009: frames must be non-empty"),
        (4, ("Left", "Up"), "unknown command 'Up'"),
        (5, np.empty((0, 2)), "clip clip_000009: gt_future must be non-empty"),
    ])
    def test_bad_draw_raises_its_record_error(self, tmp_path, monkeypatch, cpus, field, value, message):
        """The chunk checks find each value a ClipRecord rejects, and the
        error is that record's; nothing is written."""
        self.use_cpus(monkeypatch, cpus)
        draws = synthworld._draws

        def bad_clip_9(config, lo, hi):
            for i, draw in enumerate(draws(config, lo, hi), start=lo):
                yield (*draw[:field], value, *draw[field + 1:]) if i == 9 else draw

        monkeypatch.setattr(synthworld, "_draws", bad_clip_9)
        self.assert_fails_leaving_nothing(tmp_path, ValueError, f"^{re.escape(message)}$")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_values_orjson_writes_otherwise_take_encode_line(self, tmp_path, monkeypatch, cpus):
        """A clip whose future holds 3e-05, one whose agent track holds 1e16,
        and ids with a non-ASCII character and with DEL are written as
        json.dumps writes them, with every other clip, on one CPU as on
        two."""
        self.use_cpus(monkeypatch, cpus)
        draws = synthworld._draws

        def odd_floats(config, lo, hi):
            for i, draw in enumerate(draws(config, lo, hi), start=lo):
                if i == 3:
                    future = draw[5].copy()
                    future[2, 1] = 3e-05
                    draw = (*draw[:5], future, *draw[6:])
                if i == 9:
                    assert draw[8], "clip 9 has an agent"
                    track = ((1e16, draw[8][0][0][1]), *draw[8][0][1:])
                    draw = (*draw[:8], [track, *draw[8][1:]])
                if i in (12, 15):
                    draw = ("clip_\u00e9" if i == 12 else "clip_\x7f", *draw[1:])
                yield draw

        monkeypatch.setattr(synthworld, "_draws", odd_floats)
        config = WorldConfig(n_clips=17, seed=11, agent_rate=3.0)
        generate_pool(config, tmp_path / "pool.jsonl", tmp_path / "truth.jsonl")
        clips, truth = generate_world(config)
        save_pool(clips, tmp_path / "seq_pool.jsonl")
        save_truth(truth, tmp_path / "seq_truth.jsonl")
        pool, truth_bytes = ((tmp_path / name).read_bytes() for name in ("pool.jsonl", "truth.jsonl"))
        assert pool == (tmp_path / "seq_pool.jsonl").read_bytes()
        assert truth_bytes == (tmp_path / "seq_truth.jsonl").read_bytes()
        assert b",3e-05]" in pool.splitlines()[3] and b"[[1e+16," in truth_bytes.splitlines()[9]
        assert b'"clip_\\u00e9"' in pool.splitlines()[12] and b'"clip_\\u007f"' in truth_bytes.splitlines()[15]

    def test_live_thread_keeps_the_chunks_in_process(self, tmp_path, forks):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            generate_pool(WorldConfig(n_clips=17, seed=11), tmp_path / "pool.jsonl", tmp_path / "truth.jsonl")
        finally:
            stop.set()
            thread.join()
        assert forks == []
        assert [(tmp_path / name).read_bytes() for name in ("pool.jsonl", "truth.jsonl")] == list(
            reference_files(WorldConfig(n_clips=17, seed=11))
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        bounds=st.lists(
            st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=2)
            .map(sorted)
            .filter(lambda b: math.copysign(1.0, b[1] - b[0]) > 0),
            min_size=1,
            max_size=30,
        ),
    )
    def test_uniform_is_rng_uniform(self, seed, bounds):
        """Bit-equal floats, and both streams stay in step. numpy refuses a
        negative ``high - low``, -0.0 included."""
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for low, high in bounds:
            assert struct.pack("<d", _uniform(ours, low, high)) == struct.pack("<d", theirs.uniform(low, high))
        assert ours.random() == theirs.random()

    def test_cli_import_leaves_out_multiprocessing(self, tmp_path):
        """Neither importing the CLI nor a forked gen loads multiprocessing or
        concurrent.futures: gen forks its children itself."""
        src = os.path.dirname(os.path.dirname(synthworld.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        loaded = "sys.exit(int(bool({'multiprocessing', 'concurrent.futures'} & set(sys.modules))))"
        code = f"import sys, driveselect.cli; {loaded}"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
        gen = ["gen", "--n", "600", "--pool", str(tmp_path / "pool.jsonl"), "--truth", str(tmp_path / "truth.jsonl")]
        code = f"import sys; from driveselect import cli; assert cli.main({gen!r}) == 0; {loaded}"
        assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True).returncode == 0


class TestToyPlanner:
    def test_untrained_constant_velocity(self):
        from conftest import make_clip

        straight = make_clip("s0", speeds=[10.0] * 4)
        planner = ToyPlanner([straight], {"s0": make_truth(straight)})
        pred = planner.predict(["s0"])["s0"]
        expected = [(5.0 * t, 0.0) for t in range(1, 7)]
        assert np.allclose(pred.ego_plan, expected)

    def test_empty_training_is_untrained_fallback(self):
        clips, truth = generate_world(WorldConfig(n_clips=4, seed=4))
        planner = ToyPlanner(clips, truth)
        planner.train([])
        assert not planner.is_trained

    def test_exemplar_count(self):
        clips, truth = generate_world(WorldConfig(n_clips=10, seed=4))
        planner = ToyPlanner(clips, truth)
        planner.train([c.id for c in clips[:5]])
        assert planner.is_trained
        assert len(planner.trained_ids) == 5

    @pytest.mark.parametrize("n_neighbors", [0, -1])
    def test_n_neighbors_below_one_is_rejected(self, n_neighbors):
        clips, truth = generate_world(WorldConfig(n_clips=4, seed=4))
        with pytest.raises(ValueError, match=f"n_neighbors must be >= 1, got {n_neighbors}"):
            ToyPlanner(clips, truth, n_neighbors=n_neighbors)

    def test_duplicate_labeled_ids_error(self):
        clips, truth = generate_world(WorldConfig(n_clips=4, seed=4))
        planner = ToyPlanner(clips, truth)
        with pytest.raises(ValueError, match="duplicate"):
            planner.train([clips[0].id, clips[0].id])

    def test_unknown_labeled_id_leaves_the_planner_as_it_was(self):
        clips, truth = generate_world(WorldConfig(n_clips=6, seed=4))
        ids = [c.id for c in clips]
        planner = ToyPlanner(clips, {i: t for i, t in truth.items() if i != ids[5]})
        planner.train(ids[:3])
        feats, futures = planner._exemplar_feats, planner._exemplar_futures
        with pytest.raises(KeyError, match="clip 'nope' is not in the planner's pool"):
            planner.train([ids[4], "nope"])
        with pytest.raises(KeyError, match=ids[5]):
            planner.train([ids[4], ids[5]])
        assert planner.trained_ids == tuple(ids[:3])
        assert planner._exemplar_feats is feats and planner._exemplar_futures is futures

    def test_zero_degree_modality_peaks_softmax(self):
        clips, truth = generate_world(WorldConfig(n_clips=60, seed=8, agent_rate=3.0))
        planner = ToyPlanner(clips, truth)
        preds = planner.predict([c.id for c in clips])
        n_agents = 0
        for pred in preds.values():
            for agent in pred.agents:
                n_agents += 1
                # truth is constant velocity, so the unrotated modality wins
                assert int(np.argmax(agent.modality_probs)) == 1
        assert n_agents > 30

    def test_forecast_validity_property(self):
        """Emitted forecasts satisfy the forecast invariants (checked on build)."""
        total = 0
        for seed in range(4):
            clips, truth = generate_world(WorldConfig(n_clips=250, seed=seed, agent_rate=3.0))
            planner = ToyPlanner(clips, truth)
            preds = planner.predict([c.id for c in clips])
            for pred in preds.values():
                for agent in pred.agents:
                    assert abs(sum(agent.modality_probs) - 1.0) <= 1e-6
                    assert len(agent.modality_trajs) == 3
                    assert all(len(t) == len(pred.ego_plan) for t in agent.modality_trajs)
                    total += 1
        assert total >= N_CASES

    def test_no_agents_in_radius_gives_empty_forecasts(self):
        from conftest import make_clip

        clip = make_clip("far0", speeds=[5.0] * 4)
        far_agent_track = tuple((100.0 + t, 100.0) for t in range(1, 7))
        truth = {"far0": make_truth(clip, [("a", (100.0, 100.0), far_agent_track)])}
        planner = ToyPlanner([clip], truth)
        pred = planner.predict(["far0"])["far0"]
        assert pred.agents == ()

    def test_predict_deterministic(self):
        clips, truth = generate_world(WorldConfig(n_clips=30, seed=6))
        planner = ToyPlanner(clips, truth)
        planner.train([c.id for c in clips[:12]])
        ids = [c.id for c in clips[12:]]
        first = planner.predict(ids)
        second = planner.predict(ids)
        assert first == second


class TestStratumLocalKnn:
    """``ToyPlanner._plans`` must equal the brute-force k-NN bit for bit."""

    def assert_matches_reference(self, planner, clips):
        assert np.array_equal(plans_of(planner, clips), brute_force_plans(planner, clips))

    def test_random_labeled_sets_over_seeded_worlds(self):
        for seed in range(4):
            clips, truth = generate_world(WorldConfig(n_clips=700, seed=60 + seed, agent_rate=0.0))
            rng = np.random.default_rng(seed)
            for n_labeled, k in ((20, 5), (150, 1), (300, 5), (500, 8)):
                picked = rng.choice(len(clips), n_labeled, replace=False)
                planner = ToyPlanner(clips, truth, n_neighbors=k)
                planner.train([clips[i].id for i in picked])
                self.assert_matches_reference(planner, clips)

    def test_random_clips_with_mixed_strata_and_speeds(self, rng):
        from conftest import random_clip

        for trial in range(20):
            clips = [random_clip(rng, f"r{trial}_{i:03d}") for i in range(150)]
            labeled = [c.id for c in clips if rng.uniform() < 0.4]
            planner = planner_over(clips, labeled, n_neighbors=int(rng.integers(1, 7)))
            self.assert_matches_reference(planner, clips)

    def test_duplicated_speeds_tie_break_by_id_on_both_sides(self):
        # speed / 15 is exact for these speeds, so the gaps below and above
        # the query (speed 15) are equal: every pick is decided by id order.
        speeds = [22.5, 7.5, 22.5, 7.5, 22.5, 7.5, 3.75, 26.25, 22.5, 7.5]
        exemplars = [tagged_clip(f"e{i}", v, tag=float(2**i)) for i, v in enumerate(speeds)]
        queries = [tagged_clip("q0", 15.0), tagged_clip("q1", 15.0), tagged_clip("q2", 5.625)]
        planner = planner_over(exemplars + queries, [c.id for c in exemplars], n_neighbors=5)
        self.assert_matches_reference(planner, queries)
        # q0's five nearest are the lowest ids at gap 0.5 from either side: e0..e4.
        plan = plans_of(planner, queries[:1])[0]
        assert plan[0, 1] == sum(2.0**i for i in range(5)) / 5

    def test_sparse_and_empty_strata_fall_back_to_all_exemplars(self):
        dense = [tagged_clip(f"d{i:02d}", 2.0 + 0.5 * i, tag=float(i)) for i in range(20)]
        sparse = [tagged_clip(f"s{i}", 6.0 + i, weather="Rainy", lighting="Night", tag=50.0 + i)
                  for i in range(2)]
        queries = [
            tagged_clip("q_sparse", 6.5, weather="Rainy", lighting="Night"),
            tagged_clip("q_empty", 9.0, weather="Rainy"),
            tagged_clip("q_dense", 9.0),
        ]
        planner = planner_over(dense + sparse + queries, [c.id for c in dense + sparse],
                               n_neighbors=3)
        self.assert_matches_reference(planner, queries)

    def test_k_above_exemplar_count(self):
        clips = [tagged_clip(f"c{i}", 3.0 + i, weather=("Sunny", "Rainy")[i % 2], tag=float(i))
                 for i in range(8)]
        planner = planner_over(clips, [c.id for c in clips[:4]], n_neighbors=10)
        self.assert_matches_reference(planner, clips)

    def test_far_same_stratum_exemplars_lose_to_other_strata(self):
        """Speeds above 15 * sqrt(2) m/s can put a same-stratum exemplar
        farther away than a clip from another stratum."""
        same = [tagged_clip(f"a{i}", 2.0 + i, tag=float(i)) for i in range(6)]
        other = [tagged_clip(f"b{i}", 40.0 + i, weather="Rainy", tag=100.0 + i) for i in range(6)]
        query = [tagged_clip("q", 40.0)]
        planner = planner_over(same + other + query, [c.id for c in same + other], n_neighbors=3)
        self.assert_matches_reference(planner, query)
        assert plans_of(planner, query)[0, 0, 1] == 101.0  # the three nearest are b0..b2

    def test_untrained_fallback(self):
        clips, truth = generate_world(WorldConfig(n_clips=50, seed=2, agent_rate=0.0))
        planner = ToyPlanner(clips, truth)
        planner.train([])
        self.assert_matches_reference(planner, clips)

    def test_memory_is_linear_in_queries_and_exemplars(self):
        """3 000 queries x 1 500 exemplars: the brute-force array alone would
        be 3000 * 1500 * 9 * 8 bytes = 324 MB."""
        clips, truth = generate_world(WorldConfig(n_clips=4500, seed=5, agent_rate=0.0))
        planner = ToyPlanner(clips, truth)
        planner.train([c.id for c in clips[:1500]])
        queries = planner._clips.rows_of([c.id for c in clips[1500:]])
        tracemalloc.start()
        try:
            planner._plans(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


WINDOW_BUCKETS = (("Sunny", "Day"), ("Rainy", "Day"), ("Sunny", "Night"), ("Rainy", "Night"))


class TestSpeedWindow:
    """``_plans`` looks for a query's k nearest in a window of 2k exemplars
    around its speed, and sends each row it cannot prove exact to the
    all-exemplar path."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8), quantum=st.sampled_from([0.0, 0.5, 2.5, 7.5]),
           n_strata=st.integers(1, 4))
    def test_equals_brute_force(self, data, k, quantum, n_strata):
        # Quantized speeds tie often, also at equal gaps on both sides; up to
        # 60 m/s, a same-stratum exemplar can be farther than another stratum.
        # Exemplars fill the first n_strata strata and queries all four, so
        # some strata have fewer than k exemplars or none.
        if quantum:
            speed = st.integers(0, int(60 / quantum)).map(lambda i: i * quantum)
        else:
            speed = st.floats(0.0, 60.0)

        def clips(prefix, strata, max_size):
            draws = data.draw(st.lists(st.tuples(st.integers(0, strata - 1), speed), min_size=1, max_size=max_size))
            return [tagged_clip(f"{prefix}{i:02d}", v, *WINDOW_BUCKETS[b], tag=2.0**i)
                    for i, (b, v) in enumerate(draws)]

        exemplars, queries = clips("e", n_strata, 40), clips("q", 4, 20)
        planner = planner_over(exemplars + queries, [c.id for c in exemplars], n_neighbors=k)
        assert np.array_equal(plans_of(planner, queries), brute_force_plans(planner, queries))

    @pytest.mark.parametrize("speeds, query", [
        # Equal speeds: the window [e1, e2] leaves out e0, at e1's distance.
        ((1.0, 1.0, 5.0), 2.0),
        # Two speeds whose computed distances from the query are equal (a
        # subtraction rounding to even): the window [e1, e2] leaves out e0.
        ((13.217186282056915, 13.217186282056913, 13.217186282056913), 5.0),
    ])
    def test_ties_just_outside_the_window(self, speeds, query):
        exemplars = [tagged_clip(f"e{i}", v, tag=2.0**i) for i, v in enumerate(speeds)]
        q = [tagged_clip("q", query)]
        planner = planner_over(exemplars + q, [c.id for c in exemplars], n_neighbors=1)
        assert plans_of(planner, q)[0, 0, 1] == 1.0  # e0: equal distance, lowest id
        assert np.array_equal(plans_of(planner, q), brute_force_plans(planner, q))

    def test_dense_strata_never_take_the_exact_path(self, rng):
        k = 5
        exemplars = [tagged_clip(f"e{b}_{i:02d}", rng.uniform(0, 20), *WINDOW_BUCKETS[b], tag=float(i))
                     for b in range(3) for i in range(2 * k)]
        queries = [tagged_clip(f"q{i:03d}", rng.uniform(0, 20), *WINDOW_BUCKETS[i % 3]) for i in range(300)]
        lone = tagged_clip("lone", 5.0, *WINDOW_BUCKETS[3])
        planner = planner_over(exemplars + queries + [lone], [c.id for c in exemplars], n_neighbors=k)
        with mock.patch.object(synthworld, "_nearest_all", wraps=synthworld._nearest_all) as exact:
            plans = plans_of(planner, queries)
            exact.assert_not_called()
            plans_of(planner, [lone])  # a stratum without exemplars does take it
            assert exact.call_count == 1 and len(exact.call_args.args[0]) == 1
        assert np.array_equal(plans, brute_force_plans(planner, queries))

    def test_exact_path_memory_is_bounded_by_elements(self):
        """2 000 queries of a stratum without exemplars against 3 000
        exemplars: blocks of 128 rows made a 27.6 MB difference array."""
        exemplars = [tagged_clip(f"e{i:04d}", 0.01 * i) for i in range(3000)]
        queries = [tagged_clip(f"q{i:04d}", 0.01 * i, weather="Rainy") for i in range(2000)]
        planner = planner_over(exemplars + queries, [c.id for c in exemplars])
        rows = planner._clips.rows_of([c.id for c in queries])
        tracemalloc.start()
        try:
            plans = planner._plans(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.array_equal(plans[::97], brute_force_plans(planner, queries[::97]))


FORECAST_COLUMNS = ("agent_clip", "agent_ids", "confidence", "modality_counts", "modality_probs", "modality_trajs")


def assert_same_batch(got, want, columns=("ego_plans", *FORECAST_COLUMNS)):
    """Two prediction batches with the same ids and the same column bytes."""
    assert got.clip_ids == want.clip_ids
    for name in columns:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        if name == "agent_ids":
            assert a.tolist() == b.tolist()
        else:
            assert a.tobytes() == b.tobytes(), name


class TestPredictSubsets:
    """``predict`` builds the forecasts of the asked clips only: any subset,
    in any order and in any round, equals the rows of the whole-pool predict
    bit for bit, and the forecasts never depend on training."""

    def test_subsets_orders_and_rounds_equal_whole_pool_rows(self):
        clips, truth = generate_world(WorldConfig(n_clips=120, seed=21, agent_rate=3.0))
        ids = [c.id for c in clips]
        heldout, pool = ids[:20], ids[20:]
        rng = np.random.default_rng(21)
        untrained = ToyPlanner(clips, truth).predict(ids)
        planner = ToyPlanner(clips, truth)
        for n_labeled in (0, 20, 50):
            planner.train(pool[:n_labeled])
            whole = planner.predict(ids)
            assert_same_batch(whole, untrained, FORECAST_COLUMNS)
            for subset in (pool[n_labeled:], heldout, rng.permutation(ids).tolist(), ids[7:8], ids[::-3]):
                assert_same_batch(planner.predict(subset), whole.take(subset))

    def test_ids_without_truth_or_twice_are_rejected(self):
        clips, truth = generate_world(WorldConfig(n_clips=6, seed=3, agent_rate=3.0))
        planner = ToyPlanner(clips, {i: t for i, t in truth.items() if i != clips[4].id})
        assert planner.predict([]) == {}
        with pytest.raises(KeyError, match=clips[4].id):
            planner.predict([clips[0].id, clips[4].id])
        with pytest.raises(ValueError, match="duplicate clip id"):
            planner.predict([clips[1].id, clips[0].id, clips[1].id])


class TestPredictMemory:
    def test_peak_is_near_the_retained_batch(self):
        """One predict of 3000 or 2250 clips (11 716 or 8 799 agents) peaks
        at 1.15 times what its batch keeps (tracemalloc). Building the
        forecasts over all agents at once, not ``AGENT_BLOCK`` at a time,
        made it 1.39; from whole gathered tracks after the plans, 1.80; and
        with the k-NN's 128-row exact blocks, 2.49."""
        clips, truth = generate_world(WorldConfig(n_clips=3000, seed=11, agent_rate=4.0))
        ids = [c.id for c in clips]
        for n_labeled in (0, 750):
            planner = ToyPlanner(clips, truth)
            planner.train(ids[:n_labeled])
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                batch = planner.predict(ids[n_labeled:])
                kept, peak = (m - base for m in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            assert len(batch.agent_ids) > 8000
            assert peak < 1.25 * kept, (n_labeled, peak, kept)


def assert_forecasts_match_reference(planner, batch, clip_ids, horizon):
    for clip_id in clip_ids:
        expected = reference_forecasts(planner, clip_id, horizon)
        got = batch[clip_id].agents
        assert [a.agent_id for a in got] == [a.agent_id for a in expected]
        for field in ("confidence", "modality_probs", "modality_trajs"):
            assert np.array_equal([getattr(a, field) for a in got],
                                  [getattr(a, field) for a in expected]), (clip_id, field)


class TestForecastsMatchReference:
    """The one-pass array forecasts equal the per-agent loop bit for bit."""

    @pytest.mark.parametrize("horizon", [6, 9])
    def test_seeded_worlds(self, horizon):
        far = empty = 0
        for seed in range(3):
            clips, truth = generate_world(WorldConfig(n_clips=300, seed=50 + seed, agent_rate=3.0, horizon=horizon))
            planner = ToyPlanner(clips, truth)
            batch = planner.predict([c.id for c in clips])
            assert_forecasts_match_reference(planner, batch, [c.id for c in clips], horizon)
            for clip in clips:
                empty += not truth[clip.id].agent_ids
                far += sum(np.linalg.norm(start) > ToyPlanner.AGENT_RADIUS for start in truth[clip.id].starts)
        assert far > 10 and empty > 10

    @pytest.mark.parametrize("horizon", [6, 9])
    def test_block_edges_inside_clips(self, horizon):
        """Forecasts built 3 agents at a time: clips of 0, 1, 3, 4 and 7
        agents put block edges after agents 3, 6, 9 and 12, inside the
        clips of 3, 4 and 7 agents."""
        from conftest import make_clip

        rng = np.random.default_rng(horizon)
        clips, truth = [], {}
        for n_agents in (0, 1, 3, 4, 7):
            clip = make_clip(f"c{n_agents}", speeds=[5.0] * 4, horizon=horizon)
            starts = rng.uniform(-20.0, 20.0, size=(n_agents, 2))  # all within AGENT_RADIUS
            tracks = starts[:, None, :] + np.cumsum(rng.normal(0.0, 2.0, size=(n_agents, horizon, 2)), axis=1)
            agent_ids = tuple(f"{clip.id}-a{j}" for j in range(n_agents))
            clips.append(clip)
            truth[clip.id] = synthworld.ClipTruth(clip.id, np.array(clip.gt_future), agent_ids, starts, tracks)
        planner = ToyPlanner(clips, truth)
        with mock.patch.object(synthworld, "AGENT_BLOCK", 3):
            batch = planner.predict([c.id for c in clips])
        assert len(batch.agent_ids) == 15
        assert_forecasts_match_reference(planner, batch, [c.id for c in clips], horizon)


class TestEvaluation:
    def test_truth_replay_scores_zero_de(self):
        clips, truth = generate_world(WorldConfig(n_clips=30, seed=12))
        avg_de, collision = heldout_eval(TruthReplayProvider(truth), clips, truth)
        assert avg_de == pytest.approx(0.0, abs=1e-12)
        assert collision == 0.0  # clearance keeps true plans out of the proxy radius

    def test_offset_plan_measures_one_meter(self):
        from conftest import make_clip

        clip = make_clip("e0", speeds=[5.0] * 4)
        truth = {"e0": make_truth(clip)}

        class OffsetProvider:
            trained_ids = ()

            def predict(self, ids):
                plan = tuple((x, y + 1.0) for x, y in clip.gt_future)
                return {"e0": ClipPrediction(clip_id="e0", ego_plan=plan, agents=())}

        avg_de, collision = heldout_eval(OffsetProvider(), [clip], truth)
        assert avg_de == pytest.approx(1.0, abs=1e-12)
        assert collision == 0.0

    def test_overlap_with_training_rejected(self):
        clips, truth = generate_world(WorldConfig(n_clips=10, seed=13))
        planner = ToyPlanner(clips, truth)
        planner.train([clips[0].id])
        with pytest.raises(ValueError, match="overlap"):
            heldout_eval(planner, clips, truth)

    def test_eval_deterministic(self):
        clips, truth = generate_world(WorldConfig(n_clips=60, seed=14))
        planner = ToyPlanner(clips, truth)
        planner.train([c.id for c in clips[:30]])
        heldout = clips[30:]
        assert heldout_eval(planner, heldout, truth) == heldout_eval(planner, heldout, truth)

    def test_learning_signal_over_seeds(self):
        """Training on 30% beats the untrained fallback, averaged over 5 seeds."""
        trained_scores, untrained_scores = [], []
        for seed in range(5):
            clips, truth = generate_world(WorldConfig(n_clips=1200, seed=40 + seed))
            pool, heldout = clips[:1000], clips[1000:]
            planner = ToyPlanner(clips, truth)
            rng = np.random.default_rng(seed)
            labeled = [pool[i].id for i in rng.choice(len(pool), 300, replace=False)]
            planner.train(labeled)
            trained_scores.append(heldout_eval(planner, heldout, truth)[0])
            fresh = ToyPlanner(clips, truth)
            untrained_scores.append(heldout_eval(fresh, heldout, truth)[0])
        assert np.mean(trained_scores) < np.mean(untrained_scores)

    def test_step_errors_have_horizon_entries(self):
        clips, truth = generate_world(WorldConfig(n_clips=10, seed=15))
        results = evaluate_clips(TruthReplayProvider(truth), clips, truth)
        assert results["step_errors"].shape == (10, 6)
