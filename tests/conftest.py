"""Shared builders for pool, prediction, truth, and provider test objects."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from driveselect.criteria import AgentForecast, ClipPrediction
from driveselect.pool import ClipRecord, encode_line
from driveselect.synthworld import ClipTruth


def jsonl_lines(records) -> list[str]:
    """The lines a JSONL writer writes for ``records``, as str."""
    return [encode_line(record).decode("ascii") for record in records]


def make_clip(
    cid: str,
    weather: str = "Sunny",
    lighting: str = "Day",
    speeds=(5.0,),
    commands=None,
    gt_future=None,
    horizon: int = 6,
) -> ClipRecord:
    if commands is None:
        commands = ["Straight"] * len(speeds)
    if gt_future is None:
        gt_future = tuple((float(t), 0.0) for t in range(1, horizon + 1))
    return ClipRecord(
        id=cid, weather=weather, lighting=lighting,
        speeds=tuple(float(s) for s in speeds), commands=tuple(commands),
        gt_future=tuple((float(x), float(y)) for x, y in gt_future),
    )


def random_clip(rng: np.random.Generator, cid: str, horizon: int = 6) -> ClipRecord:
    n_frames = int(rng.integers(1, 12))
    speeds = rng.uniform(0, 20, size=n_frames)
    commands = [["Left", "Right", "Straight"][i] for i in rng.integers(0, 3, size=n_frames)]
    gt = rng.normal(0, 5, size=(horizon, 2))
    return make_clip(
        cid,
        weather=["Sunny", "Rainy"][int(rng.integers(0, 2))],
        lighting=["Day", "Night"][int(rng.integers(0, 2))],
        speeds=speeds,
        commands=commands,
        gt_future=gt,
    )


def make_truth(clip: ClipRecord, agents=()) -> ClipTruth:
    """Truth for ``clip``: its recorded future and ``(agent_id, start, track)`` agents."""
    horizon = len(clip.gt_future)
    return ClipTruth(
        clip.id,
        np.array(clip.gt_future, dtype=float),
        tuple(agent_id for agent_id, _, _ in agents),
        np.array([start for _, start, _ in agents], dtype=float).reshape(-1, 2),
        np.array([track for _, _, track in agents], dtype=float).reshape(-1, horizon, 2),
    )


def make_forecast(
    agent_id: str = "a0",
    confidence: float = 1.0,
    probs=(1.0,),
    trajs=None,
    horizon: int = 6,
) -> AgentForecast:
    if trajs is None:
        trajs = [[(float(t), 0.0) for t in range(1, horizon + 1)] for _ in probs]
    return AgentForecast(
        agent_id=agent_id,
        confidence=confidence,
        modality_probs=tuple(float(p) for p in probs),
        modality_trajs=tuple(tuple((float(x), float(y)) for x, y in t) for t in trajs),
    )


def make_pred(clip_id: str = "c0", ego_plan=None, agents=(), horizon: int = 6) -> ClipPrediction:
    if ego_plan is None:
        ego_plan = [(float(t), 0.0) for t in range(1, horizon + 1)]
    return ClipPrediction(
        clip_id=clip_id,
        ego_plan=tuple((float(x), float(y)) for x, y in ego_plan),
        agents=tuple(agents),
    )


class HashPlanProvider:
    """Deterministic, training-free provider: plans are gt plus an id-keyed offset."""

    def __init__(self, clips):
        self._clips = {c.id: c for c in clips}
        self.trained_ids = ()
        self.train_calls = 0

    def train(self, labeled_ids):
        self.trained_ids = tuple(labeled_ids)
        self.train_calls += 1

    def predict(self, ids):
        out = {}
        for cid in ids:
            clip = self._clips[cid]
            h = zlib.crc32(cid.encode())
            dx = (h % 1000) / 250.0
            plan = tuple((x + dx, y) for x, y in clip.gt_future)
            out[cid] = ClipPrediction(clip_id=cid, ego_plan=plan, agents=())
        return out


class ConstantProvider:
    """Returns the same plan (gt itself) for every clip: forces id tie-breaks."""

    def __init__(self, clips):
        self._clips = {c.id: c for c in clips}
        self.trained_ids = ()

    def train(self, labeled_ids):
        self.trained_ids = tuple(labeled_ids)

    def predict(self, ids):
        horizonless = {}
        for cid in ids:
            clip = self._clips[cid]
            plan = tuple((float(t), 0.0) for t in range(1, len(clip.gt_future) + 1))
            horizonless[cid] = ClipPrediction(clip_id=cid, ego_plan=plan, agents=())
        return horizonless


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
