"""Scoring criteria: frozen unit values, metric properties, ranking oracle."""

import heapq
import json
import math
import re
import struct
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driveselect import criteria
from driveselect import pool as pool_module
from driveselect.criteria import (
    SCORE_COLUMNS,
    AgentForecast,
    ClipPrediction,
    PredictionBatch,
    agent_uncertainty,
    best_modality_traj,
    displacement_error,
    load_predictions,
    load_scores,
    min_max_normalize,
    modality_entropy,
    overall_loss,
    prediction_batch,
    prediction_to_dict,
    rank_and_take,
    save_predictions,
    save_scores,
    score_pool,
    soft_collision,
)
from driveselect.pool import PoolFormatError, clip_table
from driveselect.synthworld import ToyPlanner, WorldConfig, generate_world

from conftest import make_clip, make_forecast, make_pred, score_rows

N_CASES = 1000
ATOL = 1e-9


# Reference criteria: the one-clip implementations the batch kernels replaced.
# The kernels must reproduce them bit for bit.


def reference_entropy(probs):
    p = np.asarray(probs, dtype=float)
    nonzero = p[p > 0]
    return float(-(nonzero * np.log(nonzero)).sum())


def reference_best_track(agent):
    return np.asarray(agent.modality_trajs[int(np.argmax(agent.modality_probs))], dtype=float)


def reference_soft_collision(pred, eps_a):
    tracks = [reference_best_track(a) for a in pred.agents if a.confidence >= eps_a]
    if not tracks:
        return 0.0
    ego = np.asarray(pred.ego_plan, dtype=float)
    dists = np.linalg.norm(np.stack(tracks) - ego[None, :, :], axis=2)
    return float(np.exp(-dists.min(axis=0)).sum())


def reference_agent_uncertainty(pred, delta_d):
    ego = np.asarray(pred.ego_plan, dtype=float)
    total = 0.0
    for agent in pred.agents:
        d_a = float(np.linalg.norm(reference_best_track(agent) - ego, axis=1).min())
        if d_a <= delta_d:
            total += math.exp(delta_d - d_a) * reference_entropy(agent.modality_probs)
    return total


def reference_raw_scores(clips, preds, eps_a, delta_d):
    """(DE, SC, AU) arrays, one clip at a time."""
    return (
        np.array([float(np.linalg.norm(np.asarray(preds[c.id].ego_plan) - np.asarray(c.gt_future), axis=1).mean())
                  for c in clips]),
        np.array([reference_soft_collision(preds[c.id], eps_a) for c in clips]),
        np.array([reference_agent_uncertainty(preds[c.id], delta_d) for c in clips]),
    )


def assert_scores_match_reference(clips, preds, eps_a, delta_d):
    expected = reference_raw_scores(clips, preds, eps_a, delta_d)
    for predictions in (preds, prediction_batch(preds, clips)):
        columns = score_pool(clips, predictions, alpha=1.0, beta=1.0, eps_a=eps_a, delta_d=delta_d)
        got = (columns["de_raw"], columns["sc_raw"], columns["au_raw"])
        for name, g, e in zip(("DE", "SC", "AU"), got, expected):
            assert np.array_equal(g, e), name
    for clip, sc, au in zip(clips, expected[1], expected[2]):
        assert soft_collision(preds[clip.id], eps_a) == sc
        assert agent_uncertainty(preds[clip.id], delta_d) == au


TIED_PROBS = [(1.0,), (0.5, 0.5), (0.5, 0.0, 0.5), (0.0, 1.0), (1 / 3, 1 / 3, 1 / 3),
              (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 1.0, 0.0)]


def ragged_scene(rng, n_clips, horizon, eps_a, delta_d, max_modalities=4):
    """Clips with 0-4 agents of 1-``max_modalities`` modalities each, with zero
    and tied probabilities, confidences equal to ``eps_a``, and agents exactly
    ``delta_d`` from the plan. Plans lie on a quarter-meter grid, so a
    ``delta_d`` offset stays exact."""
    clips, preds = [], {}
    for i in range(n_clips):
        plan = rng.integers(-40, 40, size=(horizon, 2)) / 4.0
        agents = []
        for j in range(int(rng.integers(0, 5))):
            if rng.uniform() < 0.4 and max_modalities <= 4:
                probs = TIED_PROBS[int(rng.integers(0, len(TIED_PROBS)))]
            else:
                p = rng.dirichlet(np.ones(int(rng.integers(1, max_modalities + 1))))
                p[rng.uniform(size=len(p)) < 0.3] = 0.0
                p[int(rng.integers(0, len(p)))] += 1e-3
                probs = tuple(p / p.sum())
            trajs = []
            for _ in probs:
                kind = rng.uniform()
                if kind < 0.3:
                    trajs.append(plan + np.array([0.0, delta_d]))
                elif kind < 0.6:
                    trajs.append(plan + rng.normal(0, delta_d, size=(horizon, 2)))
                else:
                    trajs.append(rng.normal(0, 6, size=(horizon, 2)))
            confidence = [eps_a, float(rng.uniform()), 0.0, 1.0][int(rng.integers(0, 4))]
            agents.append(make_forecast(f"c{i}-a{j}", confidence=confidence, probs=probs,
                                        trajs=trajs, horizon=horizon))
        clip = make_clip(f"c{i:03d}", gt_future=plan + rng.normal(0, 1, size=(horizon, 2)), horizon=horizon)
        clips.append(clip)
        preds[clip.id] = make_pred(clip.id, ego_plan=plan, agents=agents, horizon=horizon)
    return clips, preds


class TestBitIdentity:
    """The batch kernels equal the one-clip reference criteria exactly."""

    def test_random_ragged_predictions(self, rng):
        at_eps = at_delta = 0
        for _ in range(150):
            eps_a, delta_d = 0.5, [3.0, 1.5, 0.25][int(rng.integers(0, 3))]
            clips, preds = ragged_scene(rng, int(rng.integers(1, 9)), int(rng.integers(1, 12)), eps_a, delta_d)
            assert_scores_match_reference(clips, preds, eps_a, delta_d)
            batch = prediction_batch(preds, clips)
            assert dict(batch) == preds  # views keep ragged modality counts
            for pred in preds.values():
                for a in pred.agents:
                    at_eps += a.confidence == eps_a
                    d = np.linalg.norm(reference_best_track(a) - np.asarray(pred.ego_plan), axis=1).min()
                    at_delta += d == delta_d
        assert at_eps > 50 and at_delta > 50

    def test_entropy_beyond_eight_modalities(self, rng):
        """numpy sums eight or more terms pairwise, so each clip's nonzero
        terms must be summed alone."""
        for _ in range(20):
            clips, preds = ragged_scene(rng, 6, 6, 0.5, 3.0, max_modalities=16)
            assert_scores_match_reference(clips, preds, 0.5, 3.0)
            for pred in preds.values():
                for a in pred.agents:
                    assert modality_entropy(a.modality_probs) == reference_entropy(a.modality_probs)

    @pytest.mark.parametrize("horizon", [6, 10])
    def test_seeded_worlds(self, horizon):
        for seed in range(3):
            clips, truth = generate_world(WorldConfig(n_clips=300, seed=90 + seed, agent_rate=3.0, horizon=horizon))
            planner = ToyPlanner(clips, truth)
            planner.train([c.id for c in clips[:60]])
            batch = planner.predict([c.id for c in clips[60:]])
            preds = dict(batch)
            assert any(not p.agents for p in preds.values())
            assert_scores_match_reference(clips[60:], preds, 0.5, 3.0)


def straight_plan(horizon=6, dx=0.0, dy=0.0, step=1.0):
    return [(step * t + dx, dy) for t in range(1, horizon + 1)]


class TestDisplacementError:
    def test_identity_is_zero(self):
        plan = straight_plan()
        assert displacement_error(plan, plan) == 0.0

    def test_constant_offset(self):
        assert displacement_error(straight_plan(dx=1.0), straight_plan()) == pytest.approx(1.0, abs=ATOL)

    def test_single_345_step(self):
        gt = straight_plan()
        plan = list(gt)
        plan[3] = (plan[3][0] + 3.0, plan[3][1] + 4.0)
        assert displacement_error(plan, gt) == pytest.approx(5.0 / 6.0, abs=ATOL)

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError, match="shape"):
            displacement_error(straight_plan(horizon=5), straight_plan(horizon=6))

    def test_metric_properties(self, rng):
        """Non-negative, zero iff equal, symmetric."""
        for _ in range(N_CASES):
            h = int(rng.integers(1, 10))
            a = rng.normal(0, 5, size=(h, 2))
            b = rng.normal(0, 5, size=(h, 2))
            d_ab = displacement_error(a, b)
            assert d_ab >= 0.0
            assert d_ab == pytest.approx(displacement_error(b, a), abs=ATOL)
            assert displacement_error(a, a) == 0.0
            if not np.array_equal(a, b):
                assert d_ab > 0.0


class TestSoftCollision:
    def test_no_qualifying_agents(self):
        pred = make_pred(agents=[make_forecast(confidence=0.4)])
        assert soft_collision(pred, eps_a=0.5) == 0.0

    def test_coincident_agent_scores_horizon(self):
        plan = straight_plan()
        agent = make_forecast(trajs=[plan])
        pred = make_pred(ego_plan=plan, agents=[agent])
        assert soft_collision(pred, eps_a=0.5) == pytest.approx(6.0, abs=ATOL)

    def test_two_agents_min_picks_closer(self):
        plan = straight_plan()
        near = make_forecast("near", trajs=[[(x, y + 1.0) for x, y in plan]])
        far = make_forecast("far", trajs=[[(x, y + 2.0) for x, y in plan]])
        pred = make_pred(ego_plan=plan, agents=[near, far])
        assert soft_collision(pred, eps_a=0.5) == pytest.approx(6.0 * math.exp(-1.0), abs=ATOL)

    def test_uses_highest_probability_modality(self):
        plan = straight_plan()
        agent = make_forecast(
            probs=(0.2, 0.8),
            trajs=[[(x, y + 1.0) for x, y in plan], [(x, y + 3.0) for x, y in plan]],
        )
        pred = make_pred(ego_plan=plan, agents=[agent])
        assert soft_collision(pred, eps_a=0.0) == pytest.approx(6.0 * math.exp(-3.0), abs=ATOL)

    def test_bounds(self, rng):
        """0 <= SC <= horizon for arbitrary scenes."""
        for _ in range(N_CASES // 2):
            h = int(rng.integers(1, 8))
            plan = rng.normal(0, 3, size=(h, 2))
            agents = [
                make_forecast(f"a{i}", confidence=float(rng.uniform(0, 1)),
                              trajs=[rng.normal(0, 3, size=(h, 2))], horizon=h)
                for i in range(int(rng.integers(0, 4)))
            ]
            pred = make_pred(ego_plan=plan, agents=agents, horizon=h)
            sc = soft_collision(pred, eps_a=0.5)
            assert 0.0 <= sc <= h + ATOL

    def test_monotone_in_closest_distance(self, rng):
        """Moving any agent closer at any timestep never lowers the score."""
        for _ in range(N_CASES // 2):
            h = int(rng.integers(2, 8))
            plan = rng.normal(0, 3, size=(h, 2))
            trajs = [plan + rng.normal(0, 4, size=(h, 2)) for _ in range(2)]
            agents = [make_forecast(f"a{i}", trajs=[t], horizon=h) for i, t in enumerate(trajs)]
            pred = make_pred(ego_plan=plan, agents=agents, horizon=h)
            before = soft_collision(pred, eps_a=0.5)

            i = int(rng.integers(0, 2))
            t = int(rng.integers(0, h))
            lam = float(rng.uniform(0.1, 0.9))
            moved = trajs[i].copy()
            moved[t] = plan[t] + lam * (moved[t] - plan[t])
            agents[i] = make_forecast(f"a{i}", trajs=[moved], horizon=h)
            after = soft_collision(make_pred(ego_plan=plan, agents=agents, horizon=h), eps_a=0.5)
            assert after >= before - ATOL


class TestAgentUncertainty:
    def test_one_hot_probs_zero(self):
        plan = straight_plan()
        agent = make_forecast(probs=(1.0,), trajs=[[(x, y + 3.0) for x, y in plan]])
        pred = make_pred(ego_plan=plan, agents=[agent])
        assert agent_uncertainty(pred, delta_d=3.0) == 0.0

    def test_uniform_three_modalities_at_threshold(self):
        plan = straight_plan()
        shifted = [(x, y + 3.0) for x, y in plan]
        agent = make_forecast(probs=(1 / 3, 1 / 3, 1 / 3), trajs=[shifted] * 3)
        pred = make_pred(ego_plan=plan, agents=[agent])
        assert agent_uncertainty(pred, delta_d=3.0) == pytest.approx(math.log(3.0), abs=ATOL)

    def test_faraway_agents_filtered(self):
        plan = straight_plan()
        agent = make_forecast(probs=(0.5, 0.5),
                              trajs=[[(x, y + 50.0) for x, y in plan]] * 2)
        pred = make_pred(ego_plan=plan, agents=[agent])
        assert agent_uncertainty(pred, delta_d=3.0) == 0.0

    def test_weight_at_least_one_for_qualifying(self, rng):
        """AU >= entropy for a single qualifying agent (weight >= 1)."""
        for _ in range(N_CASES // 2):
            h = 6
            plan = np.asarray(straight_plan(h))
            d = float(rng.uniform(0, 3.0))
            probs = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
            traj = plan + np.array([0.0, d])
            agent = make_forecast(probs=tuple(probs), trajs=[traj] * len(probs), horizon=h)
            pred = make_pred(ego_plan=plan, agents=[agent], horizon=h)
            au = agent_uncertainty(pred, delta_d=3.0)
            assert au >= modality_entropy(probs) - ATOL

    def test_zero_prob_convention(self):
        plan = straight_plan()
        shifted = [(x, y + 3.0) for x, y in plan]
        agent = make_forecast(probs=(0.5, 0.5, 0.0), trajs=[shifted] * 3)
        pred = make_pred(ego_plan=plan, agents=[agent])
        assert agent_uncertainty(pred, delta_d=3.0) == pytest.approx(math.log(2.0), abs=ATOL)

    def test_bad_probability_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            make_forecast(probs=(0.5, 0.4))


class TestEntropy:
    def test_bound_with_uniform_equality(self, rng):
        """H(p) <= ln(n), equality iff uniform."""
        for _ in range(N_CASES):
            n = int(rng.integers(1, 8))
            p = rng.dirichlet(np.ones(n))
            h = modality_entropy(p)
            assert h <= math.log(n) + ATOL
            assert modality_entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log(n), abs=1e-12)

    def test_best_modality_tie_takes_lowest_index(self):
        plan = straight_plan()
        a = make_forecast(probs=(0.5, 0.5), trajs=[plan, [(x, y + 9) for x, y in plan]])
        assert np.allclose(best_modality_traj(a), np.asarray(plan))


class TestNormalization:
    def test_affine(self):
        assert min_max_normalize({"a": 2.0, "b": 4.0, "c": 6.0}) == {"a": 0.0, "b": 0.5, "c": 1.0}

    def test_degenerate_all_equal(self):
        assert min_max_normalize({"a": 7.0, "b": 7.0}) == {"a": 0.0, "b": 0.0}

    def test_single_clip(self):
        assert min_max_normalize({"a": 3.0}) == {"a": 0.0}

    def test_idempotent_on_normalized(self, rng):
        """Normalizing an already-normalized vector returns it unchanged."""
        for _ in range(N_CASES):
            n = int(rng.integers(2, 30))
            vals = rng.uniform(0, 100, size=n)
            vals[0], vals[1] = vals.min() - 1, vals.max() + 1  # distinct endpoints
            normed = min_max_normalize({f"c{i}": float(v) for i, v in enumerate(vals)})
            assert min_max_normalize(normed) == normed


def reference_min_max_normalize(values):
    """min_max_normalize as a dict formula, before it ran on columns."""
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


def reference_rank_and_take(scores, n):
    """rank_and_take as a heap over the items, before it ran on columns."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > len(scores):
        raise ValueError(f"cannot take {n} of {len(scores)} scored clips")
    for clip_id, score in scores.items():
        if not math.isfinite(score):
            raise ValueError(f"clip {clip_id!r} has non-finite score {score}")
    return [k for k, _ in heapq.nsmallest(n, scores.items(), key=lambda kv: (-kv[1], kv[0]))]


def same_outcome(function, reference, *args):
    """``(function(*args), reference(*args))``, or None when both raise the
    same ValueError message."""
    try:
        expected = reference(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            function(*args)
        assert str(raised.value) == str(exc)
        return None
    return function(*args), expected


def float_bits(values):
    return [struct.pack("<d", v) for v in values]


TINY = 2.2250738585072014e-308
EDGE_SCORES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, 1.0, 1e308, -1e308, 1.7976931348623157e308])
SCORES = EDGE_SCORES | st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-300, 1e-300) | st.floats()


class TestColumnsEqualDictFormulas:
    """The column normalizer and ranker give the dict formulas' values, float
    bits, order and messages."""

    @settings(max_examples=1000, deadline=None)
    @given(values=st.dictionaries(st.text(max_size=3), SCORES, max_size=8))
    def test_min_max_normalize(self, values):
        outcome = same_outcome(min_max_normalize, reference_min_max_normalize, values)
        if outcome:
            got, expected = outcome
            assert list(got) == list(expected)
            assert float_bits(got.values()) == float_bits(expected.values())

    @pytest.mark.parametrize(
        "values", [{"a": 0.0, "b": -0.0, "c": 1.0}, {"a": -0.0, "b": 0.0, "c": 1.0}, {"a": 1e308, "b": -1e308}]
    )
    def test_min_max_normalize_signed_zeros_and_overflow(self, values):
        got, expected = same_outcome(min_max_normalize, reference_min_max_normalize, values)
        assert float_bits(got.values()) == float_bits(expected.values())

    @settings(max_examples=1000, deadline=None)
    @given(
        scores=st.dictionaries(st.text(alphabet="ab\x00", max_size=3) | st.text(max_size=3), SCORES, max_size=12),
        data=st.data(),
    )
    def test_rank_and_take(self, scores, data):
        n = data.draw(st.integers(-1, len(scores) + 1))
        outcome = same_outcome(rank_and_take, reference_rank_and_take, scores, n)
        if outcome:
            assert outcome[0] == outcome[1]

    def test_rank_and_take_nul_suffix_and_signed_zero_ties(self):
        scores = {"a\x00": 0.0, "a": -0.0, "b": 0.0, "": -0.0, "a\x00\x00": 1.0}
        assert rank_and_take(scores, 5) == reference_rank_and_take(scores, 5) == ["a\x00\x00", "", "a", "a\x00", "b"]

    def test_score_pool_normalizes_and_mixes_as_rows(self, rng):
        for alpha, beta in ((1.0, 1.0), (0.3, 7.0), (0, 1e6)):
            clips, preds = ragged_scene(rng, 40, 5, eps_a=0.5, delta_d=3.0)
            rows = score_rows(score_pool(clips, preds, alpha=alpha, beta=beta, eps_a=0.5, delta_d=3.0))
            norms = [
                reference_min_max_normalize({r.clip_id: getattr(r, f"{c}_raw") for r in rows}) for c in ("de", "sc", "au")
            ]
            for r in rows:
                expected = [n[r.clip_id] for n in norms]
                expected.append(overall_loss(*expected, alpha, beta))
                assert float_bits((r.de_norm, r.sc_norm, r.au_norm, r.overall)) == float_bits(expected)


class TestOverallLoss:
    def test_unit_weights(self):
        assert overall_loss(0.2, 0.5, 0.3, alpha=1.0, beta=1.0) == pytest.approx(1.0, abs=ATOL)

    def test_identity_on_de(self):
        for x in (0.0, 0.3, 1.0):
            assert overall_loss(x, 0.0, 0.0, alpha=2.0, beta=5.0) == x

    def test_weighted(self):
        assert overall_loss(0.5, 0.5, 0.5, alpha=2.0, beta=0.0) == pytest.approx(1.5, abs=ATOL)


class TestRankAndTake:
    def test_direct_ordering(self):
        assert rank_and_take({"a": 0.1, "b": 0.9, "c": 0.5}, 2) == ["b", "c"]

    def test_tie_breaks_by_id(self):
        assert rank_and_take({"c": 1.0, "a": 1.0, "b": 1.0}, 2) == ["a", "b"]

    def test_n_beyond_pool_errors(self):
        with pytest.raises(ValueError):
            rank_and_take({"a": 1.0}, 2)

    def test_nan_score_is_rejected_in_any_key_order(self):
        """A NaN used to win the top slot and make the rest order-dependent."""
        scores = {"a": 0.5, "b": float("nan"), "c": 0.9, "d": 0.1}
        for keys in (["a", "b", "c", "d"], ["d", "c", "b", "a"], ["c", "a", "d", "b"]):
            with pytest.raises(ValueError, match="'b'"):
                rank_and_take({k: scores[k] for k in keys}, 2)

    def test_infinite_score_is_rejected(self):
        with pytest.raises(ValueError, match="'x'"):
            rank_and_take({"x": float("inf"), "y": 1.0}, 1)

    def brute_force(self, scores, n):
        return [cid for cid, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:n]]

    def test_matches_brute_force_with_ties(self, rng):
        """Exhaustive sort-then-prefix oracle, with planted ties."""
        for _ in range(N_CASES):
            m = int(rng.integers(1, 60))
            values = np.round(rng.uniform(0, 1, size=m), 2)  # coarse grid plants ties
            scores = {f"c{i:03d}": float(v) for i, v in enumerate(values)}
            n = int(rng.integers(0, m + 1))
            assert rank_and_take(scores, n) == self.brute_force(scores, n)

    def test_invariant_under_monotone_transforms(self, rng):
        """Any strictly increasing transform leaves the ranking unchanged."""
        transforms = [lambda x: 2 * x + 1, math.exp, lambda x: x**3, math.atan]
        for _ in range(N_CASES // 2):
            m = int(rng.integers(2, 40))
            values = np.round(rng.uniform(0, 1, size=m), 2)
            scores = {f"c{i:03d}": float(v) for i, v in enumerate(values)}
            n = int(rng.integers(1, m + 1))
            base = rank_and_take(scores, n)
            f = transforms[int(rng.integers(0, len(transforms)))]
            assert rank_and_take({k: f(v) for k, v in scores.items()}, n) == base


class TestScorePool:
    def test_missing_prediction_names_clip(self):
        clips = [make_clip("c0"), make_clip("c1")]
        preds = {"c0": make_pred("c0")}
        with pytest.raises(KeyError, match="c1"):
            score_pool(clips, preds, alpha=1, beta=1, eps_a=0.5, delta_d=3.0)
        with pytest.raises(KeyError, match="c1"):
            score_pool(clips, prediction_batch(preds, clips[:1]), alpha=1, beta=1, eps_a=0.5, delta_d=3.0)

    def test_batch_scores_only_the_given_clips(self, rng):
        clips, preds = ragged_scene(rng, 8, 6, 0.5, 3.0)
        batch = prediction_batch(preds, clips)
        assert isinstance(batch, PredictionBatch) and list(batch) == [c.id for c in clips]
        subset = clips[5:] + clips[:2]
        by_batch = score_rows(score_pool(subset, batch, alpha=1, beta=1, eps_a=0.5, delta_d=3.0))
        assert by_batch == score_rows(score_pool(subset, preds, alpha=1, beta=1, eps_a=0.5, delta_d=3.0))
        assert [r.clip_id for r in by_batch] == [c.id for c in subset]

    def test_batch_of_exactly_the_clips_is_not_copied(self, rng):
        clips, preds = ragged_scene(rng, 8, 6, 0.5, 3.0)
        batch = prediction_batch(preds, clips)
        assert prediction_batch(batch, clips) is batch
        assert prediction_batch(batch, clip_table(clips)) is batch
        for order in (clips[::-1], clips[:-1], clips[1:] + clips[:1]):
            taken = prediction_batch(batch, clip_table(order))
            assert taken is not batch and list(taken) == [c.id for c in order]
            assert [taken[c.id] for c in order] == [preds[c.id] for c in order]
        other_horizon = [make_clip(c.id, horizon=4) for c in clips]
        for clips_of in (list, clip_table):
            with pytest.raises(ValueError, match="gt_future has 4 waypoints, predictions have 6"):
                prediction_batch(batch, clips_of(other_horizon))

    def test_overall_matches_mixture(self, rng):
        clips = [make_clip(f"c{i}", gt_future=rng.normal(0, 3, size=(6, 2))) for i in range(20)]
        preds = {c.id: make_pred(c.id, ego_plan=rng.normal(0, 3, size=(6, 2))) for c in clips}
        rows = score_rows(score_pool(clips, preds, alpha=0.7, beta=1.3, eps_a=0.5, delta_d=3.0))
        for r in rows:
            assert r.overall == pytest.approx(r.de_norm + 0.7 * r.sc_norm + 1.3 * r.au_norm, abs=ATOL)
            assert 0.0 <= r.de_norm <= 1.0


class TestScoreInPlace:
    """score_pool scores some clips of a table and of a batch by row index:
    bit for bit what scoring the taken table and batch gives."""

    KW = dict(alpha=0.7, beta=1.3, eps_a=0.5, delta_d=3.0)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_clips=st.integers(1, 10), horizon=st.integers(1, 8),
           block=st.sampled_from([1, 2, 3, criteria.AGENT_BLOCK]),
           score_block=st.sampled_from([1, 2, 3, criteria.SCORE_BLOCK]), data=st.data())
    def test_subset_of_a_shuffled_superset_batch(self, seed, n_clips, horizon, block, score_block, data):
        # 0-4 agents per clip, of 1-4 modalities each.
        clips, preds = ragged_scene(np.random.default_rng(seed), n_clips, horizon, 0.5, 3.0)
        table = clip_table(clips)
        batch = prediction_batch(preds, table.take(data.draw(st.permutations(table.ids))))
        ids = tuple(data.draw(st.permutations(table.ids))[: data.draw(st.integers(1, n_clips))])
        expected = score_pool(table.take(ids), batch.take(ids), **self.KW)
        with mock.patch.object(criteria, "AGENT_BLOCK", block), mock.patch.object(criteria, "SCORE_BLOCK", score_block):
            for predictions in (batch, preds):
                got = score_pool(table, predictions, ids=ids, **self.KW)
                assert got["clip_id"] == expected["clip_id"] == ids
                for name in SCORE_COLUMNS[1:]:
                    assert float_bits(got[name].tolist()) == float_bits(expected[name].tolist()), name

    def test_errors_name_the_clip(self, rng):
        clips, preds = ragged_scene(rng, 6, 6, 0.5, 3.0)
        table = clip_table(clips)
        batch = prediction_batch(preds, clips[:3])
        with pytest.raises(KeyError, match=f"missing prediction for clip '{clips[4].id}'"):
            score_pool(table, batch, ids=[clips[1].id, clips[4].id], **self.KW)
        other_horizon = clip_table([make_clip(c.id, horizon=4) for c in clips])
        with pytest.raises(ValueError, match=f"clip '{clips[2].id}': gt_future has 4 waypoints, predictions have 6"):
            score_pool(other_horizon, batch, ids=[clips[2].id, clips[0].id], **self.KW)
        with pytest.raises(ValueError, match="duplicate clip id"):
            score_pool(table, batch, ids=[clips[1].id, clips[1].id], **self.KW)
        with pytest.raises(ValueError, match="no clips to score"):
            score_pool(table, batch, ids=[], **self.KW)

    def test_superset_batch_is_not_copied(self):
        """2700 of 3000 clips, in reverse order, against the whole pool's
        batch (22 917 agents). The traced peak is 1.2 MB; scoring all clips
        in one block made it 3.0 MB, also taking the table 4.3 MB, taking
        the batch 10.1 MB, and both 11.5 MB."""
        clips, truth = generate_world(WorldConfig(n_clips=3000, seed=9, agent_rate=8.0))
        table = clip_table(clips)
        batch = ToyPlanner(table, truth).predict(table.ids)
        ids = table.ids[:-300][::-1]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            score_pool(table, batch, ids=ids, **self.KW)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 2**20


class TestPredictionBatchColumns:
    def batch(self, rng):
        clips, preds = ragged_scene(rng, 3, 6, 0.5, 3.0)
        while len(prediction_batch(preds, clips).agent_ids) < 2:
            clips, preds = ragged_scene(rng, 3, 6, 0.5, 3.0)
        return prediction_batch(preds, clips)

    def test_unequal_lengths_are_rejected(self, rng):
        batch = self.batch(rng)
        n, a, m, h = len(batch), len(batch.agent_ids), batch.modality_probs.shape[1], batch.horizon
        with pytest.raises(ValueError, match=f"disagree in N: clip_ids has {n}, ego_plans has {n - 1}"):
            replace(batch, ego_plans=batch.ego_plans[:-1])
        with pytest.raises(ValueError, match=f"disagree in N: clip_ids has {n + 1}, ego_plans has {n}"):
            replace(batch, clip_ids=batch.clip_ids + ("extra",))
        for name in ("agent_ids", "confidence", "modality_counts", "modality_probs", "modality_trajs"):
            with pytest.raises(ValueError, match=f"disagree in A: agent_clip has {a}, {name} has {a - 1}"):
                replace(batch, **{name: getattr(batch, name)[:-1]})
        with pytest.raises(ValueError, match=f"disagree in A: agent_clip has {a - 1}, agent_ids has {a}"):
            replace(batch, agent_clip=batch.agent_clip[:-1])
        padded = np.concatenate([batch.modality_trajs, batch.modality_trajs[:, :1]], axis=1)
        with pytest.raises(ValueError, match=f"disagree in M: modality_probs has {m}, modality_trajs has {m + 1}"):
            replace(batch, modality_trajs=padded)
        with pytest.raises(ValueError, match=f"disagree in H: ego_plans has {h - 1}, modality_trajs has {h}"):
            replace(batch, ego_plans=batch.ego_plans[:, 1:])
        assert replace(batch).clip_ids == batch.clip_ids

    def test_three_ids_and_two_plans(self):
        """Accepted before, and then ``batch["c"]`` raised IndexError."""
        with pytest.raises(ValueError, match="disagree in N: clip_ids has 3, ego_plans has 2"):
            PredictionBatch(("a", "b", "c"), np.zeros((2, 6, 2)), np.zeros(0, dtype=np.intp),
                            np.zeros(0, dtype=object), np.zeros(0), np.zeros(0, dtype=np.intp),
                            np.zeros((0, 1)), np.zeros((0, 1, 6, 2)))


class TestPredictionsIO:
    def test_round_trip(self, tmp_path, rng):
        preds = []
        for i in range(10):
            agents = [
                make_forecast(f"a{j}", confidence=float(rng.uniform(0, 1)),
                              probs=(0.2, 0.3, 0.5),
                              trajs=[rng.normal(0, 5, size=(6, 2)) for _ in range(3)])
                for j in range(int(rng.integers(0, 3)))
            ]
            preds.append(make_pred(f"c{i}", ego_plan=rng.normal(0, 5, size=(6, 2)), agents=agents))
        path = tmp_path / "preds.jsonl"
        save_predictions(preds, path)
        loaded = load_predictions(path)
        assert list(loaded.values()) == preds

    def test_duplicate_clip_id_rejected(self):
        pred = make_pred("c0")
        import json

        line = json.dumps(prediction_to_dict(pred))
        with pytest.raises(PoolFormatError, match="c0"):
            load_predictions([line, line])

    def test_parse_error_names_line(self):
        with pytest.raises(PoolFormatError, match="line 1"):
            load_predictions(["{bad"])


def reference_scores_to_table(rows):
    """scores.tsv as it was rendered from CriterionScores rows."""
    out = ["\t".join(SCORE_COLUMNS)]
    out += ["\t".join([r.clip_id, *map(repr, r[1:])]) for r in rows]
    return "\n".join(out) + "\n"


@pytest.fixture(scope="module")
def scores_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scores")


SCORE_IDS = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), max_size=4)
FINITE = EDGE_SCORES | st.floats(allow_nan=False, allow_infinity=False)


class TestScoresFile:
    def _write(self, tmp_path, *rows):
        path = tmp_path / "scores.tsv"
        path.write_text("\n".join(["\t".join(SCORE_COLUMNS), *rows]) + "\n")
        return path

    @pytest.mark.parametrize("seed", [3, 13, 29])
    def test_toy_planner_scores_match_the_row_formulas(self, tmp_path, seed):
        """save_scores writes the bytes of the row renderer, and load_scores
        gives back the columns' float bits."""
        clips, truth = generate_world(WorldConfig(n_clips=200, seed=seed, agent_rate=3.0))
        planner = ToyPlanner(clips, truth)
        planner.train([c.id for c in clips[:40]])
        columns = score_pool(clips[40:], planner.predict([c.id for c in clips[40:]]),
                             alpha=1.0, beta=1.0, eps_a=0.5, delta_d=3.0)
        rows = score_rows(columns)
        path = tmp_path / "scores.tsv"
        save_scores(columns, path)
        assert path.read_text() == reference_scores_to_table(rows)
        loaded = score_rows(load_scores(path))
        assert [r.clip_id for r in loaded] == [r.clip_id for r in rows]
        assert [float_bits(r[1:]) for r in loaded] == [float_bits(r[1:]) for r in rows]

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(SCORE_IDS, st.lists(FINITE, min_size=7, max_size=7)),
                         max_size=6, unique_by=lambda r: r[0]))
    def test_save_then_load_keeps_ids_and_float_bits(self, scores_dir, rows):
        columns = dict(zip(SCORE_COLUMNS, (tuple(r[0] for r in rows),
                                           *np.array([r[1] for r in rows], dtype=float).reshape(-1, 7).T.copy())))
        path = scores_dir / "property.tsv"
        save_scores(columns, path)
        loaded = load_scores(path)
        assert loaded["clip_id"] == columns["clip_id"]
        for name in SCORE_COLUMNS[1:]:
            assert loaded[name].dtype == np.float64
            assert float_bits(loaded[name].tolist()) == float_bits(columns[name].tolist()), name

    @pytest.mark.parametrize("n", [criteria.SCORE_BLOCK - 1, criteria.SCORE_BLOCK, criteria.SCORE_BLOCK + 1])
    def test_values_orjson_writes_otherwise_take_repr(self, tmp_path, n):
        """Blocks of plain floats and blocks that hold 0.0, -0.0, 3e-05, 1e16
        and NaN (in other rows and columns, the last row included) are all
        written as repr writes each value."""
        values = np.random.default_rng(n).uniform(0.5, 2.0, (7, n))
        for column, row, x in [(0, 0, 0.0), (1, 1, -0.0), (2, n - 1, 3e-05), (3, n // 2, 1e16), (6, 5, math.nan),
                               (4, n - 1, 1e16), (5, 0, -3e-05)]:
            values[column, row] = x
        columns = dict(zip(SCORE_COLUMNS, (tuple(f"clip_{i:06d}" for i in range(n)), *values)))
        path = tmp_path / "scores.tsv"
        save_scores(columns, path)
        text = path.read_text()
        assert text == reference_scores_to_table(score_rows(columns))
        assert {"0.0", "-0.0", "3e-05", "-3e-05", "1e+16", "nan"} <= set(re.split("[\t\n]", text))

    def test_rows_are_written_as_they_are_formatted(self, tmp_path):
        """20 000 rows (2.8 MB of TSV) peak at 0.57 MB of traced memory, and
        the bytes are those of the whole table joined at once, which peaked
        at 11.0 MB."""
        n = 20000
        values = np.random.default_rng(0).random((7, n))
        columns = dict(zip(SCORE_COLUMNS, (tuple(f"clip_{i:06d}" for i in range(n)), *values)))
        path = tmp_path / "scores.tsv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_scores(columns, path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        rows = zip(columns["clip_id"], *(map(repr, v.tolist()) for v in values))
        assert path.read_text() == "\n".join(["\t".join(SCORE_COLUMNS), *map("\t".join, rows)]) + "\n"

    def test_lines_are_checked_as_they_are_read(self, tmp_path):
        """20 000 rows load at a traced peak of 1.7 times the columns
        returned, with the same ids and float bits: each line is checked as
        it is read into one flat column. A list of every line and a list
        per row peaked at 5.9 times."""
        n = 20000
        values = np.random.default_rng(0).random((7, n))
        columns = dict(zip(SCORE_COLUMNS, (tuple(f"clip_{i:06d}" for i in range(n)), *values)))
        path = tmp_path / "scores.tsv"
        save_scores(columns, path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_scores(path)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * kept, (peak, kept)
        assert loaded["clip_id"] == columns["clip_id"]
        for name in SCORE_COLUMNS[1:]:
            assert loaded[name].tobytes() == columns[name].tobytes(), name

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = self._write(tmp_path, "c0\t1.0\t0.0\t0.5\t1.0\t0.0\t0.5\t1.5", "", "",
                           "c1\t1.0\t0.0\t0.5\t1.0\t0.0\t0.5\tnan")
        with pytest.raises(PoolFormatError, match=rf"{re.escape(str(path))} line 5: non-finite overall"):
            load_scores(path)

    @pytest.mark.parametrize("cell", ["1_0", " 0.9_9 ", "\u0661", "+1.0", "1e5", "1E+05"])
    def test_cells_repr_never_writes_are_rejected(self, tmp_path, cell):
        """float() reads these cells, but repr never writes them."""
        path = self._write(tmp_path, "c0\t1.0\t0.0\t0.5\t1.0\t0.0\t0.5\t1.5",
                           f"c1\t1.0\t0.0\t0.5\t1.0\t{cell}\t0.5\t1.5")
        message = rf"{re.escape(str(path))} line 3: sc_norm {re.escape(repr(cell))} is not a decimal number"
        with pytest.raises(PoolFormatError, match=message):
            load_scores(path)

    def test_plain_integers_load(self, tmp_path):
        path = self._write(tmp_path, "c0\t1\t0\t5\t1\t-0\t10\t2")
        columns = load_scores(path)
        assert float_bits(columns[c][0] for c in SCORE_COLUMNS[1:]) == float_bits([1.0, 0.0, 5.0, 1.0, -0.0, 10.0, 2.0])

    def test_round_trip_of_finite_rows(self, tmp_path):
        path = self._write(tmp_path, "c0\t1.0\t0.0\t0.5\t1.0\t0.0\t0.5\t1.5")
        (row,) = score_rows(load_scores(path))
        assert row.clip_id == "c0" and row.au_norm == 0.5 and row.overall == 1.5

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, bad):
        path = self._write(
            tmp_path,
            "c0\t1.0\t0.0\t0.5\t1.0\t0.0\t0.5\t1.5",
            f"c1\t1.0\t0.0\t0.5\t1.0\t0.0\t0.5\t{bad}",
        )
        with pytest.raises(PoolFormatError, match=rf"{re.escape(str(path))} line 3: non-finite overall"):
            load_scores(path)

    def test_unparsable_value_names_line(self, tmp_path):
        path = self._write(tmp_path, "c0\t1.0\t0.0\tzero\t1.0\t0.0\t0.5\t1.5")
        with pytest.raises(PoolFormatError, match="line 2"):
            load_scores(path)

    def test_duplicate_clip_id_names_file_and_line(self, tmp_path):
        """A second row used to override the first one's score."""
        path = self._write(
            tmp_path,
            "c0\t1.0\t0.0\t0.5\t1.0\t0.0\t0.5\t0.9",
            "c1\t1.0\t0.0\t0.5\t1.0\t0.0\t0.5\t0.5",
            "c0\t1.0\t0.0\t0.5\t1.0\t0.0\t0.5\t0.1",
        )
        with pytest.raises(PoolFormatError, match=rf"{re.escape(str(path))} line 4: duplicate clip_id 'c0'"):
            load_scores(path)


class TestPlanChecks:
    """A plan defect gives one message, in a prediction object and in a
    predictions file alike."""

    @pytest.mark.parametrize(
        "plan, trajs, message",
        [
            ([], None, "ego_plan is empty"),
            ([[1.0, 2.0, 3.0]] * 6, None, "ego_plan waypoints must be (x, y) pairs"),
            ([1.0, 2.0], None, "ego_plan waypoints must be (x, y) pairs"),
            (None, [[[float(t), 0.0] for t in range(5)]], "agent a0: modality_trajs have 5 waypoints, expected 6"),
        ],
        ids=["empty", "triples", "flat", "agent_horizon"],
    )
    def test_object_and_record_agree(self, plan, trajs, message):
        plan = [[float(t), 0.0] for t in range(1, 7)] if plan is None else plan
        agents = [] if trajs is None else [
            {"agent_id": "a0", "confidence": 0.9, "modality_probs": [1.0], "modality_trajs": trajs}
        ]
        with pytest.raises(ValueError) as from_object:
            ClipPrediction(
                "c0",
                plan,
                tuple(AgentForecast(a["agent_id"], a["confidence"], tuple(a["modality_probs"]),
                                    a["modality_trajs"]) for a in agents),
            )
        assert str(from_object.value) == f"clip c0: {message}"
        line = json.dumps({"clip_id": "c0", "ego_plan": plan, "agents": agents})
        with pytest.raises(PoolFormatError) as from_file:
            load_predictions([line], horizon=None)
        assert str(from_file.value) == f"predictions line 1: {message}"


class TestFiniteChecks:
    """Non-finite waypoints are found from row sums; only a row whose sum is
    not finite is checked value by value, since finite values can overflow
    the sum."""

    POINTS = [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf), (np.inf, -np.inf)]

    @staticmethod
    def batch(trajs):
        """Two clips of two one-modality agents each, a0 to a3."""
        return PredictionBatch(("c0", "c1"), np.zeros((2, 6, 2)), np.array([0, 0, 1, 1]),
                               np.array(["a0", "a1", "a2", "a3"], dtype=object), np.ones(4),
                               np.ones(4, dtype=np.intp), np.ones((4, 1)), trajs)

    def test_waypoints_whose_sum_overflows_are_accepted(self):
        trajs = np.zeros((4, 1, 6, 2))
        trajs[1] = 1e308
        with np.errstate(over="ignore"):
            assert np.isinf(trajs[1].sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.batch(trajs)
            make_forecast(trajs=[[(1e308, 1e308)] * 6])
            make_pred(ego_plan=[(1e308, 1e308)] * 6)

    @pytest.mark.parametrize("point", POINTS, ids=["nan", "inf", "-inf", "inf_pair"])
    def test_the_first_bad_agent_is_named(self, point):
        trajs = np.zeros((4, 1, 6, 2))
        trajs[1] = 1e308
        trajs[2, 0, 3] = trajs[3, 0, 0] = point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^agent a2: non-finite waypoint$") as exc:
                self.batch(trajs)
            assert exc.value.row == 1
            with pytest.raises(ValueError, match="^agent a0: non-finite waypoint$"):
                make_forecast(trajs=[[(1e308, 1e308)] * 5 + [point]])
            with pytest.raises(ValueError, match="^clip c0: non-finite plan waypoint$"):
                make_pred(ego_plan=[(1.0, 0.0)] * 5 + [point])


class TestDuplicateIdsByHash:
    """Ids are checked for repeats by their sorted hashes, and only an
    equal-hash pair runs the exact check. With every hash equal, unique ids
    still pass and a repeated id still fails with its message."""

    KW = dict(alpha=1.0, beta=1.0, eps_a=0.5, delta_d=3.0)

    def test_constant_hash(self, rng):
        clips, preds = ragged_scene(rng, 6, 6, 0.5, 3.0)
        table = clip_table(clips)
        batch = prediction_batch(preds, table)
        ids = table.ids[::-1]
        expected = score_pool(table, batch, ids=ids, **self.KW)
        constant = mock.Mock(return_value=0)
        with mock.patch.object(pool_module, "hash", constant, create=True):
            assert clip_table(clips).ids == table.ids
            assert replace(batch).clip_ids == batch.clip_ids
            got = score_pool(table, batch, ids=ids, **self.KW)
            assert constant.called
            for name in SCORE_COLUMNS[1:]:
                assert float_bits(got[name].tolist()) == float_bits(expected[name].tolist()), name
            with pytest.raises(ValueError, match=f"^duplicate clip id '{clips[2].id}' in a clip table$"):
                clip_table([*clips, clips[2]])
            repeated = (*batch.clip_ids[:-1], batch.clip_ids[1])
            with pytest.raises(ValueError, match=f"^duplicate clip id '{clips[1].id}' in a prediction batch$"):
                replace(batch, clip_ids=repeated)
            with pytest.raises(ValueError, match=f"^duplicate clip id '{clips[4].id}' in the scored ids$"):
                score_pool(table, batch, ids=[clips[4].id, clips[0].id, clips[4].id], **self.KW)
