"""Selection loop: config invariants, round mechanics, budget properties."""

import json
import tracemalloc

import numpy as np
import pytest

from driveselect.criteria import save_predictions, score_pool
from driveselect.loop import (
    ActiveConfig,
    FilePredictionProvider,
    RoundTrace,
    derive_schedule,
    random_init,
    run,
    run_round,
)
from driveselect.pool import SelectionState, clip_table, selection_to_dict
from driveselect.synthworld import ToyPlanner, WorldConfig, generate_world

from conftest import ConstantProvider, HashPlanProvider, make_clip, random_clip, score_rows

N_CASES = 1000


def small_pool(rng, n=None):
    n = n or int(rng.integers(4, 16))
    return [random_clip(rng, f"c{i:03d}", horizon=4) for i in range(n)]


class TestActiveConfig:
    def test_budget_identity_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            ActiveConfig(budget=10, n_init=5, n_rounds=2, n_per_round=3)

    def test_valid_config(self):
        cfg = ActiveConfig(budget=11, n_init=5, n_rounds=2, n_per_round=3)
        assert cfg.gamma == 0.5 and cfg.alpha == 1.0 and cfg.beta == 1.0
        assert cfg.eps_a == 0.5 and cfg.delta_d == 3.0 and cfg.tau_c == 4

    def test_range_checks(self):
        base = dict(budget=5, n_init=5, n_rounds=0, n_per_round=0)
        with pytest.raises(ValueError):
            ActiveConfig(**base, gamma=0.0)
        with pytest.raises(ValueError):
            ActiveConfig(**base, eps_a=1.5)
        with pytest.raises(ValueError):
            ActiveConfig(**base, delta_d=0.0)
        with pytest.raises(ValueError):
            ActiveConfig(**base, init_mode="coreset")

    def test_pool_check(self):
        cfg = ActiveConfig(budget=10, n_init=10, n_rounds=0, n_per_round=0)
        with pytest.raises(ValueError, match="exceeds"):
            cfg.validate_for_pool(5)

    def test_derive_schedule(self):
        assert derive_schedule(2000) == (600, 200, 2, 200)
        assert derive_schedule(100) == (30, 10, 2, 10)


class TestRandomInit:
    def test_full_pool(self, rng):
        clips = small_pool(rng, 8)
        assert sorted(random_init(clips, 8, seed=1)) == sorted(c.id for c in clips)

    def test_deterministic_per_seed(self, rng):
        clips = small_pool(rng, 12)
        assert random_init(clips, 5, seed=7) == random_init(clips, 5, seed=7)

    def test_too_large_errors(self, rng):
        clips = small_pool(rng, 4)
        with pytest.raises(ValueError):
            random_init(clips, 5, seed=0)

    def test_sample_is_uniform_without_replacement(self, rng):
        clips = small_pool(rng, 20)
        for seed in range(50):
            picked = random_init(clips, 9, seed=seed)
            assert len(set(picked)) == 9


class TestRunRound:
    def test_identical_predictions_fall_to_id_tiebreak(self, rng):
        clips = [make_clip(f"c{i}", gt_future=[(t, 0.0) for t in range(1, 7)]) for i in range(6)]
        state = SelectionState(c.id for c in clips)
        state.add_round(0, ["c5"])
        cfg = ActiveConfig(budget=3, n_init=1, n_rounds=1, n_per_round=2)
        trace = run_round(clips, state, ConstantProvider(clips), cfg, 1)
        assert list(trace.selected_ids) == ["c0", "c1"]

    def test_de_dominates_two_clip_pool(self):
        gt = [(float(t), 0.0) for t in range(1, 7)]
        clips = [
            make_clip("u", gt_future=[(x, y + 1.0) for x, y in gt]),  # plan off by 1 m
            make_clip("v", gt_future=gt),                              # plan exact
        ]
        state = SelectionState(["u", "v"])
        cfg = ActiveConfig(budget=1, n_init=1, n_rounds=0, n_per_round=1)

        class StraightProvider(ConstantProvider):
            pass

        trace = run_round(clips, state, StraightProvider(clips), cfg, 0)
        assert trace.selected_ids == ("u",)

    def test_exhaustive_round(self, rng):
        clips = small_pool(rng, 5)
        state = SelectionState(c.id for c in clips)
        cfg = ActiveConfig(budget=5, n_init=5, n_rounds=0, n_per_round=5)
        trace = run_round(clips, state, HashPlanProvider(clips), cfg, 0)
        assert sorted(trace.selected_ids) == sorted(c.id for c in clips)
        assert state.unlabeled_ids == ()

    @pytest.mark.parametrize("criterion", ["de", "sc", "au", "mix"])
    def test_selection_is_the_criterion_pick(self, criterion):
        clips, truth = generate_world(WorldConfig(n_clips=150, seed=13, agent_rate=3.0))
        state = SelectionState(c.id for c in clips)
        state.add_round(0, [c.id for c in clips[:30]])
        cfg = ActiveConfig(budget=50, n_init=30, n_rounds=1, n_per_round=20)
        trace = run_round(clips, state, ToyPlanner(clips, truth), cfg, 1, criterion=criterion)
        assert trace.selected_ids == trace.criterion_picks[criterion]
        assert state.rounds[-1] == (1, trace.selected_ids)

    def test_unknown_criterion_is_rejected_before_training(self, rng):
        clips = small_pool(rng, 6)
        state = SelectionState(c.id for c in clips)
        state.add_round(0, [clips[0].id])
        provider = HashPlanProvider(clips)
        cfg = ActiveConfig(budget=3, n_init=1, n_rounds=1, n_per_round=2)
        with pytest.raises(ValueError, match="criterion"):
            run_round(clips, state, provider, cfg, 1, criterion="overall")
        assert provider.train_calls == 0
        assert state.rounds == ((0, (clips[0].id,)),)

    def test_provider_failure_leaves_state_untouched(self, rng):
        clips = small_pool(rng, 6)
        state = SelectionState(c.id for c in clips)
        state.add_round(0, [clips[0].id])

        class FailingProvider:
            def train(self, ids):
                raise RuntimeError("boom")

            def predict(self, ids):
                raise AssertionError("never reached")

        cfg = ActiveConfig(budget=3, n_init=1, n_rounds=1, n_per_round=2)
        before = selection_to_dict(state)
        with pytest.raises(RuntimeError):
            run_round(clips, state, FailingProvider(), cfg, 1)
        assert selection_to_dict(state) == before

    def test_round_memory_has_no_per_pool_forecasts(self):
        """One round predicts and scores the 300 unlabeled clips of 3000.
        Its traced peak is 6.2 MB; forecasts cached for the whole pool and
        the batch copied twice more on the way to scoring made it 15.6 MB."""
        clips, truth = generate_world(WorldConfig(n_clips=3000, seed=9, agent_rate=8.0))
        clips = clip_table(clips)
        planner = ToyPlanner(clips, truth)
        state = SelectionState(clips.ids)
        state.add_round(0, clips.ids[:2700])
        cfg = ActiveConfig(budget=2800, n_init=2700, n_rounds=1, n_per_round=100)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_round(clips, state, planner, cfg, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_trains_on_current_labeled_set(self, rng):
        clips = small_pool(rng, 8)
        state = SelectionState(c.id for c in clips)
        state.add_round(0, [clips[0].id, clips[3].id])
        provider = HashPlanProvider(clips)
        cfg = ActiveConfig(budget=4, n_init=2, n_rounds=1, n_per_round=2)
        run_round(clips, state, provider, cfg, 1)
        assert provider.trained_ids == (clips[0].id, clips[3].id)


def reference_summary(rows):
    """The round summary as it was computed from score_pool's rows."""
    def mean(vals):
        return float(np.mean(vals)) if vals else 0.0

    return {
        "n_scored": len(rows),
        "de_raw_mean": mean([r.de_raw for r in rows]),
        "sc_raw_mean": mean([r.sc_raw for r in rows]),
        "au_raw_mean": mean([r.au_raw for r in rows]),
        "overall_mean": mean([r.overall for r in rows]),
        "overall_max": float(max((r.overall for r in rows), default=0.0)),
    }


class TestColumnRanking:
    """run_round ranks score columns; every criterion's picks and the summary
    equal the row formulas over score_pool's rows."""

    ROW_KEYS = {
        "de": lambda r: r.de_norm,
        "sc": lambda r: r.sc_norm,
        "au": lambda r: r.au_norm,
        "mix": lambda r: r.overall,
    }

    def check_round(self, clips, provider, n_init, n):
        state = SelectionState(c.id for c in clips)
        state.add_round(0, [c.id for c in clips[:n_init]])
        cfg = ActiveConfig(budget=n_init + n, n_init=n_init, n_rounds=1, n_per_round=n)
        by_id = {c.id: c for c in clips}
        provider.train(state.labeled_ids)
        columns = score_pool([by_id[i] for i in state.unlabeled_ids], provider.predict(state.unlabeled_ids),
                             alpha=cfg.alpha, beta=cfg.beta, eps_a=cfg.eps_a, delta_d=cfg.delta_d)
        rows = score_rows(columns)
        trace = run_round(clips, state, provider, cfg, 1)
        for criterion, key in self.ROW_KEYS.items():
            expected = sorted(rows, key=lambda r: (-key(r), r.clip_id))[:n]
            assert trace.criterion_picks[criterion] == tuple(r.clip_id for r in expected), criterion
        # JSON tells 0.0 from -0.0, and the summary goes into manifest.json.
        assert json.dumps(trace.summary) == json.dumps(reference_summary(rows))
        return rows

    @pytest.mark.parametrize("seed", [3, 13, 29])
    def test_toy_planner_worlds(self, seed):
        clips, truth = generate_world(WorldConfig(n_clips=150, seed=seed, agent_rate=3.0))
        self.check_round(clips, ToyPlanner(clips, truth), 30, 20)

    def test_hash_plan_pool_with_planted_ties(self):
        # One recorded future for every clip: ids whose hash offsets collide
        # tie on DE, and with no agents SC and AU tie everywhere.
        clips = [make_clip(f"c{i:03d}") for i in range(200)]
        rows = self.check_round(clips, HashPlanProvider(clips), 20, 40)
        assert len({r.de_norm for r in rows}) < len(rows)
        assert {r.sc_norm for r in rows} == {r.au_norm for r in rows} == {0.0}


class TestRun:
    def test_no_rounds_returns_init_only(self, rng):
        clips = small_pool(rng, 10)
        cfg = ActiveConfig(budget=4, n_init=4, n_rounds=0, n_per_round=0, init_mode="random")
        result = run(clips, HashPlanProvider(clips), cfg)
        assert len(result.state.labeled_ids) == 4
        assert result.state.rounds[0][0] == 0

    def test_schedule_10_10_10(self, rng):
        clips = [random_clip(rng, f"c{i:03d}", horizon=4) for i in range(100)]
        cfg = ActiveConfig(budget=30, n_init=10, n_rounds=2, n_per_round=10, init_mode="random")
        result = run(clips, HashPlanProvider(clips), cfg)
        sizes = [len(ids) for _, ids in result.state.rounds]
        assert sizes == [10, 10, 10]
        assert len(result.state.labeled_ids) == 30
        increments = [set(ids) for _, ids in result.state.rounds]
        assert set.union(*increments) == set(result.state.labeled_ids)
        assert sum(len(s) for s in increments) == 30

    def test_determinism(self, rng):
        clips = [random_clip(rng, f"c{i:03d}", horizon=4) for i in range(40)]
        cfg = ActiveConfig(budget=18, n_init=6, n_rounds=2, n_per_round=6,
                           init_mode="random", seed=5)
        a = run(clips, HashPlanProvider(clips), cfg)
        b = run(clips, HashPlanProvider(clips), cfg)
        assert selection_to_dict(a.state) == selection_to_dict(b.state)

    def test_random_strategy_never_calls_provider(self, rng):
        clips = small_pool(rng, 12)

        class ExplodingProvider:
            def train(self, ids):
                raise AssertionError("provider used in random strategy")

            def predict(self, ids):
                raise AssertionError("provider used in random strategy")

        cfg = ActiveConfig(budget=6, n_init=2, n_rounds=2, n_per_round=2, init_mode="random")
        result = run(clips, ExplodingProvider(), cfg, strategy="random")
        assert len(result.state.labeled_ids) == 6

    def test_ego_diversity_init_records_allocations(self, rng):
        clips = [random_clip(rng, f"c{i:03d}", horizon=4) for i in range(30)]
        cfg = ActiveConfig(budget=10, n_init=10, n_rounds=0, n_per_round=0)
        result = run(clips, HashPlanProvider(clips), cfg)
        assert result.init_allocations is not None
        assert sum(a.allocated for a in result.init_allocations) == 10

    def test_budget_properties(self, rng):
        """|K| = budget, disjoint increments, unlabeled shrinks by n_per_round."""
        for _ in range(N_CASES):
            n = int(rng.integers(3, 14))
            clips = [random_clip(rng, f"c{i:03d}", horizon=3) for i in range(n)]
            n_init = int(rng.integers(1, n + 1))
            n_rounds = int(rng.integers(0, 3))
            max_per = (n - n_init) // n_rounds if n_rounds else 0
            n_per = int(rng.integers(1, max_per + 1)) if n_rounds and max_per >= 1 else 0
            if n_per == 0:
                n_rounds = 0
            budget = n_init + n_rounds * n_per
            cfg = ActiveConfig(budget=budget, n_init=n_init, n_rounds=n_rounds,
                               n_per_round=n_per, seed=int(rng.integers(0, 999)),
                               init_mode="random")
            result = run(clips, HashPlanProvider(clips), cfg)
            state = result.state
            assert len(state.labeled_ids) == budget == min(budget, n)
            assert len(set(state.labeled_ids)) == budget
            sizes = [len(ids) for _, ids in state.rounds]
            assert sizes == [n_init] + [n_per] * n_rounds

    def test_rerun_determinism_property(self, rng):
        for _ in range(300):
            n = int(rng.integers(4, 12))
            clips = [random_clip(rng, f"c{i:03d}", horizon=3) for i in range(n)]
            n_init = int(rng.integers(1, n))
            n_per = 1
            n_rounds = min(2, n - n_init)
            cfg = ActiveConfig(budget=n_init + n_rounds, n_init=n_init,
                               n_rounds=n_rounds, n_per_round=n_per,
                               seed=int(rng.integers(0, 999)), init_mode="random")
            first = run(clips, HashPlanProvider(clips), cfg)
            second = run(clips, HashPlanProvider(clips), cfg)
            assert selection_to_dict(first.state) == selection_to_dict(second.state)


class TestFileProvider:
    def test_reads_per_round_files(self, tmp_path, rng):
        clips = small_pool(rng, 6)
        provider = HashPlanProvider(clips)
        for k in (1, 2):
            preds = provider.predict([c.id for c in clips])
            save_predictions(preds.values(), tmp_path / f"predictions_round_{k}.jsonl")
        file_provider = FilePredictionProvider(tmp_path)
        cfg = ActiveConfig(budget=6, n_init=2, n_rounds=2, n_per_round=2, init_mode="random")
        result_files = run(clips, file_provider, cfg)
        result_direct = run(clips, HashPlanProvider(clips), cfg)
        assert selection_to_dict(result_files.state) == selection_to_dict(result_direct.state)

    def test_missing_id_is_named(self, tmp_path, rng):
        clips = small_pool(rng, 4)
        provider = HashPlanProvider(clips)
        preds = provider.predict([c.id for c in clips[:2]])
        save_predictions(preds.values(), tmp_path / "predictions_round_1.jsonl")
        file_provider = FilePredictionProvider(tmp_path)
        file_provider.train([])
        with pytest.raises(KeyError, match=clips[2].id):
            file_provider.predict([c.id for c in clips])


class TestManualPipelineEquivalence:
    def test_run_equals_composed_rounds(self, rng):
        """run() == init -> (train, predict, score, select) x M by hand."""
        from driveselect.criteria import rank_and_take, score_pool
        from driveselect.diversity import ego_diversity_init

        clips = [random_clip(rng, f"c{i:03d}", horizon=5) for i in range(40)]
        cfg = ActiveConfig(budget=19, n_init=7, n_rounds=2, n_per_round=6)
        auto = run(clips, HashPlanProvider(clips), cfg)

        state = SelectionState(c.id for c in clips)
        state.add_round(0, ego_diversity_init(clips, cfg.n_init, cfg.gamma, cfg.tau_c)[0])
        provider = HashPlanProvider(clips)
        by_id = {c.id: c for c in clips}
        for itr in (1, 2):
            provider.train(state.labeled_ids)
            preds = provider.predict(state.unlabeled_ids)
            columns = score_pool([by_id[i] for i in state.unlabeled_ids], preds,
                                 alpha=cfg.alpha, beta=cfg.beta,
                                 eps_a=cfg.eps_a, delta_d=cfg.delta_d)
            ids = rank_and_take(dict(zip(columns["clip_id"], columns["overall"].tolist())), cfg.n_per_round)
            state.add_round(itr, ids)
        assert selection_to_dict(state) == selection_to_dict(auto.state)
