"""Stratified budget shares, integer apportionment, and speed-interval picks."""

import math

import numpy as np
import pytest

from driveselect.diversity import (
    STRATUM_ORDER,
    allocate_budget,
    ego_diversity_init,
    first_level_shares,
    integerize,
    second_level_shares,
    select_by_speed,
    stratify,
)
from driveselect.pool import BUCKETS, COMMAND_CLASSES, weather_lighting_bucket

from conftest import make_clip

N_CASES = 1000

# Published-style long-tail bucket counts used across the share tests.
TAIL_COUNTS = {"DS": 491, "DR": 125, "NS": 71, "NR": 13}


class TestFirstLevelShares:
    def test_proportional_at_gamma_one(self):
        shares = first_level_shares(TAIL_COUNTS, gamma=1.0)
        expected = {"DS": 0.7014, "DR": 0.1786, "NS": 0.1014, "NR": 0.0186}
        for key, val in expected.items():
            assert shares[key] == pytest.approx(val, abs=1e-4)

    def test_equal_counts_any_gamma(self):
        for gamma in (0.25, 0.5, 0.8, 1.0):
            shares = first_level_shares({b: 10 for b in BUCKETS}, gamma)
            assert all(v == pytest.approx(0.25, abs=1e-12) for v in shares.values())

    def test_sqrt_weighting_at_gamma_half(self):
        shares = first_level_shares(TAIL_COUNTS, gamma=0.5)
        roots = {k: math.sqrt(v) for k, v in TAIL_COUNTS.items()}
        total = sum(roots.values())
        for key in TAIL_COUNTS:
            assert shares[key] == pytest.approx(roots[key] / total, abs=1e-12)
        # hand-checkable root weights: 22.159, 11.180, 8.426, 3.606
        assert shares["DS"] == pytest.approx(22.1585 / 45.3706, abs=1e-4)

    def test_shares_sum_to_one(self, rng):
        for _ in range(N_CASES):
            counts = {b: int(rng.integers(0, 500)) for b in BUCKETS}
            if sum(counts.values()) == 0:
                counts["DS"] = 1
            gamma = float(rng.uniform(0.05, 1.0))
            shares = first_level_shares(counts, gamma)
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
            for b in BUCKETS:
                if counts[b] == 0:
                    assert shares[b] == 0.0

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5, 3.0])
    def test_gamma_outside_unit_interval_is_rejected(self, gamma):
        with pytest.raises(ValueError, match=rf"gamma must be in \(0, 1\], got {gamma}"):
            first_level_shares(TAIL_COUNTS, gamma)

    def test_all_zero_counts_error(self):
        with pytest.raises(ValueError, match="zero"):
            first_level_shares({b: 0 for b in BUCKETS}, gamma=0.5)


class TestSecondLevelShares:
    def test_symmetric_split(self):
        shares = second_level_shares(0.5, {c: 1 for c in COMMAND_CLASSES}, gamma=1.0)
        assert all(v == pytest.approx(0.125, abs=1e-12) for v in shares.values())

    def test_single_nonzero_takes_all(self):
        shares = second_level_shares(1.0, {"L": 4, "R": 0, "O": 0, "S": 0}, gamma=0.5)
        assert shares["L"] == pytest.approx(1.0, abs=1e-12)
        assert shares["R"] == shares["O"] == shares["S"] == 0.0

    def test_root_ratio_three_to_one(self):
        shares = second_level_shares(0.4, {"L": 9, "R": 1, "O": 0, "S": 0}, gamma=0.5)
        assert shares["L"] == pytest.approx(0.3, abs=1e-12)
        assert shares["R"] == pytest.approx(0.1, abs=1e-12)

    def test_empty_stratum_returns_zero_mass(self):
        shares = second_level_shares(0.4, {c: 0 for c in COMMAND_CLASSES}, gamma=0.5)
        assert all(v == 0.0 for v in shares.values())

    def test_children_sum_to_parent(self, rng):
        for _ in range(N_CASES):
            parent = float(rng.uniform(0, 1))
            counts = {c: int(rng.integers(1, 300)) for c in COMMAND_CLASSES}
            shares = second_level_shares(parent, counts, float(rng.uniform(0.1, 1.0)))
            assert sum(shares.values()) == pytest.approx(parent, abs=1e-12)


class TestIntegerize:
    def test_published_allocation_row(self):
        shares = first_level_shares(TAIL_COUNTS, gamma=0.5)
        assert integerize(shares, 70, TAIL_COUNTS) == {"DS": 34, "DR": 17, "NS": 13, "NR": 6}

    def test_remainder_tie_breaks_by_order(self):
        assert integerize({"a": 0.5, "b": 0.5}, 3, {"a": 10, "b": 10}) == {"a": 2, "b": 1}

    def test_cap_then_redistribute(self):
        assert integerize({"a": 0.9, "b": 0.1}, 10, {"a": 5, "b": 100}) == {"a": 5, "b": 5}

    def test_budget_beyond_capacity_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            integerize({"a": 1.0}, 5, {"a": 3})

    def test_totals_property(self, rng):
        """Allocations sum to the budget and respect caps, for random inputs."""
        for _ in range(N_CASES):
            n_strata = int(rng.integers(1, 12))
            keys = [f"s{i}" for i in range(n_strata)]
            raw = rng.uniform(0, 1, size=n_strata)
            if raw.sum() == 0:
                raw[0] = 1.0
            shares = dict(zip(keys, raw / raw.sum()))
            caps = {k: int(rng.integers(0, 40)) for k in keys}
            total_cap = sum(caps.values())
            n_total = int(rng.integers(0, total_cap + 1))
            alloc = integerize(shares, n_total, caps)
            assert sum(alloc.values()) == n_total
            assert all(0 <= alloc[k] <= caps[k] for k in keys)

    def test_gamma_monotonicity(self, rng):
        """Rare strata get a weakly larger cut at gamma=0.5 than at gamma=1."""
        n_total = 100_000
        for _ in range(N_CASES):
            b = int(rng.integers(1, 500))
            a = b + int(rng.integers(1, 500))
            counts = {"big": a, "small": b}
            caps = {"big": n_total, "small": n_total}
            alloc_flat = integerize(first_level_shares(counts, 1.0), n_total, caps)
            alloc_root = integerize(first_level_shares(counts, 0.5), n_total, caps)
            assert alloc_root["small"] >= alloc_flat["small"]


class TestSelectBySpeed:
    def test_ten_choose_two(self):
        ids = [f"c{i}" for i in range(10)]
        assert select_by_speed(ids, 2) == ["c2", "c7"]

    def test_full_selection(self):
        ids = [f"c{i}" for i in range(7)]
        assert select_by_speed(ids, 7) == ids

    def test_median_pick(self):
        ids = [f"c{i}" for i in range(9)]
        assert select_by_speed(ids, 1) == ["c4"]

    def test_k_beyond_m_errors(self):
        with pytest.raises(ValueError):
            select_by_speed(["a"], 2)

    def test_indices_strictly_increase(self, rng):
        """Picked indices strictly increase and depend only on (m, k)."""
        for _ in range(N_CASES):
            m = int(rng.integers(1, 200))
            k = int(rng.integers(0, m + 1))
            ids = [f"c{i:03d}" for i in range(m)]
            picked = select_by_speed(ids, k)
            indices = [ids.index(p) for p in picked]
            assert len(picked) == k
            assert all(b > a for a, b in zip(indices, indices[1:]))
            assert indices == [math.floor((j + 0.5) * m / k) for j in range(k)]


def _tiny_tail_pool():
    """Four one-per-bucket clips plus a few extras for command variety."""
    clips = []
    for i, (weather, lighting) in enumerate(
        [("Sunny", "Day"), ("Rainy", "Day"), ("Sunny", "Night"), ("Rainy", "Night")]
    ):
        clips.append(make_clip(f"c{i}", weather=weather, lighting=lighting, speeds=[float(i + 1)]))
    return clips


def _pool_with_tail_counts(counts):
    """One clip per unit count; speeds spread so the sort is exercised."""
    bucket_fields = {"DS": ("Sunny", "Day"), "DR": ("Rainy", "Day"),
                     "NS": ("Sunny", "Night"), "NR": ("Rainy", "Night")}
    clips = []
    idx = 0
    for bucket, n in counts.items():
        weather, lighting = bucket_fields[bucket]
        for _ in range(n):
            clips.append(
                make_clip(f"c{idx:04d}", weather=weather, lighting=lighting,
                          speeds=[2.0 + (idx % 97) * 0.13])
            )
            idx += 1
    return clips


class TestEgoDiversityInit:
    def test_budget_equals_pool_selects_all(self):
        clips = _tiny_tail_pool()
        picked, _ = ego_diversity_init(clips, n_init=4, gamma=1.0, tau_c=4)
        assert sorted(picked) == [c.id for c in clips]

    def test_empty_bucket_is_redistributed(self):
        clips = [c for c in _tiny_tail_pool() if weather_lighting_bucket(c) != "NR"]
        picked, _ = ego_diversity_init(clips, n_init=3, gamma=0.5, tau_c=4)
        assert len(picked) == 3

    def test_published_bucket_totals(self):
        clips = _pool_with_tail_counts(TAIL_COUNTS)
        picked = set(ego_diversity_init(clips, n_init=70, gamma=0.5, tau_c=4)[0])
        by_id = {c.id: c for c in clips}
        per_bucket = {b: 0 for b in BUCKETS}
        for cid in picked:
            per_bucket[weather_lighting_bucket(by_id[cid])] += 1
        assert per_bucket == {"DS": 34, "DR": 17, "NS": 13, "NR": 6}

    def test_determinism(self, rng):
        for case in range(50):
            counts = {b: int(rng.integers(0, 30)) for b in BUCKETS}
            if sum(counts.values()) == 0:
                counts["DS"] = 3
            clips = _pool_with_tail_counts(counts)
            n_init = int(rng.integers(1, sum(counts.values()) + 1))
            first, _ = ego_diversity_init(clips, n_init, 0.5, 4)
            second, _ = ego_diversity_init(clips, n_init, 0.5, 4)
            assert first == second
            assert len(set(first)) == len(first) == min(n_init, len(clips))

    def test_allocation_totals_property(self, rng):
        """Total allocated equals min(budget, pool) over random strata."""
        for _ in range(N_CASES):
            sizes = {key: int(rng.integers(0, 8)) for key in STRATUM_ORDER}
            pool_size = sum(sizes.values())
            if pool_size == 0:
                sizes[("DS", "S")] = 2
                pool_size = 2
            n_init = int(rng.integers(1, pool_size + 1))
            allocs = allocate_budget(sizes, n_init, float(rng.uniform(0.2, 1.0)))
            assert sum(a.allocated for a in allocs) == n_init
            assert all(a.allocated <= a.available for a in allocs)

    def test_stratify_covers_every_clip(self, rng):
        from conftest import random_clip

        clips = [random_clip(rng, f"c{i}") for i in range(300)]
        strata = stratify(clips, tau_c=3)
        assert sum(len(v) for v in strata.values()) == len(clips)
        assert set(strata) == set(STRATUM_ORDER)
