"""Diversity-stratified initial selection.

The initial labeling budget is split over a two-level stratification of the
pool — weather-lighting buckets, then clip-level command classes — with
shares proportional to ``count**gamma``. ``gamma = 1`` allocates
proportionally to stratum size; ``gamma < 1`` shifts budget toward rare
strata. Within each stratum, clips are sorted by mean speed and picked at
regular intervals so the selection covers the speed range. Strata and speeds
come from the pool's columns (:class:`~driveselect.pool.ClipTable`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .pool import BUCKETS, COMMAND_CLASSES, ClipRecord, ClipTable, clip_table

#: All (bucket, command-class) strata in canonical tie-break order.
STRATUM_ORDER = tuple((b, c) for b in BUCKETS for c in COMMAND_CLASSES)


@dataclass(frozen=True)
class StratumAllocation:
    """Budget bookkeeping for one (bucket, command-class) stratum."""

    bucket: str
    command: str
    available: int
    fractional: float
    allocated: int


def _powered(count: float, gamma: float) -> float:
    # 0**gamma is defined as 0 so empty strata never receive budget.
    return 0.0 if count == 0 else float(count) ** gamma


def first_level_shares(counts: Mapping[str, int], gamma: float) -> dict[str, float]:
    """Budget share per weather-lighting bucket: count**gamma, normalized.

    Raises ValueError if gamma is outside (0, 1] or every count is zero.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if any(c < 0 for c in counts.values()):
        raise ValueError("counts must be non-negative")
    weights = {k: _powered(c, gamma) for k, c in counts.items()}
    total = sum(weights.values())
    if total == 0:
        raise ValueError("all bucket counts are zero")
    return {k: w / total for k, w in weights.items()}


def second_level_shares(
    parent_share: float, counts: Mapping[str, int], gamma: float
) -> dict[str, float]:
    """Split a bucket's share over its command classes by count**gamma.

    If every count is zero the share cannot be placed here: all-zero shares
    are returned and ``integerize`` redistributes the missing mass.
    """
    if not 0.0 <= parent_share <= 1.0:
        raise ValueError(f"parent share must be in [0, 1], got {parent_share}")
    weights = {k: _powered(c, gamma) for k, c in counts.items()}
    total = sum(weights.values())
    if total == 0:
        return {k: 0.0 for k in counts}
    return {k: parent_share * w / total for k, w in weights.items()}


def integerize(
    shares: Mapping[object, float], n_total: int, capacities: Mapping[object, int]
) -> dict[object, int]:
    """Largest-remainder apportionment of ``n_total`` units, capped at capacities.

    Shares are renormalized over the strata being apportioned, so share mass
    lost to empty strata is redistributed. Overflow beyond a stratum's
    capacity is reassigned by repeating the apportionment over the uncapped
    strata. Remainder ties break by the iteration order of ``shares``, which
    callers supply in canonical stratum order. The result always sums to
    ``n_total``.
    """
    keys = list(shares)
    caps = {k: int(capacities[k]) for k in keys}
    if any(c < 0 for c in caps.values()):
        raise ValueError("capacities must be non-negative")
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    if n_total > sum(caps.values()):
        raise ValueError(
            f"budget {n_total} exceeds total capacity {sum(caps.values())}"
        )
    position = {k: i for i, k in enumerate(keys)}
    alloc: dict[object, int] = {k: 0 for k in keys}
    fixed: set[object] = set()

    remaining = n_total
    while True:
        if remaining == 0:
            return alloc
        active = [k for k in keys if k not in fixed]
        weights = {k: max(0.0, float(shares[k])) for k in active}
        wsum = sum(weights.values())
        if wsum <= 0.0:
            # Degenerate share vector: fall back to capacity proportions.
            weights = {k: float(caps[k]) for k in active}
            wsum = sum(weights.values())
        quotas = {k: remaining * weights[k] / wsum for k in active}
        base = {k: math.floor(quotas[k]) for k in active}
        extras = remaining - sum(base.values())
        by_remainder = sorted(
            active, key=lambda k: (-(quotas[k] - base[k]), position[k])
        )
        for k in by_remainder[:extras]:
            base[k] += 1

        over = [k for k in active if base[k] > caps[k]]
        if not over:
            for k in active:
                alloc[k] = base[k]
            return alloc
        for k in over:
            alloc[k] = caps[k]
            fixed.add(k)
        remaining = n_total - sum(alloc[k] for k in fixed)


def select_by_speed(sorted_ids: Sequence[str], k: int) -> list[str]:
    """Pick ``k`` ids at regular intervals from a speed-sorted list.

    Uses centered interval sampling: indices floor((j + 0.5) * m / k), which
    avoids always taking the extreme-speed clips. Indices are strictly
    increasing, so the result preserves the input order.
    """
    m = len(sorted_ids)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > m:
        raise ValueError(f"cannot pick {k} clips from a stratum of {m}")
    return [sorted_ids[math.floor((j + 0.5) * m / k)] for j in range(k)]


def stratify(clips: ClipTable | Sequence[ClipRecord], tau_c: int) -> dict[tuple[str, str], np.ndarray]:
    """The rows of each (bucket, command class) stratum, in pool order;
    every stratum key is present."""
    clips = clip_table(clips)
    codes = clips.buckets() * len(COMMAND_CLASSES) + clips.command_classes(tau_c)
    return {key: np.flatnonzero(codes == code) for code, key in enumerate(STRATUM_ORDER)}


def allocate_budget(
    stratum_sizes: Mapping[tuple[str, str], int], n_init: int, gamma: float
) -> list[StratumAllocation]:
    """Two-level share computation plus integer apportionment, per stratum."""
    bucket_counts = {
        b: sum(stratum_sizes.get((b, c), 0) for c in COMMAND_CLASSES) for b in BUCKETS
    }
    bucket_shares = first_level_shares(bucket_counts, gamma)
    shares: dict[tuple[str, str], float] = {}
    for b in BUCKETS:
        per_command = second_level_shares(
            bucket_shares[b],
            {c: stratum_sizes.get((b, c), 0) for c in COMMAND_CLASSES},
            gamma,
        )
        for c in COMMAND_CLASSES:
            shares[(b, c)] = per_command[c]
    capacities = {key: stratum_sizes.get(key, 0) for key in STRATUM_ORDER}
    allocated = integerize(shares, n_init, capacities)
    return [
        StratumAllocation(
            bucket=b,
            command=c,
            available=capacities[(b, c)],
            fractional=n_init * shares[(b, c)],
            allocated=allocated[(b, c)],
        )
        for b, c in STRATUM_ORDER
    ]


def ego_diversity_init(
    clips: ClipTable | Sequence[ClipRecord], n_init: int, gamma: float, tau_c: int
) -> tuple[list[str], list[StratumAllocation]]:
    """Diversity-stratified initial selection of min(n_init, pool size) clips.

    Returns the picked ids and the per-stratum allocations behind them.
    Deterministic for a fixed pool: strata are visited in canonical order and
    each stratum's members are sorted by (mean speed, id) before the
    interval picks.
    """
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    clips = clip_table(clips)
    strata = stratify(clips, tau_c)
    budget = min(n_init, len(clips))
    allocations = allocate_budget(
        {key: len(members) for key, members in strata.items()}, budget, gamma
    )
    ids, speeds = clips.ids, clips.mean_speeds().tolist()
    selected: list[str] = []
    for alloc in allocations:
        if alloc.allocated == 0:
            continue
        members = sorted(strata[(alloc.bucket, alloc.command)].tolist(), key=lambda row: (speeds[row], ids[row]))
        selected.extend(select_by_speed([ids[row] for row in members], alloc.allocated))
    return selected, allocations
