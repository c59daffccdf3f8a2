"""Evaluation metrics, overlap analysis, stratified tables, and report emitters.

Two conventions exist in the wild for quoting an L2 planning error "at k
seconds" from six half-second step errors: the exact-step value, and the
running mean over the first 2k steps. Both are provided; report output labels
which is which. Collision numbers are the synthetic proxy and are labeled
"proxy" in all output.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pool import ClipRecord, atomic_write_text, classify_command
from .synthworld import ClipEval, summarize_evals

STEP_COUNT = 6       # fixed six steps at 0.5 s; other horizons are rejected here
STEP_SECONDS = 0.5

#: Stratum display order for the scenario table.
STRATA_ORDER = ("Day", "Night", "Sunny", "Rainy", "S", "L", "R", "O", "All")


def _check_step_errors(errors: Sequence[float]) -> np.ndarray:
    arr = np.asarray(errors, dtype=float)
    if arr.shape != (STEP_COUNT,):
        raise ValueError(f"expected {STEP_COUNT} step errors, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("step errors must be finite and non-negative")
    return arr


def l2_at_k_uniad(errors: Sequence[float], k: int) -> float:
    """Exact-step convention: the error at exactly k seconds (step 2k)."""
    arr = _check_step_errors(errors)
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k}")
    return float(arr[2 * k - 1])


def l2_at_k_vad(errors: Sequence[float], k: int) -> float:
    """Running-mean convention: the average error over 0..k seconds."""
    arr = _check_step_errors(errors)
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k}")
    return float(arr[: 2 * k].mean())


def mean_step_errors(rows: Iterable[Sequence[float]]) -> np.ndarray:
    """Average per-step errors over clips -> one 6-vector."""
    stacked = np.stack([_check_step_errors(r) for r in rows])
    return stacked.mean(axis=0)


def overlap_rate(set_a: Iterable[str], set_b: Iterable[str]) -> float:
    """|A intersect B| / |A|; symmetric whenever the sets are the same size."""
    a, b = set(set_a), set(set_b)
    if not a:
        raise ValueError("overlap_rate needs a non-empty first set")
    return len(a & b) / len(a)


def overlap_matrix(sets: Mapping[str, Iterable[str]]) -> tuple[list[str], np.ndarray]:
    """Pairwise overlap rates; row i gives |S_i intersect S_j| / |S_i|."""
    labels = list(sets)
    materialized = [set(sets[k]) for k in labels]
    n = len(labels)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            mat[i, j] = overlap_rate(materialized[i], materialized[j])
    return labels, mat


def stratified_metrics(
    results: Sequence[ClipEval], clips: Sequence[ClipRecord], tau_c: int
) -> dict[str, dict]:
    """Per-scenario (avg DE, proxy collision %) table.

    Each clip contributes to one lighting stratum, one weather stratum, one
    command stratum, and "All". Empty strata are absent from the result, not
    reported as zero.
    """
    clips_by_id = {c.id: c for c in clips}
    members: dict[str, list[ClipEval]] = {key: [] for key in STRATA_ORDER}
    for res in results:
        if res.clip_id not in clips_by_id:
            raise KeyError(f"evaluated clip {res.clip_id!r} not in pool")
        clip = clips_by_id[res.clip_id]
        members[clip.lighting].append(res)
        members[clip.weather].append(res)
        members[classify_command(clip, tau_c)].append(res)
        members["All"].append(res)
    table: dict[str, dict] = {}
    for key in STRATA_ORDER:
        rows = members[key]
        if not rows:
            continue
        avg_de, collision_pct = summarize_evals(rows)
        table[key] = {"count": len(rows), "avg_de_m": avg_de, "proxy_collision_pct": collision_pct}
    return table


# ---------------------------------------------------------------------------
# Report rendering (structured JSON document + delimited TSV table)
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


def render_structured(manifests: Mapping[str, dict]) -> dict:
    """One JSON-ready document covering every given (name -> run manifest)."""
    doc: dict = {"runs": {}}
    for name, manifest in manifests.items():
        entry: dict = {
            "config": manifest["config"],
            "pool": manifest["pool"],
            "init": {
                "mode": manifest["init"]["mode"],
                "n_selected": len(manifest["init"]["ids"]),
                "allocations": manifest["init"].get("allocations"),
            },
            "rounds": [
                {
                    "round": r["round"],
                    "n_selected": len(r["ids"]),
                    "score_summary": r.get("score_summary"),
                    "criterion_overlap": r.get("criterion_overlap"),
                }
                for r in manifest["rounds"]
            ],
            "heldout": manifest.get("heldout"),
        }
        heldout = manifest.get("heldout")
        if heldout and heldout.get("per_clip"):
            entry["stratified"] = heldout.get("stratified")
        doc["runs"][name] = entry
    if len(manifests) > 1:
        doc["comparison"] = [
            {
                "run": name,
                "strategy": m["config"].get("strategy"),
                "budget": m["config"].get("budget"),
                "heldout_avg_de_m": (m.get("heldout") or {}).get("avg_de_m"),
                "heldout_proxy_collision_pct": (m.get("heldout") or {}).get("proxy_collision_pct"),
            }
            for name, m in manifests.items()
        ]
    return doc


def render_delimited(manifests: Mapping[str, dict]) -> str:
    """Sectioned TSV rendering of the same content; column names are stable."""
    lines: list[str] = []

    def section(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        lines.append(f"# {title}")
        lines.append("\t".join(header))
        for row in rows:
            lines.append("\t".join(_fmt(v) for v in row))
        lines.append("")

    config_rows = []
    for name, m in manifests.items():
        for key in sorted(m["config"]):
            config_rows.append((name, key, m["config"][key]))
    section("config", ("run", "key", "value"), config_rows)

    round_rows = []
    for name, m in manifests.items():
        init = m["init"]
        round_rows.append((name, 0, len(init["ids"]), init["mode"], "", "", "", ""))
        for r in m["rounds"]:
            s = r.get("score_summary") or {}
            round_rows.append(
                (
                    name,
                    r["round"],
                    len(r["ids"]),
                    "scored" if s else "random",
                    s.get("de_raw_mean", ""),
                    s.get("sc_raw_mean", ""),
                    s.get("au_raw_mean", ""),
                    s.get("overall_mean", ""),
                )
            )
    section(
        "rounds",
        ("run", "round", "n_selected", "kind", "de_raw_mean", "sc_raw_mean", "au_raw_mean", "overall_mean"),
        round_rows,
    )

    alloc_rows = []
    for name, m in manifests.items():
        for a in m["init"].get("allocations") or []:
            alloc_rows.append((name, a["bucket"], a["command"], a["available"], a["allocated"]))
    if alloc_rows:
        section("init_allocations", ("run", "bucket", "command", "available", "allocated"), alloc_rows)

    overlap_rows = []
    for name, m in manifests.items():
        for r in m["rounds"]:
            ov = r.get("criterion_overlap")
            if not ov:
                continue
            for i, label in enumerate(ov["labels"]):
                overlap_rows.append((name, r["round"], label, *ov["matrix"][i]))
    if overlap_rows:
        section("criterion_overlap", ("run", "round", "criterion", "de", "sc", "au", "mix"), overlap_rows)

    strat_rows = []
    for name, m in manifests.items():
        heldout = m.get("heldout") or {}
        for key, cell in (heldout.get("stratified") or {}).items():
            strat_rows.append((name, key, cell["count"], cell["avg_de_m"], cell["proxy_collision_pct"]))
    if strat_rows:
        section("stratified", ("run", "stratum", "count", "avg_de_m", "proxy_collision_pct"), strat_rows)

    l2_rows = []
    for name, m in manifests.items():
        conv = (m.get("heldout") or {}).get("l2_by_second")
        if not conv:
            continue
        l2_rows.append((name, "exact_step", *conv["exact_step"]))
        l2_rows.append((name, "running_mean", *conv["running_mean"]))
    if l2_rows:
        section("l2_conventions", ("run", "convention", "k1_m", "k2_m", "k3_m"), l2_rows)

    if len(manifests) > 1:
        comp_rows = []
        for name, m in manifests.items():
            heldout = m.get("heldout") or {}
            comp_rows.append(
                (
                    name,
                    m["config"].get("strategy", ""),
                    m["config"].get("budget", ""),
                    heldout.get("avg_de_m", ""),
                    heldout.get("proxy_collision_pct", ""),
                )
            )
        section(
            "comparison",
            ("run", "strategy", "budget", "heldout_avg_de_m", "heldout_proxy_collision_pct"),
            comp_rows,
        )

    return "\n".join(lines) + "\n"


def emit_report(
    manifests: Mapping[str, dict], path: str | os.PathLike, fmt: str
) -> None:
    """Write one report file; byte-identical output for identical inputs."""
    if fmt == "structured":
        text = json.dumps(render_structured(manifests), indent=2, sort_keys=True, allow_nan=False)
        atomic_write_text(path, text + "\n")
    elif fmt == "delimited":
        atomic_write_text(path, render_delimited(manifests))
    else:
        raise ValueError(f"format must be 'structured' or 'delimited', got {fmt!r}")
