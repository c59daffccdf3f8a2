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

from .pool import COMMAND_CLASSES, LIGHTING_VALUES, WEATHER_VALUES, ClipRecord, ClipTable, atomic_write_text, clip_table
from .synthworld import summarize_evals

STEP_COUNT = 6       # fixed six steps at 0.5 s; other horizons are rejected here

#: Stratum display order for the scenario table.
STRATA_ORDER = ("Day", "Night", "Sunny", "Rainy", "S", "L", "R", "O", "All")


def _check_step_errors(errors, rows: bool = False) -> np.ndarray:
    """``errors`` as a float array of STEP_COUNT step errors, or with ``rows``
    as an (N, STEP_COUNT) array of them; every error finite and non-negative."""
    arr = np.asarray(errors, dtype=float)
    shape = arr.shape[1:] if rows else arr.shape
    if shape != (STEP_COUNT,):
        raise ValueError(f"expected {STEP_COUNT} step errors, got shape {shape}")
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


def mean_step_errors(step_errors) -> np.ndarray:
    """Average (N, 6) per-step errors over the N clips -> one 6-vector."""
    arr = _check_step_errors(step_errors, rows=True)
    if not len(arr):
        raise ValueError("no step errors to average")
    return arr.mean(axis=0)


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


def stratified_metrics(evals: Mapping, clips: ClipTable | Sequence[ClipRecord], tau_c: int) -> dict[str, dict]:
    """Per-scenario (avg DE, proxy collision %) table of the columns of
    :func:`~driveselect.synthworld.evaluate_clips`.

    Each clip contributes to one lighting stratum, one weather stratum, one
    command stratum, and "All". Empty strata are absent from the result, not
    reported as zero.
    """
    clips = clip_table(clips)
    try:
        rows = clips.rows_of(evals["clip_id"])
    except KeyError as exc:
        raise KeyError(f"evaluated clip {exc.args[0]!r} not in pool") from None
    masks = {"All": np.ones(len(rows), dtype=bool)}
    for names, codes in (
        (LIGHTING_VALUES, clips.lighting[rows]),
        (WEATHER_VALUES, clips.weather[rows]),
        (COMMAND_CLASSES, clips.command_classes(tau_c)[rows]),
    ):
        masks.update((name, codes == code) for code, name in enumerate(names))
    table: dict[str, dict] = {}
    for key in STRATA_ORDER:
        mask = masks[key]
        count = int(mask.sum())
        if count:
            avg_de, collision_pct = summarize_evals({"de": evals["de"][mask], "collided": evals["collided"][mask]})
            table[key] = {"count": count, "avg_de_m": avg_de, "proxy_collision_pct": collision_pct}
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


#: The comparison's columns after ``run``, in both report formats.
_COMPARISON_COLUMNS = ("strategy", "budget", "heldout_avg_de_m", "heldout_proxy_collision_pct")


def _comparison_row(m: dict, missing) -> tuple:
    """One run's comparison values, with ``missing`` for what its manifest lacks."""
    config, heldout = m["config"], m.get("heldout") or {}
    return (config.get("strategy", missing), config.get("budget", missing),
            heldout.get("avg_de_m", missing), heldout.get("proxy_collision_pct", missing))


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
        columns = ("run", *_COMPARISON_COLUMNS)
        doc["comparison"] = [dict(zip(columns, (name, *_comparison_row(m, None)))) for name, m in manifests.items()]
    return doc


def _config_rows(m: dict) -> list[tuple]:
    return [(key, m["config"][key]) for key in sorted(m["config"])]


_SUMMARY_MEANS = ("de_raw_mean", "sc_raw_mean", "au_raw_mean", "overall_mean")


def _round_rows(m: dict) -> list[tuple]:
    rows = [(0, len(m["init"]["ids"]), m["init"]["mode"], "", "", "", "")]
    for r in m["rounds"]:
        s = r.get("score_summary") or {}
        kind = "scored" if s else "random"
        rows.append((r["round"], len(r["ids"]), kind, *(s.get(key, "") for key in _SUMMARY_MEANS)))
    return rows


def _allocation_rows(m: dict) -> list[tuple]:
    allocations = m["init"].get("allocations") or []
    return [(a["bucket"], a["command"], a["available"], a["allocated"]) for a in allocations]


def _overlap_rows(m: dict) -> list[tuple]:
    rows = []
    for r in m["rounds"]:
        ov = r.get("criterion_overlap")
        if ov:
            rows += [(r["round"], label, *ov["matrix"][i]) for i, label in enumerate(ov["labels"])]
    return rows


def _stratified_rows(m: dict) -> list[tuple]:
    stratified = (m.get("heldout") or {}).get("stratified") or {}
    return [(key, c["count"], c["avg_de_m"], c["proxy_collision_pct"]) for key, c in stratified.items()]


def _l2_rows(m: dict) -> list[tuple]:
    conv = (m.get("heldout") or {}).get("l2_by_second")
    return [(name, *conv[name]) for name in ("exact_step", "running_mean")] if conv else []


#: The TSV sections in order: title, the columns after ``run``, the rows of
#: one manifest, and whether the section is written without rows.
_SECTIONS = (
    ("config", ("key", "value"), _config_rows, True),
    ("rounds", ("round", "n_selected", "kind", *_SUMMARY_MEANS), _round_rows, True),
    ("init_allocations", ("bucket", "command", "available", "allocated"), _allocation_rows, False),
    ("criterion_overlap", ("round", "criterion", "de", "sc", "au", "mix"), _overlap_rows, False),
    ("stratified", ("stratum", "count", "avg_de_m", "proxy_collision_pct"), _stratified_rows, False),
    ("l2_conventions", ("convention", "k1_m", "k2_m", "k3_m"), _l2_rows, False),
)
#: Written last, for two or more runs.
_COMPARISON = ("comparison", _COMPARISON_COLUMNS, lambda m: [_comparison_row(m, "")], False)


def render_delimited(manifests: Mapping[str, dict]) -> str:
    """Sectioned TSV rendering of the same content; column names are stable.
    Each row starts with its run's name."""
    sections = _SECTIONS + (_COMPARISON,) if len(manifests) > 1 else _SECTIONS
    lines: list[str] = []
    for title, columns, rows_of, always in sections:
        rows = [(name, *row) for name, m in manifests.items() for row in rows_of(m)]
        if rows or always:
            lines += [f"# {title}", "\t".join(("run", *columns))]
            lines += ["\t".join(map(_fmt, row)) for row in rows]
            lines.append("")
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
