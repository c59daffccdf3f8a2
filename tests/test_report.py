"""L2 conventions, overlap analysis, stratified tables, and report emitters."""

import json
import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driveselect.pool import classify_command
from driveselect.report import (
    STRATA_ORDER,
    _fmt,
    emit_report,
    l2_at_k_uniad,
    l2_at_k_vad,
    mean_step_errors,
    overlap_matrix,
    overlap_rate,
    render_delimited,
    stratified_metrics,
)
from driveselect.synthworld import ToyPlanner, WorldConfig, evaluate_clips, generate_world, summarize_evals

from conftest import make_clip

N_CASES = 1000

RAMP = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


class TestL2Conventions:
    def test_exact_step_values(self):
        assert [l2_at_k_uniad(RAMP, k) for k in (1, 2, 3)] == [2.0, 4.0, 6.0]

    def test_running_mean_values(self):
        assert [l2_at_k_vad(RAMP, k) for k in (1, 2, 3)] == [1.5, 2.5, 3.5]

    def test_conventions_agree_on_constant(self):
        const = [0.7] * 6
        for k in (1, 2, 3):
            assert l2_at_k_uniad(const, k) == pytest.approx(l2_at_k_vad(const, k), abs=1e-12)

    def test_k_out_of_range(self):
        for k in (0, 4, -1):
            with pytest.raises(ValueError):
                l2_at_k_uniad(RAMP, k)
            with pytest.raises(ValueError):
                l2_at_k_vad(RAMP, k)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="6"):
            l2_at_k_uniad([1.0] * 5, 1)

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError):
            l2_at_k_vad([1, 2, 3, -4, 5, 6], 2)

    def test_running_mean_bounded_by_prefix(self, rng):
        """The running-mean value lies between the min and max of its prefix,
        and the conventions agree when the prefix is constant."""
        for _ in range(N_CASES):
            errors = rng.uniform(0, 10, size=6)
            k = int(rng.integers(1, 4))
            vad = l2_at_k_vad(errors, k)
            prefix = errors[: 2 * k]
            assert prefix.min() - 1e-12 <= vad <= prefix.max() + 1e-12
            flat = np.concatenate([np.full(2 * k, errors[0]), errors[2 * k :]])
            assert l2_at_k_uniad(flat, k) == pytest.approx(l2_at_k_vad(flat, k), abs=1e-12)

    def test_mean_step_errors(self):
        rows = [[1.0] * 6, [3.0] * 6]
        assert np.allclose(mean_step_errors(rows), [2.0] * 6)


class TestOverlap:
    def test_identity(self):
        assert overlap_rate({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert overlap_rate({"a", "b"}, {"c", "d"}) == 0.0

    def test_half(self):
        assert overlap_rate({"1", "2", "3", "4"}, {"3", "4", "5", "6"}) == 0.5

    def test_empty_first_set_errors(self):
        with pytest.raises(ValueError):
            overlap_rate(set(), {"a"})

    def test_matrix_properties(self, rng):
        """Unit diagonal; symmetric for equal-size sets; entries in [0, 1]."""
        for _ in range(N_CASES // 2):
            universe = [f"c{i}" for i in range(30)]
            size = int(rng.integers(1, 20))
            sets = {}
            for name in ("w", "x", "y", "z"):
                picked = rng.choice(30, size=size, replace=False)
                sets[name] = {universe[i] for i in picked}
            labels, mat = overlap_matrix(sets)
            assert labels == ["w", "x", "y", "z"]
            assert np.allclose(np.diag(mat), 1.0)
            assert np.allclose(mat, mat.T)  # equal sizes make |A| = |B|
            assert np.all((mat >= 0.0) & (mat <= 1.0))


#: One clip's held-out evaluation, as the ``ClipEval`` row that evaluation columns replaced.
EvalRow = namedtuple("EvalRow", "clip_id de step_errors collided")


def _eval(clip_id, de, collided=False):
    return EvalRow(clip_id=clip_id, de=de, step_errors=tuple([de] * 6), collided=collided)


def eval_columns(rows):
    """The evaluate_clips columns of evaluation rows."""
    return {
        "clip_id": tuple(r.clip_id for r in rows),
        "de": np.array([r.de for r in rows], dtype=float),
        "step_errors": np.array([r.step_errors for r in rows], dtype=float).reshape(len(rows), 6),
        "collided": np.array([r.collided for r in rows], dtype=bool),
    }


def eval_rows(columns):
    """Evaluation columns as rows, built as evaluate_clips built them from its arrays."""
    step_errors = columns["step_errors"]
    return [
        EvalRow(clip_id=i, de=de, step_errors=tuple(errors), collided=hit)
        for i, de, errors, hit in zip(
            columns["clip_id"], step_errors.mean(axis=1).tolist(), step_errors.tolist(), columns["collided"].tolist()
        )
    ]


def reference_summarize_evals(results):
    """summarize_evals over evaluation rows."""
    if not results:
        raise ValueError("held-out set is empty")
    return float(np.mean([r.de for r in results])), 100.0 * sum(r.collided for r in results) / len(results)


def reference_stratified_metrics(results, clips, tau_c):
    """stratified_metrics over evaluation rows: each stratum's rows in evaluation order."""
    clips_by_id = {c.id: c for c in clips}
    members = {key: [] for key in STRATA_ORDER}
    for res in results:
        if res.clip_id not in clips_by_id:
            raise KeyError(f"evaluated clip {res.clip_id!r} not in pool")
        clip = clips_by_id[res.clip_id]
        members[clip.lighting].append(res)
        members[clip.weather].append(res)
        members[classify_command(clip, tau_c)].append(res)
        members["All"].append(res)
    table = {}
    for key in STRATA_ORDER:
        rows = members[key]
        if rows:
            avg_de, collision_pct = reference_summarize_evals(rows)
            table[key] = {"count": len(rows), "avg_de_m": avg_de, "proxy_collision_pct": collision_pct}
    return table


def reference_check_step_errors(errors):
    arr = np.asarray(errors, dtype=float)
    if arr.shape != (6,):
        raise ValueError(f"expected 6 step errors, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("step errors must be finite and non-negative")
    return arr


def reference_mean_step_errors(rows):
    """mean_step_errors over per-clip step-error rows: each row checked, then stacked."""
    return np.stack([reference_check_step_errors(r) for r in rows]).mean(axis=0)


class TestStratifiedMetrics:
    def test_absent_strata_are_omitted(self):
        clips = [make_clip("c0"), make_clip("c1")]  # both Day-Sunny, Straight
        table = stratified_metrics(eval_columns([_eval("c0", 1.0), _eval("c1", 3.0)]), clips, tau_c=4)
        assert set(table) == {"Day", "Sunny", "S", "All"}
        assert "Night" not in table and "Rainy" not in table

    def test_stratum_average(self):
        clips = [make_clip("c0"), make_clip("c1")]
        table = stratified_metrics(eval_columns([_eval("c0", 1.0), _eval("c1", 3.0)]), clips, tau_c=4)
        assert table["Day"]["avg_de_m"] == pytest.approx(2.0)
        assert table["All"]["avg_de_m"] == pytest.approx(2.0)

    def test_all_row_is_global_mean(self, rng):
        clips, evals = [], []
        for i in range(40):
            clip = make_clip(
                f"c{i}",
                weather=["Sunny", "Rainy"][int(rng.integers(0, 2))],
                lighting=["Day", "Night"][int(rng.integers(0, 2))],
            )
            clips.append(clip)
            evals.append(_eval(clip.id, float(rng.uniform(0, 5)), bool(rng.uniform() < 0.2)))
        table = stratified_metrics(eval_columns(evals), clips, tau_c=4)
        assert table["All"]["avg_de_m"] == pytest.approx(np.mean([e.de for e in evals]))

    def test_all_row_is_lighting_weighted_mean(self, rng):
        """All equals the size-weighted mean of the Day/Night strata."""
        for _ in range(200):
            clips, evals = [], []
            n = int(rng.integers(2, 30))
            for i in range(n):
                clip = make_clip(f"c{i}", lighting=["Day", "Night"][int(rng.integers(0, 2))])
                clips.append(clip)
                evals.append(_eval(clip.id, float(rng.uniform(0, 5))))
            table = stratified_metrics(eval_columns(evals), clips, tau_c=4)
            total, count = 0.0, 0
            for key in ("Day", "Night"):
                if key in table:
                    total += table[key]["avg_de_m"] * table[key]["count"]
                    count += table[key]["count"]
            assert count == n
            assert table["All"]["avg_de_m"] == pytest.approx(total / count)

    def test_unknown_clip_rejected(self):
        with pytest.raises(KeyError):
            stratified_metrics(eval_columns([_eval("ghost", 1.0)]), [make_clip("c0")], tau_c=4)


class TestEvalColumnsMatchRows:
    """summarize_evals, stratified_metrics and mean_step_errors on evaluation
    columns equal the row formulas bit for bit (JSON tells 0.0 from -0.0)."""

    def check(self, columns, clips, tau_c=4):
        rows = eval_rows(columns)
        assert json.dumps(summarize_evals(columns)) == json.dumps(reference_summarize_evals(rows))
        table = stratified_metrics(columns, clips, tau_c)
        assert json.dumps(table) == json.dumps(reference_stratified_metrics(rows, clips, tau_c))
        steps = mean_step_errors(columns["step_errors"])
        assert steps.tobytes() == reference_mean_step_errors([r.step_errors for r in rows]).tobytes()
        return table

    @pytest.mark.parametrize("seed", [3, 13, 29])
    def test_toy_planner_worlds(self, seed):
        clips, truth = generate_world(WorldConfig(n_clips=300, seed=seed, agent_rate=3.0))
        planner = ToyPlanner(clips, truth)
        planner.train([c.id for c in clips[:150]])
        heldout = clips[150:]
        columns = evaluate_clips(planner, heldout, truth)
        assert columns["clip_id"] == tuple(c.id for c in heldout)
        assert columns["step_errors"].shape == (150, 6) and columns["collided"].dtype == bool
        self.check(columns, heldout)

        # A subset where one command stratum holds only collided clips and
        # Night holds one clip.
        hit = dict(zip(columns["clip_id"], columns["collided"].tolist()))
        first_hit = next(c for c in heldout if hit[c.id])
        command = classify_command(first_hit, 4)
        keep = [c for c in heldout if classify_command(c, 4) != command or hit[c.id]]
        night = first_hit if first_hit.lighting == "Night" else next(c for c in keep if c.lighting == "Night")
        subset = [c for c in keep if c.lighting == "Day" or c is night]
        table = self.check(evaluate_clips(planner, subset, truth), subset)
        assert table["Night"]["count"] == 1
        assert table[command]["proxy_collision_pct"] == 100.0

    def test_hand_built_columns(self, rng):
        clips, rows = [], []
        for i in range(60):
            clip = make_clip(f"c{i}", weather=["Sunny", "Rainy"][i % 2], lighting=["Day", "Night"][i % 3 == 0])
            clips.append(clip)
            errors = tuple(rng.uniform(0, 5, size=6).tolist())
            rows.append(EvalRow(clip.id, float(np.mean(errors)), errors, bool(rng.uniform() < 0.3)))
        self.check(eval_columns(rows), clips)

    @pytest.mark.parametrize(
        "rows",
        [[[1.0] * 5] * 2, [[1.0] * 6, [float("nan")] * 6], [[1.0] * 6, [-1.0] + [1.0] * 5],
         [[1.0] * 6, [float("inf")] + [1.0] * 5], [1.0] * 6, np.ones((2, 6, 1))],
        ids=["short_rows", "nan", "negative", "inf", "one_vector", "3d"],
    )
    def test_mean_step_errors_rejects_as_the_row_checks(self, rows):
        with pytest.raises(ValueError) as expected:
            reference_mean_step_errors(rows)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            mean_step_errors(rows)

    def test_mean_step_errors_of_no_rows(self):
        with pytest.raises(ValueError, match="no step errors"):
            mean_step_errors(np.empty((0, 6)))

    def test_empty_columns_have_no_summary(self):
        with pytest.raises(ValueError, match="held-out set is empty"):
            summarize_evals(evaluate_clips(None, [], {}))


def _tiny_manifest(name="run"):
    return {
        "config": {"budget": 3, "n_init": 1, "strategy": "active", "seed": 0},
        "pool": {"path": "pool.jsonl", "n_clips": 5, "horizon": 6, "heldout_count": 0},
        "init": {"mode": "ego-diversity", "ids": ["a"],
                 "allocations": [{"bucket": "DS", "command": "S", "available": 3, "allocated": 1}]},
        "rounds": [
            {"round": 1, "ids": ["b", "c"],
             "score_summary": {"n_scored": 4, "de_raw_mean": 0.5, "sc_raw_mean": 0.1,
                               "au_raw_mean": 0.2, "overall_mean": 0.9, "overall_max": 1.5},
             "criterion_overlap": {"labels": ["de", "sc", "au", "mix"],
                                   "matrix": [[1.0, 0.5, 0.5, 1.0], [0.5, 1.0, 0.0, 0.5],
                                              [0.5, 0.0, 1.0, 0.5], [1.0, 0.5, 0.5, 1.0]]}},
        ],
        "heldout": None,
    }


class TestEmitters:
    def test_identical_inputs_identical_bytes(self, tmp_path):
        manifest = _tiny_manifest()
        for fmt, suffix in (("structured", "json"), ("delimited", "tsv")):
            emit_report({"run": manifest}, tmp_path / f"a.{suffix}", fmt)
            emit_report({"run": manifest}, tmp_path / f"b.{suffix}", fmt)
            assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()

    def test_no_rounds_renders_init_only(self, tmp_path):
        manifest = _tiny_manifest()
        manifest["rounds"] = []
        emit_report({"run": manifest}, tmp_path / "r.tsv", "delimited")
        text = (tmp_path / "r.tsv").read_text()
        assert "# rounds" in text and "# init_allocations" in text
        assert "criterion_overlap" not in text

    def test_overlap_section_has_unit_diagonal(self):
        text = render_delimited({"run": _tiny_manifest()})
        overlap_lines = [
            line for line in text.splitlines()
            if any(line.startswith(f"run\t1\t{c}\t") for c in ("de", "sc", "au", "mix"))
        ]
        assert len(overlap_lines) == 4
        for i, line in enumerate(overlap_lines):
            cells = line.split("\t")
            assert float(cells[3 + i]) == 1.0

    def test_structured_document_round_trips(self, tmp_path):
        emit_report({"run": _tiny_manifest()}, tmp_path / "r.json", "structured")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["runs"]["run"]["rounds"][0]["n_selected"] == 2

    def test_comparison_section_for_two_runs(self, tmp_path):
        a, b = _tiny_manifest("a"), _tiny_manifest("b")
        b["config"]["strategy"] = "random"
        emit_report({"a": a, "b": b}, tmp_path / "r.tsv", "delimited")
        text = (tmp_path / "r.tsv").read_text()
        assert "# comparison" in text

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report({"run": _tiny_manifest()}, tmp_path / "r.xml", "xml")


def reference_render_delimited(manifests):
    """render_delimited as it was before its sections became one table: one
    hand-written loop per section."""
    lines = []

    def section(title, header, rows):
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


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _heldout(kind, data):
    """None, or a held-out block with its stratified table and, for "l2",
    both L2 conventions."""
    if kind is None:
        return None
    heldout = {
        "count": data.draw(st.integers(1, 50)),
        "avg_de_m": data.draw(FLOATS),
        "proxy_collision_pct": data.draw(FLOATS),
        "per_clip": [{"clip_id": "x", "de": 0.5, "collided": False}],
        "stratified": {
            key: {"count": data.draw(st.integers(1, 9)), "avg_de_m": data.draw(FLOATS),
                  "proxy_collision_pct": data.draw(FLOATS)}
            for key in data.draw(st.lists(st.sampled_from(["Day", "Night", "Rainy", "S", "All"]), unique=True))
        },
    }
    if kind == "l2":
        heldout["l2_by_second"] = {
            "exact_step": data.draw(st.lists(FLOATS, min_size=3, max_size=3)),
            "running_mean": data.draw(st.lists(FLOATS, min_size=3, max_size=3)),
        }
    return heldout


def _manifest_variant(data):
    """A manifest with or without rounds, allocations and held-out results."""
    m = _tiny_manifest()
    m["config"].update(alpha=data.draw(FLOATS), criterion="mix", budget=data.draw(st.integers(1, 10**6)))
    if data.draw(st.booleans()):
        del m["config"]["strategy"]
    rounds = data.draw(st.sampled_from(["none", "scored", "scored_and_random"]))
    if rounds == "none":
        m["rounds"] = []
    elif rounds == "scored_and_random":
        m["rounds"].append({"round": 2, "ids": ["d"]})
    allocations = data.draw(st.sampled_from(["some", "empty", "null", "absent"]))
    if allocations == "empty":
        m["init"]["allocations"] = []
    elif allocations == "null":
        m["init"]["allocations"] = None
    elif allocations == "absent":
        del m["init"]["allocations"]
    m["heldout"] = _heldout(data.draw(st.sampled_from([None, "stratified", "l2"])), data)
    return m


class TestDelimitedMatchesReference:
    """render_delimited writes the reference's bytes for every mix of sections."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), runs=st.integers(1, 3))
    def test_random_manifests(self, data, runs):
        manifests = {f"run{i}": _manifest_variant(data) for i in range(runs)}
        assert render_delimited(manifests) == reference_render_delimited(manifests)

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("heldout", [None, "stratified", "l2"])
    @pytest.mark.parametrize("rounds", [True, False])
    def test_named_cases(self, runs, heldout, rounds):
        """1 and 3 runs; with and without rounds and allocations; ``heldout``
        null, and with and without ``l2_by_second``."""
        manifests = {}
        for i in range(runs):
            m = _tiny_manifest()
            if not rounds:
                m["rounds"] = []
                del m["init"]["allocations"]
            if heldout:
                m["heldout"] = {"count": 2, "avg_de_m": 1.25, "proxy_collision_pct": 50.0, "per_clip": [],
                                "stratified": {"Day": {"count": 2, "avg_de_m": 1.25, "proxy_collision_pct": 50.0}}}
                if heldout == "l2":
                    m["heldout"]["l2_by_second"] = {"exact_step": [0.5, 1.0, 1.5], "running_mean": [0.25, 0.5, 0.75]}
            manifests[f"run{i}"] = m
        text = render_delimited(manifests)
        assert text == reference_render_delimited(manifests)
        assert ("# comparison" in text) == (runs > 1)
        assert ("# l2_conventions" in text) == (heldout == "l2")
