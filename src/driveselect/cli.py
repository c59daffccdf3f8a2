"""Command-line entry point: gen / init / score / select / run / report.

Usage sketch:

    driveselect gen --n 2000 --seed 7 --pool pool.jsonl --truth truth.jsonl
    driveselect init --pool pool.jsonl --mode ego-diversity --n0 200 --out sel.json
    driveselect score --pool pool.jsonl --selection sel.json \
        --predictions preds.jsonl --out scores.tsv
    driveselect select --scores scores.tsv --selection sel.json --n-itr 200
    driveselect run --pool pool.jsonl --truth truth.jsonl --out-dir out/ \
        --heldout-count 400
    driveselect report --manifest out/manifest.json --out-dir report/

``gen`` and ``run`` take their settings from a JSON config file
(``--config``, or the ``DRIVESELECT_CONFIG`` environment variable) plus
``--set key=value`` overrides; unknown keys are rejected. ``init``, ``score``
and ``select`` take theirs as flags. Every command but ``report`` echoes the
resolved configuration it ran with.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

from . import report
from .criteria import _top, check_score_settings, constant_criteria, load_scores, save_scores, score_predictions
from .diversity import ego_diversity_init
from .loop import ActiveConfig, CRITERIA, derive_schedule, random_init, run
from .pool import (
    _NUMBER_TYPES,
    PoolFormatError,
    atomic_write_text,
    load_pool,
    load_selection,
    read_selection_payload,
    save_selection,
)
from .report import emit_report, mean_step_errors, stratified_metrics
from .synthworld import ToyPlanner, WorldConfig, evaluate_clips, generate_pool, load_truth, share_pool, summarize_evals

CONFIG_ENV_VAR = "DRIVESELECT_CONFIG"


def _config_keys(config_class) -> dict:
    """The config keys accepted from file / --set: the fields of a config
    dataclass, each with the coercion of its type."""
    casters = {int: int, float: float, str: str, tuple[float, ...]: lambda v: tuple(float(x) for x in v)}
    types = typing.get_type_hints(config_class)
    return {f.name: casters[types[f.name]] for f in dataclasses.fields(config_class)}


ACTIVE_KEYS = _config_keys(ActiveConfig)
WORLD_KEYS = _config_keys(WorldConfig)


class UsageError(Exception):
    """Bad flags or config keys; exits with status 2 (data errors exit 1)."""


def _parse_override(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise UsageError(f"override {item!r} is not of the form key=value")
    key, value = item.split("=", 1)
    return key.strip(), value.strip()


def _fits(value, caster) -> bool:
    """Whether a decoded JSON value has the type of ``caster``'s keys: a file
    value is never cast, so 10.7 is no int, true no number and "2" no float."""
    if caster in (int, str):
        return type(value) is caster
    if caster is float:
        return type(value) in _NUMBER_TYPES
    return type(value) is list and _NUMBER_TYPES.issuperset(map(type, value))


def _coerce(key: str, value, schema: dict, *, from_file: bool = False):
    """``value`` cast for ``key``: a config file value of the key's JSON type,
    or a ``--set`` string."""
    if key not in schema:
        raise UsageError(f"unknown config key {key!r}; known keys: {sorted(schema)}")
    caster = schema[key]
    if from_file and not _fits(value, caster):
        expected = {int: "a JSON integer", float: "a JSON number", str: "a JSON string"}
        raise UsageError(
            f"config key {key!r} must be {expected.get(caster, 'a list of JSON numbers')}, got {json.dumps(value)}"
        )
    try:
        if not from_file and caster not in (int, float, str):
            value = json.loads(value)
        return caster(value)
    except (ValueError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        raise UsageError(f"config key {key!r}: cannot parse {value!r}: {exc}") from exc


def _load_config_dict(args, schema: dict) -> dict:
    resolved: dict = {}
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError(f"config file {path}: expected a JSON object")
        for key, value in raw.items():
            resolved[key] = _coerce(key, value, schema, from_file=True)
    for item in getattr(args, "set", None) or []:
        key, value = _parse_override(item)
        resolved[key] = _coerce(key, value, schema)
    return resolved


def _warn_constant(where: str, criteria: typing.Sequence[str], n_scored: int) -> None:
    """Name on stderr the criteria whose raw scores were all equal: they
    normalize to zeros and drop out of the mix without another sign."""
    if criteria:
        print(f"warning: {where}: criteria {', '.join(criteria)} constant over {n_scored} scored clips; "
              f"normalized to 0, they drop out of the mix", file=sys.stderr)


def _echo_config(config: dict) -> None:
    print("resolved config: " + json.dumps(config, sort_keys=True, default=str))


def _active_config(args, n_pool: int) -> ActiveConfig:
    values = _load_config_dict(args, ACTIVE_KEYS)
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    schedule = ("budget", "n_init", "n_rounds", "n_per_round")
    if not set(schedule) <= set(values):
        values = dict(zip(schedule, derive_schedule(n_pool))) | values
    return ActiveConfig(**values)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    values = _load_config_dict(args, WORLD_KEYS)
    if args.n is not None:
        values["n_clips"] = args.n
    if args.seed is not None:
        values["seed"] = args.seed
    if "n_clips" not in values:
        raise UsageError("gen needs --n or a config with n_clips")
    config = WorldConfig(**values)
    _echo_config(dataclasses.asdict(config))
    generate_pool(config, args.pool, args.truth)
    print(f"wrote {args.pool} and {args.truth} ({config.n_clips} clips)")
    return 0


def cmd_init(args) -> int:
    clips, state = load_pool(args.pool, horizon=None, frames=False)
    if args.n0 > len(clips):
        print(f"error: n0 {args.n0} exceeds pool size {len(clips)}", file=sys.stderr)
        return 1
    _echo_config({"mode": args.mode, "n0": args.n0, "gamma": args.gamma, "tau_c": args.tau_c, "seed": args.seed})
    if args.mode == "ego-diversity":
        ids, _ = ego_diversity_init(clips, args.n0, args.gamma, args.tau_c)
    else:
        ids = random_init(clips, args.n0, args.seed)
    state.add_round(0, ids)
    save_selection(state, args.out)
    print(f"wrote {args.out} ({len(ids)} clips selected)")
    return 0


def cmd_score(args) -> int:
    check_score_settings(alpha=args.alpha, beta=args.beta, eps_a=args.eps_a, delta_d=args.delta_d)
    clips = load_pool(args.pool, horizon=None, frames=False)[0]
    unlabeled = load_selection(args.selection, clips).unlabeled_ids
    _echo_config({"alpha": args.alpha, "beta": args.beta, "eps_a": args.eps_a, "delta_d": args.delta_d})
    columns = score_predictions(
        args.predictions,
        clips,
        unlabeled,
        alpha=args.alpha,
        beta=args.beta,
        eps_a=args.eps_a,
        delta_d=args.delta_d,
    )
    save_scores(columns, args.out)
    print(f"wrote {args.out} ({len(unlabeled)} clips scored)")
    _warn_constant(f"scores file {args.out}", constant_criteria(columns), len(unlabeled))
    return 0


def cmd_select(args) -> int:
    if args.n_itr < 1:
        print(f"error: n_itr must be >= 1, got {args.n_itr}", file=sys.stderr)
        return 1
    columns = load_scores(args.scores, ranges=True)
    scored = columns["clip_id"]
    payload = read_selection_payload(args.selection)
    # Without the pool, the ids select can know are the selection's and the
    # scored ones; load_selection then rejects what score would.
    labeled = [i for entry in payload["rounds"] for i in entry["ids"]]
    state = load_selection(args.selection, dict.fromkeys([*labeled, *scored]), payload)
    already = sorted(set(labeled).intersection(scored))
    if already:
        print(f"error: scored clip {already[0]!r} is already labeled", file=sys.stderr)
        return 1
    if args.n_itr > len(scored):
        print(f"error: n_itr {args.n_itr} exceeds {len(scored)} scored clips", file=sys.stderr)
        return 1
    _echo_config({"n_itr": args.n_itr})
    next_round = state.rounds[-1][0] + 1 if state.rounds else 0
    state.add_round(next_round, _top(scored, columns["overall"], args.n_itr))
    out = args.out or args.selection
    save_selection(state, out)
    print(f"wrote {out} (round {next_round}: {args.n_itr} clips)")
    return 0


def _build_manifest(args, config: ActiveConfig, strategy: str, result, pool_clips, heldout_clips, truth,
                    provider) -> dict:
    manifest: dict = {
        "config": {
            **dataclasses.asdict(config),
            "criterion": args.criterion,
            "strategy": strategy,
        },
        "pool": {
            "path": str(args.pool),
            "n_clips": len(pool_clips),
            "horizon": pool_clips.horizon,
            "heldout_count": len(heldout_clips),
        },
        "init": {
            "mode": config.init_mode if strategy == "active" else "random",
            "ids": list(result.state.rounds[0][1]),
        },
        "rounds": [],
        "heldout": None,
    }
    if result.init_allocations is not None:
        manifest["init"]["allocations"] = [
            {key: getattr(a, key) for key in ("bucket", "command", "available", "allocated")}
            for a in result.init_allocations
        ]
    for trace in result.traces:
        entry: dict = {"round": trace.round_index, "ids": list(trace.selected_ids)}
        if trace.summary:
            entry["score_summary"] = trace.summary
        if trace.criterion_picks:
            labels, matrix = report.overlap_matrix(trace.criterion_picks)
            entry["criterion_overlap"] = {"labels": labels, "matrix": matrix.tolist()}
        manifest["rounds"].append(entry)

    if heldout_clips:
        provider.train(result.state.labeled_ids)
        evals = evaluate_clips(provider, heldout_clips, truth)
        avg_de, collision_pct = summarize_evals(evals)
        heldout: dict = {
            "count": len(heldout_clips),
            "avg_de_m": avg_de,
            "proxy_collision_pct": collision_pct,
            "per_clip": [
                {"clip_id": i, "de": de, "collided": hit}
                for i, de, hit in zip(evals["clip_id"], evals["de"].tolist(), evals["collided"].tolist())
            ],
            "stratified": stratified_metrics(evals, heldout_clips, config.tau_c),
        }
        if pool_clips.horizon == report.STEP_COUNT:
            steps = mean_step_errors(evals["step_errors"])
            heldout["l2_by_second"] = {
                "exact_step": [report.l2_at_k_uniad(steps, k) for k in (1, 2, 3)],
                "running_mean": [report.l2_at_k_vad(steps, k) for k in (1, 2, 3)],
            }
        manifest["heldout"] = heldout
    return manifest


def cmd_run(args) -> int:
    if args.heldout_count < 0:
        raise UsageError(f"--heldout-count must be >= 0, got {args.heldout_count}")
    clips = load_pool(args.pool, horizon=None, frames=False)[0]
    if args.heldout_count >= len(clips):
        raise ValueError(f"--heldout-count must be less than the {len(clips)} pool clips, got {args.heldout_count}")
    truth = load_truth(args.truth, horizon=clips.horizon)
    share_pool(truth, clips)
    missing = next((clip_id for clip_id in clips.ids if clip_id not in truth), None)
    if missing is not None:
        raise PoolFormatError(f"truth file {args.truth}: no record for clip {missing!r}")
    split = len(clips) - args.heldout_count
    pool_clips, heldout_clips = clips[:split], clips[split:]
    config = _active_config(args, len(pool_clips))
    strategy = "random" if args.baseline == "random" else "active"
    if strategy == "random":
        config = dataclasses.replace(config, init_mode="random")
    _echo_config(dataclasses.asdict(config) | {"criterion": args.criterion, "strategy": strategy})

    provider = ToyPlanner(clips, truth, tau_c=config.tau_c)
    result = run(pool_clips, provider, config, criterion=args.criterion, strategy=strategy)
    manifest = _build_manifest(args, config, strategy, result, pool_clips, heldout_clips, truth, provider)

    # Serialized before the out-dir exists: a non-finite value writes nothing.
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "manifest.json", manifest_text)
    state = result.state
    save_selection(state, out_dir / "selection.json")
    emit_report({"run": manifest}, out_dir / "report.json", "structured")
    emit_report({"run": manifest}, out_dir / "report.tsv", "delimited")
    print(f"wrote {out_dir}/manifest.json, selection.json, report.json, report.tsv "
          f"({len(state.labeled_ids)} clips selected)")
    for trace in result.traces:
        _warn_constant(f"round {trace.round_index}", trace.constant_criteria, trace.summary.get("n_scored", 0))
    return 0


def cmd_report(args) -> int:
    manifests: dict[str, dict] = {}
    for path in args.manifest or []:
        name = Path(path).parent.name or Path(path).stem
        if name in manifests:
            name = f"{name}:{len(manifests)}"
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict) or "config" not in manifest or "rounds" not in manifest:
            print(f"error: {path} does not look like a run manifest", file=sys.stderr)
            return 1
        manifests[name] = manifest

    # A stem that several files share is labelled with its directory.
    stems = [Path(path).stem for path in args.selection or []]
    sets = {}
    for path in args.selection or []:
        rounds = read_selection_payload(path)["rounds"]
        # Overlap compares the newly sampled clips, so skip the shared
        # initialization round when later rounds exist.
        incremental = [e for e in rounds if e["round"] > 0] or rounds
        label = Path(path).stem
        if stems.count(label) > 1:
            label = f"{Path(path).parent.name}/{label}"
        if label in sets:
            label = f"{label}:{len(sets)}"
        sets[label] = {i for e in incremental for i in e["ids"]}
    if not manifests and not sets:
        raise UsageError("report needs at least one --manifest or --selection")

    # Every input is read by now: a bad one leaves no out dir.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote = []
    if manifests:
        emit_report(manifests, out_dir / "report.json", "structured")
        emit_report(manifests, out_dir / "report.tsv", "delimited")
        wrote += ["report.json", "report.tsv"]

    if sets:
        labels, matrix = report.overlap_matrix(sets)
        doc = {"labels": labels, "matrix": matrix.tolist()}
        atomic_write_text(out_dir / "overlap.json", json.dumps(doc, indent=2, allow_nan=False) + "\n")
        lines = ["# selection_overlap", "\t".join(["set"] + labels)]
        lines += ["\t".join([label, *map(repr, row)]) for label, row in zip(labels, doc["matrix"])]
        atomic_write_text(out_dir / "overlap.tsv", "\n".join(lines) + "\n")
        wrote += ["overlap.json", "overlap.tsv"]
    print(f"wrote {', '.join(str(out_dir / w) for w in wrote)}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driveselect",
        description="Planning-oriented active data selection for driving-clip pools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help=f"JSON config file (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen", help="generate a synthetic pool and truth file")
    add_common(p)
    p.add_argument("--n", type=int, default=None, help="number of clips")
    p.add_argument("--pool", default="pool.jsonl")
    p.add_argument("--truth", default="truth.jsonl")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("init", help="write the initial selection round")
    p.add_argument("--pool", required=True)
    p.add_argument("--mode", choices=("ego-diversity", "random"), default="ego-diversity")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--tau-c", type=int, default=4, dest="tau_c")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="selection.json")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("score", help="score the unlabeled pool from a predictions file")
    p.add_argument("--pool", required=True)
    p.add_argument("--selection", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--eps-a", type=float, default=0.5, dest="eps_a")
    p.add_argument("--delta-d", type=float, default=3.0, dest="delta_d")
    p.add_argument("--out", default="scores.tsv")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", help="append the top-scoring clips as a new round")
    p.add_argument("--scores", required=True)
    p.add_argument("--selection", required=True)
    p.add_argument("--n-itr", type=int, required=True, dest="n_itr")
    p.add_argument("--out", default=None, help="output selection file (default: in place)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("run", help="closed-loop selection with the bundled toy planner")
    add_common(p)
    p.add_argument("--pool", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out-dir", default="run_out")
    p.add_argument("--baseline", choices=("random",), default=None,
                   help="run the random-selection comparator instead")
    p.add_argument("--criterion", choices=CRITERIA, default="mix")
    p.add_argument("--heldout-count", type=int, default=0,
                   help="reserve the last N pool clips for held-out evaluation (N < pool size)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="render reports from manifests or selection files")
    p.add_argument("--manifest", action="append", default=None)
    p.add_argument("--selection", action="append", default=None,
                   help="selection files for an overlap matrix (repeatable)")
    p.add_argument("--out-dir", default="report_out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PoolFormatError, OSError, KeyError, ValueError) as exc:
        # A KeyError's str() is the repr of its message.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
