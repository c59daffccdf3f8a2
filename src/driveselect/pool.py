"""Clip data model, pool bookkeeping, and file persistence.

A pool file is line-delimited UTF-8 JSON, one clip per line:

    {"id": "...", "weather": "Sunny", "lighting": "Day",
     "frames": [{"speed": 7.5, "command": "Straight"}, ...],
     "gt_future": [[x, y], ...]}

An optional ``annotation`` field is carried through verbatim and never
interpreted; the selection engine only cares about the labeled/unlabeled bit.
Selections are stored separately as ``{"rounds": [{"round": k, "ids": [...]}]}``
so that a selection file plus the pool file fully reproduce the split.

Pool, predictions and truth files all go through :func:`read_jsonl`: ids are
JSON strings, unique within the file, and an empty file or a malformed line
raises :class:`PoolFormatError` naming the file and the 1-based line.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence, TypeVar

WEATHER_VALUES = ("Sunny", "Rainy")
LIGHTING_VALUES = ("Day", "Night")
COMMAND_VALUES = ("Left", "Right", "Straight")

#: Weather-lighting buckets, in canonical (tie-break) order.
BUCKETS = ("DS", "DR", "NS", "NR")
#: Clip-level command classes, in canonical (tie-break) order.
COMMAND_CLASSES = ("L", "R", "O", "S")


class PoolFormatError(ValueError):
    """Raised when a pool, selection, or related file is malformed."""


class RowError(ValueError):
    """A bad record found after parsing, by its 0-based position among the records."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _check_finite_point(point: Sequence[float]) -> tuple[float, float]:
    if len(point) != 2:
        raise ValueError(f"waypoint must have 2 coordinates, got {len(point)}")
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"waypoint coordinates must be finite, got ({x}, {y})")
    return (x, y)


def _check_path(points: Iterable[Sequence[float]], horizon: int, name: str) -> tuple[tuple[float, float], ...]:
    """A trajectory of exactly ``horizon`` finite (x, y) waypoints."""
    path = tuple(_check_finite_point(p) for p in points)
    if len(path) != horizon:
        raise ValueError(f"{name} has {len(path)} waypoints, expected {horizon}")
    return path


@dataclass(frozen=True)
class FrameState:
    """Per-frame ego state: speed in m/s and the discrete driving command."""

    speed: float
    command: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.speed) or self.speed < 0:
            raise ValueError(f"speed must be finite and non-negative, got {self.speed}")
        if self.command not in COMMAND_VALUES:
            raise ValueError(f"unknown command {self.command!r}")


@dataclass(frozen=True)
class ClipRecord:
    """One driving clip: cheap metadata plus the recorded ego future.

    Immutable after load. ``annotation`` is an opaque payload that exists only
    for clips that have been labeled; the engine never looks inside it.
    """

    id: str
    weather: str
    lighting: str
    frames: tuple[FrameState, ...]
    gt_future: tuple[tuple[float, float], ...]
    annotation: Any = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("clip id must be non-empty")
        if self.weather not in WEATHER_VALUES:
            raise ValueError(f"unknown weather {self.weather!r}")
        if self.lighting not in LIGHTING_VALUES:
            raise ValueError(f"unknown lighting {self.lighting!r}")
        if len(self.frames) == 0:
            raise ValueError(f"clip {self.id}: frames must be non-empty")
        if len(self.gt_future) == 0:
            raise ValueError(f"clip {self.id}: gt_future must be non-empty")


def weather_lighting_bucket(clip: ClipRecord) -> str:
    """Map a clip to its weather-lighting bucket: DS, DR, NS, or NR."""
    lighting = "D" if clip.lighting == "Day" else "N"
    weather = "S" if clip.weather == "Sunny" else "R"
    return lighting + weather


def classify_command(clip: ClipRecord, tau_c: int) -> str:
    """Classify a clip into L / R / O / S from its per-frame commands.

    A clip counts as an overtake (O) when both the Left and Right command
    counts reach ``tau_c``; as a turn when only one side does; as straight (S)
    otherwise.
    """
    if tau_c < 1:
        raise ValueError(f"tau_c must be >= 1, got {tau_c}")
    n_left = sum(1 for f in clip.frames if f.command == "Left")
    n_right = sum(1 for f in clip.frames if f.command == "Right")
    if n_left >= tau_c and n_right >= tau_c:
        return "O"
    if n_left >= tau_c:
        return "L"
    if n_right >= tau_c:
        return "R"
    return "S"


def mean_speed(clip: ClipRecord) -> float:
    """Arithmetic mean of the per-frame speeds, in m/s."""
    return sum(f.speed for f in clip.frames) / len(clip.frames)


class SelectionState:
    """Labeled/unlabeled index bookkeeping with per-round history.

    Invariants maintained on every mutation: labeled and unlabeled partition
    the pool, round increments are pairwise disjoint, and their concatenation
    equals the labeled set in insertion order. Instances have a single-writer
    contract: only the selection loop mutates them.
    """

    def __init__(self, pool_ids: Iterable[str]):
        ids = tuple(pool_ids)
        seen = set()
        for cid in ids:
            if cid in seen:
                raise PoolFormatError(f"duplicate clip id {cid!r}")
            seen.add(cid)
        self._pool_ids = ids
        self._pool_set = seen
        self._labeled: list[str] = []
        self._labeled_set: set[str] = set()
        self._rounds: list[tuple[int, tuple[str, ...]]] = []

    @property
    def pool_ids(self) -> tuple[str, ...]:
        return self._pool_ids

    @property
    def labeled_ids(self) -> tuple[str, ...]:
        """Labeled ids, in selection order."""
        return tuple(self._labeled)

    @property
    def unlabeled_ids(self) -> tuple[str, ...]:
        """Unlabeled ids, in pool (file) order."""
        return tuple(c for c in self._pool_ids if c not in self._labeled_set)

    @property
    def rounds(self) -> tuple[tuple[int, tuple[str, ...]], ...]:
        return tuple(self._rounds)

    def is_labeled(self, clip_id: str) -> bool:
        return clip_id in self._labeled_set

    def add_round(self, round_index: int, ids: Sequence[str]) -> None:
        """Record one selection increment; ids must be distinct and unlabeled."""
        ids = tuple(ids)
        if not ids:
            raise ValueError("a selection round must add at least one clip")
        if self._rounds and round_index <= self._rounds[-1][0]:
            raise ValueError(
                f"round index {round_index} must exceed previous {self._rounds[-1][0]}"
            )
        if len(set(ids)) != len(ids):
            raise ValueError("round contains duplicate ids")
        for cid in ids:
            if cid not in self._pool_set:
                raise KeyError(f"clip id {cid!r} not in pool")
            if cid in self._labeled_set:
                raise ValueError(f"clip {cid!r} already labeled")
        self._rounds.append((round_index, ids))
        self._labeled.extend(ids)
        self._labeled_set.update(ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectionState):
            return NotImplemented
        return self._pool_ids == other._pool_ids and self._rounds == other._rounds

    def __repr__(self) -> str:
        return (
            f"SelectionState(pool={len(self._pool_ids)}, "
            f"labeled={len(self._labeled)}, rounds={len(self._rounds)})"
        )


# ---------------------------------------------------------------------------
# File persistence
# ---------------------------------------------------------------------------


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text atomically (temp file + rename) so failures leave no partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def clip_to_dict(clip: ClipRecord) -> dict:
    record = {
        "id": clip.id,
        "weather": clip.weather,
        "lighting": clip.lighting,
        "frames": [{"speed": f.speed, "command": f.command} for f in clip.frames],
        "gt_future": [[x, y] for x, y in clip.gt_future],
    }
    if clip.annotation is not None:
        record["annotation"] = clip.annotation
    return record


def clip_from_dict(record: dict, horizon: int) -> ClipRecord:
    extra = set(record) - {"id", "weather", "lighting", "frames", "gt_future", "annotation"}
    if extra:
        raise ValueError(f"unknown fields {sorted(extra)}")
    frames = tuple(
        FrameState(speed=float(f["speed"]), command=str(f["command"]))
        for f in record["frames"]
    )
    return ClipRecord(
        id=str(record["id"]),
        weather=str(record["weather"]),
        lighting=str(record["lighting"]),
        frames=frames,
        gt_future=_check_path(record["gt_future"], horizon, "gt_future"),
        annotation=record.get("annotation"),
    )


def pool_to_lines(clips: Sequence[ClipRecord]) -> list[str]:
    return [json.dumps(clip_to_dict(c), separators=(",", ":")) for c in clips]


T = TypeVar("T")


def read_jsonl(
    source: str | os.PathLike | Iterable[str],
    what: str,
    id_key: str,
    parse: Callable[[dict], T],
    finish: Callable[[dict[str, T]], Any] | None = None,
):
    """``{id: parse(record)}`` for each line of a JSONL file, in line order.

    ``source`` is the file's path or its lines; blank lines are skipped. Each
    record must be a JSON object whose ``id_key`` is a JSON string not seen on
    an earlier line. Any bad line, and an input without records, raises
    PoolFormatError naming ``what``, the file (for a path) and the line.
    ``finish``, if given, turns that dict into the result; a RowError it
    raises is reported at the line of that record.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_jsonl(fh, f"{what} file {os.fspath(source)}", id_key, parse, finish)
    records: dict[str, T] = {}
    linenos: list[int] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record must be a JSON object")
            record_id = record[id_key]
            if not isinstance(record_id, str):
                raise ValueError(f"{id_key} must be a JSON string, got {json.dumps(record_id)}")
            if record_id in records:
                raise ValueError(f"duplicate {id_key} {record_id!r}")
            records[record_id] = parse(record)
            linenos.append(lineno)
        except KeyError as exc:
            raise PoolFormatError(f"{what} line {lineno}: missing field {exc}") from exc
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise PoolFormatError(f"{what} line {lineno}: {exc}") from exc
    if not records:
        raise PoolFormatError(f"{what} is empty")
    if finish is None:
        return records
    try:
        return finish(records)
    except RowError as exc:
        raise PoolFormatError(f"{what} line {linenos[exc.row]}: {exc}") from exc


def parse_pool_lines(lines: str | os.PathLike | Iterable[str], horizon: int = 6) -> list[ClipRecord]:
    """Parse pool lines, or the pool file at a path, with :func:`read_jsonl`."""
    return list(read_jsonl(lines, "pool", "id", partial(clip_from_dict, horizon=horizon)).values())


def load_pool(path: str | os.PathLike, horizon: int = 6) -> tuple[list[ClipRecord], SelectionState]:
    """Load a pool file; all clips start unlabeled, in file order."""
    clips = parse_pool_lines(path, horizon=horizon)
    return clips, SelectionState(c.id for c in clips)


def save_pool(clips: Sequence[ClipRecord], path: str | os.PathLike) -> None:
    atomic_write_text(path, "\n".join(pool_to_lines(clips)) + "\n")


def selection_to_dict(state: SelectionState) -> dict:
    return {"rounds": [{"round": r, "ids": list(ids)} for r, ids in state.rounds]}


def save_selection(state: SelectionState, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(selection_to_dict(state), indent=2) + "\n")


def read_selection_payload(path: str | os.PathLike) -> dict:
    """The raw JSON object of a selection file; it must carry ``rounds``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PoolFormatError(f"selection file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "rounds" not in payload:
        raise PoolFormatError(f"selection file {path}: missing 'rounds'")
    return payload


def load_selection(path: str | os.PathLike, pool_ids: Iterable[str]) -> SelectionState:
    """Rebuild a SelectionState from a selection file against the given pool."""
    payload = read_selection_payload(path)
    state = SelectionState(pool_ids)
    try:
        for entry in payload["rounds"]:
            state.add_round(int(entry["round"]), [str(i) for i in entry["ids"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise PoolFormatError(f"selection file {path}: {exc}") from exc
    return state
