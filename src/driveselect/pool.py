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
(invalid UTF-8 included) raises :class:`PoolFormatError` naming the file and
the 1-based line. Lines are decoded by orjson wherever it gives exactly what
``json.loads`` gives, and by ``json.loads`` elsewhere (see :func:`_loads`).
They are written by :func:`write_jsonl`, one :func:`encode_line` per record:
orjson wherever its bytes are ``json.dumps``'s, and ``json.dumps`` elsewhere.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import orjson

WEATHER_VALUES = ("Sunny", "Rainy")
LIGHTING_VALUES = ("Day", "Night")
COMMAND_VALUES = ("Left", "Right", "Straight")
_COMMAND_SET = frozenset(COMMAND_VALUES)

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


def _check_string(value: Any, name: str) -> str:
    """``value``, which must be a JSON string: ids are never coerced with ``str()``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a JSON string, got {json.dumps(value)}")
    return value


def _check_fields(record: Any, fields: frozenset[str], name: str) -> dict:
    """``record``, which must be a JSON object with no keys outside ``fields``."""
    if not isinstance(record, dict):
        raise ValueError(f"{name} must be a JSON object")
    extra = record.keys() - fields
    if extra:
        raise ValueError(f"unknown fields {sorted(extra)}")
    return record


def _check_path(points: Iterable[Sequence[float]], horizon: int, name: str) -> tuple[tuple[float, float], ...]:
    """A trajectory of exactly ``horizon`` finite (x, y) waypoints."""
    path = tuple(map(_check_finite_point, points))
    if len(path) != horizon:
        raise ValueError(f"{name} has {len(path)} waypoints, expected {horizon}")
    return path


@dataclass(frozen=True)
class ClipRecord:
    """One driving clip: cheap metadata plus the recorded ego future.

    Immutable after load. The recorded frames are two parallel columns:
    ``speeds`` in m/s and the discrete driving ``commands``. ``annotation`` is
    an opaque payload that exists only for clips that have been labeled; the
    engine never looks inside it.
    """

    id: str
    weather: str
    lighting: str
    speeds: tuple[float, ...]
    commands: tuple[str, ...]
    gt_future: tuple[tuple[float, float], ...]
    annotation: Any = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("clip id must be non-empty")
        if self.weather not in WEATHER_VALUES:
            raise ValueError(f"unknown weather {self.weather!r}")
        if self.lighting not in LIGHTING_VALUES:
            raise ValueError(f"unknown lighting {self.lighting!r}")
        if len(self.speeds) == 0:
            raise ValueError(f"clip {self.id}: frames must be non-empty")
        if len(self.commands) != len(self.speeds):
            raise ValueError(
                f"clip {self.id}: {len(self.speeds)} speeds but {len(self.commands)} commands"
            )
        if not (all(map(math.isfinite, self.speeds)) and min(self.speeds) >= 0):
            speed = next(v for v in self.speeds if not math.isfinite(v) or v < 0)
            raise ValueError(f"speed must be finite and non-negative, got {speed}")
        if not _COMMAND_SET.issuperset(self.commands):
            command = next(c for c in self.commands if c not in COMMAND_VALUES)
            raise ValueError(f"unknown command {command!r}")
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
    n_left = clip.commands.count("Left")
    n_right = clip.commands.count("Right")
    if n_left >= tau_c and n_right >= tau_c:
        return "O"
    if n_left >= tau_c:
        return "L"
    if n_right >= tau_c:
        return "R"
    return "S"


def mean_speed(clip: ClipRecord) -> float:
    """Arithmetic mean of the per-frame speeds, in m/s."""
    return sum(clip.speeds) / len(clip.speeds)


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


def _file_mode() -> int:
    """The mode ``open(path, "w")`` gives a new file under the current umask."""
    umask = os.umask(0o022)
    os.umask(umask)
    return 0o666 & ~umask


def _naming(exc: OSError, path: str) -> OSError:
    return OSError(exc.errno, exc.strerror, path)


@contextmanager
def atomic_outputs(*paths: str | os.PathLike) -> Iterator[list[str]]:
    """Temp files beside ``paths``, renamed onto them in order once the block returns.

    Every temp file is created before the block runs and none is renamed
    before it returns, so a failure in creating them (a missing directory) or
    in the block leaves every output as it was. Any failure removes the temp
    files that remain, and an OSError names the output path, never its temp
    file. Outputs get the mode ``open(path, "w")`` would give them, not
    ``mkstemp``'s 0600.
    """
    paths = [os.fspath(p) for p in paths]
    mode = _file_mode()
    temps: list[str] = []
    try:
        for path in paths:
            try:
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix=".part")
            except OSError as exc:
                raise _naming(exc, path) from exc
            temps.append(tmp)
            try:
                os.fchmod(fd, mode)
            finally:
                os.close(fd)
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename in temps:
            raise _naming(exc, paths[temps.index(exc.filename)]) from exc
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text atomically (temp file + rename) so failures leave no partial file."""
    with atomic_outputs(path) as (tmp,), open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)


# Digits become "0", so one translated copy shows a digit before an exponent
# as b"0e"; DEL and every non-ASCII byte become DEL.
_ENCODE_GUARD = bytes.maketrans(
    b"123456789" + bytes(range(0x7F, 0x100)), b"000000000" + b"\x7f" * (0x100 - 0x7F)
)


def encode_line(record: Any) -> bytes:
    """``json.dumps(record, separators=(",", ":"), allow_nan=False)`` as ASCII bytes.

    orjson encodes the record wherever its bytes are exactly those; the rest
    takes ``json.dumps``, which also raises its own errors:
    - a record orjson refuses: ints beyond 64 bits, non-str keys, lone
      surrogates, types it does not know (numpy scalars);
    - non-ASCII or DEL bytes, which ``json.dumps`` escapes;
    - ``null``, as orjson writes NaN and infinities so where ``json.dumps``
      raises;
    - ``0.0000``, as orjson writes 0 < |x| < 1e-4 positionally (``0.0000909``
      for ``9.09e-05``);
    - a digit before ``e``, as orjson writes ``1e16`` and ``1.5e-7`` for
      ``1e+16`` and ``1.5e-07``.
    """
    try:
        line = orjson.dumps(record)
    except orjson.JSONEncodeError:
        pass
    else:
        guard = line.translate(_ENCODE_GUARD)
        if b"\x7f" not in guard and b"0e" not in guard and b"null" not in line and b"0.0000" not in line:
            return line
    return json.dumps(record, separators=(",", ":"), allow_nan=False).encode("ascii")


def write_jsonl(path: str | os.PathLike, records: Iterable[Any]) -> None:
    """Write one :func:`encode_line` per record atomically, each line ending
    in a newline (a file of one newline for no records)."""
    with atomic_outputs(path) as (tmp,), open(tmp, "wb") as fh:
        for i, record in enumerate(records):
            if i:
                fh.write(b"\n")
            fh.write(encode_line(record))
        fh.write(b"\n")


def clip_to_dict(clip: ClipRecord) -> dict:
    record = {
        "id": clip.id,
        "weather": clip.weather,
        "lighting": clip.lighting,
        "frames": [{"speed": v, "command": c} for v, c in zip(clip.speeds, clip.commands)],
        "gt_future": [[x, y] for x, y in clip.gt_future],
    }
    if clip.annotation is not None:
        record["annotation"] = clip.annotation
    return record


_SPEED = itemgetter("speed")
_COMMAND = itemgetter("command")
_CLIP_FIELDS = frozenset({"id", "weather", "lighting", "frames", "gt_future", "annotation"})


def clip_from_dict(record: dict, horizon: int) -> ClipRecord:
    _check_fields(record, _CLIP_FIELDS, "record")
    frames = record["frames"]
    return ClipRecord(
        id=str(record["id"]),
        weather=str(record["weather"]),
        lighting=str(record["lighting"]),
        speeds=tuple(map(float, map(_SPEED, frames))),
        # Interned, so every clip shares the same few command strings.
        commands=tuple(map(sys.intern, map(str, map(_COMMAND, frames)))),
        gt_future=_check_path(record["gt_future"], horizon, "gt_future"),
        annotation=record.get("annotation"),
    )


T = TypeVar("T")

# Digits 1-9 become 0 and "{" becomes "[", so one translated copy of a line
# shows both its digit runs and its bracket count.
_GUARD_TABLE = bytes.maketrans(b"123456789{", b"000000000[")
_DIGIT_RUN = b"0" * 19
_MAX_OPENERS = 512
_BLANK = object()


def _loads(line: bytes) -> Any:
    """``json.loads`` of one UTF-8 line stripped of whitespace, or ``_BLANK``.

    orjson decodes the line when it gives the same types, values and float
    bits. Everything else takes ``json.loads``, so its values and messages
    stay the same:
    - a line orjson rejects: NaN, Infinity, 1e400, lone surrogates, invalid
      UTF-8, or text around the JSON that ``str.strip`` removes;
    - a run of 19 or more digits, as orjson rounds integers beyond 64 bits to
      floats;
    - more than ``_MAX_OPENERS`` brackets, which bounds the nesting depth:
      ``json.loads`` stops at Python's recursion limit, and orjson 3.8
      recurses without one and crashes on a deep enough line.
    """
    guard = line.translate(_GUARD_TABLE)
    if _DIGIT_RUN not in guard and guard.count(b"[") <= _MAX_OPENERS:
        try:
            return orjson.loads(line)
        except orjson.JSONDecodeError:
            pass
    text = line.decode("utf-8").strip()
    return json.loads(text) if text else _BLANK


def read_jsonl(
    source: str | os.PathLike | Iterable[bytes | str],
    what: str,
    id_key: str,
    parse: Callable[[dict], T],
    finish: Callable[[dict[str, T]], Any] | None = None,
):
    """``{id: parse(record)}`` for each line of a JSONL file, in line order.

    ``source`` is the file's path or its lines, as UTF-8 bytes or as str;
    blank lines are skipped. Each record must be a JSON object whose
    ``id_key`` is a JSON string not seen on an earlier line. Any bad line, and
    an input without records, raises PoolFormatError naming ``what``, the
    file (for a path) and the line. ``finish``, if given, turns that dict into
    the result; a RowError it raises is reported at the line of that record.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return read_jsonl(fh, f"{what} file {os.fspath(source)}", id_key, parse, finish)
    records: dict[str, T] = {}
    linenos: list[int] = []
    for lineno, line in enumerate(source, start=1):
        try:
            record = _loads(line.encode("utf-8") if isinstance(line, str) else line)
            if record is _BLANK:
                continue
            if not isinstance(record, dict):
                raise ValueError("record must be a JSON object")
            record_id = _check_string(record[id_key], id_key)
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
    write_jsonl(path, map(clip_to_dict, clips))


def selection_to_dict(state: SelectionState) -> dict:
    return {"rounds": [{"round": r, "ids": list(ids)} for r, ids in state.rounds]}


def save_selection(state: SelectionState, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(selection_to_dict(state), indent=2, allow_nan=False) + "\n")


def _check_round(entry: Any) -> None:
    """A selection round: a JSON integer ``round`` and a list of JSON string ``ids``."""
    if not isinstance(entry, dict):
        raise ValueError("a round must be a JSON object")
    index, ids = entry["round"], entry["ids"]
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValueError(f"round must be a JSON integer, got {json.dumps(index)}")
    if not isinstance(ids, list):
        raise ValueError(f"ids must be a JSON list, got {json.dumps(ids)}")
    for clip_id in ids:
        _check_string(clip_id, "id")


def read_selection_payload(path: str | os.PathLike) -> dict:
    """The JSON object of a selection file. Its ``rounds`` is a list of
    ``{"round": <JSON integer>, "ids": [<JSON string>, ...]}``; nothing is
    coerced with ``int()`` or ``str()``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PoolFormatError(f"selection file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "rounds" not in payload:
        raise PoolFormatError(f"selection file {path}: missing 'rounds'")
    try:
        if not isinstance(payload["rounds"], list):
            raise ValueError("'rounds' must be a JSON list")
        for entry in payload["rounds"]:
            _check_round(entry)
    except KeyError as exc:
        raise PoolFormatError(f"selection file {path}: missing field {exc}") from exc
    except ValueError as exc:
        raise PoolFormatError(f"selection file {path}: {exc}") from exc
    return payload


def load_selection(path: str | os.PathLike, pool_ids: Iterable[str]) -> SelectionState:
    """Rebuild a SelectionState from a selection file against the given pool."""
    payload = read_selection_payload(path)
    state = SelectionState(pool_ids)
    try:
        for entry in payload["rounds"]:
            state.add_round(entry["round"], entry["ids"])
    except (KeyError, ValueError) as exc:
        raise PoolFormatError(f"selection file {path}: {exc}") from exc
    return state
