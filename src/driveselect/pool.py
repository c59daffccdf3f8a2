"""Clip data model, pool bookkeeping, and file persistence.

A pool file is line-delimited UTF-8 JSON, one clip per line:

    {"id": "...", "weather": "Sunny", "lighting": "Day",
     "frames": [{"speed": 7.5, "command": "Straight"}, ...],
     "gt_future": [[x, y], ...]}

An optional ``annotation`` field is carried through verbatim and never
interpreted; the selection engine only cares about the labeled/unlabeled bit.
Selections are stored separately as ``{"rounds": [{"round": k, "ids": [...]}]}``
so that a selection file plus the pool file fully reproduce the split.

A loaded pool is a :class:`ClipTable`: one column per field, with the
frames of all clips back to back. Its rows are :class:`ClipRecord` views.

Pool, predictions and truth files all follow :func:`read_jsonl`'s rules: ids
are JSON strings, unique within the file, and an empty file or a malformed
line (invalid UTF-8 included) raises :class:`PoolFormatError` naming the file
and the 1-based line. The three are read into columns by :func:`read_table`,
the one path that builds their tables. On input that fails its column
checks, :func:`read_jsonl`'s per-record checks run only to name the first bad
line, and keep nothing, so every message is the same. A file of 2 MiB or
more is split at line starts into byte ranges, up to one per CPU, and forked
processes read all ranges but the first; the columns, and every message, are
the same as from one read in this process. A reader process that fails with
no bad record in its range (out of memory, say) leads to one more read of
that range, in this process.
Lines are decoded by orjson wherever it gives exactly what ``json.loads``
gives, and by ``json.loads`` elsewhere (see :func:`_loads`). Every JSONL and
TSV output is written by :func:`write_lines`, each JSONL line as
:func:`encode_line` writes it: orjson wherever its bytes are ``json.dumps``'s,
and ``json.dumps`` elsewhere. :func:`exact_rows` tells, for a block of records
at once, which orjson writes alike with no byte check: ``gen``,
``save_predictions`` and the scores table (:func:`float_rows`) use it.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import signal
import sys
import tempfile
import threading
from collections.abc import Mapping, Sequence
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NoReturn, TypeVar

import numpy as np
import orjson

WEATHER_VALUES = ("Sunny", "Rainy")
LIGHTING_VALUES = ("Day", "Night")
COMMAND_VALUES = ("Left", "Right", "Straight")
_COMMAND_SET = frozenset(COMMAND_VALUES)
# The int8 codes of the table columns: indices into the value tuples.
_WEATHER_CODES = {value: code for code, value in enumerate(WEATHER_VALUES)}
_LIGHTING_CODES = {value: code for code, value in enumerate(LIGHTING_VALUES)}
_COMMAND_CODES = {value: code for code, value in enumerate(COMMAND_VALUES)}

#: Weather-lighting buckets, in canonical (tie-break) order: lighting-major,
#: so a clip's bucket index is ``lighting code * 2 + weather code``.
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


#: The types of a decoded JSON number. ``float()`` and numpy would also read
#: a bool as 0 or 1 and a string such as "3.5" as a number.
_NUMBER_TYPES = frozenset({int, float})


def _check_numbers(values: Any, name: str, depth: int = 1) -> None:
    """Raise ValueError naming ``name`` at the first item of ``values``, JSON
    lists nested ``depth`` deep, that is not a JSON number. A number where a
    list belongs is left to the caller's shape checks."""
    items = values
    for _ in range(depth - 1):
        items = chain.from_iterable(items)
    try:
        if _NUMBER_TYPES.issuperset(map(type, items)):
            return
    except TypeError:  # a number where a list belongs
        return
    for item in values if type(values) is list else [values]:
        if depth > 1 and type(item) is list:
            _check_numbers(item, name, depth - 1)
        elif type(item) not in _NUMBER_TYPES:
            raise ValueError(f"{name} must be a JSON number, got {json.dumps(item)}")


def _check_finite_point(point: Sequence[float], name: str) -> tuple[float, float]:
    """A waypoint of ``name``: two finite JSON numbers, as floats."""
    if len(point) != 2:
        raise ValueError(f"waypoint must have 2 coordinates, got {len(point)}")
    x, y = point
    if type(x) is not float or type(y) is not float:
        _check_numbers(point, name)
        x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"waypoint coordinates must be finite, got ({x}, {y})")
    return (x, y)


def _check_string(value: Any, name: str) -> str:
    """``value``, which must be a JSON string: ids are never coerced with ``str()``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a JSON string, got {json.dumps(value)}")
    return value


def _check_list(value: Any, name: str) -> list:
    """``value``, which must be a JSON list."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a JSON list")
    return value


def _check_fields(record: Any, fields: Iterable[str], name: str) -> dict:
    """``record``, which must be a JSON object with no keys outside ``fields``."""
    if not isinstance(record, dict):
        raise ValueError(f"{name} must be a JSON object")
    extra = record.keys() - fields
    if extra:
        raise ValueError(f"unknown fields {sorted(extra)}")
    return record


def _check_path(points: Iterable[Sequence[float]], horizon: int, name: str) -> tuple[tuple[float, float], ...]:
    """A trajectory of exactly ``horizon`` finite (x, y) waypoints."""
    path = tuple([_check_finite_point(point, name) for point in points])
    if len(path) != horizon:
        raise ValueError(f"{name} has {len(path)} waypoints, expected {horizon}")
    return path


@dataclass(frozen=True)
class ClipRecord:
    """One driving clip: cheap metadata plus the recorded ego future.

    Immutable. The recorded frames are two parallel columns: ``speeds`` in
    m/s and the discrete driving ``commands``. ``annotation`` is an opaque
    payload that exists only for clips that have been labeled; the engine
    never looks inside it. A record built here is checked; the rows of a
    :class:`ClipTable` are views of its columns, built unchecked because the
    table's values were checked when it was read.
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


def _unchecked(cls, *values):
    """An instance of a frozen dataclass, from column rows already validated."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def row_index(ids: tuple[str, ...], what: str) -> dict[str, int]:
    """Each id's row; an id on two rows raises ValueError naming it and ``what``."""
    rows = dict(zip(ids, range(len(ids))))
    if len(rows) != len(ids):
        duplicate = next(i for row, i in enumerate(ids) if rows[i] != row)
        raise ValueError(f"duplicate clip id {duplicate!r} in {what}")
    return rows


def check_unique(ids: tuple[str, ...], what: str) -> None:
    """Raise :func:`row_index`'s ValueError if an id repeats, without a set
    of the ids: their int64 hashes are sorted, and only an equal pair runs
    the exact check."""
    hashes = np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids))
    hashes.sort()
    if (hashes[1:] == hashes[:-1]).any() and len(set(ids)) != len(ids):
        row_index(ids, what)


def _offsets(counts: Sequence[int]) -> np.ndarray:
    """(N + 1,) offsets of N ragged rows of ``counts`` items stored back to back."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))


class RaggedTable:
    """Rows with unique ids, each holding a run of nested items (frames or
    agents) stored back to back: row ``r``'s items are ``offsets[r]:offsets[r
    + 1]`` of the item columns. This is Apache Arrow's list layout.

    A subclass is a frozen dataclass of columns whose ``__post_init__``
    calls :meth:`_check_columns` and then :meth:`_index`, and whose
    ``_taken`` builds the table of some of its rows. Errors are ValueErrors
    naming the table as ``what``.

    The id index, ``_rows``, is built on the first lookup. A contiguous
    slice of a table looks its ids up in the index of the table it was cut
    from, ``_base``, whose rows it holds from ``_lo`` on; so does a table
    that :func:`share_pool_ids` gave its pool's ids.
    """

    _ids: tuple[str, ...]
    _offsets: np.ndarray
    _base: RaggedTable | None = None
    _lo: int = 0

    def _check_columns(self, what: str, dims: dict[str, list[tuple[str, int]]],
                       points: dict[str, int] | None = None, codes: dict[str, int] | None = None) -> None:
        """Raise ValueError naming two columns that disagree in a dimension:
        each of ``dims`` lists the (column, axis) pairs that must agree. Each
        column of ``points`` must have that many axes, the last of 2 (x, y)
        coordinates, and each of ``codes`` only codes below its count."""
        def size(name: str, axis: int):
            column = getattr(self, name)
            shape = () if column is None else getattr(column, "shape", (len(column),))
            return shape[axis] if len(shape) > axis else None

        for dim, ((first, axis), *others) in dims.items():
            expected = size(first, axis)
            for name, other_axis in others:
                if size(name, other_axis) != expected:
                    raise ValueError(f"{what} columns disagree in {dim}: {first} has {expected}, "
                                     f"{name} has {size(name, other_axis)}")
        for name, ndim in (points or {}).items():
            shape = getattr(self, name).shape
            if len(shape) != ndim or shape[-1] != 2:
                raise ValueError(f"{what} {name} must have {ndim} axes, the last of 2 coordinates, "
                                 f"got shape {shape}")
        for name, count in (codes or {}).items():
            column = getattr(self, name)
            low, high = (column.min(), column.max()) if len(column) else (0, 0)
            if low < 0 or high >= count:
                raise ValueError(f"{what} {name} codes must be within [0, {count}), got {low if low < 0 else high}")

    def _index(self, what: str, ids: tuple[str, ...], offsets: np.ndarray, items: str) -> None:
        """Take ``ids``, which must be unique, as the table's ids, over
        ``offsets``, which must rise from 0 to the length of the ``items``
        column in one entry per row and one more. No index is built."""
        n = len(getattr(self, items))
        if len(offsets) != len(ids) + 1 or offsets[0] != 0 or offsets[-1] != n or (offsets[1:] < offsets[:-1]).any():
            raise ValueError(f"{what} offsets must rise from 0 to the length of {items}, {n}, "
                             f"in {len(ids) + 1} entries")
        check_unique(ids, f"a {what}")
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_offsets", offsets)

    @cached_property
    def _rows(self) -> dict[str, int]:
        """Each id's row, built on the first lookup."""
        return dict(zip(self._ids, range(len(self._ids))))

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def _row_of(self, id_: str) -> int:
        """The row of one id, or -1 for an id not in the table."""
        if self._base is None:
            return self._rows.get(id_, -1)
        row = self._base._rows.get(id_, -1) - self._lo
        return row if 0 <= row < len(self) else -1

    def rows_of(self, ids: Iterable[str]) -> np.ndarray:
        """The rows of the given ids; the first unknown id raises KeyError
        naming it. On a slice, an id of the base table outside the slice is
        unknown."""
        if self._base is None:
            return np.fromiter(map(self._rows.__getitem__, ids), dtype=np.intp)
        ids = tuple(ids)
        rows = self.find_rows(ids)
        missing = rows < 0
        if missing.any():
            raise KeyError(ids[missing.argmax()])
        return rows

    def find_rows(self, ids: Sequence[str]) -> np.ndarray:
        """The rows of the given ids, as :meth:`rows_of` gives them, with -1
        for each id it would raise on."""
        index = self._rows if self._base is None else self._base._rows
        rows = np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))
        if self._base is not None:
            rows -= self._lo
            rows[(rows < 0) | (rows >= len(self))] = -1
        return rows

    def items_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nested items of ``rows``, row after row: their indices, and
        the position in ``rows`` of each one's row."""
        starts = self._offsets[rows]
        counts = self._offsets[rows + 1] - starts
        ends = np.cumsum(counts)
        items = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - counts), counts)
        return items, np.repeat(np.arange(len(rows)), counts)

    def take(self, ids: Iterable[str]):
        """The table of the given ids' rows, in that order; an unknown id
        raises KeyError."""
        ids = tuple(ids)
        rows = self.rows_of(ids)
        return self._taken(ids, rows, *self.items_of(rows))


class AgentTable(RaggedTable, Mapping):
    """A table of ``clip_ids`` whose nested items are agents, stored clip by
    clip, each naming its clip's row in ``agent_clip``. A Mapping from clip
    id to the view ``_view`` builds of that clip's row and agents."""

    def _index_agents(self, what: str, dims: dict[str, list[tuple[str, int]]], points: dict[str, int]) -> None:
        """:meth:`_check_columns` and :meth:`_index`, with the agent offsets
        taken from ``agent_clip``, which must be non-decreasing and within
        [0, N)."""
        self._check_columns(what, dims, points)
        n, owners = len(self.clip_ids), self.agent_clip
        if len(owners) and (owners[0] < 0 or owners[-1] >= n or (owners[1:] < owners[:-1]).any()):
            raise ValueError(f"{what} agent_clip must be non-decreasing and within [0, {n})")
        self._index(what, self.clip_ids, np.searchsorted(owners, np.arange(n + 1)), "agent_clip")

    def __iter__(self) -> Iterator[str]:
        return iter(self.clip_ids)

    def __contains__(self, clip_id: object) -> bool:
        return self._row_of(clip_id) >= 0

    def __getitem__(self, clip_id: str):
        row = self._row_of(clip_id)
        if row < 0:
            raise KeyError(clip_id)
        return self._view(clip_id, row, slice(self._offsets[row], self._offsets[row + 1]))


def frame_features(offsets: np.ndarray, speeds: np.ndarray, commands: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per clip over ``offsets``: the mean speed, summed left to right from 0 as ``sum(speeds) / len(speeds)``
    does (``np.mean`` sums 8 or more terms pairwise), and the counts of Left and Right frames, as int32."""
    counts, starts = np.diff(offsets), offsets[:-1]
    # Row i holds 0.0 and then clip i's speeds, zero-padded; cumsum adds a row in order, as sum() does from 0.
    padded = np.zeros((len(counts), counts.max(initial=0) + 1))
    padded[np.repeat(np.arange(len(counts)), counts), np.arange(len(speeds)) - np.repeat(starts - 1, counts)] = speeds
    total = np.cumsum(padded, axis=1)[:, -1]
    before = [np.searchsorted(np.flatnonzero(commands == _COMMAND_CODES[side]), offsets) for side in ("Left", "Right")]
    with np.errstate(invalid="ignore"):  # NaN for a clip without frames
        return (total / counts, *(np.diff(side).astype(np.int32) for side in before))


@dataclass(frozen=True, eq=False)
class ClipTable(RaggedTable, Sequence):
    """N clips as columns, in pool order, with the frames of all clips back to back: clip ``i``'s
    frames are ``offsets[i]:offsets[i + 1]`` of ``speeds`` and ``commands``, so frame counts may
    differ. They are read only through the columns of :func:`frame_features`, derived from them,
    or given to a table without frames (None ``offsets``), whose rows, iteration and ``==`` raise.

    Weather, lighting and commands are int8 indices into ``WEATHER_VALUES``,
    ``LIGHTING_VALUES`` and ``COMMAND_VALUES``. The table is a Sequence of
    :class:`ClipRecord`: an index gives a row view, a slice a table. Readers
    share the arrays, so none may write to them. Ids are unique.
    """

    ids: tuple[str, ...]
    weather: np.ndarray      # (N,) int8
    lighting: np.ndarray     # (N,) int8
    offsets: np.ndarray | None  # (N + 1,) intp
    speeds: np.ndarray       # (F,) float64, m/s
    commands: np.ndarray     # (F,) int8
    gt_future: np.ndarray    # (N, H, 2)
    annotations: tuple       # (N,) opaque payloads, None where absent
    mean_speed: np.ndarray | None = None  # (N,) float64, m/s
    left: np.ndarray | None = None        # (N,) int32 count of Left frames
    right: np.ndarray | None = None       # (N,) int32 count of Right frames

    def __post_init__(self) -> None:
        self._check_columns("clip table", {
            "N": [("ids", 0), ("weather", 0), ("lighting", 0), ("gt_future", 0), ("annotations", 0)],
            "F": [("speeds", 0), ("commands", 0)],
        }, {"gt_future": 3}, {"weather": len(WEATHER_VALUES), "lighting": len(LIGHTING_VALUES),
                              "commands": len(COMMAND_VALUES)})
        offsets = np.zeros(len(self.ids) + 1, np.intp) if self.offsets is None else self.offsets
        self._index("clip table", self.ids, offsets, "speeds")
        if self.offsets is not None or self.mean_speed is None:  # a frame-free table needs them given
            features = frame_features(self._frames(), self.speeds, self.commands)
            vars(self).update(zip(("mean_speed", "left", "right"), features))
        self._check_columns("clip table", {"N": [("ids", 0), ("mean_speed", 0), ("left", 0), ("right", 0)]})

    @property
    def horizon(self) -> int:
        return self.gt_future.shape[1]

    def _frames(self) -> np.ndarray:
        if self.offsets is None:
            raise ValueError("clip table has no frames")
        return self.offsets

    def __iter__(self) -> Iterator[ClipRecord]:
        self._frames()  # refused here, not at the first row
        return map(self._row, range(len(self.ids)))

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return self._row(range(len(self.ids))[key])
        lo, hi, step = key.indices(len(self.ids))
        if step != 1:
            return self.take(self.ids[key])
        hi = max(lo, hi)
        first, last = self._offsets[lo], self._offsets[hi]
        offsets = self._offsets[lo : hi + 1] - first if first else self._offsets[lo : hi + 1]
        # Rows of a checked table: no check, and no index of its own.
        table = _unchecked(
            ClipTable, self.ids[lo:hi], self.weather[lo:hi], self.lighting[lo:hi],
            None if self.offsets is None else offsets, self.speeds[first:last], self.commands[first:last],
            self.gt_future[lo:hi], self.annotations[lo:hi], self.mean_speed[lo:hi], self.left[lo:hi], self.right[lo:hi],
        )
        base = self if self._base is None else self._base
        for name, value in (("_ids", table.ids), ("_offsets", offsets), ("_base", base), ("_lo", self._lo + lo)):
            object.__setattr__(table, name, value)
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClipTable):
            return NotImplemented
        return (
            np.array_equal(self._frames(), other._frames()) and self.ids == other.ids
            and self.annotations == other.annotations
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("weather", "lighting", "speeds", "commands", "gt_future"))
        )

    def _row(self, i: int) -> ClipRecord:
        first, last = self._frames()[i : i + 2].tolist()
        return _unchecked(
            ClipRecord,
            self.ids[i],
            WEATHER_VALUES[self.weather[i]],
            LIGHTING_VALUES[self.lighting[i]],
            tuple(self.speeds[first:last].tolist()),
            tuple([COMMAND_VALUES[c] for c in self.commands[first:last].tolist()]),
            tuple(map(tuple, self.gt_future[i].tolist())),
            self.annotations[i],
        )

    def _taken(self, ids: tuple[str, ...], rows: np.ndarray, frames: np.ndarray, owners: np.ndarray) -> ClipTable:
        offsets = None if self.offsets is None else np.searchsorted(owners, np.arange(len(rows) + 1))
        return ClipTable(ids, self.weather[rows], self.lighting[rows], offsets, self.speeds[frames],
                         self.commands[frames], self.gt_future[rows], tuple(self.annotations[i] for i in rows.tolist()),
                         self.mean_speed[rows], self.left[rows], self.right[rows])

    def buckets(self) -> np.ndarray:
        """Each clip's index in ``BUCKETS``."""
        return self.lighting.astype(np.intp) * len(WEATHER_VALUES) + self.weather

    def command_classes(self, tau_c: int) -> np.ndarray:
        """Each clip's index in ``COMMAND_CLASSES``. A clip is an overtake (O)
        when both its Left and Right frame counts reach ``tau_c``, a turn (L
        or R) when only one side does, and straight (S) otherwise."""
        if tau_c < 1:
            raise ValueError(f"tau_c must be >= 1, got {tau_c}")
        left, right = self.left >= tau_c, self.right >= tau_c
        code = COMMAND_CLASSES.index
        return np.select([left & right, left, right], [code("O"), code("L"), code("R")], code("S"))

    def mean_speeds(self) -> np.ndarray:
        """Each clip's mean frame speed in m/s (see :func:`frame_features`)."""
        return self.mean_speed


def clip_table(clips: Sequence[ClipRecord]) -> ClipTable:
    """``clips`` as a table: a ClipTable as it is, and a sequence of records
    converted, in order. Every record must have the same horizon."""
    if isinstance(clips, ClipTable):
        return clips
    speeds = [c.speeds for c in clips]
    return ClipTable(
        ids=tuple(c.id for c in clips),
        weather=np.array([_WEATHER_CODES[c.weather] for c in clips], dtype=np.int8),
        lighting=np.array([_LIGHTING_CODES[c.lighting] for c in clips], dtype=np.int8),
        offsets=_offsets(list(map(len, speeds))),
        speeds=np.array(list(chain.from_iterable(speeds)), dtype=float),
        commands=np.frombuffer(
            bytes(map(_COMMAND_CODES.__getitem__, chain.from_iterable(c.commands for c in clips))), dtype=np.int8
        ),
        gt_future=np.array([c.gt_future for c in clips], dtype=float).reshape(
            len(clips), len(clips[0].gt_future) if len(clips) else 0, 2
        ),
        annotations=tuple(c.annotation for c in clips),
    )


def share_pool_ids(table: AgentTable, pool: ClipTable) -> bool:
    """Whether ``table``, read beside ``pool``, holds the pool's clip ids in
    the pool's order; if it does, it is made to hold the pool's id tuple and
    to look ids up in the pool's index, as a slice of the pool does, and
    drops any index of its own. Its rows and lookups stay the same. A table
    of other ids, or in another order, is left as it is. This is one tuple
    comparison, on tables whose construction checked them. ``run`` applies
    it to its truth (:func:`~driveselect.synthworld.share_pool`); ``score``
    keeps no prediction batch to apply it to, only each block's raw
    criteria (:func:`~driveselect.criteria.score_predictions`)."""
    if table.clip_ids != pool.ids:
        return False
    for name, value in (("clip_ids", pool.ids), ("_ids", pool.ids), ("_lo", pool._lo),
                        ("_base", pool if pool._base is None else pool._base)):
        object.__setattr__(table, name, value)
    vars(table).pop("_rows", None)
    return True


def weather_lighting_bucket(clip: ClipRecord) -> str:
    """Map a clip to its weather-lighting bucket: DS, DR, NS, or NR."""
    return BUCKETS[clip_table([clip]).buckets()[0]]


def classify_command(clip: ClipRecord, tau_c: int) -> str:
    """Classify a clip into L / R / O / S from its per-frame commands (see
    :meth:`ClipTable.command_classes`)."""
    return COMMAND_CLASSES[clip_table([clip]).command_classes(tau_c)[0]]


def mean_speed(clip: ClipRecord) -> float:
    """Arithmetic mean of the per-frame speeds, in m/s."""
    return float(clip_table([clip]).mean_speeds()[0])


class SelectionState:
    """Which clips of a pool are labeled, and in which round: a row lookup
    for the pool, a bool mask of its labeled rows, and the rounds.

    Invariants maintained on every mutation: labeled and unlabeled partition
    the pool, round increments are pairwise disjoint, and their concatenation
    is the labeled ids in selection order. Instances have a single-writer
    contract: only the selection loop mutates them.
    """

    def __init__(self, pool_ids: Iterable[str] | ClipTable):
        """The pool is a ClipTable, whose ids are unique and whose
        :meth:`~RaggedTable.find_rows` is the row lookup, or any iterable of
        ids, which are checked here and looked up in a dict of their rows.
        The mask has one more entry, never set, which row -1 (an id not in
        the pool) reads."""
        if isinstance(pool_ids, ClipTable):
            self._pool_ids, self._find_rows = pool_ids.ids, pool_ids.find_rows
        else:
            ids = self._pool_ids = tuple(pool_ids)
            # Each id's first row: zipped last to first, the first row is kept.
            index = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
            if len(index) != len(ids):
                duplicate = next(cid for row, cid in enumerate(ids) if index[cid] != row)
                raise PoolFormatError(f"duplicate clip id {duplicate!r}")
            self._find_rows = lambda round_ids: np.fromiter(
                map(index.get, round_ids, repeat(-1)), dtype=np.intp, count=len(round_ids))
        self._labeled = np.zeros(len(self._pool_ids) + 1, dtype=bool)
        self._rounds: list[tuple[int, tuple[str, ...]]] = []

    @property
    def pool_ids(self) -> tuple[str, ...]:
        return self._pool_ids

    @property
    def labeled_ids(self) -> tuple[str, ...]:
        """Labeled ids, in selection order."""
        return tuple(chain.from_iterable(ids for _, ids in self._rounds))

    @property
    def unlabeled_ids(self) -> tuple[str, ...]:
        """Unlabeled ids, in pool (file) order."""
        return tuple(compress(self._pool_ids, np.logical_not(self._labeled[:-1])))

    @property
    def rounds(self) -> tuple[tuple[int, tuple[str, ...]], ...]:
        return tuple(self._rounds)

    def add_round(self, round_index: int, ids: Sequence[str]) -> None:
        """Record one selection increment; ids must be distinct and unlabeled.
        The first id, in order, that is not in the pool or already labeled
        is named."""
        ids = tuple(ids)
        if not ids:
            raise ValueError("a selection round must add at least one clip")
        if self._rounds and round_index <= self._rounds[-1][0]:
            raise ValueError(
                f"round index {round_index} must exceed previous {self._rounds[-1][0]}"
            )
        if len(set(ids)) != len(ids):
            raise ValueError("round contains duplicate ids")
        rows = self._find_rows(ids)
        bad = (rows < 0) | self._labeled[rows]
        if bad.any():
            i = int(bad.argmax())
            if rows[i] < 0:
                raise KeyError(f"clip id {ids[i]!r} not in pool")
            raise ValueError(f"clip {ids[i]!r} already labeled")
        self._labeled[rows] = True
        self._rounds.append((round_index, ids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectionState):
            return NotImplemented
        return self._pool_ids == other._pool_ids and self._rounds == other._rounds

    def __repr__(self) -> str:
        return (
            f"SelectionState(pool={len(self._pool_ids)}, "
            f"labeled={int(self._labeled.sum())}, rounds={len(self._rounds)})"
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
    ``mkstemp``'s 0600. Two paths of one file (the second rename would
    replace the first) raise ValueError naming them, before any temp file.
    """
    paths = [os.fspath(p) for p in paths]
    real = list(map(os.path.realpath, paths))
    for i, path in enumerate(real):
        if path in real[:i]:
            raise ValueError(f"outputs {paths[real.index(path)]} and {paths[i]} are the same file")
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


def orjson_exact(values: Any) -> np.ndarray:
    """Which of the float ``values`` ``orjson.dumps`` writes exactly as
    ``repr`` does: 0, and finite magnitudes in [1e-4, 1e16). orjson writes
    smaller ones positionally (``0.00003`` for ``3e-05``), larger ones with
    no exponent sign (``1e16`` for ``1e+16``), and NaN and infinities as
    ``null``. A few values outside the range that it does write alike
    (``5e-324``) are not taken."""
    magnitude = np.abs(np.asarray(values, dtype=np.float64))
    return (magnitude == 0) | ((magnitude >= 1e-4) & (magnitude < 1e16))


def exact_rows(n: int, floats: Iterable[tuple[Any, Any]], ids: Iterable[tuple[Any, Sequence]]) -> np.ndarray:
    """Which of ``n`` records ``orjson.dumps`` writes as :func:`encode_line` does, given
    all their floats and ids: every float passes :func:`orjson_exact`, and every id is
    a str, ASCII, with no DEL. Both come in ``(owners, values)`` groups: ``values[i]``
    belongs to record ``owners[i]``, or to record ``i`` where ``owners`` is None."""
    exact = np.ones(n, dtype=bool)
    for owners, values in floats:
        ok = orjson_exact(values).all(axis=tuple(range(1, np.ndim(values))))
        exact[~ok if owners is None else owners[~ok]] = False
    for owners, values in ids:
        with suppress(TypeError):  # an id that is not a str is found one by one
            if (text := "".join(values)).isascii() and "\x7f" not in text:
                continue
        ok = np.fromiter((isinstance(v, str) and v.isascii() and "\x7f" not in v for v in values), bool, len(values))
        exact[~ok if owners is None else owners[~ok]] = False
    return exact


def float_rows(columns: Sequence) -> list[str]:
    """The rows of equal-length float columns, each as the ``repr`` of its
    values joined by tabs: one ``orjson.dumps`` of all rows, and ``repr``
    in each row that :func:`exact_rows` does not pass."""
    block = np.stack(columns, axis=1, dtype=np.float64)
    rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode("ascii")
    rows = rows.replace(",", "\t").split("]\t[")
    for r in np.flatnonzero(~exact_rows(len(block), [(None, block)], ())).tolist():
        rows[r] = "\t".join(map(repr, block[r].tolist()))
    return rows


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

    The byte check costs about twice what ``orjson.dumps`` does on a
    generated clip. A writer whose records hold only dicts, lists, tuples,
    known ASCII strings and the floats and ids it passes to
    :func:`exact_rows` may call ``orjson.dumps`` itself for the records that
    pass.
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


def write_lines(paths: Sequence[str | os.PathLike], blocks: Iterable[Sequence[Iterable[bytes]]]) -> None:
    """Write ``blocks``, each one iterable of lines per path, to :func:`atomic_outputs`
    temp files renamed onto ``paths``. Each line ends in a newline; a file that gets
    no line is one newline. Lines are not joined first: that raised gen's peak by 2 MB."""
    with atomic_outputs(*paths) as temps, ExitStack() as files:
        handles = [files.enter_context(open(tmp, "wb")) for tmp in temps]
        for block in blocks:
            for fh, lines in zip(handles, block, strict=True):
                fh.writelines(chain.from_iterable(zip(lines, repeat(b"\n"))))
        for fh in handles:
            if not fh.tell():
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
_FRAME_FIELDS = frozenset({"speed", "command"})


def clip_from_dict(record: dict, horizon: int) -> ClipRecord:
    _check_fields(record, _CLIP_FIELDS, "record")
    frames = [_check_fields(frame, _FRAME_FIELDS, "frame") for frame in _check_list(record["frames"], "frames")]
    speeds = list(map(_SPEED, frames))
    _check_numbers(speeds, "speed")
    return ClipRecord(
        id=str(record["id"]),
        weather=str(record["weather"]),
        lighting=str(record["lighting"]),
        speeds=tuple(map(float, speeds)),
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
_FRACTION_OR_DIGIT = frozenset(b".0")
_MAX_OPENERS = 512
_BLANK = object()


def _long_integer_run(guard: bytes) -> bool:
    """Whether a line's guard copy holds a run of 19 or more digits that no
    "." precedes. ``find`` gives the leftmost 19 digits from where it looks,
    so a hit that a digit precedes continues a run already judged."""
    at = guard.find(_DIGIT_RUN)
    while at > 0 and guard[at - 1] in _FRACTION_OR_DIGIT:
        at = guard.find(_DIGIT_RUN, at + len(_DIGIT_RUN))
    return at >= 0


def _loads(line: bytes) -> Any:
    """``json.loads`` of one UTF-8 line stripped of whitespace, or ``_BLANK``.

    orjson decodes the line when it gives the same types, values and float
    bits. Everything else takes ``json.loads``, so its values and messages
    stay the same:
    - a line orjson rejects: NaN, Infinity, 1e400, lone surrogates, invalid
      UTF-8, or text around the JSON that ``str.strip`` removes;
    - a run of 19 or more digits that no "." precedes (an integer, the
      integer part of a decimal, or an exponent), as orjson rounds integers
      beyond 64 bits to floats. Long fractions, such as ``repr`` writes for
      floats below 1e-3, are parsed exactly by orjson and stay with it;
    - more than ``_MAX_OPENERS`` brackets, which bounds the nesting depth:
      ``json.loads`` stops at Python's recursion limit, and orjson 3.8
      recurses without one and crashes on a deep enough line.
    """
    guard = line.translate(_GUARD_TABLE)
    if not _long_integer_run(guard) and guard.count(b"[") <= _MAX_OPENERS:
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


#: Lines decoded at a time by :func:`read_table`. Only one block's decoded
#: records are alive at once: on an 8k-clip pool, 64-line blocks held 10 MB
#: during the load and 1000-line blocks 36 MB, at about the same speed.
READ_BLOCK = 64


class _NotColumnar(Exception):
    """Input that fails a column check; the per-record checks name its line."""


#: What a block parser or a table builder raises on a bad record.
_READ_ERRORS = (_NotColumnar, KeyError, ValueError, TypeError, OverflowError, RecursionError)


def _decoded_blocks(lines: Iterable[bytes | str]) -> Iterator[list]:
    """The non-blank records of ``lines``, decoded by :func:`_loads`
    ``READ_BLOCK`` lines at a time with the cyclic garbage collector paused."""
    lines = iter(lines)
    while block := list(islice(lines, READ_BLOCK)):
        enabled = gc.isenabled()
        gc.disable()
        try:
            records = [_loads(line.encode("utf-8") if isinstance(line, str) else line) for line in block]
        finally:
            if enabled:
                gc.enable()
        records = [record for record in records if record is not _BLANK]
        if records:
            yield records
            del records  # the consumer holds the only reference while the next block is decoded


#: Least bytes per range when :func:`read_table` splits a file across CPUs.
#: On 2 vCPUs a 0.9 MB pool file took 14.3 ms in one range and 15.6 ms in
#: two: a forked reader pays for itself only on about 1 MiB.
READ_RANGE = 1 << 20


def _fork_count(tasks: int) -> int:
    """How many processes may run ``tasks`` tasks: one per CPU this process
    may run on, at most one per task, and one where it cannot fork: no
    ``os.fork``, or another live thread (which a forked child would not have)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, tasks))


def _ranges(path: str | os.PathLike) -> list[tuple[int, float]]:
    """``[start, end)`` byte ranges that cover the file at ``path``, each
    starting a line: one per process of :func:`_fork_count`, at least
    ``READ_RANGE`` bytes each; one range, to the end of the file, where that
    is one."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        n = _fork_count(size // READ_RANGE)
        if n < 2:
            return [(0, math.inf)]
        cuts = [0]
        for k in range(1, n):
            fh.seek(k * size // n - 1)
            fh.readline()  # to the end of the line that holds the byte
            cuts.append(fh.tell())
    cuts.append(size)
    return [(start, end) for start, end in zip(cuts, cuts[1:]) if start < end]


def _range_parts(path: str | os.PathLike, start: int, end: float, parse_block: Callable[[list], tuple]) -> list:
    """``parse_block`` of each block of the lines that start in ``[start, end)``."""
    with open(path, "rb") as fh:
        fh.seek(start)

        def lines() -> Iterator[bytes]:
            at = start
            for line in fh:
                if at >= end:
                    return
                at += len(line)
                yield line

        # map, unlike a loop variable, holds no block while the next is decoded.
        return list(map(parse_block, _decoded_blocks(lines())))


def _stream(write_fd: int, items: Iterable) -> NoReturn:
    """In a forked child: pickle ``(item, None)`` down ``write_fd`` for each
    of ``items`` as it comes, then ``(None, exception)`` if an exception
    stopped them, and end the process without any clean-up."""
    try:
        with open(write_fd, "wb") as pipe:
            try:
                for item in items:
                    pickle.dump((item, None), pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
            except Exception as exc:
                pickle.dump((None, exc), pipe, pickle.HIGHEST_PROTOCOL)
        os._exit(0)
    finally:
        os._exit(1)


@contextmanager
def _forked(label: str, streams: Iterable[Iterable]) -> Iterator[list[Callable[[], Any]]]:
    """One forked child per stream, a lazy iterable that only the child
    iterates, sending its items down a pipe (:func:`_stream`). The block
    gets one ``receive`` per stream: it returns the stream's next item, or
    raises the exception that stopped the stream, or ChildProcessError
    starting with ``label`` when the child ended without sending the item.
    Leaving the block kills and reaps every child: none outlives it."""
    children: dict[int, Any] = {}

    def receive(pid: int) -> Any:
        try:
            item, exc = pickle.load(children[pid])
        except (EOFError, pickle.UnpicklingError):
            children.pop(pid).close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise ChildProcessError(f"{label} process {pid} ended without its result (exit code {status})") from None
        if exc is not None:
            raise exc
        return item

    try:
        for items in streams:
            read_fd, write_fd = os.pipe()
            # fork, not spawn: a spawned child imports numpy again, which
            # added 0.2-0.5 s to a 2 s gen of 10k clips.
            pid = os.fork()
            if pid == 0:
                _stream(write_fd, items)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb")
        yield [partial(receive, pid) for pid in children]
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _file_parts(path: str | os.PathLike, what: str, parse_block: Callable[[list], tuple]) -> list:
    """The block parts of the file at ``path``, in line order. Each range of
    :func:`_ranges` after the first is parsed by a :func:`_forked` child (a
    lazy map of one range); this process parses the first meanwhile. A
    range with a bad record raises :class:`_NotColumnar`, a range whose
    child failed otherwise is read again here, and a child that ends without
    sending its parts raises ChildProcessError naming the file."""
    first, *rest = _ranges(path)
    streams = [map(_range_parts, [path], [start], [end], [parse_block]) for start, end in rest]
    with _forked(f"{what} file {os.fspath(path)}: reader", streams) as receivers:
        parts = _range_parts(path, *first, parse_block)
        for receive, (start, end) in zip(receivers, rest):
            try:
                parts += receive()
            except _READ_ERRORS:
                raise _NotColumnar from None  # the parent's record checks name the bad line
            except ChildProcessError:
                raise
            except Exception:  # such as MemoryError: this process reads the range itself
                parts += _range_parts(path, start, end, parse_block)
    return parts


def read_table(
    source: str | os.PathLike | list[bytes | str],
    what: str,
    id_key: str,
    parse_block: Callable[[list], tuple],
    build: Callable[[list[tuple]], T],
    check_record: Callable[[dict], Any],
) -> T:
    """A JSONL file, or a list of its lines, read into columns: the one path
    that builds a table from a file.

    ``parse_block`` turns each block of decoded records into column parts,
    checking their values, and ``build`` joins the parts of the whole input
    into the table with :func:`_joined`, consuming them; the table checks
    what spans blocks, such as duplicate ids. A file is parsed in byte
    ranges, up to one per CPU (see :func:`_file_parts`); the parts, and so
    the table, are the same for any split. Either function raises
    (:class:`_NotColumnar` or an error of a bad value) on input it does not
    take; :func:`read_jsonl` then runs ``check_record`` on each record,
    keeping nothing, only to raise the PoolFormatError naming the first bad
    line, or, when every record passes, ``build``'s RowError at the line of
    its record.
    """
    try:
        if isinstance(source, (str, os.PathLike)):
            return build(_file_parts(source, what, parse_block))
        return build(list(map(parse_block, _decoded_blocks(source))))
    except _READ_ERRORS as exc:
        # Without its traceback, whose frames hold the parts or the table.
        error = exc.with_traceback(None)

    def check(record: dict) -> None:  # the record dict keeps only the ids
        check_record(record)

    def finish(records: dict) -> NoReturn:  # every record passed
        raise error

    read_jsonl(source, what, id_key, check, finish)  # always raises


def with_horizon(source: str | os.PathLike | Iterable[bytes | str], horizon: int | None, key: str) -> tuple:
    """``source``, a path or a list of its lines, and the horizon to read it at: ``horizon``, or for None
    the length of the first record's ``key`` list, read once, before any block is parsed or any reader
    forks, so that every line is checked against it. A first record without that list gives 1, and its
    own checks then name its line."""
    is_path = isinstance(source, (str, os.PathLike))
    source = source if is_path else list(source)  # a list, to read it again
    if horizon is None:
        horizon = 1
        with open(source, "rb") if is_path else nullcontext(source) as lines, suppress(StopIteration, *_READ_ERRORS):
            lines = (line.encode("utf-8") if isinstance(line, str) else line for line in lines)
            horizon = len(next(r for r in map(_loads, lines) if r is not _BLANK)[key]) or 1
    return source, horizon


def _joined(parts: list[tuple]) -> list:
    """The columns of a file's block parts, in line order, emptying
    ``parts``: each array column copied into one array, zero-padded on its
    axes after the first to the widest block, each block's array dropped
    once copied, and every other column chained. No parts (no records)
    raise :class:`_NotColumnar`."""
    if not parts:
        raise _NotColumnar
    blocks = list(map(list, parts))
    parts.clear()
    columns: list = []
    for j, first in enumerate(blocks[0]):
        if not isinstance(first, np.ndarray):
            columns.append(chain.from_iterable(map(itemgetter(j), blocks)))
            continue
        shapes = np.array([block[j].shape for block in blocks])
        column = np.zeros((shapes[:, 0].sum(), *shapes[:, 1:].max(axis=0)),
                          dtype=np.result_type(*(block[j] for block in blocks)))
        at = 0
        for block in blocks:
            array, block[j] = block[j], None
            column[(slice(at, at + len(array)), *map(slice, array.shape[1:]))] = array
            at += len(array)
        columns.append(column)
    return columns


_DICT, _LIST, _STR = {dict}, {list}, {str}


def _check_objects(records: list, fields: Iterable[str]) -> None:
    """JSON objects with no keys outside ``fields``."""
    if set(map(type, records)) - _DICT or not frozenset(fields).issuperset(chain.from_iterable(records)):
        raise _NotColumnar


def _check_ids(ids: tuple) -> None:
    if set(map(type, ids)) - _STR:
        raise _NotColumnar


def _nested_block(records: list, fields: tuple[str, ...], nested_fields: tuple[str, ...]) -> tuple:
    """A block of records whose last field is a list of nested objects, as
    columns: the records' other ``fields`` (a tuple each), each record's
    nested count, and the nested objects' ``nested_fields`` (a tuple each).
    Records and nested objects hold every field and no other, and the first
    field of each is an id, a JSON string."""
    _check_objects(records, fields)
    *columns, nested = zip(*map(itemgetter(*fields), records))
    _check_ids(columns[0])
    if set(map(type, nested)) - _LIST:
        raise _NotColumnar
    counts = list(map(len, nested))
    nested = list(chain.from_iterable(nested))
    _check_objects(nested, nested_fields)
    nested_columns = list(zip(*map(itemgetter(*nested_fields), nested))) if nested else [()] * len(nested_fields)
    _check_ids(nested_columns[0])
    return columns, counts, nested_columns


def _pair_numbers(points: Iterable) -> list:
    """The numbers of JSON ``[x, y]`` lists, flat."""
    points = list(points)
    if set(map(type, points)) - _LIST or set(map(len, points)) - {2}:
        raise _NotColumnar
    return list(chain.from_iterable(points))


def _path_numbers(paths: Iterable, horizon: int) -> list:
    """The numbers of JSON lists of ``horizon`` ``[x, y]`` lists, flat."""
    paths = list(paths)
    if horizon < 1 or set(map(type, paths)) - _LIST or set(map(len, paths)) - {horizon}:
        raise _NotColumnar
    return _pair_numbers(chain.from_iterable(paths))


def _numbers(values: list) -> np.ndarray:
    """JSON numbers as a float64 array, each converted as ``float()`` converts it."""
    types = set(map(type, values))
    if not _NUMBER_TYPES.issuperset(types):
        raise _NotColumnar
    if int in types:
        values = list(map(float, values))
    return np.array(values, dtype=float)


_CLIP_COLUMNS = itemgetter("id", "weather", "lighting", "frames", "gt_future")


def _pool_block(records: list, horizon: int) -> tuple:
    """The column parts of a block of pool records, whose values it checks; its frames come last."""
    _check_objects(records, _CLIP_FIELDS)
    ids, weather, lighting, frames, gt_futures = zip(*map(_CLIP_COLUMNS, records))
    _check_ids(ids)
    if not all(ids) or set(map(type, frames)) - _LIST:
        raise _NotColumnar
    counts = list(map(len, frames))
    if 0 in counts:
        raise _NotColumnar
    frames = list(chain.from_iterable(frames))
    speeds = list(map(_SPEED, frames))
    # Every frame is an object with a speed, and its command is taken below:
    # two keys each means no other key.
    if sum(map(len, frames)) != 2 * len(frames):
        raise _NotColumnar
    # Two arrays, as a part that is a view of one would keep all of it.
    speeds, points = _numbers(speeds), _numbers(_path_numbers(gt_futures, horizon))
    if not (np.isfinite(speeds).all() and np.isfinite(points).all() and (speeds >= 0).all()):
        raise _NotColumnar
    commands = np.frombuffer(bytes(map(_COMMAND_CODES.__getitem__, map(_COMMAND, frames))), dtype=np.int8)
    return (
        ids,
        np.frombuffer(bytes(map(_WEATHER_CODES.__getitem__, weather)), dtype=np.int8),
        np.frombuffer(bytes(map(_LIGHTING_CODES.__getitem__, lighting)), dtype=np.int8),
        points.reshape(-1, horizon, 2),
        [record.get("annotation") for record in records],
        counts, speeds, commands,
    )


def _pool_table(parts: list[tuple], frames: bool = True) -> ClipTable:
    """The table of a pool's block parts, which it consumes; without ``frames``, they end in features."""
    ids, weather, lighting, gt_future, annotations, *last = _joined(parts)
    counts, speeds, commands = last if frames else (None, np.empty(0), np.empty(0, np.int8))
    offsets = None if counts is None else _offsets(np.fromiter(counts, np.intp, len(weather)))
    return ClipTable(tuple(ids), weather, lighting, offsets, speeds, commands, gt_future, tuple(annotations),
                     *([] if frames else last))


def parse_pool_lines(lines: str | os.PathLike | Iterable[str], horizon: int | None = 6,
                     frames: bool = True) -> ClipTable:
    """The table of the pool file at a path, or of pool lines, read by :func:`read_table` at ``horizon``
    (None: :func:`with_horizon`), without frames if ``frames`` is false; :func:`clip_from_dict` names a bad line."""
    lines, horizon = with_horizon(lines, horizon, "gt_future")

    def parse_block(records: list) -> tuple:
        *columns, counts, speeds, commands = parts = _pool_block(records, horizon)
        return parts if frames else (*columns, *frame_features(_offsets(counts), speeds, commands))

    return read_table(lines, "pool", "id", parse_block, partial(_pool_table, frames=frames),
                      partial(clip_from_dict, horizon=horizon))


def load_pool(path: str | os.PathLike, horizon: int | None = 6,
              frames: bool = True) -> tuple[ClipTable, SelectionState]:
    """Load a pool file, without frames if ``frames`` is false; all clips start unlabeled."""
    clips = parse_pool_lines(path, horizon=horizon, frames=frames)
    return clips, SelectionState(clips)


def save_pool(clips: Sequence[ClipRecord], path: str | os.PathLike) -> None:
    write_lines([path], [(map(encode_line, map(clip_to_dict, clips)),)])


def selection_to_dict(state: SelectionState) -> dict:
    return {"rounds": [{"round": r, "ids": list(ids)} for r, ids in state.rounds]}


def save_selection(state: SelectionState, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(selection_to_dict(state), indent=2, allow_nan=False) + "\n")


def _check_round(entry: Any) -> None:
    """A selection round: a JSON integer ``round`` and a list of JSON string
    ``ids``, and no other field."""
    _check_fields(entry, ("round", "ids"), "a round")
    index, ids = entry["round"], entry["ids"]
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValueError(f"round must be a JSON integer, got {json.dumps(index)}")
    if not isinstance(ids, list):
        raise ValueError(f"ids must be a JSON list, got {json.dumps(ids)}")
    for clip_id in ids:
        _check_string(clip_id, "id")


def read_selection_payload(path: str | os.PathLike) -> dict:
    """The JSON object of a selection file: ``rounds`` and no other field.
    Its ``rounds`` is a list of ``{"round": <JSON integer>, "ids": [<JSON
    string>, ...]}``; nothing is coerced with ``int()`` or ``str()``, and no
    field is left out, so :func:`save_selection` writes back all of a file
    this accepts."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PoolFormatError(f"selection file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "rounds" not in payload:
        raise PoolFormatError(f"selection file {path}: missing 'rounds'")
    try:
        _check_fields(payload, ("rounds",), "a selection")
        if not isinstance(payload["rounds"], list):
            raise ValueError("'rounds' must be a JSON list")
        for entry in payload["rounds"]:
            _check_round(entry)
    except KeyError as exc:
        raise PoolFormatError(f"selection file {path}: missing field {exc}") from exc
    except ValueError as exc:
        raise PoolFormatError(f"selection file {path}: {exc}") from exc
    return payload


def load_selection(path: str | os.PathLike, pool_ids: Iterable[str] | ClipTable,
                   payload: dict | None = None) -> SelectionState:
    """Rebuild a SelectionState from a selection file against the given pool:
    a ClipTable or its ids (see :class:`SelectionState`). ``payload`` is the
    file's object if :func:`read_selection_payload` has read it already."""
    if payload is None:
        payload = read_selection_payload(path)
    state = SelectionState(pool_ids)
    try:
        for entry in payload["rounds"]:
            state.add_round(entry["round"], entry["ids"])
    except (KeyError, ValueError) as exc:
        raise PoolFormatError(f"selection file {path}: {exc}") from exc
    return state
