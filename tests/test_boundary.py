"""The JSONL input boundary: pool, predictions and truth files.

A file with one bad line must either load or raise a PoolFormatError that
names the file and the line; through the CLI it must exit 1 with that
message, before any output is written. Lines decode to exactly what
``json.loads`` gives, whichever decoder read them.
"""

import json
import math
import re
import struct
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driveselect import pool as pool_module
from driveselect.cli import main
from driveselect.criteria import load_predictions, prediction_to_dict, rank_and_take, score_pool
from driveselect.pool import PoolFormatError, clip_to_dict, encode_line, load_pool, orjson_exact, read_jsonl
from driveselect.synthworld import ToyPlanner, WorldConfig, generate_world, load_truth, truth_to_dict

from conftest import jsonl_lines

HUGE_INT = 10**400  # parses as a JSON integer, overflows float()

_CLIPS, _TRUTH = generate_world(WorldConfig(n_clips=6, seed=3))
_PLANNER = ToyPlanner(_CLIPS, _TRUTH)
_PLANNER.train([c.id for c in _CLIPS[:3]])
_PREDICTIONS = _PLANNER.predict([c.id for c in _CLIPS])

#: kind -> (valid lines, loader, the name errors start with)
VALID = {
    "pool": (jsonl_lines(map(clip_to_dict, _CLIPS)), load_pool, "pool"),
    "predictions": (
        [json.dumps(prediction_to_dict(p)) for p in _PREDICTIONS.values()],
        load_predictions,
        "predictions",
    ),
    "truth": (jsonl_lines(map(truth_to_dict, _TRUTH.values())), load_truth, "truth"),
}

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.just(HUGE_INT)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Replacement text for a whole line; a newline would renumber the lines.
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=40)


def json_paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def mutate_line(line: str, data, values=JSON_VALUES) -> str:
    """One random edit of one line: a value, a deletion, a cut, or new text."""
    kind = data.draw(st.sampled_from(["set", "delete", "cut", "text"]))
    if kind == "cut":
        return line[: data.draw(st.integers(0, len(line)))]
    if kind == "text":
        return data.draw(LINE_TEXT)
    record = json.loads(line)
    path = data.draw(st.sampled_from(list(json_paths(record))[1:]))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(values)
    return json.dumps(record)


def check_error_names_line(exc: PoolFormatError, what: str, path, lineno: int) -> None:
    match = re.match(rf"{what} file {re.escape(str(path))} line (\d+): ", str(exc))
    assert match, str(exc)
    # A clashing id is reported where it appears the second time.
    assert int(match.group(1)) == lineno or "duplicate" in str(exc), str(exc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


class TestMutatedLines:
    @pytest.mark.parametrize("kind", sorted(VALID))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_loads_or_names_file_and_line(self, workdir, kind, data):
        lines, load, what = VALID[kind]
        index = data.draw(st.integers(0, len(lines) - 1))
        mutated = list(lines)
        mutated[index] = mutate_line(lines[index], data)
        path = workdir / f"{kind}.jsonl"
        path.write_text("\n".join(mutated) + "\n", encoding="utf-8")
        try:
            load(path)
        except PoolFormatError as exc:
            check_error_names_line(exc, what, path, index + 1)


#: kind -> the key that holds a record's id
ID_KEYS = {"pool": "id", "predictions": "clip_id", "truth": "clip_id"}

ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)  # lone surrogates too
DECODER_VALUES = st.recursive(
    JSON_VALUES | st.integers(-(10**40), 10**40) | st.floats() | ANY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
#: JSON literals: integers of 18 to 40 digits, decimals with 18 to 25
#: fraction digits, any float as json.dumps prints it, and strings, escaped
#: or raw.
LITERALS = (
    st.integers(10**17, 10**40 - 1).map(str)
    | st.integers(10**17, 10**40 - 1).map("-{}".format)
    | st.builds("{}.{:0>18}{}".format, st.integers(0, 99), st.integers(0, 10**25 - 1),
                st.sampled_from(["", "e-7", "E+30"]))
    | st.just("0.000123456789012345")
    | st.floats().map(json.dumps)
    | st.builds(json.dumps, ANY_TEXT, ensure_ascii=st.booleans())
)


def assert_same_json(got, want) -> None:
    """Equal values, with the same type at every node and the same float bits."""
    assert type(got) is type(want), (got, want)
    if isinstance(got, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)
    elif isinstance(got, dict):
        assert list(got) == list(want)
        for key in got:
            assert_same_json(got[key], want[key])
    elif isinstance(got, list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_json(a, b)
    else:
        assert got == want


def _records_or_error(path, id_key):
    try:
        return read_jsonl(path, "in", id_key, lambda record: record)
    except PoolFormatError as exc:
        return str(exc)


def assert_decodes_as_json_loads(path, id_key) -> None:
    """read_jsonl gives the records or the error it gives with json.loads alone."""
    got = _records_or_error(path, id_key)
    with mock.patch.object(pool_module.orjson, "loads", side_effect=orjson.JSONDecodeError("off", "", 0)):
        want = _records_or_error(path, id_key)
    assert_same_json(got, want)
    if isinstance(got, dict):
        with open(path, encoding="utf-8") as fh:
            plain = [json.loads(line) for line in map(str.strip, fh) if line]
        assert_same_json(list(got.values()), plain)


def _raw_non_ascii(line: str) -> str:
    """The line re-dumped with its non-ASCII characters unescaped, if it can be."""
    try:
        text = json.dumps(json.loads(line), ensure_ascii=False)
        text.encode("utf-8")
    except ValueError:
        return line
    return text


class TestDecoder:
    """The orjson fast path against a plain json.loads loop."""

    @pytest.mark.parametrize("kind", sorted(VALID))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_line_decodes_as_json_loads(self, workdir, kind, data):
        lines = list(VALID[kind][0])
        index = data.draw(st.integers(0, len(lines) - 1))
        lines[index] = mutate_line(lines[index], data, DECODER_VALUES)
        if data.draw(st.booleans()):
            lines[index] = _raw_non_ascii(lines[index])
        path = workdir / f"decoder_{kind}.jsonl"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        assert_decodes_as_json_loads(path, ID_KEYS[kind])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), literal=LITERALS)
    def test_literal_decodes_as_json_loads(self, workdir, data, literal):
        """A literal in an id, an annotation payload, or a coordinate of a pool line."""
        lines = list(VALID["pool"][0])
        record = json.loads(lines[1])
        where = data.draw(st.sampled_from(["id", "annotation", "coordinate"]))
        if where == "id":
            record["id"] = "@"
        elif where == "annotation":
            record["annotation"] = {"payload": ["@", {"n": "@"}]}
        else:
            record["gt_future"][2][data.draw(st.integers(0, 1))] = "@"
        lines[1] = json.dumps(record).replace('"@"', literal)
        path = workdir / "decoder_literal.jsonl"
        # Raw lone surrogates make the line invalid UTF-8, which must fail alike.
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))
        assert_decodes_as_json_loads(path, "id")


#: Floats where orjson and ``repr`` part ways, or that ``json.dumps`` refuses.
ENCODER_FLOATS = (
    st.floats()
    | st.floats(-1e-4, 1e-4)
    | st.floats(min_value=1e15, max_value=1e300)
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 9.09e-05, 1e-05, 1.5e-07,
                       1e16, -1.2345678901234568e17, 1e22, float("nan"), float("inf"), float("-inf")])
)
#: Text with control characters, DEL, U+2028, other non-ASCII and lone surrogates.
ENCODER_TEXT = st.text(st.characters(blacklist_categories=()), max_size=6) | st.sampled_from(
    ["\x7f", "\u2028", "\x00\x1f\b\t", "\u00e9", "\ud800", "null", "1e5", '"\\/']
)
ENCODER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | ENCODER_FLOATS | ENCODER_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(ENCODER_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers() | st.booleans() | st.none(), inner, max_size=2),
    max_leaves=12,
)
#: Pool records carrying any annotation, and any JSON-like record.
ENCODER_RECORDS = (
    st.builds(lambda clip, annotation: {**clip_to_dict(clip), "annotation": annotation},
              st.sampled_from(_CLIPS), ENCODER_VALUES)
    | st.dictionaries(ENCODER_TEXT, ENCODER_VALUES, max_size=4)
    | ENCODER_VALUES
)


def _encoded(encode, record):
    try:
        return encode(record)
    except Exception as exc:  # the error itself is compared
        return exc


def assert_encodes_as_json_dumps(record) -> None:
    """encode_line gives json.dumps's bytes, or raises its error with its message."""
    got = _encoded(encode_line, record)
    want = _encoded(
        lambda r: json.dumps(r, separators=(",", ":"), allow_nan=False).encode("ascii"), record
    )
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
    else:
        assert got == want


class TestEncoder:
    """The orjson fast path of the writer against json.dumps."""

    @settings(max_examples=400, deadline=None)
    @given(record=ENCODER_RECORDS)
    def test_record_encodes_as_json_dumps(self, record):
        assert_encodes_as_json_dumps(record)

    @pytest.mark.parametrize(
        "record",
        [
            {"n": 2**64},  # beyond 64 bits: orjson raises
            {"n": -(2**63) - 1},
            {1: "a", None: [True]},  # non-str keys: orjson raises
            {"s": "\ud800"},  # lone surrogate: orjson raises
            {"s": "caf\u00e9"},  # non-ASCII: json.dumps escapes
            {"s": "\u2028"},
            {"s": "\x7f"},  # DEL: orjson writes it raw
            {"x": float("nan")},  # orjson writes null, json.dumps raises
            {"x": [1.0, float("-inf")]},
            {"x": None},
            {"x": 9.094947017729282e-05},  # orjson: 0.0000909...
            {"x": -1e-05},
            {"x": 1e16},  # orjson: 1e16
            {"x": 1.5e-07},  # orjson: 1.5e-7
            {"x": 5e-324},
            {"annotation": {"boxes": [[0.5, -0.0, 1e-300], {"k": [None]}], "note": "\u00e9"}},
        ],
    )
    def test_fallback_cases(self, record):
        assert_encodes_as_json_dumps(record)

    def test_deeper_than_orjson_nests(self):
        record = [0.5]
        for _ in range(300):
            record = [record]
        assert_encodes_as_json_dumps(record)

    def test_circular_record_raises_as_json_dumps(self):
        record = {"a": []}
        record["a"].append(record)
        assert_encodes_as_json_dumps(record)

    def test_generated_lines_mostly_take_orjson(self):
        clips, _ = generate_world(WorldConfig(n_clips=300, seed=7))
        with mock.patch.object(pool_module.json, "dumps", wraps=json.dumps) as dumps:
            lines = jsonl_lines(map(clip_to_dict, clips))
        assert dumps.call_count <= len(clips) // 20
        assert all(json.loads(line) == clip_to_dict(c) for line, c in zip(lines, clips))


def assert_exact_only_where_orjson_writes_repr(values) -> None:
    """Each value that ``orjson_exact`` takes, orjson writes as ``repr``."""
    exact = orjson_exact(np.array(values, dtype=np.float64))
    assert exact.shape == (len(values),)
    for x, taken in zip(values, exact.tolist()):
        if taken:
            assert orjson.dumps(x) == repr(x).encode(), x


class TestOrjsonExact:
    """The range where orjson's float is repr's, which gen and save_scores
    rely on to skip encode_line's byte check and repr."""

    @pytest.mark.parametrize("x, taken", [
        (math.nextafter(1e-4, 0.0), False),  # orjson: 0.00009999999999999999
        (1e-4, True),
        (-1e-4, True),
        (math.nextafter(1e16, 0.0), True),  # 9999999999999998.0
        (1e16, False),  # orjson: 1e16
        (-1e16, False),
        (0.0, True),
        (-0.0, True),
        (5e-324, False),  # written alike, but outside the range
        (3e-05, False),  # orjson: 0.00003
        (1.7976931348623157e308, False),  # orjson: 1.7976931348623157e308
        (math.nan, False),  # orjson: null
        (math.inf, False),
        (-math.inf, False),
        (1.5, True),
    ])
    def test_edges(self, x, taken):
        assert orjson_exact(np.array([x])).tolist() == [taken]
        assert orjson_exact([x]).tolist() == [taken]
        assert_exact_only_where_orjson_writes_repr([x])

    @settings(max_examples=500, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_float64_bit_patterns(self, bits):
        assert_exact_only_where_orjson_writes_repr([struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits])

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(min_value=1e-6, max_value=1e18) | st.floats(), min_size=1, max_size=50))
    def test_floats_near_the_range(self, values):
        assert_exact_only_where_orjson_writes_repr(values)


def _with_record(lines, index, edit):
    record = json.loads(lines[index])
    edit(record)
    return lines[:index] + [json.dumps(record)] + lines[index + 1 :]


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestRegressions:
    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("pool", lambda r: r["frames"][0].update(speed=HUGE_INT)),
            ("pool", lambda r: r["gt_future"][2].__setitem__(0, HUGE_INT)),
            ("predictions", lambda r: r["ego_plan"][1].__setitem__(1, HUGE_INT)),
            ("truth", lambda r: r["ego_future"][0].__setitem__(0, HUGE_INT)),
        ],
    )
    def test_huge_integer_names_line(self, tmp_path, kind, edit):
        lines, load, what = VALID[kind]
        path = _write(tmp_path / "in.jsonl", _with_record(lines, 2, edit))
        with pytest.raises(PoolFormatError) as info:
            load(path)
        check_error_names_line(info.value, what, path, 3)
        assert "too large" in str(info.value)

    @pytest.mark.parametrize("kind, key", [("pool", "id"), ("predictions", "clip_id"), ("truth", "clip_id")])
    @pytest.mark.parametrize("value", [None, 7, ["a"]])
    def test_non_string_id_is_rejected(self, tmp_path, kind, key, value):
        lines, load, what = VALID[kind]
        path = _write(tmp_path / "in.jsonl", _with_record(lines, 1, lambda r: r.update({key: value})))
        with pytest.raises(PoolFormatError, match=f"{key} must be a JSON string, got {re.escape(json.dumps(value))}") as info:
            load(path)
        check_error_names_line(info.value, what, path, 2)

    @pytest.mark.parametrize("kind", ["predictions", "truth"])
    @pytest.mark.parametrize("value", [None, 5, [1, 2]])
    def test_non_string_agent_id_is_rejected(self, tmp_path, kind, value):
        """An agent id is a JSON string, never str() of another value (null is not 'None')."""
        lines, load, what = VALID[kind]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])
        path = _write(tmp_path / "in.jsonl", _with_record(lines, index, lambda r: r["agents"][0].update(agent_id=value)))
        message = f"agent_id must be a JSON string, got {json.dumps(value)}"
        with pytest.raises(PoolFormatError, match=re.escape(message)) as info:
            load(path)
        check_error_names_line(info.value, what, path, index + 1)

    @pytest.mark.parametrize(
        "kind, edit, field",
        [
            ("truth", lambda r: r.update(bogus=1), "bogus"),
            ("truth", lambda r: r["agents"][0].update(velocity=[1.0, 0.0]), "velocity"),
            ("predictions", lambda r: r.update(egoplan=r["ego_plan"]), "egoplan"),
            ("predictions", lambda r: r["agents"][0].update(confidance=0.5), "confidance"),
        ],
        ids=["truth_record", "truth_agent", "predictions_record", "predictions_agent"],
    )
    def test_unknown_field_is_rejected(self, tmp_path, kind, edit, field):
        """An unknown or misspelt key is an error, as in pool records, not silently dropped."""
        lines, load, what = VALID[kind]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])
        path = _write(tmp_path / "in.jsonl", _with_record(lines, index, edit))
        with pytest.raises(PoolFormatError, match=re.escape(f"unknown fields ['{field}']")) as info:
            load(path)
        check_error_names_line(info.value, what, path, index + 1)

    @pytest.mark.parametrize("kind", ["predictions", "truth"])
    @pytest.mark.parametrize("value", ["", {}, None, 3])
    def test_agents_that_are_not_a_list_are_rejected(self, tmp_path, kind, value):
        """Not a clip without agents: "" and {} would iterate as none."""
        lines, load, what = VALID[kind]
        path = _write(tmp_path / "in.jsonl", _with_record(lines, 1, lambda r: r.update(agents=value)))
        with pytest.raises(PoolFormatError, match="agents must be a JSON list") as info:
            load(path)
        check_error_names_line(info.value, what, path, 2)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r["frames"][1].update(extra=1), "unknown fields ['extra']"),
            (lambda r: r["frames"].__setitem__(1, {"speed": 1.0, "extra": 1}), "unknown fields ['extra']"),
            (lambda r: r["frames"].__setitem__(1, "Left"), "frame must be a JSON object"),
            (lambda r: r["frames"].__setitem__(1, [1.0, "Left"]), "frame must be a JSON object"),
            (lambda r: r.update(frames={"speed": 1.0, "command": "Left"}), "frames must be a JSON list"),
            (lambda r: r.update(frames=""), "frames must be a JSON list"),
        ],
        ids=["extra_key", "extra_key_no_command", "string", "list", "object", "empty_string"],
    )
    def test_bad_frame_is_rejected(self, tmp_path, edit, message):
        """Frames are checked like the other objects: none is dropped or misread."""
        lines, load, what = VALID["pool"]
        path = _write(tmp_path / "in.jsonl", _with_record(lines, 4, edit))
        with pytest.raises(PoolFormatError, match=re.escape(message)) as info:
            load(path)
        check_error_names_line(info.value, what, path, 5)

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_deep_nesting_names_line(self, tmp_path, kind):
        lines, load, what = VALID[kind]
        path = _write(tmp_path / "in.jsonl", lines[:3] + ["[" * 100_000] + lines[3:])
        with pytest.raises(PoolFormatError) as info:
            load(path)
        check_error_names_line(info.value, what, path, 4)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_invalid_utf8_names_line(self, tmp_path, kind, newline):
        lines, load, what = VALID[kind]
        data = [line.encode("utf-8") for line in lines]
        data[4] = data[4].replace(b'"', b'"\xff', 1)
        path = tmp_path / "in.jsonl"
        path.write_bytes(newline.encode().join(data) + newline.encode())
        with pytest.raises(PoolFormatError, match="'utf-8' codec can't decode byte 0xff") as info:
            load(path)
        check_error_names_line(info.value, what, path, 5)

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_crlf_file_reads_as_lf(self, tmp_path, kind):
        lines = VALID[kind][0]
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        lf.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
        assert_same_json(_records_or_error(crlf, ID_KEYS[kind]), _records_or_error(lf, ID_KEYS[kind]))

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_empty_file_names_the_file(self, tmp_path, kind):
        _, load, what = VALID[kind]
        path = _write(tmp_path / "in.jsonl", ["", "  "])
        with pytest.raises(PoolFormatError, match=re.escape(f"{what} file {path} is empty")):
            load(path)

    def test_nan_modality_probability_is_rejected(self, tmp_path):
        lines, _, _ = VALID["predictions"]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])

        def edit(record):
            record["agents"][0]["modality_probs"][0] = float("nan")

        path = _write(tmp_path / "preds.jsonl", _with_record(lines, index, edit))
        with pytest.raises(PoolFormatError, match="NaN modality probability") as info:
            load_predictions(path)
        check_error_names_line(info.value, "predictions", path, index + 1)

    @pytest.mark.parametrize("field", ["ego_future", "track"])
    def test_truth_horizon_is_checked(self, tmp_path, field):
        lines, _, _ = VALID["truth"]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])

        def edit(record):
            target = record if field == "ego_future" else record["agents"][0]
            target[field] = target[field][:5]

        path = _write(tmp_path / "truth.jsonl", _with_record(lines, index, edit))
        with pytest.raises(PoolFormatError, match=f"{field} has 5 waypoints, expected 6") as info:
            load_truth(path)
        check_error_names_line(info.value, "truth", path, index + 1)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("ego_plan", "ego_plan has 5 waypoints, expected 6"),
            ("modality_trajs", "modality_trajs have 5 waypoints, expected 6"),
            ("both", "ego_plan has 5 waypoints, expected 6"),
        ],
    )
    def test_predictions_horizon_is_checked(self, tmp_path, field, message):
        """A short plan used to load and fail later with an unnamed shape error."""
        lines, _, _ = VALID["predictions"]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])

        def edit(record):
            if field != "modality_trajs":
                record["ego_plan"] = record["ego_plan"][:5]
            if field != "ego_plan":
                for agent in record["agents"]:
                    agent["modality_trajs"] = [t[:5] for t in agent["modality_trajs"]]

        path = _write(tmp_path / "preds.jsonl", _with_record(lines, index, edit))
        with pytest.raises(PoolFormatError, match=message) as info:
            load_predictions(path)
        check_error_names_line(info.value, "predictions", path, index + 1)

    def test_score_pool_names_a_clip_of_another_horizon(self):
        scores = dict(alpha=1.0, beta=1.0, eps_a=0.5, delta_d=3.0)
        short_clips, short_truth = generate_world(WorldConfig(n_clips=6, seed=3, horizon=5))
        with pytest.raises(ValueError, match="clip 'clip_000002': gt_future has 5 waypoints, predictions have 6"):
            score_pool(_CLIPS[:2] + short_clips[2:3], _PREDICTIONS, **scores)
        preds = dict(_PREDICTIONS)
        preds["clip_000004"] = ToyPlanner(short_clips, short_truth).predict(["clip_000004"])["clip_000004"]
        with pytest.raises(ValueError, match="clip 'clip_000004': ego_plan has 5 waypoints, expected 6"):
            score_pool(_CLIPS, preds, **scores)

    def test_non_finite_truth_start_is_rejected(self, tmp_path):
        lines, _, _ = VALID["truth"]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])

        def edit(record):
            record["agents"][0]["start"][1] = float("inf")

        path = _write(tmp_path / "truth.jsonl", _with_record(lines, index, edit))
        with pytest.raises(PoolFormatError, match="finite"):
            load_truth(path)


@settings(max_examples=200, deadline=None)
@given(
    scores=st.dictionaries(
        st.text(max_size=3),
        st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    ),
    data=st.data(),
)
def test_rank_and_take_ignores_key_order(scores, data):
    n = data.draw(st.integers(0, len(scores)))
    order = data.draw(st.permutations(list(scores)))
    assert rank_and_take({k: scores[k] for k in order}, n) == rank_and_take(scores, n)


class TestCli:
    """Bad input files exit 1 naming the file and line (or clip), writing nothing."""

    @pytest.fixture
    def world(self, tmp_path):
        pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        assert main(["gen", "--n", "40", "--seed", "7", "--pool", str(pool), "--truth", str(truth)]) == 0
        return pool, truth

    def _run(self, pool, truth, out):
        return main(["run", "--pool", str(pool), "--truth", str(truth), "--out-dir", str(out),
                     "--heldout-count", "4"])

    def _edit_line(self, path, index, edit):
        lines = path.read_text(encoding="utf-8").splitlines()
        return _write(path.with_name("edited_" + path.name), _with_record(lines, index, edit))

    def test_truth_missing_a_clip(self, world, tmp_path, capsys):
        pool, truth = world
        short = _write(tmp_path / "short.jsonl", truth.read_text(encoding="utf-8").splitlines()[:-1])
        out = tmp_path / "out"
        assert self._run(pool, short, out) == 1
        assert f"error: truth file {short}: no record for clip 'clip_000039'" in capsys.readouterr().err
        assert not out.exists()

    def test_five_point_truth_line(self, world, tmp_path, capsys):
        pool, truth = world
        bad = self._edit_line(truth, 10, lambda r: r.update(ego_future=r["ego_future"][:5]))
        out = tmp_path / "out"
        assert self._run(pool, bad, out) == 1
        assert f"error: truth file {bad} line 11: ego_future has 5 waypoints" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_integer_in_truth(self, world, tmp_path, capsys):
        pool, truth = world
        bad = self._edit_line(truth, 4, lambda r: r["ego_future"][3].__setitem__(1, HUGE_INT))
        out = tmp_path / "out"
        assert self._run(pool, bad, out) == 1
        assert f"error: truth file {bad} line 5: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r["frames"][0].update(speed=HUGE_INT),
            lambda r: r.update(id=None),
        ],
        ids=["huge_integer", "null_id"],
    )
    def test_bad_pool_line(self, world, tmp_path, capsys, edit):
        pool, truth = world
        bad = self._edit_line(pool, 6, edit)
        out = tmp_path / "out"
        assert self._run(bad, truth, out) == 1
        assert f"error: pool file {bad} line 7: " in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_pool_line_names_the_file(self, world, tmp_path, capsys):
        pool, _ = world
        bad = _write(tmp_path / "bad.jsonl", pool.read_text(encoding="utf-8").splitlines() + ["{not json"])
        sel = tmp_path / "sel.json"
        assert main(["init", "--pool", str(bad), "--n0", "4", "--out", str(sel)]) == 1
        assert f"error: pool file {bad} line 41: " in capsys.readouterr().err
        assert not sel.exists()

    @pytest.mark.parametrize("command", ["run", "init"])
    def test_invalid_utf8_pool_line(self, world, tmp_path, capsys, command):
        pool, truth = world
        data = pool.read_bytes().split(b"\n")
        data[4] = data[4].replace(b'"id"', b'"\xffid"', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(data))
        out = tmp_path / "out"
        if command == "run":
            assert self._run(bad, truth, out) == 1
        else:
            assert main(["init", "--pool", str(bad), "--n0", "4", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: pool file {bad} line 5: 'utf-8' codec can't decode byte 0xff" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["predictions", "truth"])
    @pytest.mark.parametrize("value", [None, 5, [1, 2]])
    def test_non_string_agent_id(self, world, tmp_path, capsys, kind, value):
        pool, truth = world
        clips, _ = load_pool(pool)
        preds = _write(tmp_path / "preds.jsonl", [
            json.dumps(prediction_to_dict(p))
            for p in ToyPlanner(clips, load_truth(truth)).predict([c.id for c in clips]).values()])
        source = truth if kind == "truth" else preds
        index = next(i for i, line in enumerate(source.read_text().splitlines()) if json.loads(line)["agents"])
        bad = self._edit_line(source, index, lambda r: r["agents"][0].update(agent_id=value))
        out = tmp_path / "out"
        if kind == "truth":
            assert self._run(pool, bad, out) == 1
        else:
            sel = tmp_path / "sel.json"
            assert main(["init", "--pool", str(pool), "--n0", "4", "--out", str(sel)]) == 0
            assert main(["score", "--pool", str(pool), "--selection", str(sel), "--predictions", str(bad),
                         "--out", str(out)]) == 1
        expected = f"agent_id must be a JSON string, got {json.dumps(value)}"
        assert f"error: {kind} file {bad} line {index + 1}: {expected}" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_integer_in_predictions(self, world, tmp_path, capsys):
        pool, _ = world
        sel = tmp_path / "sel.json"
        assert main(["init", "--pool", str(pool), "--n0", "4", "--out", str(sel)]) == 0
        clips, _ = load_pool(pool)
        preds = tmp_path / "preds.jsonl"
        _write(preds, [json.dumps({"clip_id": c.id, "ego_plan": [list(p) for p in c.gt_future], "agents": []})
                       for c in clips])
        bad = self._edit_line(preds, 2, lambda r: r["ego_plan"][0].__setitem__(0, -HUGE_INT))
        scores = tmp_path / "scores.tsv"
        assert main(["score", "--pool", str(pool), "--selection", str(sel), "--predictions", str(bad),
                     "--out", str(scores)]) == 1
        assert f"error: predictions file {bad} line 3: " in capsys.readouterr().err
        assert not scores.exists()



def numeric_paths(kind, record):
    """(path, field name in messages) of every value that a record of
    ``kind`` holds as a number."""
    if kind == "pool":
        yield from ((("frames", i, "speed"), "speed") for i in range(len(record["frames"])))
        plans = [(("gt_future",), record["gt_future"], "gt_future")]
    elif kind == "truth":
        plans = [(("ego_future",), record["ego_future"], "ego_future")]
        for k, agent in enumerate(record["agents"]):
            name = f"agent {agent['agent_id']}"
            yield from ((("agents", k, "start", j), f"{name} start") for j in (0, 1))
            plans.append((("agents", k, "track"), agent["track"], f"{name} track"))
    else:
        plans = [(("ego_plan",), record["ego_plan"], "ego_plan")]
        for k, agent in enumerate(record["agents"]):
            name = f"agent {agent['agent_id']}"
            yield ("agents", k, "confidence"), f"{name} confidence"
            yield from ((("agents", k, "modality_probs", m), f"{name} modality_probs")
                        for m in range(len(agent["modality_probs"])))
            for m, traj in enumerate(agent["modality_trajs"]):
                plans.append((("agents", k, "modality_trajs", m), traj, f"{name} modality_trajs"))
    for prefix, points, name in plans:
        yield from ((prefix + (i, j), name) for i in range(len(points)) for j in (0, 1))


def _get(record, path):
    for key in path:
        record = record[key]
    return record


def _set(record, path, value):
    _get(record, path[:-1])[path[-1]] = value


#: Strings (numeric ones among them), bools and null: JSON values float() or
#: numpy would read as numbers, or as NaN.
NOT_NUMBERS = (
    st.floats().map(repr) | st.integers().map(str) | st.text(max_size=4) | st.booleans() | st.none()
)


class TestNumberFields:
    """A string, bool or null where a pool, truth or predictions record holds
    a number fails the load, naming the file, the line and the field."""

    @pytest.mark.parametrize("kind", sorted(VALID))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), value=NOT_NUMBERS)
    def test_non_number_names_file_line_and_field(self, workdir, kind, data, value):
        lines, load, what = VALID[kind]
        index = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[index])
        path, field = data.draw(st.sampled_from(list(numeric_paths(kind, record))))
        _set(record, path, value)
        file = _write(workdir / f"numbers_{kind}.jsonl", lines[:index] + [json.dumps(record)] + lines[index + 1 :])
        with pytest.raises(PoolFormatError) as info:
            load(file)
        check_error_names_line(info.value, what, file, index + 1)
        assert str(info.value).endswith(f": {field} must be a JSON number, got {json.dumps(value)}")

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_integers_load_as_the_same_floats(self, tmp_path, kind):
        """Numbers written as JSON integers load as the floats of the same values."""
        lines, load, _ = VALID[kind]
        as_ints, as_floats = [], []
        for line in lines:
            record = json.loads(line)
            paths = [path for path, _ in numeric_paths(kind, record)]
            for path in paths:
                _set(record, path, round(_get(record, path)))
            for agent in record["agents"] if kind == "predictions" else []:
                agent["modality_probs"] = [1] + [0] * (len(agent["modality_probs"]) - 1)
            as_ints.append(json.dumps(record))
            for path in paths:
                _set(record, path, float(_get(record, path)))
            as_floats.append(json.dumps(record))
        got = load(_write(tmp_path / "ints.jsonl", as_ints))
        want = load(_write(tmp_path / "floats.jsonl", as_floats))
        if kind == "pool":
            got, want = got[0], want[0]
            assert got == want
            assert {type(v) for c in got for v in (*c.speeds, *(x for p in c.gt_future for x in p))} == {float}
        elif kind == "truth":
            for clip_id in want:
                for name in ("ego_future", "starts", "tracks"):
                    a, b = getattr(got[clip_id], name), getattr(want[clip_id], name)
                    assert a.dtype == b.dtype == float and a.tobytes() == b.tobytes()
        else:
            for name in ("ego_plans", "confidence", "modality_probs", "modality_trajs"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype == float and a.tobytes() == b.tobytes()

    def test_score_with_a_quoted_confidence_writes_nothing(self, tmp_path, capsys):
        pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        assert main(["gen", "--n", "40", "--seed", "7", "--pool", str(pool), "--truth", str(truth)]) == 0
        sel = tmp_path / "sel.json"
        assert main(["init", "--pool", str(pool), "--n0", "4", "--out", str(sel)]) == 0
        clips, _ = load_pool(pool)
        lines = [json.dumps(prediction_to_dict(p))
                 for p in ToyPlanner(clips, load_truth(truth)).predict([c.id for c in clips]).values()]
        index = next(i for i, line in enumerate(lines) if json.loads(line)["agents"])
        record = json.loads(lines[index])
        agent = record["agents"][0]
        agent["confidence"] = str(agent["confidence"])
        preds = _write(tmp_path / "preds.jsonl", lines[:index] + [json.dumps(record)] + lines[index + 1 :])
        scores = tmp_path / "scores.tsv"
        capsys.readouterr()
        assert main(["score", "--pool", str(pool), "--selection", str(sel), "--predictions", str(preds),
                     "--out", str(scores)]) == 1
        expected = (f"error: predictions file {preds} line {index + 1}: agent {agent['agent_id']} confidence "
                    f"must be a JSON number, got {json.dumps(agent['confidence'])}")
        assert expected in capsys.readouterr().err
        assert not scores.exists()
