"""Pool data model, classification, and persistence round-trips."""

import json
import os
import re
import stat
import struct
import tracemalloc
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driveselect import pool as pool_module

from driveselect.pool import (
    BUCKETS,
    COMMAND_CLASSES,
    ClipRecord,
    PoolFormatError,
    SelectionState,
    atomic_outputs,
    atomic_write_text,
    classify_command,
    clip_table,
    clip_to_dict,
    load_pool,
    load_selection,
    mean_speed,
    parse_pool_lines,
    save_pool,
    save_selection,
    selection_to_dict,
    weather_lighting_bucket,
)
from driveselect.synthworld import WorldConfig, generate_pool, generate_world, load_truth, save_truth

from conftest import jsonl_lines, make_clip, random_clip

N_CASES = 1000


class TestClipValidation:
    def test_rejects_empty_frames(self):
        with pytest.raises(ValueError, match="frames"):
            ClipRecord(id="c1", weather="Sunny", lighting="Day", speeds=(), commands=(),
                       gt_future=((0.0, 0.0),))

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError, match="speed"):
            make_clip("c1", speeds=[2.0, -1.0])

    def test_rejects_nan_speed(self):
        with pytest.raises(ValueError, match="speed"):
            make_clip("c1", speeds=[float("nan")])

    def test_rejects_unknown_enums(self):
        with pytest.raises(ValueError):
            make_clip("c1", weather="Foggy")
        with pytest.raises(ValueError):
            make_clip("c1", lighting="Dusk")
        with pytest.raises(ValueError):
            make_clip("c1", speeds=[1.0], commands=["UTurn"])

    @pytest.mark.parametrize("speeds,commands,message", [
        ([], [], "clip c1: frames must be non-empty"),
        ([2.0, -1.0], ["Left", "Left"], "speed must be finite and non-negative, got -1.0"),
        ([float("inf")], ["Left"], "speed must be finite and non-negative, got inf"),
        ([1.0, 2.0], ["Left", "UTurn"], "unknown command 'UTurn'"),
        ([1.0, 2.0], ["Left"], "clip c1: 2 speeds but 1 commands"),
    ])
    def test_frame_column_messages(self, speeds, commands, message):
        with pytest.raises(ValueError) as info:
            make_clip("c1", speeds=speeds, commands=commands)
        assert str(info.value) == message

    def test_bad_frame_in_file_names_the_line(self):
        record = json.loads(jsonl_lines(map(clip_to_dict, [make_clip("c1", speeds=[1.0, 2.0])]))[0])
        record["frames"][1]["command"] = "UTurn"
        lines = jsonl_lines(map(clip_to_dict, [make_clip("c0")])) + [json.dumps(record)]
        with pytest.raises(PoolFormatError, match="pool line 2: unknown command 'UTurn'"):
            parse_pool_lines(lines)


class TestBucketAndCommand:
    @pytest.mark.parametrize(
        "lighting,weather,bucket",
        [("Day", "Sunny", "DS"), ("Day", "Rainy", "DR"),
         ("Night", "Sunny", "NS"), ("Night", "Rainy", "NR")],
    )
    def test_bucket_mapping(self, lighting, weather, bucket):
        clip = make_clip("c1", weather=weather, lighting=lighting)
        assert weather_lighting_bucket(clip) == bucket

    def _clip_with_counts(self, n_left, n_right, n_straight=2):
        commands = ["Left"] * n_left + ["Right"] * n_right + ["Straight"] * n_straight
        return make_clip("c1", speeds=[5.0] * len(commands), commands=commands)

    def test_overtake_when_both_reach_threshold(self):
        assert classify_command(self._clip_with_counts(5, 5), tau_c=4) == "O"

    def test_left_when_only_left_reaches(self):
        assert classify_command(self._clip_with_counts(4, 0), tau_c=4) == "L"

    def test_right_when_only_right_reaches(self):
        assert classify_command(self._clip_with_counts(0, 4), tau_c=4) == "R"

    def test_straight_fallthrough(self):
        assert classify_command(self._clip_with_counts(3, 3), tau_c=4) == "S"

    def test_tau_c_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_command(self._clip_with_counts(1, 1), tau_c=0)

    def test_partition_property(self, rng):
        """Every clip lands in exactly one bucket and one command class."""
        for i in range(N_CASES):
            clip = random_clip(rng, f"c{i}")
            tau_c = int(rng.integers(1, 6))
            assert weather_lighting_bucket(clip) in BUCKETS
            assert classify_command(clip, tau_c) in COMMAND_CLASSES


class TestMeanSpeed:
    def test_two_frames(self):
        assert mean_speed(make_clip("c1", speeds=[2.0, 4.0])) == pytest.approx(3.0)

    def test_singleton(self):
        assert mean_speed(make_clip("c1", speeds=[5.0])) == pytest.approx(5.0)

    def test_zeros(self):
        assert mean_speed(make_clip("c1", speeds=[0.0, 0.0, 0.0])) == 0.0


class TestPoolIO:
    def test_load_three_clips(self, tmp_path):
        clips = [make_clip(f"c{i}") for i in range(3)]
        path = tmp_path / "pool.jsonl"
        save_pool(clips, path)
        loaded, state = load_pool(path)
        assert [c.id for c in loaded] == ["c0", "c1", "c2"]
        assert state.labeled_ids == ()
        assert state.unlabeled_ids == ("c0", "c1", "c2")

    def test_duplicate_id_names_the_id(self):
        lines = jsonl_lines(map(clip_to_dict, [make_clip("c1")])) * 2
        with pytest.raises(PoolFormatError, match="c1"):
            parse_pool_lines(lines)

    def test_wrong_horizon_is_rejected(self):
        clip = make_clip("c1", gt_future=[(t, 0.0) for t in range(5)], horizon=5)
        with pytest.raises(PoolFormatError, match="gt_future"):
            parse_pool_lines(jsonl_lines(map(clip_to_dict, [clip])), horizon=6)

    def test_parse_error_names_line(self):
        lines = jsonl_lines(map(clip_to_dict, [make_clip("c1")])) + ["{not json"]
        with pytest.raises(PoolFormatError, match="line 2"):
            parse_pool_lines(lines)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        path.write_text("")
        with pytest.raises(PoolFormatError, match="empty"):
            load_pool(path)

    def test_unknown_field_rejected(self):
        record = json.loads(jsonl_lines(map(clip_to_dict, [make_clip("c1")]))[0])
        record["bogus"] = 1
        with pytest.raises(PoolFormatError, match="bogus"):
            parse_pool_lines([json.dumps(record)])

    def test_annotation_round_trips(self):
        clip = ClipRecord(
            id="c1", weather="Sunny", lighting="Day",
            speeds=(1.0,), commands=("Straight",),
            gt_future=tuple((float(t), 0.0) for t in range(1, 7)),
            annotation={"boxes": [1, 2, 3]},
        )
        [reloaded] = parse_pool_lines(jsonl_lines(map(clip_to_dict, [clip])))
        assert reloaded.annotation == {"boxes": [1, 2, 3]}
        assert reloaded == clip

    def test_round_trip_property(self, rng):
        """serialize -> parse is the identity on arbitrary valid pools."""
        for case in range(N_CASES):
            n = int(rng.integers(1, 6))
            clips = [random_clip(rng, f"p{case}_c{i}") for i in range(n)]
            assert list(parse_pool_lines(jsonl_lines(map(clip_to_dict, clips)))) == clips


#: Decimals with 19 to 40 fraction digits, a sign, an integer part and an
#: optional exponent: the numbers the decoder leaves to orjson.
LONG_FRACTIONS = st.builds(
    "{}{}.{}{}".format,
    st.sampled_from(["", "-"]),
    st.integers(0, 10**6),
    st.text("0123456789", min_size=19, max_size=40),
    st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 400)),
)


class TestLongFractions:
    """orjson parses long fractions as json.loads does, so lines holding them
    stay on the orjson path; long integer runs still go to json.loads."""

    @settings(max_examples=1000, deadline=None)
    @given(literal=LONG_FRACTIONS)
    def test_orjson_parses_long_fractions_as_json_loads(self, literal):
        want = json.loads(literal)
        try:
            got = orjson.loads(literal)
        except orjson.JSONDecodeError:  # out of range: the decoder falls back
            assert not np.isfinite(want)
            return
        assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", want), (literal, got, want)

    @settings(max_examples=300, deadline=None)
    @given(literal=LONG_FRACTIONS)
    def test_fraction_lines_take_orjson(self, literal):
        line = f'{{"gt_future": [[{literal}, 0.5]], "n": 123456789012345678}}'.encode()
        want = json.loads(line)
        if not np.isfinite(want["gt_future"][0][0]):
            return
        with mock.patch.object(pool_module.json, "loads", side_effect=AssertionError("json.loads used")):
            got = pool_module._loads(line)
        assert struct.pack("<d", got["gt_future"][0][0]) == struct.pack("<d", want["gt_future"][0][0])

    @pytest.mark.parametrize("literal", [
        "1234567890123456789",          # an integer of 19 digits
        "-12345678901234567890123",
        "1234567890123456789.5",        # the integer part of a decimal
        "0.5e1234567890123456789",      # an exponent
        "0.1234567890123456789e-0000000000000000001",
    ])
    def test_long_integer_runs_take_json_loads(self, literal):
        line = f'{{"x": [0.12345678901234567890123, {literal}]}}'.encode()
        with mock.patch.object(pool_module.json, "loads", wraps=json.loads) as loads:
            got = pool_module._loads(line)
        assert loads.call_count == 1
        assert got == json.loads(line)


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


class TestAtomicOutputs:
    WRITERS = {
        "text": lambda path: atomic_write_text(path, "x\n"),
        "pool": lambda path: save_pool([make_clip("c0")], path),
        "gen": lambda path: generate_pool(WorldConfig(n_clips=3, seed=1), path, f"{path}.truth"),
    }

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_mode_is_that_of_open(self, tmp_path, umask, writer):
        """Outputs get the umask's default mode, as open(path, "w") gives, not 0600."""
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            self.WRITERS[writer](tmp_path / "out")
        finally:
            os.umask(previous)
        assert _mode(tmp_path / "out") == _mode(tmp_path / "plain") == 0o666 & ~umask
        if writer == "gen":
            assert _mode(tmp_path / "out.truth") == _mode(tmp_path / "plain")

    def test_failure_in_the_block_keeps_old_outputs(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        first.write_text("old\n")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_outputs(first, second) as (tmp_first, tmp_second):
                with open(tmp_first, "w") as fh:
                    fh.write("new\n")
                raise RuntimeError("boom")
        assert first.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["first"]

    def test_missing_directory_is_named_and_nothing_is_written(self, tmp_path):
        missing = tmp_path / "missing_dir" / "b.jsonl"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_outputs(tmp_path / "a.jsonl", missing):
                pass
        assert info.value.filename == str(missing)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("alias", ["same", "./same", "dir/../same", "link"])
    def test_one_file_twice_is_named_and_nothing_is_made(self, tmp_path, monkeypatch, alias):
        """Paths that resolve to one file (os.path.realpath) are refused
        before any temp file exists: the second rename would replace the first."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        (tmp_path / "link").symlink_to("same")
        with pytest.raises(ValueError, match=rf"^outputs same and {re.escape(alias)} are the same file$"):
            with atomic_outputs("same", alias):
                pytest.fail("the block ran")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "link"]

    def test_failed_rename_names_the_output(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_text(tmp_path / "out", "x")
        assert info.value.filename == str(tmp_path / "out")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


class TestGeneratedFiles:
    def test_load_save_round_trip_keeps_gen_bytes(self, tmp_path):
        """Loading and re-saving a generated pool and truth file rewrites the same bytes."""
        pool, truth = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl"
        generate_pool(WorldConfig(n_clips=200, seed=11), pool, truth)
        clips, _ = load_pool(pool)
        save_pool(clips, tmp_path / "pool2.jsonl")
        assert (tmp_path / "pool2.jsonl").read_bytes() == pool.read_bytes()
        save_truth(load_truth(truth), tmp_path / "truth2.jsonl")
        assert (tmp_path / "truth2.jsonl").read_bytes() == truth.read_bytes()

    def test_parsed_pool_memory_is_bounded(self):
        """1000 parsed 40-frame clips retain well under what per-frame objects cost."""
        clips, _ = generate_world(WorldConfig(n_clips=1000, seed=5))
        lines = jsonl_lines(map(clip_to_dict, clips))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            parsed = parse_pool_lines(lines)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert list(parsed) == clips
        assert retained < 6.5 * 10**6


class TestSelectionState:
    def test_add_round_moves_ids(self):
        state = SelectionState(["a", "b", "c", "d"])
        state.add_round(0, ["b", "d"])
        assert state.labeled_ids == ("b", "d")
        assert state.unlabeled_ids == ("a", "c")
        assert state.rounds == ((0, ("b", "d")),)

    def test_rejects_relabeling(self):
        state = SelectionState(["a", "b"])
        state.add_round(0, ["a"])
        with pytest.raises(ValueError, match="already labeled"):
            state.add_round(1, ["a"])

    def test_rejects_unknown_id(self):
        state = SelectionState(["a"])
        with pytest.raises(KeyError):
            state.add_round(0, ["z"])

    def test_a_table_pool_keeps_no_id_set(self):
        """A ClipTable pool answers membership from the id index of the
        table its slice was cut from, with the messages of an id pool."""
        table = clip_table([make_clip(f"c{i}") for i in range(5)])
        state = SelectionState(table[:3])
        assert state.pool_ids == ("c0", "c1", "c2")
        assert not [v for v in vars(state).values() if isinstance(v, (set, frozenset, dict))]
        state.add_round(0, ["c2", "c0"])
        assert state.unlabeled_ids == ("c1",)
        with pytest.raises(KeyError, match="clip id 'c4' not in pool"):  # in the table, not in the slice
            state.add_round(1, ["c1", "c4"])
        with pytest.raises(KeyError, match="clip id 'zz' not in pool"):
            state.add_round(1, ["zz"])
        with pytest.raises(ValueError, match="clip 'c0' already labeled"):
            state.add_round(1, ["c0"])
        state.add_round(1, ["c1"])
        by_ids = SelectionState(["c0", "c1", "c2"])
        by_ids.add_round(0, ["c2", "c0"])
        by_ids.add_round(1, ["c1"])
        assert state == by_ids

    def test_a_table_pool_state_holds_a_mask_not_id_sets(self):
        """A state of a 3000-clip table with 2000 clips labeled in two
        rounds holds under 16 KB beyond the round id tuples its caller
        passed: a mask of the pool's rows, not a list and a set of the
        labeled ids (144 KB)."""
        table = clip_table([make_clip(f"c{i:04d}") for i in range(3000)])
        rounds = table.ids[:1000], table.ids[1000:2000]
        table.rows_of(rounds[0][:1])  # the table's own index, built on its first lookup
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state = SelectionState(table)
            for index, ids in enumerate(rounds):
                state.add_round(index, ids)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert state.labeled_ids == table.ids[:2000] and state.unlabeled_ids == table.ids[2000:]
        assert held < 16 * 1024

    @pytest.mark.parametrize("ids, error, message", [
        (["c1", "c0", "zz"], ValueError, "clip 'c0' already labeled"),
        (["c1", "zz", "c0"], KeyError, "clip id 'zz' not in pool"),
        (["c4", "c0"], KeyError, "clip id 'c4' not in pool"),
        (["c4", "zz"], KeyError, "clip id 'c4' not in pool"),  # outside the slice, then in no table
        (["zz", "c4"], KeyError, "clip id 'zz' not in pool"),
    ])
    def test_first_bad_id_in_order_is_named_on_both_paths(self, ids, error, message):
        """An already-labeled id before an unknown one is named first, and
        the other way round, for a ClipTable pool as for an id pool."""
        table = clip_table([make_clip(f"c{i}") for i in range(5)])
        for pool in (table[:3], table.ids[:3]):
            state = SelectionState(pool)
            state.add_round(0, ["c0"])
            with pytest.raises(error, match=message):
                state.add_round(1, ids)
            assert state.labeled_ids == ("c0",)

    def test_rejects_nonincreasing_round(self):
        state = SelectionState(["a", "b"])
        state.add_round(1, ["a"])
        with pytest.raises(ValueError, match="round index"):
            state.add_round(1, ["b"])

    def test_invariants_under_random_mutation(self, rng):
        """Partition + disjoint increments hold after every add_round."""
        for _ in range(N_CASES):
            n = int(rng.integers(2, 12))
            pool_ids = [f"c{i}" for i in range(n)]
            state = SelectionState(pool_ids)
            round_index = 0
            while state.unlabeled_ids and rng.uniform() < 0.8:
                unlabeled = list(state.unlabeled_ids)
                k = int(rng.integers(1, len(unlabeled) + 1))
                picked = [unlabeled[i] for i in rng.choice(len(unlabeled), k, replace=False)]
                state.add_round(round_index, picked)
                round_index += 1
                labeled, unlab = set(state.labeled_ids), set(state.unlabeled_ids)
                assert labeled & unlab == set()
                assert labeled | unlab == set(pool_ids)
                increments = [set(ids) for _, ids in state.rounds]
                assert sum(len(s) for s in increments) == len(labeled)
                assert set.union(*increments) == labeled


class TestSelectionIO:
    def test_save_load_round_trip(self, tmp_path):
        state = SelectionState(["a", "b", "c", "d", "e"])
        state.add_round(0, ["b", "a"])
        state.add_round(1, ["e", "c"])
        path = tmp_path / "sel.json"
        save_selection(state, path)
        reloaded = load_selection(path, ["a", "b", "c", "d", "e"])
        assert reloaded == state
        save_selection(reloaded, tmp_path / "sel2.json")
        assert (tmp_path / "sel.json").read_bytes() == (tmp_path / "sel2.json").read_bytes()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"round": "0", "ids": ["a"]}, 'round must be a JSON integer, got "0"'),
            ({"round": 1.9, "ids": ["a"]}, "round must be a JSON integer, got 1.9"),
            ({"round": True, "ids": ["a"]}, "round must be a JSON integer, got true"),
            ({"round": 0, "ids": [5]}, "id must be a JSON string, got 5"),
            ({"round": 0, "ids": [None]}, "id must be a JSON string, got null"),
        ],
    )
    def test_values_are_not_coerced(self, tmp_path, entry, message):
        """Rounds were int() and ids str() of any value: "0" loaded as 0, null as 'None'."""
        path = tmp_path / "sel.json"
        path.write_text(json.dumps({"rounds": [entry]}))
        with pytest.raises(PoolFormatError, match=re.escape(f"selection file {path}: {message}")):
            load_selection(path, ["a", "5", "None"])

    def test_empty_selection_file_shape(self, tmp_path):
        state = SelectionState(["a"])
        path = tmp_path / "sel.json"
        save_selection(state, path)
        assert json.loads(path.read_text()) == {"rounds": []}

    def test_two_rounds_in_order(self, tmp_path):
        state = SelectionState(["a", "b", "c", "d"])
        state.add_round(0, ["a", "b"])
        state.add_round(1, ["d", "c"])
        path = tmp_path / "sel.json"
        save_selection(state, path)
        payload = json.loads(path.read_text())
        assert payload == {"rounds": [
            {"round": 0, "ids": ["a", "b"]},
            {"round": 1, "ids": ["d", "c"]},
        ]}

    def test_round_trip_property(self, rng, tmp_path):
        """save -> load reproduces the state for random selection histories."""
        path = tmp_path / "sel.json"
        for _ in range(200):
            n = int(rng.integers(1, 10))
            pool_ids = [f"c{i}" for i in range(n)]
            state = SelectionState(pool_ids)
            round_index = 0
            while state.unlabeled_ids and rng.uniform() < 0.6:
                unlabeled = list(state.unlabeled_ids)
                k = int(rng.integers(1, len(unlabeled) + 1))
                picked = [unlabeled[i] for i in rng.choice(len(unlabeled), k, replace=False)]
                state.add_round(round_index, picked)
                round_index += 1
            save_selection(state, path)
            assert load_selection(path, pool_ids) == state

    def test_in_memory_round_trip_property(self, rng):
        for _ in range(N_CASES):
            n = int(rng.integers(1, 8))
            pool_ids = [f"c{i}" for i in range(n)]
            state = SelectionState(pool_ids)
            if n > 1:
                state.add_round(0, pool_ids[: max(1, n // 2)])
            rebuilt = SelectionState(pool_ids)
            for entry in selection_to_dict(state)["rounds"]:
                rebuilt.add_round(entry["round"], entry["ids"])
            assert rebuilt == state
