"""Files read in byte ranges, one forked reader process per range after the
first: the same tables and the same errors as one in-process read, and no
child process left behind."""

import json
import os
import signal
import threading
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driveselect import pool as pool_module
from driveselect.cli import main
from driveselect.criteria import (
    SCORE_COLUMNS,
    load_predictions,
    prediction_to_dict,
    save_predictions,
    score_pool,
    score_predictions,
)
from driveselect.pool import (
    PoolFormatError,
    _ranges,
    clip_to_dict,
    encode_line,
    load_pool,
    parse_pool_lines,
    save_selection,
)
from driveselect.synthworld import ToyPlanner, WorldConfig, generate_pool, generate_world, load_truth, truth_to_dict

from test_boundary import mutate_line
from test_tables import (
    BAD_VALUES,
    assert_batch_equals,
    assert_table_equals_rows,
    assert_truth_equals_rows,
    jsonl_text,
    no_row_path,
    peak_bytes,
    pool_records,
    prediction_records,
    truth_records,
)

#: kind -> (loader of a path, check of a table against another)
KINDS = {
    "pool": (lambda path: load_pool(path)[0], lambda got, want: assert_table_equals_rows(got, list(want))),
    "truth": (load_truth, lambda got, want: assert_truth_equals_rows(got, dict(want.items()))),
    "predictions": (load_predictions, assert_batch_equals),
}
RECORDS = {"pool": pool_records, "truth": truth_records, "predictions": prediction_records}


@contextmanager
def cpus(n, read_range=1):
    """``n`` CPUs to read on, and ranges of at least ``read_range`` bytes. The
    list it gives collects one entry per fork."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True), \
         mock.patch.object(pool_module, "READ_RANGE", read_range), \
         mock.patch.object(os, "fork", counting_fork):
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(load, path):
    try:
        return load(path)
    except PoolFormatError as exc:
        return str(exc)


def write_lines(path, lines, trailing_newline=True):
    path.write_text("\n".join(lines) + ("\n" if trailing_newline else ""), encoding="utf-8")
    return path


class TestRanges:
    @settings(max_examples=100, deadline=None)
    @given(text=st.text(st.sampled_from("ab\n"), max_size=40), n=st.integers(1, 4), read_range=st.integers(1, 9))
    def test_ranges_cover_the_file_at_line_starts(self, tmp_path_factory, text, n, read_range):
        path = tmp_path_factory.mktemp("ranges") / "in.jsonl"
        data = text.encode()
        path.write_bytes(data)
        with cpus(n, read_range):
            ranges = _ranges(path)
        assert len(ranges) <= max(1, min(n, len(data) // read_range))
        if len(ranges) == 1:
            assert ranges[0][0] == 0
            return
        assert ranges[-1][1] == len(data)
        assert all(end == start for (_, end), (start, _) in zip(ranges, ranges[1:]))
        assert all(start < end and data[start - 1 : start] in (b"", b"\n") for start, end in ranges)

    def test_small_files_one_cpu_and_line_lists_stay_in_process(self, tmp_path):
        pool = tmp_path / "pool.jsonl"
        generate_pool(WorldConfig(n_clips=40, seed=2), pool, tmp_path / "truth.jsonl")
        size = pool.stat().st_size
        for n, read_range in ((1, 1), (4, size // 2 + 1)):
            with cpus(n, read_range) as forks:
                assert _ranges(pool) == [(0, float("inf"))]
                load_pool(pool)
            assert forks == []
        with cpus(4) as forks:
            parse_pool_lines(pool.read_text().splitlines())
        assert forks == []


class TestSameTables:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4), read_range=st.integers(1, 400), trailing=st.booleans())
    def test_records_with_blank_lines(self, tmp_path_factory, kind, data, n, read_range, trailing):
        """Ragged frames, records of mixed M, JSON integers, blank lines and no
        trailing newline: every split gives the in-process read's table,
        read in columns (one record per block, so each block has one M)."""
        load, check = KINDS[kind]
        args = (6, None) if kind == "predictions" else (6,)
        lines = data.draw(jsonl_text(data.draw(RECORDS[kind](*args))))
        path = write_lines(tmp_path_factory.mktemp(kind) / "in.jsonl", lines, trailing)
        with mock.patch.object(pool_module, "READ_BLOCK", 1):
            with cpus(1):
                want = load(path)
            with cpus(n, read_range), no_row_path():
                got = load(path)
        check(got, want)
        assert_no_child_left()

    def test_generated_files(self, tmp_path):
        pool, truth, preds = tmp_path / "pool.jsonl", tmp_path / "truth.jsonl", tmp_path / "preds.jsonl"
        generate_pool(WorldConfig(n_clips=300, seed=7, agent_rate=3.0), pool, truth)
        clips, _ = load_pool(pool)
        planner = ToyPlanner(clips, load_truth(truth))
        planner.train(clips.ids[:50])
        save_predictions(planner.predict(clips.ids).values(), preds)
        for kind, path in (("pool", pool), ("truth", truth), ("predictions", preds)):
            load, check = KINDS[kind]
            with cpus(1):
                want = load(path)
            with cpus(3, 10_000) as forks, no_row_path():
                got = load(path)
            assert len(forks) == 2, kind
            check(got, want)
        assert_no_child_left()


_CLIPS, _TRUTH = generate_world(WorldConfig(n_clips=12, seed=3, agent_rate=3.0))
_PLANNER = ToyPlanner(_CLIPS, _TRUTH)
_PLANNER.train([c.id for c in _CLIPS[:4]])
VALID = {
    "pool": [encode_line(clip_to_dict(c)).decode() for c in _CLIPS],
    "truth": [encode_line(truth_to_dict(t)).decode() for t in _TRUTH.values()],
    "predictions": [encode_line(prediction_to_dict(p)).decode()
                    for p in _PLANNER.predict([c.id for c in _CLIPS]).values()],
}


class TestSameErrors:
    """A bad line, or an id in two ranges, gives the in-process read's
    message: file, line and text."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4))
    def test_mutated_line_or_id_in_two_ranges(self, tmp_path_factory, kind, data, n):
        lines = list(VALID[kind])
        if data.draw(st.booleans()):
            index = data.draw(st.integers(0, len(lines) - 1))
            lines[index] = mutate_line(lines[index], data, BAD_VALUES)
        if data.draw(st.booleans()):  # the first range's first id again, in the last range
            lines.append(lines[0])
        path = write_lines(tmp_path_factory.mktemp(kind) / "in.jsonl", lines)
        load, check = KINDS[kind]
        with cpus(1):
            want = outcome(load, path)
        with cpus(n, path.stat().st_size // n):
            got = outcome(load, path)
        if isinstance(want, str):
            assert got == want
        else:
            check(got, want)
        assert_no_child_left()

    def test_duplicate_id_across_ranges_through_the_cli(self, tmp_path, capsys):
        pool = write_lines(tmp_path / "pool.jsonl", VALID["pool"] + VALID["pool"][:1])
        messages = []
        for n in (1, 2):
            with cpus(n, pool.stat().st_size // 2):
                assert main(["init", "--pool", str(pool), "--n0", "2", "--out", str(tmp_path / "sel.json")]) == 1
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert f"pool file {pool} line {len(VALID['pool']) + 1}: duplicate id 'clip_000000'" in messages[0]
        assert not (tmp_path / "sel.json").exists()


#: The untrained ToyPlanner predictions of a 40-clip seed-3 world, one line
#: per clip; line 1, 10, 31 and 39 have agents.
_WORLD_40 = generate_world(WorldConfig(n_clips=40, seed=3))
PREDICTIONS_40 = [encode_line(prediction_to_dict(p)).decode()
                  for p in ToyPlanner(*_WORLD_40).predict([c.id for c in _WORLD_40[0]]).values()]


def with_confidence(line, value):
    """``line`` with its first agent's confidence replaced by ``value`` of it."""
    record = json.loads(line)
    record["agents"][0]["confidence"] = value(record["agents"][0]["confidence"])
    return encode_line(record).decode()


class TestFirstBadPredictionsLine:
    """A predictions file names its first bad line, whether the record
    checks or the batch's value checks find it, on one CPU as on all."""

    def test_value_before_a_malformed_line(self, tmp_path):
        lines = list(PREDICTIONS_40)
        lines[0] = with_confidence(lines[0], lambda c: 1.5)
        fixed = write_lines(tmp_path / "fixed.jsonl", lines)
        lines[38] = with_confidence(lines[38], str)
        bad = write_lines(tmp_path / "bad.jsonl", lines)
        message = "line 1: agent clip_000000-a0: confidence 1.5 not in [0, 1]"
        assert outcome(load_predictions, bad) == f"predictions file {bad} {message}"
        assert outcome(load_predictions, fixed) == f"predictions file {fixed} {message}"

    def test_duplicate_id_and_a_bad_value_in_either_order(self, tmp_path):
        lines = list(PREDICTIONS_40)
        lines[4] = lines[1]
        lines[9] = with_confidence(lines[9], lambda c: 1.5)
        path = write_lines(tmp_path / "preds.jsonl", lines)
        assert outcome(load_predictions, path) == f"predictions file {path} line 5: duplicate clip_id 'clip_000001'"
        lines[4], lines[39] = PREDICTIONS_40[4], lines[1]
        path = write_lines(tmp_path / "later.jsonl", lines)
        assert outcome(load_predictions, path) == (f"predictions file {path} line 10: "
                                                   "agent clip_000009-a0: confidence 1.5 not in [0, 1]")

    def test_bad_value_in_a_forked_range(self, tmp_path):
        lines = list(PREDICTIONS_40)
        lines[30] = with_confidence(lines[30], lambda c: -0.25)
        lines[38] = with_confidence(lines[38], str)
        path = write_lines(tmp_path / "preds.jsonl", lines)
        with cpus(1):
            want = outcome(load_predictions, path)
        with cpus(2, path.stat().st_size // 2) as forks:
            (_, _), (second, _) = _ranges(path)
            got = outcome(load_predictions, path)
        assert len(forks) == 1 and second <= len("".join(line + "\n" for line in lines[:30]).encode())
        assert got == want == f"predictions file {path} line 31: agent clip_000030-a0: confidence -0.25 not in [0, 1]"
        assert_no_child_left()


def in_child(action):
    """A block parser of pool records that runs ``action`` in a forked child
    before parsing, and only there."""
    parent, pool_block = os.getpid(), pool_module._pool_block

    def parse(records, horizon):
        if os.getpid() != parent:
            action()
        return pool_block(records, horizon)

    return parse


class TestChildren:
    def test_killed_child_raises_naming_the_file(self, tmp_path, monkeypatch):
        pool = write_lines(tmp_path / "pool.jsonl", VALID["pool"])
        monkeypatch.setattr(pool_module, "_pool_block", in_child(lambda: os.kill(os.getpid(), signal.SIGKILL)))
        with cpus(3, 1), pytest.raises(ChildProcessError,
                                       match=rf"pool file {pool}: reader process \d+ ended without its result"):
            load_pool(pool)
        assert_no_child_left()

    def test_exception_in_child_reads_the_file_in_process(self, tmp_path, monkeypatch):
        pool = write_lines(tmp_path / "pool.jsonl", VALID["pool"])
        with cpus(1):
            want, _ = load_pool(pool)

        def fail():
            raise MemoryError("in a child")

        monkeypatch.setattr(pool_module, "_pool_block", in_child(fail))
        with cpus(3, 1) as forks:
            got, _ = load_pool(pool)
        assert len(forks) == 2
        assert_table_equals_rows(got, list(want))
        assert_no_child_left()

    def test_bad_line_in_a_forked_range_keeps_no_records(self, tmp_path):
        """Rejecting a pool whose last line, in the child's range, is bad
        peaks no higher than loading the pool without it (tracemalloc, in
        this process): the record checks only name the line, and keep no
        ClipRecord per line."""
        good, bad = tmp_path / "pool.jsonl", tmp_path / "bad.jsonl"
        generate_pool(WorldConfig(n_clips=2000, seed=7), good, tmp_path / "truth.jsonl")
        lines = good.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[-1])
        speed = record["frames"][0]["speed"] = str(record["frames"][0]["speed"])
        bad.write_bytes(b"".join(lines[:-1]) + encode_line(record) + b"\n")
        with cpus(2, good.stat().st_size // 2) as forks:
            _, good_peak = peak_bytes(load_pool, good)
            message, bad_peak = peak_bytes(outcome, load_pool, bad)
        assert len(forks) == 2
        assert message == f"pool file {bad} line {len(lines)}: speed must be a JSON number, got {json.dumps(speed)}"
        assert bad_peak <= good_peak, (bad_peak, good_peak)
        assert_no_child_left()

    def test_live_thread_keeps_the_read_in_process(self, tmp_path):
        pool = write_lines(tmp_path / "pool.jsonl", VALID["pool"])
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with cpus(3, 1) as forks:
                load_pool(pool)
        finally:
            stop.set()
            thread.join()
        assert forks == []
        with cpus(3, 1) as forks:
            load_pool(pool)
        assert len(forks) == 2


SCORE_SETTINGS = {"alpha": 1.0, "beta": 1.0, "eps_a": 0.5, "delta_d": 3.0}


@pytest.fixture(scope="module")
def scored_world(tmp_path_factory):
    """A 300-clip world's pool file and table, a selection file labeling its
    first 30 clips, the other clips' ids, and trained ToyPlanner predictions
    of every clip as records in pool order."""
    directory = tmp_path_factory.mktemp("scored_world")
    pool, truth, sel = directory / "pool.jsonl", directory / "truth.jsonl", directory / "sel.json"
    generate_pool(WorldConfig(n_clips=300, seed=5, agent_rate=3.0), pool, truth)
    clips, state = load_pool(pool)
    state.add_round(0, clips.ids[:30])
    save_selection(state, sel)
    planner = ToyPlanner(clips, load_truth(truth))
    planner.train(clips.ids[:30])
    records = [prediction_to_dict(p) for p in planner.predict(clips.ids).values()]
    return pool, clips, sel, clips.ids[30:], records


def prediction_lines(records):
    return [encode_line(record).decode() for record in records]


def one_modality_every_7th(records):
    """Copies of ``records`` where every 7th agent keeps only its middle
    modality, with probability 1.0: a valid file of mixed modality counts."""
    records = json.loads(json.dumps(records))
    for agent in [a for record in records for a in record["agents"]][::7]:
        agent.update(modality_probs=[1.0], modality_trajs=[agent["modality_trajs"][len(agent["modality_trajs"]) // 2]])
    return records


class TestScorePredictions:
    """``score_predictions`` scores each block as it reads it, and gives
    ``score_pool`` of the whole loaded batch bit for bit, on one CPU as on
    two, where a forked reader scores the second range."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("arrangement", ["pool order", "reversed", "extra records", "mixed modalities"])
    def test_equals_score_pool_of_the_loaded_batch(self, scored_world, tmp_path, arrangement, n):
        _, clips, _, unlabeled, records = scored_world
        scored = records[30:]  # the unlabeled clips', in pool order
        if arrangement == "reversed":
            scored = scored[::-1]
        elif arrangement == "extra records":  # labeled clips, and clips outside the pool at both ends
            outside = [dict(record, clip_id=f"outside_{record['clip_id']}") for record in records[::10]]
            scored = [*outside[:15], *records, *outside[15:]]
        elif arrangement == "mixed modalities":
            scored = one_modality_every_7th(scored)
            assert len({len(a["modality_probs"]) for record in scored for a in record["agents"]}) > 1
        path = write_lines(tmp_path / "preds.jsonl", prediction_lines(scored))
        with cpus(1):
            want = score_pool(clips, load_predictions(path), ids=unlabeled, **SCORE_SETTINGS)
        with cpus(n, path.stat().st_size // n) as forks:
            got = score_predictions(path, clips, unlabeled, **SCORE_SETTINGS)
        assert len(forks) == n - 1
        assert got["clip_id"] == want["clip_id"] == unlabeled
        for name in SCORE_COLUMNS[1:]:
            assert got[name].tobytes() == want[name].tobytes(), name
        assert_no_child_left()


class TestScoreErrors:
    """``driveselect score`` names what the load of the whole batch and then
    ``score_pool`` named: the file's first bad line, then the first scored
    clip without a prediction. Each exits 1 and writes no scores file, on
    one CPU as on two."""

    @staticmethod
    def score_fails(scored_world, tmp_path, lines, n):
        """The path of ``lines`` as a predictions file, which ``driveselect
        score`` failed on."""
        pool, _, sel, _, _ = scored_world
        path, out = write_lines(tmp_path / "preds.jsonl", lines), tmp_path / "scores.tsv"
        with cpus(n, path.stat().st_size // 2) as forks:
            code = main(["score", "--pool", str(pool), "--selection", str(sel), "--predictions", str(path),
                         "--out", str(out)])
        assert code == 1
        assert len(forks) == n - 1
        assert not out.exists()
        assert_no_child_left()
        return path

    @staticmethod
    def in_second_range(path, index):
        """Whether line ``index + 1`` of ``path`` starts in its second range on two CPUs."""
        with cpus(2, path.stat().st_size // 2):
            (_, _), (second, _) = _ranges(path)
        return second <= sum(map(len, path.read_bytes().splitlines(keepends=True)[:index]))

    @staticmethod
    def with_agents(lines, start):
        """The index of the first line from ``start`` on whose record has agents."""
        return next(i for i in range(start, len(lines)) if json.loads(lines[i])["agents"])

    @pytest.mark.parametrize("n", [1, 2])
    def test_duplicate_in_the_forked_range_before_a_bad_value(self, scored_world, tmp_path, capsys, n):
        lines = prediction_lines(scored_world[4])
        lines[200] = lines[10]
        bad = self.with_agents(lines, 250)
        lines[bad] = with_confidence(lines[bad], lambda c: 1.5)
        path = self.score_fails(scored_world, tmp_path, lines, n)
        assert self.in_second_range(path, 200)
        clip_id = json.loads(lines[10])["clip_id"]
        assert capsys.readouterr().err == f"error: predictions file {path} line 201: duplicate clip_id {clip_id!r}\n"

    @pytest.mark.parametrize("n", [1, 2])
    def test_bad_value_in_the_forked_range_before_a_duplicate(self, scored_world, tmp_path, capsys, n):
        lines = prediction_lines(scored_world[4])
        bad = self.with_agents(lines, 200)
        lines[bad] = with_confidence(lines[bad], lambda c: 1.5)
        lines[280] = lines[10]
        path = self.score_fails(scored_world, tmp_path, lines, n)
        assert self.in_second_range(path, bad)
        agent_id = json.loads(lines[bad])["agents"][0]["agent_id"]
        assert capsys.readouterr().err == (f"error: predictions file {path} line {bad + 1}: "
                                           f"agent {agent_id}: confidence 1.5 not in [0, 1]\n")

    @pytest.mark.parametrize("n", [1, 2])
    def test_missing_unlabeled_clip(self, scored_world, tmp_path, capsys, n):
        missing = scored_world[3][100]
        self.score_fails(scored_world, tmp_path,
                         prediction_lines([r for r in scored_world[4] if r["clip_id"] != missing]), n)
        assert capsys.readouterr().err == f"error: missing prediction for clip {missing!r}\n"

    @pytest.mark.parametrize("n", [1, 2])
    def test_file_error_wins_over_a_missing_prediction(self, scored_world, tmp_path, capsys, n):
        missing = scored_world[3][100]
        lines = prediction_lines([r for r in scored_world[4] if r["clip_id"] != missing])
        bad = self.with_agents(lines, 250)
        lines[bad] = with_confidence(lines[bad], str)
        path = self.score_fails(scored_world, tmp_path, lines, n)
        message = outcome(load_predictions, path)
        assert message.startswith(f"predictions file {path} line {bad + 1}: agent ")
        assert capsys.readouterr().err == f"error: {message}\n"
