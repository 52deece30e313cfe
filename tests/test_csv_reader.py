"""The trajectory CSV reader and writer against the row-by-row versions they replaced.

`reference_read` is the `csv`-module reader that `read_trajectory_csv` used
to be, and `reference_write` the one-format-per-row writer.  On every file the
writer produces, in file order or shuffled, the vectorised reader must return
the reference's record bit for bit, and the writer must produce the
reference's bytes, whatever the block size.  On mutated files the reader must either return the
reference's record or raise ValueError; it rejects some files the reference
accepted (see `NEWLY_REJECTED`), never the other way round.  A file the
writer wrote is read through a guessed record rendered back to its bytes;
on such files and their mutations the outcome must equal the checked
parse's, record or message (`TestCanonicalPath`).
"""

import csv
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfon.output
from hfon import (
    HierarchySpec,
    LocalReference,
    NetworkState,
    TrajectoryRecord,
    builtin_scenarios,
    execute_scenario,
    read_trajectory_csv,
    run_bcfon,
    run_td,
    write_trajectory_csv,
)
from hfon.cli import main

HEADER = ["t", "agent", "level", "group", "center", "sigma"]


def reference_read(path) -> TrajectoryRecord:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != HEADER:
            raise ValueError(f"unexpected trajectory header {header!r}")
        rows = list(reader)
    if not rows:
        raise ValueError("trajectory file has no data rows")
    if set(map(len, rows)) != {len(HEADER)}:
        line, r = next((k, r) for k, r in enumerate(rows, start=2) if len(r) != len(HEADER))
        raise ValueError(f"line {line}: expected {len(HEADER)} fields, got {len(r)}")
    times = sorted({int(r[0]) for r in rows})
    agents = sorted({int(r[1]) for r in rows})
    n = len(agents)
    if agents != list(range(n)):
        raise ValueError("agent ids must be contiguous from 0")
    t_index = {t: k for k, t in enumerate(times)}
    centers = np.full((len(times), n), np.nan)
    sigmas = np.full((len(times), n), np.nan)
    levels = np.full(n, -1, dtype=np.intp)
    groups = np.full(n, -1, dtype=np.intp)
    has_address = False
    for r in rows:
        k, i = t_index[int(r[0])], int(r[1])
        centers[k, i] = float(r[4])
        sigmas[k, i] = float(r[5])
        if r[2] != "":
            has_address = True
            levels[i] = int(r[2])
            groups[i] = int(r[3])
    if np.isnan(centers).any() or np.isnan(sigmas).any():
        raise ValueError("trajectory file is missing some (t, agent) rows")
    return TrajectoryRecord(
        times=np.asarray(times, dtype=np.intp),
        centers=centers,
        sigmas=sigmas,
        levels=levels if has_address else None,
        groups=groups if has_address else None,
    )


def reference_write(record, stride=1) -> bytes:
    keep = list(range(0, record.n_samples, stride))
    if keep[-1] != record.n_samples - 1:
        keep.append(record.n_samples - 1)
    lines = [",".join(HEADER)]
    for k in keep:
        for i in range(record.n_agents):
            address = "," if record.levels is None else f"{record.levels[i]},{record.groups[i]}"
            lines.append("%d,%d,%s,%.17g,%.17g" % (
                record.times[k], i, address, record.centers[k, i], record.sigmas[k, i]))
    return ("\n".join(lines) + "\n").encode()


def assert_same_record(got, expected):
    for name in ("times", "centers", "sigmas", "levels", "groups"):
        a, b = getattr(got, name), getattr(expected, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def flat_record():
    state = NetworkState([0.0, -0.0, 1.0, 5.0, 5.0], [1.0, 1.0, 0.5, 2.0, 2.0], 0.5, 0.3)
    return run_bcfon(state, 7)


def tree_record():
    spec = HierarchySpec((2, 2))
    state = NetworkState([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 6, 0.0, 0.1)
    return run_td(spec, state, 5, LocalReference(), 10.0)


RECORDS = {"flat": flat_record(), "tree": tree_record()}


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def read_both(path):
    """(reference record or None if it raised, new record or None if it raised ValueError)."""
    try:
        expected = reference_read(path)
    except Exception:  # the old reader also failed with UnicodeDecodeError, OverflowError, ...
        expected = None
    try:
        got = read_trajectory_csv(path)
    except ValueError:
        got = None
    return expected, got


class TestEquivalence:
    @pytest.mark.parametrize("kind", sorted(RECORDS))
    @pytest.mark.parametrize("stride", [1, 3])
    def test_writer_output(self, work_dir, kind, stride):
        record = RECORDS[kind]
        path = work_dir / f"{kind}-{stride}.csv"
        write_trajectory_csv(record, path, stride=stride)
        assert path.read_bytes() == reference_write(record, stride)
        got = read_trajectory_csv(path)
        assert_same_record(got, reference_read(path))
        if stride == 1:
            assert_same_record(got, TrajectoryRecord(record.times, record.centers, record.sigmas,
                                                     record.levels, record.groups))

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_rows(self, work_dir, kind, seed):
        path = work_dir / f"{kind}-shuffled.csv"
        write_trajectory_csv(RECORDS[kind], path, stride=2)
        header, *rows = path.read_bytes().splitlines(keepends=True)
        np.random.default_rng(seed).shuffle(rows)
        path.write_bytes(header + b"".join(rows))
        assert_same_record(read_trajectory_csv(path), reference_read(path))

    def test_each_distinct_text_converted_once(self, work_dir, monkeypatch):
        # every agent shares one state per step, so each column holds one text per step
        steps, n = 1000, 7
        rng = np.random.default_rng(3)
        record = TrajectoryRecord(
            times=np.arange(steps + 1, dtype=np.intp),
            centers=np.repeat(rng.normal(size=(steps + 1, 1)), n, axis=1),
            sigmas=np.repeat(rng.uniform(size=(steps + 1, 1)), n, axis=1),
        )
        path = work_dir / "shared.csv"
        write_trajectory_csv(record, path)
        loadtxt = np.loadtxt
        converted = []

        def counting(*args, **kwargs):
            values = loadtxt(*args, **kwargs)
            if kwargs.get("dtype") is np.float64:
                converted.append(values.size)
            return values

        monkeypatch.setattr(np, "loadtxt", counting)
        assert_same_record(read_trajectory_csv(path), record)
        assert 0 < sum(converted) <= 2 * (steps + 1)

    @pytest.mark.parametrize("block_rows", [1, 7, "n - 1", None])
    @pytest.mark.parametrize("addressed", [False, True])
    def test_blocks_match_row_by_row_writer(self, work_dir, monkeypatch, block_rows, addressed):
        # -0.0 next to 0.0, inf, and agent n - 1 of each step equal to agent 0 of the next
        inf = float("inf")
        centers = np.array([[0.0, -0.0, -0.0, 0.0, 2.5], [2.5, inf, inf, -inf, 0.0],
                            [0.0, 0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
        sigmas = np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0, 1.0],
                           [1.0, 1.0, 1.0, 1.0, 2.0], [2.0, 2.0, 2.0, 2.0, 2.0]])
        n = centers.shape[1]
        record = TrajectoryRecord(
            times=np.arange(4, dtype=np.intp) * 5 + 2,
            centers=centers,
            sigmas=sigmas,
            levels=np.array([1, 1, 1, 2, 2]) if addressed else None,
            groups=np.array([0, 0, 1, 0, 0]) if addressed else None,
        )
        if block_rows is not None:
            monkeypatch.setattr(hfon.output, "_BLOCK_ROWS", n - 1 if block_rows == "n - 1" else block_rows)
        path = work_dir / "blocks.csv"
        for stride in (1, 2, 3):
            write_trajectory_csv(record, path, stride=stride)
            assert path.read_bytes() == reference_write(record, stride)

    def test_more_agents_than_block_rows(self, work_dir):
        n = hfon.output._BLOCK_ROWS + 3616
        rng = np.random.default_rng(5)
        record = TrajectoryRecord(
            times=np.arange(3, dtype=np.intp),
            centers=np.repeat(rng.normal(size=(3, n // 4)), 4, axis=1),
            sigmas=np.ones((3, n)),
        )
        path = work_dir / "wide.csv"
        write_trajectory_csv(record, path)
        assert path.read_bytes() == reference_write(record)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        steps=st.integers(0, 12),
        n=st.integers(1, 8),
        stride=st.integers(1, 5),
        addressed=st.booleans(),
        block_rows=st.sampled_from([1, 7, "n - 1", None]),
    )
    def test_any_record_matches_row_by_row_writer(self, work_dir, data, steps, n, stride, addressed, block_rows):
        # pairs drawn from a pool of at most four, so equal runs form within steps, across
        # step boundaries and across blocks.  A step holds one pair of the pool in all its rows
        # at every step or at some steps, so whole blocks of one-pair steps form, and blocks
        # that mix them with steps of several pairs
        value = st.sampled_from([0.0, -0.0, 1.0, float("inf"), -float("inf")]) | st.floats(allow_nan=False)
        pool = data.draw(st.lists(st.tuples(value, value), min_size=1, max_size=4))
        some = st.lists(st.booleans(), min_size=steps + 1, max_size=steps + 1)
        one_pair = data.draw(st.just([True] * (steps + 1)) | some)
        step_rows = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
        pairs = np.array([
            [data.draw(st.sampled_from(pool))] * n if one else data.draw(step_rows) for one in one_pair
        ]).reshape(-1, 2)
        record = TrajectoryRecord(
            times=np.arange(steps + 1, dtype=np.intp) * 3,
            centers=pairs[:, 0].reshape(steps + 1, n),
            sigmas=pairs[:, 1].reshape(steps + 1, n),
            levels=np.arange(n) // 3 + 1 if addressed else None,
            groups=np.arange(n) % 3 if addressed else None,
        )
        path = work_dir / "any-record.csv"
        with pytest.MonkeyPatch.context() as patch:
            if block_rows is not None:
                patch.setattr(hfon.output, "_BLOCK_ROWS", n - 1 if block_rows == "n - 1" else block_rows)
            write_trajectory_csv(record, path, stride=stride)
        assert path.read_bytes() == reference_write(record, stride)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        steps=st.integers(1, 4),
        n=st.integers(1, 5),
        stride=st.integers(1, 3),
    )
    def test_round_trip_of_any_doubles(self, work_dir, data, steps, n, stride):
        # signed zeros, subnormals, huge and infinite values all survive the
        # writer's per-state formatting and the reader's parse
        value = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1e308, float("inf"), -float("inf")]) | st.floats(
            allow_nan=False)
        grid = st.lists(st.lists(value, min_size=n, max_size=n), min_size=steps + 1, max_size=steps + 1)
        record = TrajectoryRecord(
            times=np.arange(steps + 1, dtype=np.intp),
            centers=np.array(data.draw(grid), dtype=np.float64),
            sigmas=np.array(data.draw(grid), dtype=np.float64),
        )
        path = work_dir / "any.csv"
        write_trajectory_csv(record, path, stride=stride)
        assert path.read_bytes() == reference_write(record, stride)
        assert_same_record(read_trajectory_csv(path), reference_read(path))


def _edit_line(line_no, edit):
    """Apply edit to the bytes of one line (1-based, header is line 1)."""

    def mutate(raw):
        lines = raw.split(b"\n")
        lines[line_no - 1] = edit(lines[line_no - 1])
        return b"\n".join(lines)

    return mutate


# inputs the csv-based reader accepted and the vectorised reader rejects, with
# the message it gives
NEWLY_REJECTED = {
    "quoted field": (_edit_line(3, lambda s: b'"' + s.replace(b",", b'",', 1)), "could not convert"),
    "quoted header": (_edit_line(1, lambda s: b'"t"' + s[1:]), "header"),
    "CRLF line ends": (lambda raw: raw.replace(b"\n", b"\r\n"), "header"),
    "CR on a data line": (_edit_line(3, lambda s: s + b"\r"), "unexpected byte"),
    "no final line end": (lambda raw: raw[:-1], "no line end"),
    "non-ASCII digit": (_edit_line(3, lambda s: "\u0660".encode() + s[1:]), "unexpected byte"),
    "tab before a number": (_edit_line(3, lambda s: b"\t" + s), "unexpected byte"),
    "duplicate row": (lambda raw: raw + raw.split(b"\n")[2] + b"\n", "repeats"),
    "mixed flat and addressed rows": (_edit_line(3, lambda s: s.replace(b",,,", b",1,0,", 1)), "level and group"),
    "group without level": (_edit_line(3, lambda s: s.replace(b",,,", b",,1,", 1)), "level and group"),
    "center longer than 64 bytes": (
        _edit_line(3, lambda s: b",".join(s.split(b",")[:4] + [b"1." + b"0" * 63] + s.split(b",")[5:])),
        "line 3, field 5: 65 bytes, more than the 64",
    ),
}


class TestRejections:
    @pytest.mark.parametrize("case", sorted(NEWLY_REJECTED))
    def test_newly_rejected(self, work_dir, case):
        mutate, message = NEWLY_REJECTED[case]
        path = work_dir / "case.csv"
        write_trajectory_csv(RECORDS["flat"], path)
        path.write_bytes(mutate(path.read_bytes()))
        reference_read(path)  # accepted before
        with pytest.raises(ValueError, match=message):
            read_trajectory_csv(path)

    def test_inconsistent_address(self, work_dir):
        path = work_dir / "moved.csv"
        write_trajectory_csv(RECORDS["tree"], path)
        raw = path.read_bytes().split(b"\n")
        last = raw[-2].split(b",")
        last[2] = b"7"
        raw[-2] = b",".join(last)
        path.write_bytes(b"\n".join(raw))
        reference_read(path)  # took the last row's level
        with pytest.raises(ValueError, match="level or group differs"):
            read_trajectory_csv(path)

    def test_sparse_rows_refused_before_the_grid(self, work_dir):
        # 2,000 rows with t = agent = i span a grid of 2,000^2 (t, agent) cells (30.5 MiB of
        # int64 counts); fewer rows than cells are refused before the grid is allocated
        path = work_dir / "sparse.csv"
        rows = b"".join(b"%d,%d,,,1,1\n" % (i, i) for i in range(2000))
        path.write_bytes(b"t,agent,level,group,center,sigma\n" + rows)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^trajectory file is missing some \\(t, agent\\) rows$"):
                read_trajectory_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "row, message",
        [
            (b"", "line 3: expected 6 fields, got 0"),
            (b"1,0,,,1.5", "line 3: expected 6 fields, got 5"),
            (b"1,0,,,1.5,1,", "line 3: expected 6 fields, got 7"),
            (b"1,0,,,nan,1", "line 3: center or sigma is NaN"),
            (b"1.0,0,,,1,1", "could not convert string '1.0' to int64"),
            (b"99999999999999999999,0,,,1,1", "could not convert"),
            (b"#1,0,,,1,1", "could not convert"),
            (b"1,0,,,1,1\xff", "line 3: unexpected byte"),
        ],
    )
    def test_bad_row(self, work_dir, row, message):
        path = work_dir / "bad.csv"
        path.write_bytes(b"t,agent,level,group,center,sigma\n0,0,,,1,1\n" + row + b"\n")
        with pytest.raises(ValueError, match=message):
            read_trajectory_csv(path)
        with pytest.raises(Exception):
            reference_read(path)

    def test_unparsable_field_names_line_and_field(self, work_dir):
        # flat files are parsed without the level/group columns; fields still count from 1
        path = work_dir / "field.csv"
        path.write_bytes(b"t,agent,level,group,center,sigma\n0,0,,,1,1\n0,1,,,x,1\n")
        with pytest.raises(ValueError, match=r"^line 3, field 5: could not convert string 'x' to float64$"):
            read_trajectory_csv(path)
        path.write_bytes(b"t,agent,level,group,center,sigma\n0,0,1,0,1,1\n0,1,1,0,1,1\n0,2,1,z,1,1\n")
        with pytest.raises(ValueError, match=r"^line 4, field 4: could not convert string 'z' to int64$"):
            read_trajectory_csv(path)

    def test_field_width_bound(self, work_dir, monkeypatch):
        path = work_dir / "wide.csv"
        center, sigma = b"1" + b"0" * 63, b"0." + b"0" * 61 + b"5"
        path.write_bytes(b"t,agent,level,group,center,sigma\n0,0,,,%s,%s\n" % (center, sigma))
        record = read_trajectory_csv(path)
        assert (record.centers.tolist(), record.sigmas.tolist()) == ([[1e63]], [[5e-62]])

        def no_parse(*args, **kwargs):
            raise AssertionError("parsed rows with an over-long field")

        # a 10 MB sigma is refused by the layout pass, before any row is parsed
        monkeypatch.setattr(np, "loadtxt", no_parse)
        path.write_bytes(b"t,agent,level,group,center,sigma\n0,0,,,1,1\n0,1,,,1," + b"9" * 10**7 + b"\n")
        with pytest.raises(ValueError, match=r"^line 3, field 6: 10000000 bytes, more than the 64 "):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([b"0,1,,,,1"], "line 3, field 5: could not convert string '' to float64"),
            ([b"0,1,,,1,"], "line 3, field 6: could not convert string '' to float64"),
            ([b"0,1,,, ,1"], "line 3, field 5: could not convert string ' ' to float64"),
            ([b"0,1,,,1, "], "line 3, field 6: could not convert string ' ' to float64"),
            # the first bad value in file order is named, whatever its column
            ([b"0,1,,,1,y", b"0,2,,,x,1"], "line 3, field 6: could not convert string 'y' to float64"),
            ([b"0,1,,,x,y"], "line 3, field 5: could not convert string 'x' to float64"),
            ([b"0,1,,,y,1", b"0,2,,,x,1"], "line 3, field 5: could not convert string 'y' to float64"),
            ([b"0,1,,,x,1", b"q,2,,,1,1"], "line 3, field 5: could not convert string 'x' to float64"),
            ([b"q,1,,,1,1", b"0,2,,,x,1"], "line 3, field 1: could not convert string 'q' to int64"),
            ([b"0,1,,,1,1", b"0,2,,,x,1", b"0,3,,,1,x", b"0,4,,,1,1", b"q,5,,,1,1"],
             "line 4, field 5: could not convert string 'x' to float64"),
            ([b"0,%d,,,x,1" % i for i in range(1, 49)], "line 3, field 5: could not convert string 'x' to float64"),
            ([b"0,%d,,,1,1" % i for i in range(1, 49)] + [b"0,49,,,1,-", b"0,50,,,-,1"],
             "line 51, field 6: could not convert string '-' to float64"),
        ],
    )
    def test_first_bad_value_is_named(self, work_dir, rows, message):
        path = work_dir / "first.csv"
        path.write_bytes(b"t,agent,level,group,center,sigma\n0,0,,,1,1\n" + b"\n".join(rows) + b"\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_trajectory_csv(path)


_MUTATIONS = st.sampled_from(
    [
        b"",
        b"\n",
        b",",
        b'"',
        b"#",
        b"\r",
        b"\r\n",
        b" ",
        b"\xff",
        b"\x85",
        b"\xa0",
        b"\x00",
        "\u0663".encode(),
        b"nan",
        b"inf",
        b"-",
        b"+",
        b".",
        b"e",
        b"0",
        b"9",
        b"99999999999999999999",
        b"-9223372036854775809",
    ]
)


@st.composite
def mutated_csv(draw):
    record = RECORDS[draw(st.sampled_from(sorted(RECORDS)))]
    raw = reference_write(record, draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(1, 4))):
        lines = raw.split(b"\n")
        op = draw(st.sampled_from(["insert", "replace", "truncate", "duplicate", "drop", "swap", "field"]))
        if op == "insert":
            pos = draw(st.integers(0, len(raw)))
            raw = raw[:pos] + draw(_MUTATIONS | st.binary(min_size=1, max_size=3)) + raw[pos:]
        elif op == "replace":
            pos = draw(st.integers(0, max(len(raw) - 1, 0)))
            end = draw(st.integers(pos, min(len(raw), pos + 4)))
            raw = raw[:pos] + draw(_MUTATIONS) + raw[end:]
        elif op == "truncate":
            raw = raw[: draw(st.integers(0, len(raw)))]
        elif op == "duplicate":
            k = draw(st.integers(0, len(lines) - 1))
            raw = b"\n".join(lines[:k + 1] + [lines[k]] + lines[k + 1:])
        elif op == "drop":
            k = draw(st.integers(0, len(lines) - 1))
            raw = b"\n".join(lines[:k] + lines[k + 1:])
        elif op == "swap":
            i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            raw = b"\n".join(lines)
        else:  # rewrite one field of one line
            k = draw(st.integers(0, len(lines) - 1))
            fields = lines[k].split(b",")
            f = draw(st.integers(0, len(fields) - 1))
            fields[f] = draw(_MUTATIONS | st.integers(-(2**70), 2**70).map(lambda v: str(v).encode()))
            lines[k] = b",".join(fields)
            raw = b"\n".join(lines)
    return raw


@settings(max_examples=400, deadline=None)
@given(raw=mutated_csv())
def test_mutated_csv_is_read_as_before_or_rejected(work_dir, raw):
    path = work_dir / "fuzz.csv"
    path.write_bytes(raw)
    expected, got = read_both(path)  # anything but ValueError escapes and fails the test
    if got is not None:
        assert expected is not None, "accepted a file the csv-based reader rejected"
        assert_same_record(got, expected)


# The canonical path: a file the writer wrote at stride 1 is read by re-rendering a guessed
# record; every other file goes to the checked parse, and the outcome never differs.


def checked_read(path) -> TrajectoryRecord:
    """read_trajectory_csv with the canonical guess declining every file: the checked parse alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hfon.output, "_read_canonical", lambda raw, ends: None)
        return read_trajectory_csv(path)


def read_outcome(read, path):
    """(record, None) or (None, the ValueError message); any other exception escapes."""
    try:
        return read(path), None
    except ValueError as exc:
        return None, str(exc)


@contextmanager
def canonical_reads():
    """A list that gets, for each read, whether the canonical guess returned its record."""
    taken = []
    guess = hfon.output._read_canonical

    def spy(raw, ends):
        taken.append(False)
        record = guess(raw, ends)
        taken[-1] = record is not None
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hfon.output, "_read_canonical", spy)
        yield taken


def assert_read_as_checked(path) -> bool:
    """The read's record or message equals the checked parse's; True when the guess took the file."""
    with canonical_reads() as taken, warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_outcome(read_trajectory_csv, path)
    expected = read_outcome(checked_read, path)
    assert got[1] == expected[1]
    if expected[0] is not None:
        assert_same_record(got[0], expected[0])
    return taken == [True]


def tail_record(n=3, times=(0, 10, 20, 30, 40, 50)):
    """A first step of two states, its first and last rows alike, then one (center, sigma) pair per step."""
    centers = np.array([[1.0, 2.0, 1.0]] + [[1.5 + k / 10] * n for k in range(len(times) - 1)])
    return TrajectoryRecord(times=np.array(times, dtype=np.intp), centers=centers, sigmas=np.ones_like(centers))


def _set_fields(line: bytes, values: dict) -> bytes:
    fields = line.split(b",")
    for i, value in values.items():
        if i < len(fields):
            fields[i] = value
    return b",".join(fields)


def _step_rows(raw: bytes, n: int, k: int, edit) -> bytes:
    """raw with edit applied to the rows of step k (data rows 1 + k n ... from line 2)."""
    lines = raw.split(b"\n")
    rows = slice(1 + k * n, 1 + (k + 1) * n)
    lines[rows] = edit(lines[rows])
    return b"\n".join(lines)


def _in_step_3(edit):
    return lambda raw: _step_rows(raw, 3, 3, edit)


def _times(texts: dict):
    """An edit writing texts[k] as the t of every row of step k."""
    def edit(raw):
        for k, text in texts.items():
            raw = _step_rows(raw, 3, k, lambda rows: [_set_fields(r, {0: text}) for r in rows])
        return raw
    return edit


# edits of tail_record's file: (edit, the checked parse's message or None when it reads the file)
CANONICAL_MUTATIONS = {
    "decreasing t": (_times({3: b"15"}), None),
    # t falls by 1e19, which wraps past int64 to a rise when subtracted
    "t falling by more than int64 holds": (_times({4: b"%d" % (5 * 10**18), 5: b"%d" % (-5 * 10**18)}), None),
    "repeated step": (_in_step_3(lambda rows: rows + rows), "trajectory file repeats some (t, agent) rows"),
    "nan in a single-pair step": (_in_step_3(lambda rows: [_set_fields(r, {4: b"nan"}) for r in rows]),
                                  "line 11: center or sigma is NaN"),
    "t of 2^70": (_times({3: b"%d" % 2**70}),
                  "line 11, field 1: could not convert string '1180591620717411303424' to int64"),
    "t written as 01": (_in_step_3(lambda rows: [_set_fields(r, {0: b"0" + r.split(b",")[0]}) for r in rows]), None),
    "two rows of a step swapped": (_in_step_3(lambda rows: [rows[1], rows[0]] + rows[2:]), None),
    "bytes after the last line end": (lambda raw: raw + b"60,0,,,1,1", "line 20: no line end (truncated file?)"),
    # read alike by the checked parse, but not as the writer writes them
    "single pair written 1.50": (lambda raw: _step_rows(raw, 3, 1, lambda rows: [_set_fields(r, {4: b"1.50"})
                                                                                 for r in rows]), None),
    "agent written 01 in step 0": (lambda raw: _step_rows(raw, 3, 0, lambda rows: [rows[0], _set_fields(
        rows[1], {1: b"01"}), rows[2]]), None),
    "center written 1.0 in step 0": (lambda raw: _step_rows(raw, 3, 0, lambda rows: [_set_fields(
        rows[0], {4: b"1.0"})] + rows[1:]), None),
    # rows no longer a whole number of steps, each step still starting at agent 0's row
    "a row missing from the last step": (lambda raw: _step_rows(raw, 3, 5, lambda rows: rows[:2]),
                                         "trajectory file is missing some (t, agent) rows"),
}


def assert_declined_unparsed(raw: bytes, monkeypatch):
    """The canonical guess declines raw without calling np.loadtxt."""
    def no_parse(*args, **kwargs):
        raise AssertionError("parsed rows of a declined file")

    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    monkeypatch.setattr(np, "loadtxt", no_parse)
    assert hfon.output._read_canonical(raw, ends) is None


class TestCanonicalPath:
    @pytest.mark.parametrize("case", sorted(CANONICAL_MUTATIONS))
    def test_mutated_file_declines_to_the_checked_parse(self, work_dir, capsys, case):
        mutate, message = CANONICAL_MUTATIONS[case]
        path = work_dir / "canonical.csv"
        write_trajectory_csv(tail_record(), path)
        assert assert_read_as_checked(path)
        path.write_bytes(mutate(path.read_bytes()))
        assert not assert_read_as_checked(path)
        assert read_outcome(read_trajectory_csv, path)[1] == message
        capsys.readouterr()
        assert main(["clusters", str(path)]) == (0 if message is None else 1)
        assert capsys.readouterr().err == ("" if message is None else f"error: {message}\n")

    def test_over_long_row_declined_before_parsing(self, work_dir, monkeypatch):
        # a row longer than any the writer writes, in a file whose other steps are canonical
        def no_parse(*args, **kwargs):
            raise AssertionError("parsed rows with an over-long row")

        path = work_dir / "long.csv"
        write_trajectory_csv(tail_record(), path)
        long = b"0." + b"0" * 197 + b"1"
        path.write_bytes(_step_rows(path.read_bytes(), 3, 0, lambda rows: [_set_fields(rows[0], {5: long})] + rows[1:]))
        monkeypatch.setattr(np, "loadtxt", no_parse)
        with pytest.raises(ValueError, match=r"^line 2, field 6: 200 bytes, more than the 64 "):
            read_trajectory_csv(path)

    @pytest.fixture(scope="class")
    def builtin_runs(self):
        return {name: execute_scenario(config).record for name, config in builtin_scenarios().items()}

    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    @pytest.mark.parametrize("stride", [1, 10])
    def test_builtin_files_read_as_checked(self, work_dir, builtin_runs, name, stride):
        path = work_dir / f"{name}-{stride}.csv"
        write_trajectory_csv(builtin_runs[name], path, stride=stride)
        assert assert_read_as_checked(path)

    def test_each_distinct_pair_text_of_a_step_parsed_once(self, work_dir, monkeypatch, builtin_runs):
        record = builtin_runs["example1-local"]
        path = work_dir / "example1-local.csv"
        write_trajectory_csv(record, path)
        # a single-pair step parses its first row; any other step each of its distinct pairs
        bits = zip(record.centers.view(np.uint64).tolist(), record.sigmas.view(np.uint64).tolist())
        distinct = sum(len(set(zip(*step))) for step in bits)
        loadtxt, parsed = np.loadtxt, []

        def counting(*args, **kwargs):
            values = loadtxt(*args, **kwargs)
            parsed.append(len(values))
            return values

        monkeypatch.setattr(np, "loadtxt", counting)
        with canonical_reads() as taken:
            assert_same_record(read_trajectory_csv(path), record)
        assert taken == [True]
        assert sum(parsed) <= distinct < record.centers.size // 10

    def test_rows_swapped_in_every_step_declined(self, work_dir):
        # each step is one join of the same addresses, but not of the writer's: agent 2's row comes first
        centers = np.full((4, 3), 1.5)
        record = TrajectoryRecord(np.arange(4), centers, np.ones_like(centers), np.array([1, 2, 3]), np.array([0, 0, 1]))
        path = work_dir / "swapped.csv"
        write_trajectory_csv(record, path)
        raw = path.read_bytes()
        for k in range(4):
            raw = _step_rows(raw, 3, k, lambda rows: [rows[0], rows[2], rows[1]])
        path.write_bytes(raw)
        assert not assert_read_as_checked(path)
        assert_same_record(read_trajectory_csv(path), record)  # each row keeps its agent's address

    def test_file_sorted_by_agent_declined_before_parsing(self, work_dir, monkeypatch):
        # agent 0's rows come first, so each row looks like a one-agent step, half of them agent 0's
        centers = np.array([[1.0, 2.0], [1.5, 1.5], [1.6, 1.6]])
        path = work_dir / "by-agent.csv"
        write_trajectory_csv(TrajectoryRecord(np.array([0, 10, 20]), centers, np.ones_like(centers)), path)
        header, *rows = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header + b"".join(sorted(rows, key=lambda r: [int(f) for f in r.split(b",")[1::-1]])))
        assert not assert_read_as_checked(path)
        assert_declined_unparsed(path.read_bytes(), monkeypatch)

    def test_any_written_file_taken_and_read_back(self, work_dir):
        # whatever mix of one-pair and several-pair steps, at any stride
        path = work_dir / "written.csv"

        @settings(max_examples=200, deadline=None)
        @given(record=written_records(), stride=st.integers(1, 3))
        def check(record, stride):
            write_trajectory_csv(record, path, stride=stride)
            keep = sorted({*range(0, record.n_samples, stride), record.n_samples - 1})
            with canonical_reads() as taken:
                got = read_trajectory_csv(path)
            assert taken == [True]
            assert_same_record(got, TrajectoryRecord(record.times[keep], record.centers[keep], record.sigmas[keep],
                                                     record.levels, record.groups))

        check()

    def test_mutated_canonical_files_read_as_checked(self, work_dir):
        path = work_dir / "canonical-fuzz.csv"
        taken = []

        @settings(max_examples=250, deadline=None)
        @given(raw=mutated_canonical_csv())
        def check(raw):
            path.write_bytes(raw)
            taken.append(assert_read_as_checked(path))

        check()
        assert sum(taken) > 0


_VALUES = st.sampled_from([0.0, -0.0, 0.1, 1.0, 5e-324, float("inf"), -float("inf")]) | st.floats(allow_nan=False)
_PAIR_TEXTS = _VALUES.map(lambda v: b"%.17g" % v) | st.sampled_from(
    [b"nan", b"1.0", b"+1", b"1e0", b"0.10", b" 1", b"Infinity", b"1_0", b""])
_T_TEXTS = st.sampled_from([b"01", b"+1", b" 1", b"-0", b"1_0", b"%d" % 2**63, b"%d" % 2**70,
                            b"%d" % (5 * 10**18), b"%d" % (-5 * 10**18)]) | st.integers(
    -3, 60).map(lambda v: b"%d" % v)


@st.composite
def written_records(draw):
    """A NaN-free record of 1-5 agents and strictly increasing times; each step holds one pair or several."""
    n, steps = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    pool = draw(st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=3))
    pair = st.sampled_from(pool) | st.tuples(_VALUES, _VALUES)
    pairs = np.array([[draw(pair)] * n if draw(st.booleans()) else draw(st.lists(pair, min_size=n, max_size=n))
                      for _ in range(steps)], dtype=np.float64)
    gaps = draw(st.lists(st.integers(1, 2**40), min_size=steps, max_size=steps))
    address = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n).map(lambda a: np.array(a, dtype=np.intp))
    addressed = draw(st.booleans())
    return TrajectoryRecord(
        times=np.cumsum(gaps, dtype=np.intp) + draw(st.integers(-(2**62), 2**62)),
        centers=pairs[:, :, 0],
        sigmas=pairs[:, :, 1],
        levels=draw(address) if addressed else None,
        groups=draw(address) if addressed else None,
    )


@st.composite
def mutated_canonical_csv(draw):
    """A written file of a record whose last steps hold one pair each, with 0-3 edits."""
    n = draw(st.integers(1, 5))
    several, one = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    steps = [draw(st.lists(st.tuples(_VALUES, _VALUES), min_size=n, max_size=n)) for _ in range(several)]
    steps += [[draw(st.tuples(_VALUES, _VALUES))] * n for _ in range(one)]
    pairs = np.array(steps, dtype=np.float64)
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(steps), max_size=len(steps)))
    addressed = draw(st.booleans())
    record = TrajectoryRecord(
        times=np.cumsum(gaps, dtype=np.intp) + draw(st.sampled_from([-5, 0, 2**62])),
        centers=pairs[:, :, 0],
        sigmas=pairs[:, :, 1],
        levels=np.arange(n) % 2 + 1 if addressed else None,
        groups=np.arange(n) // 2 if addressed else None,
    )
    raw = reference_write(record)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(steps) - 1))
        op = draw(st.sampled_from(["t", "pair", "field", "repeat", "swap", "swap rows", "drop", "byte"]))
        if op == "t":
            text = draw(_T_TEXTS)
            raw = _step_rows(raw, n, k, lambda rows: [_set_fields(r, {0: text}) for r in rows])
        elif op == "pair":
            center, sigma = draw(_PAIR_TEXTS), draw(_PAIR_TEXTS)
            raw = _step_rows(raw, n, k, lambda rows: [_set_fields(r, {4: center, 5: sigma}) for r in rows])
        elif op == "field":
            i, f = draw(st.integers(0, n - 1)), draw(st.integers(0, 5))
            text = draw(_MUTATIONS | _T_TEXTS | _PAIR_TEXTS)
            raw = _step_rows(raw, n, k, lambda rows: [_set_fields(r, {f: text}) if j == i else r
                                                       for j, r in enumerate(rows)])
        elif op == "repeat":
            raw = _step_rows(raw, n, k, lambda rows: rows + rows)
        elif op == "swap":
            j = draw(st.integers(0, len(steps) - 1))
            lines = raw.split(b"\n")
            mine, theirs = lines[1 + k * n:1 + (k + 1) * n], lines[1 + j * n:1 + (j + 1) * n]
            raw = _step_rows(_step_rows(raw, n, k, lambda rows: theirs), n, j, lambda rows: mine)
        elif op == "swap rows":
            raw = _step_rows(raw, n, k, lambda rows: rows[::-1])
        elif op == "drop":
            raw = _step_rows(raw, n, k, lambda rows: rows[1:])
        else:
            pos = draw(st.integers(0, len(raw)))
            raw = raw[:pos] + draw(_MUTATIONS) + raw[pos + draw(st.integers(0, 2)):]
    return raw
