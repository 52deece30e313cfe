"""Trajectory CSV and run-summary JSON emission, plus the analytics behind the summary.

The CSV is one row per (recorded step, agent) with floats printed at 17
significant digits so parsing the file back reproduces the exact doubles.
The summary JSON has a fixed key order and no timestamps, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .engine import TrajectoryRecord, steps_to_target
from .leader import (
    detect_consensus_time,
    predict_sigma_leader_ref,
    predict_sigma_limit,
)
from .phases import ClusterReport, _cluster_report, phase_summary
from .scenarios import SCHEMA_VERSION, ScenarioRun

CSV_HEADER = ["t", "agent", "level", "group", "center", "sigma"]
_HEADER_LINE = (",".join(CSV_HEADER) + "\n").encode()

# enough significant digits that parsing the text reproduces the exact double
_FLOAT_FORMAT = "%.17g"
_PAIR_FORMAT = f"{_FLOAT_FORMAT},{_FLOAT_FORMAT}\n"
# one (center, sigma) row as a single 16-byte key, compared by its exact bits
_PAIR_BITS = np.dtype((np.void, 16))
# rows the writer formats and writes at once; whole steps, so one step when n is larger
_BLOCK_ROWS = 1 << 14
# the longest center or sigma text the reader accepts; the writer's longest is 24
_MAX_FLOAT_FIELD = 64
# the longest row the writer writes, LF included: four int64 fields, two floats, five commas
_MAX_ROW = 4 * 20 + 2 * 24 + 6
# LF and the t and agent fields of a row for agent 0: in a written file, the first row of a step after the first
_STEP_HEAD = re.compile(rb"\n[^,\n]*,0,")


@contextmanager
def _replacing(path):
    """A text file open for writing that takes path's place only once the block completes.

    It is written under a hidden temporary name in path's directory and
    renamed over path, so path never holds a partly written file; on failure
    the temporary file is removed and path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trajectory_csv(record: TrajectoryRecord, path, stride: int = 1):
    """Write the record, keeping every stride-th step plus always the last one.

    Rows go out in blocks of whole steps, at most _BLOCK_ROWS rows each (one
    step when a step has more).  Within a block, each distinct (center, sigma)
    pair, keyed on its exact bits so that -0.0 and 0.0 stay apart, is
    formatted once and shared by every row holding it.  A block whose every
    step holds one pair in all its rows writes each step as one join of the
    addresses; other blocks build each row from three pieces.  A record with no
    steps or no agents is refused before any file is created.  The file
    appears at path only once it is complete.
    """
    if isinstance(stride, bool) or not (isinstance(stride, int) and stride >= 1):
        raise ValueError("stride must be an integer >= 1")
    n_samples, n = record.centers.shape
    if n_samples == 0:
        raise ValueError("record has no steps")
    if n == 0:
        raise ValueError("record has no agents")
    keep = list(range(0, n_samples, stride))
    if keep[-1] != n_samples - 1:
        keep.append(n_samples - 1)
    with _replacing(path) as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for block in _render_blocks(record, keep):
            fh.write(block)


def _render_blocks(record: TrajectoryRecord, keep: list[int]):
    """The rows of the steps keep as write_trajectory_csv writes them, one string per block."""
    n = record.n_agents
    addresses, join = _one_pair_join(n, record.levels, record.groups)
    steps = max(1, _BLOCK_ROWS // n)
    # one row is [t prefix, address, center and sigma]; the addresses never change
    cells = np.empty((steps, n, 3), dtype=object)
    cells[:, :, 1] = addresses
    for start in range(0, len(keep), steps):
        block = keep[start:start + steps]
        rows = cells[:len(block)]
        centers, sigmas = record.centers[block].ravel(), record.sigmas[block].ravel()
        # a run starts where a row's center or sigma bits differ from the row before
        center_bits, sigma_bits = centers.view(np.uint64), sigmas.view(np.uint64)
        head = np.ones(centers.size, dtype=bool)
        np.not_equal(center_bits[1:], center_bits[:-1], out=head[1:])
        head[1:] |= sigma_bits[1:] != sigma_bits[:-1]
        head[::n] = True  # and at every step's first row, so a step of one pair is one run
        pairs = np.stack([centers, sigmas], axis=1)
        starts, lengths, first, inverse = _distinct_runs(pairs.view(_PAIR_BITS).ravel(), head)
        texts = np.array([_PAIR_FORMAT % (c, s) for c, s in pairs[starts[first]].tolist()], dtype=object)
        prefixes = [f"{int(t)}," for t in record.times[block].tolist()]
        if starts.size == len(block):  # every step one pair: its rows are one join
            yield "".join(map(join, prefixes, texts[inverse].tolist()))
        else:
            rows[:, :, 0] = np.array(prefixes, dtype=object)[:, None]
            rows[:, :, 2] = np.repeat(texts[inverse], lengths).reshape(len(block), n)
            yield "".join(rows.ravel().tolist())


def _one_pair_join(n: int, levels, groups, text=str):
    """The writer's row addresses ("i,level,group," or "i,,," when flat), each through text (str or
    str.encode), and join(t prefix, pair text): the rows of a step whose every row holds that pair."""
    addresses = [text(f"{i},,," if levels is None else f"{i},{int(levels[i])},{int(groups[i])},") for i in range(n)]
    return addresses, lambda prefix, pair: prefix + (pair + prefix).join(addresses) + pair


def _distinct_runs(keys: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Runs of a 1-D array, each starting where head is true, and the distinct run heads.

    head is a boolean mask true at element 0 and at every element unequal to
    the one before; it may be true elsewhere too, splitting a run of equal
    elements.  Returns (starts, lengths, first, inverse): where each run
    starts and how many elements it holds, then np.unique's first index and
    inverse over the run heads keys[starts].  So keys[starts[first]] are the
    distinct values, sorted, and np.repeat(x[inverse], lengths) spreads one x
    per distinct value back over keys.
    """
    starts = np.flatnonzero(head)
    _, first, inverse = np.unique(keys[starts], return_index=True, return_inverse=True)
    return starts, np.diff(starts, append=keys.size), first, inverse


def _read_canonical(raw: bytes, ends: np.ndarray) -> TrajectoryRecord | None:
    """The record whose stride-1 CSV is exactly raw, or None; may raise on what no writer writes.

    ends are raw's LF positions.  Step 0 ends where the next row for agent 0
    begins; t is parsed at each step's first row.  A partial step, bytes
    after the last LF, a row longer than the writer's longest or a step head
    not for agent 0 declines raw before any row is parsed.  A step that ends
    in its first row's pair holds that pair if it is the writer's one join of
    the pair's parsed value.  The pair texts of all other steps are parsed,
    each distinct text once, and those steps must equal their _render_blocks
    rendering.  With no NaN and strictly increasing times, the checked parse
    returns the same record.
    """
    rows = ends.size - 1  # ends[0] ends the header
    step_1 = _STEP_HEAD.search(raw, int(ends[1]))
    n = rows if step_1 is None else int(np.searchsorted(ends, step_1.start()))
    steps, rest = divmod(rows, n)
    # whole steps, nothing after the last LF, and no row longer than the writer writes
    if rest or ends[-1] != len(raw) - 1 or int(np.diff(ends).max()) > _MAX_ROW:
        return None
    starts = (ends[::n] + 1).tolist()  # step k is raw[starts[k]:starts[k + 1]]
    times, heads, single = [0] * steps, [b""] * steps, np.zeros(steps, dtype=bool)
    for k in reversed(range(steps)):  # last first: a file sorted by agent fails at its last row
        t, agent, _, _, center, sigma = raw[starts[k]:raw.index(b"\n", starts[k])].split(b",")
        if agent != b"0":  # a step starts at agent 0
            return None
        times[k] = int(t)
        heads[k] = (b"%d," % times[k], center + b"," + sigma + b"\n")  # its first row's prefix and pair
        single[k] = raw.endswith(b"," + heads[k][1], starts[k], starts[k + 1])  # and its last row's pair
    first = [row.split(b",") for row in raw[starts[0]:starts[1] - 1].split(b"\n")]
    levels, groups = (np.array([int(f[j]) for f in first], dtype=np.intp) if first[0][2] else None for j in (2, 3))
    addresses, join = _one_pair_join(n, levels, groups, str.encode)
    centers, sigmas, pair_format = np.empty((steps, n)), np.empty((steps, n)), _PAIR_FORMAT.encode()

    def parse(texts):  # one (center, sigma) row per text; no loadtxt call for none, as it would warn
        text = b"".join(texts)
        if not text:
            return np.empty((0, 2))
        return np.loadtxt(io.BytesIO(text), dtype=np.float64, delimiter=",", comments=None, ndmin=2)

    ks = np.flatnonzero(single).tolist()
    for k, (center, sigma) in zip(ks, parse(heads[k][1] for k in ks).tolist()):
        centers[k], sigmas[k] = center, sigma
        single[k] = raw.startswith(join(heads[k][0], pair_format % (center, sigma)), starts[k])
    skip = np.array([len(a) for a in addresses])  # from a row's start to its pair text, less its t prefix
    ks = np.flatnonzero(~single).tolist()
    texts, ids = {}, []  # each distinct pair text of those steps to its id, and each of their rows' id
    for k in ks:  # step by step, so no temporary grows with the file
        row = ends[k * n:(k + 1) * n + 1] + 1  # where each row of step k starts, then where the step ends
        ids += [texts.setdefault(raw[a:b], len(texts))
                for a, b in zip((row[:-1] + len(heads[k][0]) + skip).tolist(), row[1:].tolist())]
    centers[ks], sigmas[ks] = parse(texts)[ids].reshape(len(ks), n, 2).transpose(2, 0, 1)
    times = np.array(times, dtype=np.intp)
    if np.isnan(centers).any() or np.isnan(sigmas).any() or (times[1:] <= times[:-1]).any():
        return None
    record = TrajectoryRecord(times=times, centers=centers, sigmas=sigmas, levels=levels, groups=groups)
    edges = np.flatnonzero(np.diff(np.concatenate([[False], ~single, [False]]))).tolist()
    for a, b in zip(edges[::2], edges[1::2]):  # each span of steps with several pairs
        at = starts[a]
        for block in map(str.encode, _render_blocks(record, list(range(a, b)))):
            if not raw.startswith(block, at):
                return None
            at += len(block)
    return record


def _check_layout(raw: bytes, buf: np.ndarray, ends: np.ndarray) -> bool:
    """Check a trajectory CSV's bytes line by line; True for a flat file.

    buf is raw as uint8 and ends its LF positions.  Every line must be
    printable ASCII ending in LF and hold exactly six fields; level and group
    must be empty on every row (flat) or set on every row (addressed); no
    center or sigma may be longer than _MAX_FLOAT_FIELD bytes.  Raises
    ValueError naming the first offending line.
    """
    # bytes outside printable ASCII wrap past "~" when shifted down by " "; LF is one of them
    outside = buf - ord(" ") > ord("~") - ord(" ")
    if np.count_nonzero(outside) != ends.size:
        bad = np.flatnonzero(outside & (buf != ord("\n")))[0]
        line = int(np.searchsorted(ends, bad)) + 1
        raise ValueError(f"line {line}: unexpected byte {raw[bad:bad + 1]!r}")
    del outside  # one byte per file byte, not to be held while the rows are parsed
    if not raw.endswith(b"\n"):
        raise ValueError(f"line {ends.size + 1}: no line end (truncated file?)")
    commas = np.flatnonzero(buf == ord(","))
    fields = np.diff(np.searchsorted(commas, ends), prepend=0) + (np.diff(ends, prepend=-1) > 1)
    wrong = np.flatnonzero(fields != len(CSV_HEADER))
    if wrong.size:
        line = int(wrong[0])
        raise ValueError(f"line {line + 1}: expected {len(CSV_HEADER)} fields, got {fields[line]}")
    data = commas.reshape(-1, len(CSV_HEADER) - 1)[1:]
    # a level or group field is empty when its two commas are adjacent
    empty = np.diff(data[:, 1:4], axis=1) == 1
    flat, addressed = empty.all(axis=1), ~empty.any(axis=1)
    mixed = np.flatnonzero(~(flat if flat[0] else addressed))
    if mixed.size:
        raise ValueError(
            f"line {mixed[0] + 2}: level and group must be empty on every row "
            "(flat) or set on every row (addressed)"
        )
    # center runs between the fourth and fifth commas, sigma from the fifth to the line end
    widths = np.stack([data[:, 4] - data[:, 3], ends[1:] - data[:, 4]], axis=1) - 1
    long = np.flatnonzero(widths > _MAX_FLOAT_FIELD)
    if long.size:
        row, column = divmod(int(long[0]), 2)
        raise ValueError(
            f"line {row + 2}, field {column + 5}: {widths[row, column]} bytes, "
            f"more than the {_MAX_FLOAT_FIELD} a center or sigma may have"
        )
    return bool(flat[0])


def _load_rows(raw: bytes, flat: bool) -> np.ndarray:
    """The data rows: t, agent, level and group as int64, center and sigma as float64.

    A value that does not parse raises ValueError naming its line and field;
    loadtxt converts row by row, field by field, so it is the file's first bad
    value.
    """
    names = ["t", "agent", "center", "sigma"] if flat else CSV_HEADER
    try:
        return np.loadtxt(
            io.BytesIO(raw),
            dtype=[(name, np.float64 if name in ("center", "sigma") else np.int64) for name in names],
            delimiter=",",
            comments=None,
            skiprows=1,
            usecols=(0, 1, 4, 5) if flat else None,
            ndmin=1,
        )
    except ValueError as exc:
        # loadtxt counts data rows from 0 and the file's columns from 1
        where = re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", str(exc))
        if where is None:
            raise
        raise ValueError(f"line {int(where[2]) + 2}, field {where[3]}: {where[1]}") from exc


def read_trajectory_csv(path) -> TrajectoryRecord:
    """Parse a trajectory CSV back into a record (phase annotations are not stored in CSV).

    A file the writer wrote is read by rendering a guessed record back to its
    bytes, and any other is checked whole: see README's "Reading a trajectory
    back" for what is accepted.  Any malformed input raises ValueError.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(_HEADER_LINE):
        header = raw[:80].split(b"\n")[0].decode("ascii", "backslashreplace")
        raise ValueError(f"unexpected trajectory header {header!r}")
    if len(raw) == len(_HEADER_LINE):
        raise ValueError("trajectory file has no data rows")
    buf = np.frombuffer(raw, dtype=np.uint8)
    # line k + 1 ends at ends[k]; a file over 1 MiB is scanned 1 MiB at a time, so no mask its size is held
    ends = np.flatnonzero(buf == ord("\n")) if buf.size <= 2**20 else np.concatenate(
        [np.flatnonzero(buf[i:i + 2**20] == ord("\n")) + i for i in range(0, buf.size, 2**20)])
    with suppress(ValueError, OverflowError, IndexError):  # e.g. a row of too few fields or a t past int64
        if (record := _read_canonical(raw, ends)) is not None:
            return record
    flat = _check_layout(raw, buf, ends)
    del buf, ends
    rows = _load_rows(raw, flat)
    del raw
    nan = np.flatnonzero(np.isnan(rows["center"]) | np.isnan(rows["sigma"]))
    if nan.size:
        raise ValueError(f"line {nan[0] + 2}: center or sigma is NaN")
    times, t_row = np.unique(rows["t"], return_inverse=True)
    agents, a_row = np.unique(rows["agent"], return_inverse=True)
    n = agents.size
    if agents[0] != 0 or agents[-1] != n - 1:
        raise ValueError("agent ids must be contiguous from 0")
    cell, cells = t_row * n + a_row, times.size * n
    # fewer rows than cells: refused before the grid of cells, which can grow as rows squared
    if cells > rows.size or not (counts := np.bincount(cell, minlength=cells)).all():
        raise ValueError("trajectory file is missing some (t, agent) rows")
    if counts.size != rows.size:
        raise ValueError("trajectory file repeats some (t, agent) rows")
    centers = np.empty(counts.size)
    sigmas = np.empty(counts.size)
    centers[cell] = rows["center"]
    sigmas[cell] = rows["sigma"]
    levels = groups = None
    if not flat:
        levels = np.empty(n, dtype=np.intp)
        groups = np.empty(n, dtype=np.intp)
        levels[a_row] = rows["level"]
        groups[a_row] = rows["group"]
        if (levels[a_row] != rows["level"]).any() or (groups[a_row] != rows["group"]).any():
            raise ValueError("an agent's level or group differs between rows")
    return TrajectoryRecord(
        times=times.astype(np.intp),
        centers=centers.reshape(times.size, n),
        sigmas=sigmas.reshape(times.size, n),
        levels=levels,
        groups=groups,
    )


def _check(name: str, expected: float, actual: float, tolerance: float) -> dict:
    passed = bool(abs(actual - expected) <= tolerance)
    return {"name": name, "expected": expected, "actual": actual, "tolerance": tolerance, "pass": passed}


def _group_tracking_checks(record: TrajectoryRecord, leader: float, scheme: str, b: float, tol) -> tuple[dict | None, list[dict]]:
    """Consensus report plus closed-form comparisons for one group under a constant leader."""
    checks: list[dict] = []
    report = detect_consensus_time(record, tol)
    if report is None:
        return None, checks
    consensus = {"t_N": report.t_consensus, "center": report.center, "sigma": report.sigma}
    # merged states never split, so exact consensus lasts from its first row to the end
    exact_report = detect_consensus_time(record, 0.0)
    exact = None if exact_report is None else record.index_of(exact_report.t_consensus)
    if exact is None or exact >= record.n_samples - 1:
        return consensus, checks
    n = record.n_agents
    q = n / (n + 1)
    gaps = record.centers[exact:, 0] - leader
    # ratio of consecutive leader gaps over up to 49 pairs after exact consensus
    usable = np.nonzero(gaps[:-1] != 0.0)[0]
    usable = usable[usable < 49]
    if usable.size:
        ratios = gaps[usable + 1] / gaps[usable]
        worst = ratios[np.argmax(np.abs(ratios - q))]
        checks.append(_check("center_gap_ratio", q, float(worst), 1e-9 * q))
    sigma_exact = float(record.sigmas[exact, 0])
    center_exact = float(record.centers[exact, 0])
    horizon = record.n_samples - 1 - exact
    if scheme == "local":
        post = record.sigmas[exact:, 0]
        worst = post[np.argmax(np.abs(post - sigma_exact))]
        checks.append(_check("sigma_constant_after_consensus", sigma_exact, float(worst), 1e-12))
    else:
        expected = predict_sigma_leader_ref(sigma_exact, center_exact, leader, n, b, horizon)
        actual = float(record.sigmas[-1, 0])
        checks.append(
            _check("sigma_geometric_sum", expected, actual, 1e-9 * max(1.0, abs(expected)))
        )
        if horizon >= 40 * (n + 1):
            limit = predict_sigma_limit(sigma_exact, center_exact, leader, n, b)
            checks.append(_check("sigma_limit", limit, actual, 1e-6))
    return consensus, checks


def _cluster_dict(report: ClusterReport) -> dict:
    return {
        "phase": report.phase,
        "d": report.d,
        "t_end": report.t_end,
        "count": report.cluster_count,
        "representatives": list(report.representatives),
        "sizes": list(report.cluster_sizes),
        "mean_sigma": report.mean_sigma,
        "max_sigma": report.max_sigma,
    }


def build_summary(run: ScenarioRun, gap: float | None = None, tol: float | None = None) -> dict:
    """Run summary with a fixed key order; see README for the field meanings."""
    config = run.config
    consensus = clusters = target_steps = None
    checks: list[dict] = []
    if config.kind == "blfg":
        consensus, checks = _group_tracking_checks(
            run.record, config.leader, config.scheme, config.b, tol
        )
        target_steps = steps_to_target(run.record, config.leader)
    elif config.kind == "topdown":
        n = run.record.n_agents
        top = run.record.select_agents(np.arange(n - config.group_sizes[-1], n))  # the top group is last
        consensus, checks = _group_tracking_checks(
            top, config.leader, config.scheme, config.b, tol
        )
        checks = [
            {**c, "name": f"top_group_{c['name']}"} for c in checks
        ]
        final, blocks = run.record.sigmas[-1], config._spec._blocks
        spread = max(float(np.ptp(final[agents], axis=1).max()) for agents, _ in blocks)
        checks.append(_check("max_group_sigma_spread_final", 0.0, spread, 1e-9))
        target_steps = steps_to_target(run.record, config.leader)
    elif config.kind == "bottomup":
        clusters = [_cluster_dict(r) for r in phase_summary(run.record, gap)]
    else:  # bcfon
        clusters = [_cluster_dict(_cluster_report(run.record, -1, gap))]
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": config.echo(),
        "seed": run.seed,
        "consensus": consensus,
        "predictor_checks": checks,
        "clusters": clusters,
        "steps_to_target": target_steps,
    }


def write_summary_json(summary: dict, path):
    """Write the summary; the file appears at path only once it is complete."""
    text = json.dumps(summary, indent=2) + "\n"
    with _replacing(path) as fh:
        fh.write(text)
