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
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .engine import TrajectoryRecord, steps_to_target
from .hierarchy import HierarchySpec
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
    formatted once and shared by every row holding it.  A record with no
    steps or no agents is refused before any file is created.  The file
    appears at path only once it is complete.
    """
    if not (isinstance(stride, int) and stride >= 1):
        raise ValueError("stride must be an integer >= 1")
    n_samples, n = record.centers.shape
    if n_samples == 0:
        raise ValueError("record has no steps")
    if n == 0:
        raise ValueError("record has no agents")
    keep = list(range(0, n_samples, stride))
    if keep[-1] != n_samples - 1:
        keep.append(n_samples - 1)
    ids = range(n)
    if record.levels is None:
        addresses = [f"{i},,," for i in ids]
    else:
        addresses = [f"{i},{int(lv)},{int(g)}," for i, lv, g in zip(ids, record.levels, record.groups)]
    steps = max(1, _BLOCK_ROWS // n)
    # one row is [t prefix, address, center and sigma]; the addresses never change
    cells = np.empty((steps, n, 3), dtype=object)
    cells[:, :, 1] = addresses
    with _replacing(path) as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for start in range(0, len(keep), steps):
            block = keep[start:start + steps]
            rows = cells[:len(block)]
            pairs = np.stack([record.centers[block].ravel(), record.sigmas[block].ravel()], axis=1)
            starts, lengths, first, inverse = _distinct_runs(pairs.view(_PAIR_BITS).ravel())
            texts = np.array([_PAIR_FORMAT % (c, s) for c, s in pairs[starts[first]].tolist()], dtype=object)
            rows[:, :, 0] = np.array([f"{int(t)}," for t in record.times[block].tolist()], dtype=object)[:, None]
            rows[:, :, 2] = np.repeat(texts[inverse], lengths).reshape(len(block), n)
            fh.write("".join(rows.ravel().tolist()))


def _distinct_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal adjacent elements of a 1-D array, and the distinct run heads.

    Returns (starts, lengths, first, inverse): where each run starts and how
    many elements it holds, then np.unique's first index and inverse over the
    run heads keys[starts].  So keys[starts[first]] are the distinct values,
    sorted, and np.repeat(x[inverse], lengths) spreads one x per distinct
    value back over keys.
    """
    head = np.ones(keys.size, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(head)
    _, first, inverse = np.unique(keys[starts], return_index=True, return_inverse=True)
    return starts, np.diff(starts, append=keys.size), first, inverse


def _check_layout(raw: bytes) -> tuple[bool, int]:
    """Check a trajectory CSV's bytes line by line; (True for a flat file, widest center or sigma).

    Every line must be printable ASCII ending in LF and hold exactly six
    fields; level and group must be empty on every row (flat) or set on every
    row (addressed); no center or sigma may be longer than _MAX_FLOAT_FIELD
    bytes.  Raises ValueError naming the first offending line.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))  # line k + 1 ends at ends[k]
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
    return bool(flat[0]), max(int(widths.max()), 1)


def _conversion_error(exc: ValueError) -> tuple[int, int, str]:
    """(row from 0, column from 1, message) of a loadtxt conversion error; re-raises anything else."""
    where = re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", str(exc))
    if where is None:
        raise exc
    return int(where[2]), int(where[3]), where[1]


def _load_rows(raw: bytes, flat: bool, width: int, max_rows: int | None = None) -> np.ndarray:
    """The data rows: integer columns as int64, center and sigma as their texts (bytes S{width}).

    A value that does not parse raises ValueError naming its line and field;
    a center or sigma on an earlier line that does not parse either is named
    instead, so the error is always the file's first bad value.
    """
    names = ["t", "agent", "center", "sigma"] if flat else CSV_HEADER
    try:
        return np.loadtxt(
            io.BytesIO(raw),
            dtype=[(name, f"S{width}" if name in ("center", "sigma") else np.int64) for name in names],
            delimiter=",",
            comments=None,
            skiprows=1,
            usecols=(0, 1, 4, 5) if flat else None,
            ndmin=1,
            max_rows=max_rows,
        )
    except ValueError as exc:
        # loadtxt counts data rows from 0 and the file's columns from 1
        row, column, message = _conversion_error(exc)
        if row:
            _float_columns(_load_rows(raw, flat, width, max_rows=row))
        raise ValueError(f"line {row + 2}, field {column}: {message}") from exc


def _float_columns(rows: np.ndarray) -> list[np.ndarray]:
    """Center and sigma values of the rows, each distinct text converted once.

    Adjacent equal texts form runs; the distinct run heads go through the
    loadtxt float64 converter in the order they first occur, and their values
    are spread back over the rows.  Raises ValueError naming the first line
    with a text that does not parse, center before sigma.
    """
    columns, bad = [], []
    for field, name in ((5, "center"), (6, "sigma")):
        texts = rows[name]
        starts, lengths, first, inverse = _distinct_runs(texts)
        order = np.argsort(first)
        # a comma after every text keeps an empty one a field, where alone it would be a skipped blank line
        joined = b",\n".join(texts[starts[first[order]]].tolist()) + b",\n"
        try:
            parsed = np.loadtxt(
                io.BytesIO(joined), dtype=np.float64, delimiter=",", comments=None, usecols=0, ndmin=1
            )
        except ValueError as exc:
            k, _, message = _conversion_error(exc)
            bad.append((int(starts[first[order[k]]]) + 2, field, message))
            continue
        if parsed.size != first.size:
            raise ValueError(f"{name}: {parsed.size} values parsed from {first.size} distinct texts")
        values = np.empty(first.size)
        values[order] = parsed
        columns.append(np.repeat(values[inverse], lengths))
    if bad:
        line, field, message = min(bad)
        raise ValueError(f"line {line}, field {field}: {message}")
    return columns


def read_trajectory_csv(path) -> TrajectoryRecord:
    """Parse a trajectory CSV back into a record (phase annotations are not stored in CSV).

    The whole file is checked: see README's "Reading a trajectory back" for
    what is accepted.  Any malformed input raises ValueError.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(_HEADER_LINE):
        header = raw[:80].split(b"\n")[0].decode("ascii", "backslashreplace")
        raise ValueError(f"unexpected trajectory header {header!r}")
    if len(raw) == len(_HEADER_LINE):
        raise ValueError("trajectory file has no data rows")
    flat, width = _check_layout(raw)
    rows = _load_rows(raw, flat, width)
    del raw
    row_centers, row_sigmas = _float_columns(rows)
    nan = np.flatnonzero(np.isnan(row_centers) | np.isnan(row_sigmas))
    if nan.size:
        raise ValueError(f"line {nan[0] + 2}: center or sigma is NaN")
    times, t_row = np.unique(rows["t"], return_inverse=True)
    agents, a_row = np.unique(rows["agent"], return_inverse=True)
    n = agents.size
    if agents[0] != 0 or agents[-1] != n - 1:
        raise ValueError("agent ids must be contiguous from 0")
    cell = t_row * n + a_row
    counts = np.bincount(cell, minlength=times.size * n)
    if not counts.all():
        raise ValueError("trajectory file is missing some (t, agent) rows")
    if counts.size != rows.size:
        raise ValueError("trajectory file repeats some (t, agent) rows")
    centers = np.empty(counts.size)
    sigmas = np.empty(counts.size)
    centers[cell] = row_centers
    sigmas[cell] = row_sigmas
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
    return {
        "name": name,
        "expected": expected,
        "actual": actual,
        "tolerance": tolerance,
        "pass": bool(abs(actual - expected) <= tolerance),
    }


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
    consensus = None
    checks: list[dict] = []
    clusters = None
    target_steps = None
    if config.kind == "blfg":
        consensus, checks = _group_tracking_checks(
            run.record, config.leader, config.scheme, config.b, tol
        )
        target_steps = steps_to_target(run.record, config.leader)
    elif config.kind == "topdown":
        spec = HierarchySpec(config.group_sizes, config.leader)
        top_slice = spec.group_slice(spec.n_levels, 0)
        top = run.record.select_agents(np.arange(top_slice.start, top_slice.stop))
        consensus, checks = _group_tracking_checks(
            top, config.leader, config.scheme, config.b, tol
        )
        checks = [
            {**c, "name": f"top_group_{c['name']}"} for c in checks
        ]
        final = run.record.sigmas[-1]
        spread = max(float(np.ptp(final[agents], axis=1).max()) for agents, _ in spec._blocks)
        checks.append(_check("max_group_sigma_spread_final", 0.0, spread, 1e-9))
        target_steps = steps_to_target(run.record, config.leader)
    elif config.kind == "bottomup":
        clusters = [_cluster_dict(r) for r in phase_summary(run.record, gap)]
    else:  # bcfon
        clusters = [_cluster_dict(_cluster_report(run.record, -1, gap))]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": config.echo(),
        "seed": run.seed,
        "consensus": consensus,
        "predictor_checks": checks,
        "clusters": clusters,
        "steps_to_target": target_steps,
    }
    return summary


def write_summary_json(summary: dict, path):
    """Write the summary; the file appears at path only once it is complete."""
    text = json.dumps(summary, indent=2) + "\n"
    with _replacing(path) as fh:
        fh.write(text)
