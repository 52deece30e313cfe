"""Trajectory CSV and run-summary JSON emission, plus the analytics behind the summary.

The CSV is one row per (recorded step, agent) with floats printed at 17
significant digits so parsing the file back reproduces the exact doubles.
The summary JSON has a fixed key order and no timestamps, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .engine import TrajectoryRecord, _default_gap, detect_consensus_partition, steps_to_target
from .leader import (
    detect_consensus_time,
    predict_sigma_leader_ref,
    predict_sigma_limit,
    steps_to_error_fraction,
)
from .phases import phase_summary
from .scenarios import SCHEMA_VERSION, ScenarioRun

CSV_HEADER = ["t", "agent", "level", "group", "center", "sigma"]

# enough significant digits that parsing the text reproduces the exact double
_FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT_FORMAT % x


def write_trajectory_csv(record: TrajectoryRecord, path, stride: int = 1):
    """Write the record, keeping every stride-th step plus always the last one."""
    if not (isinstance(stride, int) and stride >= 1):
        raise ValueError("stride must be an integer >= 1")
    keep = list(range(0, record.n_samples, stride))
    if keep[-1] != record.n_samples - 1:
        keep.append(record.n_samples - 1)
    ids = range(record.n_agents)
    if record.levels is None:
        addresses = [f"{i},,," for i in ids]
    else:
        addresses = [f"{i},{int(lv)},{int(g)}," for i, lv, g in zip(ids, record.levels, record.groups)]
    row = f"%s%s{_FLOAT_FORMAT},{_FLOAT_FORMAT}\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for k in keep:
            t = f"{int(record.times[k])},"
            fh.writelines(
                row % (t, a, c, s)
                for a, c, s in zip(addresses, record.centers[k].tolist(), record.sigmas[k].tolist())
            )


def read_trajectory_csv(path) -> TrajectoryRecord:
    """Parse a trajectory CSV back into a record (phase annotations are not stored in CSV)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected trajectory header {header!r}")
        rows = list(reader)
    if not rows:
        raise ValueError("trajectory file has no data rows")
    if set(map(len, rows)) != {len(CSV_HEADER)}:
        line, r = next((k, r) for k, r in enumerate(rows, start=2) if len(r) != len(CSV_HEADER))
        raise ValueError(f"line {line}: expected {len(CSV_HEADER)} fields, got {len(r)}")
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


def first_exact_consensus_index(record: TrajectoryRecord, start: int = 0) -> int | None:
    """First row index >= start where all centers and all sigmas are exactly equal."""
    for k in range(start, record.n_samples):
        if (record.centers[k] == record.centers[k, 0]).all() and (
            record.sigmas[k] == record.sigmas[k, 0]
        ).all():
            return k
    return None


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
    k0 = record.index_of(report.t_consensus)
    exact = first_exact_consensus_index(record, k0)
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


def _final_cluster_report(record: TrajectoryRecord, gap: float | None) -> list[dict]:
    gap = _default_gap(record) if gap is None else gap
    clusters = detect_consensus_partition(record.centers[-1], gap)
    final_sigmas = record.sigmas[-1]
    return [
        {
            "phase": None,
            "d": None,
            "t_end": int(record.times[-1]),
            "count": len(clusters),
            "representatives": [float(record.centers[-1][ids].mean()) for ids in clusters],
            "sizes": [int(ids.size) for ids in clusters],
            "mean_sigma": float(final_sigmas.mean()),
            "max_sigma": float(final_sigmas.max()),
        }
    ]


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
        spec = run.td_state.spec
        top_slice = spec.group_slice(spec.n_levels, 0)
        top = run.record.select_agents(np.arange(top_slice.start, top_slice.stop))
        consensus, checks = _group_tracking_checks(
            top, config.leader, config.scheme, config.b, tol
        )
        checks = [
            {**c, "name": f"top_group_{c['name']}"} for c in checks
        ]
        final = run.record.sigmas[-1]
        spread = max(float(np.ptp(final[sl].reshape(shape), axis=1).max())
                     for sl, shape, _ in spec._levels)
        checks.append(_check("max_group_sigma_spread_final", 0.0, spread, 1e-9))
        target_steps = steps_to_target(run.record, config.leader)
    elif config.kind == "bottomup":
        clusters = [
            {
                "phase": r.phase,
                "d": r.d,
                "t_end": r.t_end,
                "count": r.cluster_count,
                "representatives": list(r.representatives),
                "sizes": list(r.cluster_sizes),
                "mean_sigma": r.mean_sigma,
                "max_sigma": r.max_sigma,
            }
            for r in phase_summary(run.record, gap)
        ]
    else:  # bcfon
        clusters = _final_cluster_report(run.record, gap)
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
    Path(path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


def format_prediction_lines(n: int, epsilon: float, center: float | None, sigma: float | None,
                            leader: float | None, b: float | None, t_offset: int) -> list[str]:
    """Text lines for the predict command; closed forms only, no simulation."""
    from .leader import predict_center  # local import keeps module load light

    lines = [f"steps_to_error_fraction(n={n}, epsilon={_fmt(epsilon)}): "
             f"{_fmt(steps_to_error_fraction(n, epsilon))}"]
    if center is not None and leader is not None:
        lines.append(
            f"predicted_center(t_offset={t_offset}): "
            f"{_fmt(predict_center(center, leader, n, t_offset))}"
        )
        if sigma is not None and b is not None:
            lines.append(
                f"predicted_sigma_leader_ref(t_offset={t_offset}): "
                f"{_fmt(predict_sigma_leader_ref(sigma, center, leader, n, b, t_offset))}"
            )
            lines.append(
                f"sigma_limit: {_fmt(predict_sigma_limit(sigma, center, leader, n, b))}"
            )
    return lines
