"""End-to-end acceptance checks.

One test per numbered criterion.  Each prints a single
"[acceptance] criterion NN PASS/FAIL: ..." line and asserts the same
condition, so the verdict survives both -v listings and captured output.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hfon import cli
from hfon.engine import LocalReference, LeaderReference, run_bcfon, steps_to_target
from hfon.hierarchy import HierarchySpec, run_td
from hfon.leader import (
    BlfgConfig,
    convergence_conditions,
    detect_consensus_time,
    leader_weight_matrix,
    predict_sigma_limit,
    run_blfg,
    steps_to_error_fraction,
)
from hfon.opinions import NetworkState, distinct_rows
from hfon.phases import Phase, PhaseSchedule, phase_summary, run_bu
from hfon.scenarios import (
    InitialSpec,
    ScenarioConfig,
    builtin_scenarios,
    execute_scenario,
    ramp_initials,
)

LEADER_VALUE = 10.0

# step budgets: enough room for the longest windows each size is used in
# (49 ratio pairs past consensus, 40*(n+1) sigma-limit steps, the eps=0.01
# error-decay horizon for n=50, and the full example1 length for n=156)
FLAT_STEPS = {1: 120, 5: 400, 12: 700, 50: 500, 156: 1500}
FLAT_NS = {"local": (1, 5, 12, 50, 156), "leader": (1, 5, 12, 156)}

RATIO_NS = (1, 5, 12, 156)


def _flat_config(n: int, scheme: str) -> ScenarioConfig:
    # example1 at alternative group sizes; n=156 is example1 itself
    return ScenarioConfig(
        name=f"flat-{n}-{scheme}",
        kind="blfg",
        n=n,
        steps=FLAT_STEPS[n],
        d=0.6,
        b=0.01,
        scheme=scheme,
        leader=LEADER_VALUE,
        initial=InitialSpec(centers="ramp", low=5.0, high=25.0, sigma=1.0),
    )


@pytest.fixture(scope="module")
def flat_runs():
    return {
        (n, scheme): execute_scenario(_flat_config(n, scheme))
        for scheme, sizes in FLAT_NS.items()
        for n in sizes
    }


@pytest.fixture(scope="module")
def td_runs():
    builtins = builtin_scenarios()
    runs = {}
    for scheme in ("local", "leader"):
        runs[("3level", scheme)] = execute_scenario(builtins[f"example2-3level-{scheme}"])
        # the deep-tree checks need the full 5000-step horizon
        long = dataclasses.replace(builtins[f"example2-4level-{scheme}"], steps=5000)
        runs[("4level", scheme)] = execute_scenario(long)
    return runs


@pytest.fixture(scope="module")
def phased_run():
    return execute_scenario(builtin_scenarios()["example3"])


def _verdict(num: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _consensus_row(record) -> int:
    report = detect_consensus_time(record)
    assert report is not None, "no consensus detected"
    return record.index_of(report.t_consensus)


def test_criterion_01_post_consensus_gap_ratio(flat_runs):
    # The ratio law is checked over a window of 50 consecutive states, i.e.
    # 49 adjacent-step ratios, anchored at the first bitwise-identical row.
    # For n=1 the gap halves exactly in binary until the 50th state, where
    # the shrinking offset quantizes against the fixed leader value; a wider
    # window would measure float64 granularity, not the dynamics.
    worst = 0.0
    for scheme in ("local", "leader"):
        for n in RATIO_NS:
            record = flat_runs[(n, scheme)].record
            row = _consensus_row(record)
            exact = detect_consensus_time(record, 0.0)
            assert exact is not None, (n, scheme)
            start = record.index_of(exact.t_consensus)
            assert start <= row + 1, (n, scheme)
            assert start + 49 < record.n_samples, (n, scheme)
            gaps = record.centers[start : start + 50, :] - LEADER_VALUE
            assert np.all(gaps[:-1] != 0.0), (n, scheme)
            ratios = gaps[1:] / gaps[:-1]
            q = n / (n + 1)
            worst = max(worst, float(np.abs(ratios - q).max()) / q)
    _verdict(1, worst <= 1e-9, f"max relative ratio error {worst:.3e} (tol 1e-9)")


def test_criterion_02_sigma_frozen_after_consensus(flat_runs):
    worst = 0.0
    for n in RATIO_NS:
        record = flat_runs[(n, "local")].record
        row = _consensus_row(record)
        tail = record.sigmas[row + 1 :]
        assert tail.shape[0] >= 2, n
        worst = max(worst, float(np.abs(tail - tail[0]).max()))
    _verdict(2, worst <= 1e-12, f"max sigma drift after consensus {worst:.3e} (tol 1e-12)")


def test_criterion_03_sigma_limit_under_leader_reference(flat_runs):
    worst = 0.0
    for n in (1, 5, 12):
        record = flat_runs[(n, "leader")].record
        row = _consensus_row(record)
        horizon = 40 * (n + 1)
        assert row + 1 + horizon < record.n_samples, n
        sigma1 = float(record.sigmas[row + 1, 0])
        center1 = float(record.centers[row + 1, 0])
        limit = predict_sigma_limit(sigma1, center1, LEADER_VALUE, n, 0.01)
        actual = float(record.sigmas[row + 1 + horizon, 0])
        worst = max(worst, abs(actual - limit))
    _verdict(3, worst < 1e-6, f"max |sigma - limit| after 40(n+1) steps {worst:.3e} (tol 1e-6)")


def test_criterion_04_error_decay_step_counts(flat_runs):
    worst_dev = 0
    for n in (5, 12, 50):
        record = flat_runs[(n, "local")].record
        row = _consensus_row(record)
        gaps = np.abs(record.centers[row + 1 :, 0] - LEADER_VALUE)
        for eps in (0.1, 0.01):
            hits = np.nonzero(gaps <= eps * gaps[0])[0]
            assert hits.size, (n, eps)
            measured = int(hits[0])
            predicted = round(steps_to_error_fraction(n, eps))
            worst_dev = max(worst_dev, abs(measured - predicted))
    formula = steps_to_error_fraction(156, 0.01)
    ok = worst_dev <= 1 and abs(formula - 720.7) <= 0.1
    _verdict(4, ok, f"max |measured - round(formula)| = {worst_dev} steps; "
                    f"formula(156, 0.01) = {formula:.4f}")


def test_criterion_05_hierarchy_speedup(flat_runs, td_runs):
    ok = True
    details = []
    for scheme in ("local", "leader"):
        t_flat = steps_to_target(flat_runs[(156, scheme)].record, LEADER_VALUE)
        t_three = steps_to_target(td_runs[("3level", scheme)].record, LEADER_VALUE)
        t_four = steps_to_target(td_runs[("4level", scheme)].record, LEADER_VALUE)
        assert None not in (t_flat, t_three, t_four), scheme
        ratio = t_flat / t_four
        ok = ok and t_flat > t_three > t_four and 5.0 <= ratio <= 20.0
        details.append(f"{scheme}: flat={t_flat} 3level={t_three} 4level={t_four} "
                       f"ratio={ratio:.2f}")
    _verdict(5, ok, "; ".join(details))


def test_criterion_06_deep_tree_consensus_profile(td_runs):
    ok = True
    details = []
    for scheme in ("local", "leader"):
        run = td_runs[("4level", scheme)]
        spec = HierarchySpec(run.config.group_sizes, run.config.leader)
        record = run.record
        center_err = float(np.abs(record.centers[-1] - LEADER_VALUE).max())
        spreads = []
        means = []
        for level, group in spec.groups():
            block = record.sigmas[-1, spec.group_slice(level, group)]
            spreads.append(float(block.max() - block.min()))
            means.append(float(block.mean()))
        spread = max(spreads)
        mean_gap = max(means) - min(means)
        ok = ok and center_err < 1e-3 and spread < 1e-9 and mean_gap > 1e-6
        details.append(f"{scheme}: center err {center_err:.2e}, group sigma spread "
                       f"{spread:.2e}, mean-sigma gap {mean_gap:.2e}")
    _verdict(6, ok, "; ".join(details))


def test_criterion_07_stacked_weight_matrix_conditions(flat_runs, td_runs):
    # the paper's conditions on every per-step (n+1) x (n+1) matrix of every run
    # used above, through the library's block forms: recorded rows are stacked
    # as (rows, G, k) blocks, G = 1 for a flat group and one block per tree level
    checked = 0
    worst_row_err = 0.0
    min_diag = np.inf
    min_scaled_entry = np.inf  # minimum positive entry times (n + 2)
    entries_ok = share_leader = True

    def check(record, d, layout):
        nonlocal checked, worst_row_err, min_diag, min_scaled_entry, entries_ok, share_leader
        for sl, (g, k) in layout:
            centers = record.centers[:, sl].reshape(-1, g, k)
            sigmas = record.sigmas[:, sl].reshape(-1, g, k)
            rows = max(1, 2**18 // (g * (k + 1) ** 2))  # rows per call: at most ~2 MB per matrix stack
            for start in range(0, centers.shape[0], rows):
                block = np.s_[start:start + rows]
                report = convergence_conditions(leader_weight_matrix(centers[block], sigmas[block], d))
                worst_row_err = max(worst_row_err, report.row_sum_error)
                min_diag = min(min_diag, report.min_diagonal)
                min_scaled_entry = min(min_scaled_entry, report.min_positive_entry * (k + 2))
                entries_ok = entries_ok and report.entries_above_bound
                share_leader = share_leader and report.closures_share_leader
                checked += centers[block].shape[0] * g

    for run in flat_runs.values():
        check(run.record, run.config.d, [(slice(None), (1, run.config.n))])
    for run in td_runs.values():
        spec = HierarchySpec(run.config.group_sizes, run.config.leader)
        layout = []
        for level in range(1, spec.n_levels + 1):
            start = spec.level_offset(level)
            layout.append((slice(start, start + spec.level_count(level)),
                           (spec.n_groups(level), spec.group_sizes[level - 1])))
        check(run.record, run.config.d, layout)

    ok = (worst_row_err <= 1e-12
          and min_diag > 0.0
          and entries_ok
          and share_leader)
    _verdict(7, ok, f"{checked} matrices: max row-sum error {worst_row_err:.2e}, "
                    f"min diagonal {min_diag:.3e}, min positive entry x (n+2) = "
                    f"{min_scaled_entry:.12f}, every closure holds the leader: {share_leader}")


def test_criterion_08_phased_run_fixed_seed_profile(phased_run):
    record = phased_run.record
    # 0.25 sits below the smallest adjacent cluster spacing at every phase
    # end for this seed, so the count is the true number of opinion clusters
    reports = phase_summary(record, gap=0.25)
    counts = [r.cluster_count for r in reports]
    ok = counts == [30, 17, 9, 5, 2]
    ok = ok and all(a >= b for a, b in zip(counts, counts[1:]))
    # the default display gap (5% of initial range) chains the sparse early
    # clusters; its counts are kept only as a frozen regression profile
    default_counts = [r.cluster_count for r in phase_summary(record)]
    ok = ok and default_counts == [4, 11, 9, 5, 2]
    distinct = np.array([
        distinct_rows(np.stack([c, s], axis=1))[0].size for c, s in zip(record.centers, record.sigmas)
    ])
    ok = ok and bool(np.all(np.diff(distinct) <= 0))
    mean_first = reports[0].mean_sigma
    mean_last = reports[-1].mean_sigma
    ok = ok and mean_last > mean_first
    ok = ok and np.isclose(mean_first, 0.6260442808983978, rtol=1e-12, atol=0.0)
    ok = ok and np.isclose(mean_last, 2.320920406681393, rtol=1e-12, atol=0.0)
    _verdict(8, ok, f"clusters {counts} (display-gap {default_counts}), distinct states "
                    f"{distinct[::40].tolist()}, mean sigma {mean_first:.4f} -> {mean_last:.4f}")


def test_criterion_09_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["run", "example3", "--out", str(out_a)]) == 0
    assert cli.main(["run", "example3", "--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("example3.trajectory.csv", "example3.summary.json")
    )
    _verdict(9, same, "repeated seeded runs wrote byte-identical trajectory and summary")


def test_criterion_10_reduction_laws():
    ok = True
    details = []
    centers = ramp_initials(12)
    sigmas = np.full(12, 1.0)
    for name, scheme in (("local", LocalReference()), ("leader", LeaderReference())):
        flat = run_blfg(
            NetworkState(centers, sigmas, 0.6, 0.01),
            BlfgConfig(n=12, d=0.6, b=0.01, scheme=scheme, leader=LEADER_VALUE),
            200,
        )
        tree = run_td(
            HierarchySpec((12,), LEADER_VALUE), NetworkState(centers, sigmas, 0.6, 0.01), 200, scheme
        )
        same = (np.array_equal(flat.centers, tree.centers)
                and np.array_equal(flat.sigmas, tree.sigmas))
        ok = ok and same
        details.append(f"2-level tree == group run ({name}): {'exact' if same else 'DIFFERS'}")

    c0, s0 = InitialSpec("uniform", 5.0, 25.0, "uniform").build(50, 3)
    base = NetworkState(c0, s0, 0.5, 0.3)
    flat = run_bcfon(base, 60, LocalReference())
    phased = run_bu(base, PhaseSchedule(phases=(Phase(d=0.5, steps=60),), b=0.3))
    same = (np.array_equal(flat.centers, phased.centers)
            and np.array_equal(flat.sigmas, phased.sigmas))
    ok = ok and same
    details.append(f"single-phase schedule == flat run: {'exact' if same else 'DIFFERS'}")
    _verdict(10, ok, "; ".join(details))
