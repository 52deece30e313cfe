"""End-to-end acceptance checks.

One test per numbered criterion.  Each prints a single
"[acceptance] criterion NN PASS/FAIL: ..." line and asserts the same
condition, so the verdict survives both -v listings and captured output.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfon import cli
from hfon.engine import ExternalReference, LocalReference, LeaderReference, run_bcfon, steps_to_target
from hfon.hierarchy import HierarchySpec, run_td
from hfon.leader import (
    convergence_conditions,
    detect_consensus_time,
    leader_weight_matrix,
    predict_sigma_limit,
    run_blfg,
    steps_to_error_fraction,
)
from hfon.opinions import NetworkState, distinct_rows
from hfon.output import read_trajectory_csv
from hfon.phases import Phase, phase_summary, run_bu
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
        record = run.record
        center_err = float(np.abs(record.centers[-1] - LEADER_VALUE).max())
        spreads = []
        means = []
        for level, group in sorted(set(zip(record.levels.tolist(), record.groups.tolist()))):
            block = record.sigmas[-1, (record.levels == level) & (record.groups == group)]
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
        check(run.record, run.config.d, HierarchySpec(run.config.group_sizes)._levels)

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
        flat = run_blfg(NetworkState(centers, sigmas, 0.6, 0.01), 200, scheme, LEADER_VALUE)
        tree = run_td(
            HierarchySpec((12,)), NetworkState(centers, sigmas, 0.6, 0.01), 200, scheme, LEADER_VALUE
        )
        same = (np.array_equal(flat.centers, tree.centers)
                and np.array_equal(flat.sigmas, tree.sigmas))
        ok = ok and same
        details.append(f"2-level tree == group run ({name}): {'exact' if same else 'DIFFERS'}")

    c0, s0 = InitialSpec("uniform", 5.0, 25.0, "uniform").build(50, 3)
    base = NetworkState(c0, s0, 0.5, 0.3)
    flat = run_bcfon(base, 60, LocalReference())
    phased = run_bu(base, (Phase(d=0.5, steps=60),))
    same = (np.array_equal(flat.centers, phased.centers)
            and np.array_equal(flat.sigmas, phased.sigmas))
    ok = ok and same
    details.append(f"single-phase schedule == flat run: {'exact' if same else 'DIFFERS'}")
    _verdict(10, ok, "; ".join(details))


_TREE_SHAPES = ((3, 2), (2, 2, 2), (2, 3), (4,))


def _scaled_run(engine: str, params: dict, a: float):
    """One engine's record from params with every center, sigma and leader scaled by a."""
    centers, sigmas = params["centers"] * a, params["sigmas"] * abs(a)
    d, b, leader, steps = params["d"], params["b"], params["leader"] * a, params["steps"]
    state = NetworkState(centers, sigmas, d, b)
    if engine == "bcfon":
        signal = params["signal"]
        scheme = (LocalReference() if signal is None
                  else ExternalReference(lambda t, i: a * (signal[i] + t % 3)))
        return run_bcfon(state, steps, scheme)
    if engine == "bu":
        return run_bu(state, params["phases"])
    scheme = LocalReference() if params["local"] else LeaderReference()
    if engine == "blfg":
        # a moving leader steps once, at t = 10
        lead = (lambda t: a * (params["leader"] + (t >= 10))) if params["moving"] else leader
        return run_blfg(state, steps, scheme, lead)
    return run_td(HierarchySpec(params["shape"]), state, steps, scheme, leader)


@st.composite
def _symmetry_cases(draw):
    """An engine, its random inputs and a scale a = +-2^j, j in [-20, 20]."""
    engine = draw(st.sampled_from(["bcfon", "bu", "blfg", "td"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(_TREE_SHAPES))
    n = HierarchySpec(shape).n_agents if engine == "td" else draw(st.integers(1, 16))
    # small pools, so agents tie, merge and reach fixed points; zero sigmas are crisp
    pool = rng.integers(0, max(1, n // 2), n)
    group_d = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    params = {
        "centers": rng.uniform(-50.0, 50.0, n)[pool],
        "sigmas": rng.choice([0.0, 0.5, 2.0, rng.uniform(0.0, 5.0)], n)[pool],
        "d": draw(st.sampled_from([0.0, 0.5, 1.0])) if engine in ("bcfon", "bu") else group_d,
        "b": draw(st.sampled_from([0.01, 0.3, 1.5])),
        "leader": rng.uniform(-50.0, 50.0),
        "steps": draw(st.integers(0, 40)),
        "signal": draw(st.sampled_from([None, rng.uniform(-50.0, 50.0, n)])),
        "phases": tuple(Phase(draw(st.sampled_from([0.0, 0.4, 0.8, 1.0])), draw(st.integers(0, 15)))
                        for _ in range(draw(st.integers(1, 3)))),
        "local": draw(st.booleans()),
        "moving": draw(st.booleans()),
        "shape": shape,
    }
    a = draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(st.integers(-20, 20))
    return engine, params, a


def _check_power_of_two_symmetry() -> int:
    """Criterion 11's property over random engines and inputs; returns the number of cases run."""
    cases = []

    # a power-of-two scale is exact, keeps every closeness ratio and neighbour set, and
    # rounding is symmetric in sign, so each trajectory scales exactly; signed zeros compare
    # by value, since x - x is +0.0 under either sign
    @given(case=_symmetry_cases())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(case):
        engine, params, a = case
        base = _scaled_run(engine, params, 1.0)
        scaled = _scaled_run(engine, params, a)
        assert np.array_equal(scaled.centers, base.centers * a), f"{engine} centers at scale {a!r}"
        assert np.array_equal(scaled.sigmas, base.sigmas * abs(a)), f"{engine} sigmas at scale {a!r}"
        cases.append(engine)

    check()
    return len(cases)


_SCALED_DOCS = {
    "group": {"kind": "blfg", "n": 12, "steps": 300, "d": 0.6, "scheme": "leader", "leader": 10.0},
    "tree": {"kind": "topdown", "group_sizes": [3, 3], "steps": 300, "d": 0.6, "scheme": "local",
             "leader": 10.0},
    "flat": {"kind": "bcfon", "n": 40, "steps": 100, "d": 0.5, "seed": 5},
    "phased": {"kind": "bottomup", "n": 30, "phases": [{"d": 0.9, "steps": 20}, {"d": 0.3, "steps": 40}]},
}


def test_criterion_11_power_of_two_symmetry(tmp_path):
    # every engine's trajectory from inputs scaled by a = +-2^j is the scaled trajectory;
    # end to end, a document with doubled leader, low, high and sigma writes a doubled CSV
    cases = _check_power_of_two_symmetry()
    details = []
    ok = True
    for name, doc in _SCALED_DOCS.items():
        records = []
        for scale in (1.0, 2.0):
            centers = "uniform" if "seed" in doc else "ramp"
            scaled = {"schema_version": 1, "name": name, "b": 0.3, **doc,
                      "initial": {"centers": centers, "low": 5.0 * scale, "high": 25.0 * scale,
                                  "sigma": 1.0 * scale}}
            if "leader" in doc:
                scaled["leader"] = doc["leader"] * scale
            path = tmp_path / f"{name}-{scale}.json"
            path.write_text(json.dumps(scaled), encoding="utf-8")
            out = tmp_path / f"out-{scale}"
            assert cli.main(["run", str(path), "--out", str(out)]) == 0
            records.append(read_trajectory_csv(out / f"{name}.trajectory.csv"))
        base, doubled = records
        same = (np.array_equal(doubled.centers, 2.0 * base.centers)
                and np.array_equal(doubled.sigmas, 2.0 * base.sigmas))
        ok = ok and same
        details.append(f"{name} {'exact' if same else 'DIFFERS'}")
    _verdict(11, ok, f"{cases} random cases over 4 engines scaled exactly; doubled documents: "
                     + ", ".join(details))
