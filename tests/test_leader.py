"""Leader-follower groups: stepping, consensus detection, closed-form tracking, weight matrix.

Recursion-derived literals were produced by an independent per-agent reference
loop before this module existed; closed forms must agree with them to 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfon import (
    ConfigurationError,
    ExternalReference,
    LeaderReference,
    LocalReference,
    NetworkState,
    TrajectoryRecord,
    detect_consensus_time,
    leader_weight_matrix,
    convergence_conditions,
    predict_center,
    predict_sigma_leader_ref,
    predict_sigma_limit,
    run_blfg,
    steps_to_error_fraction,
)
from hfon.leader import step_blfg
from reference import group_step


def make_record(times, centers, sigmas=None):
    centers = np.asarray(centers, dtype=np.float64)
    if sigmas is None:
        sigmas = np.zeros_like(centers)
    return TrajectoryRecord(
        times=np.asarray(times), centers=centers, sigmas=np.asarray(sigmas, dtype=np.float64)
    )


def step(state, leader, scheme):
    """step_blfg over a state's arrays: new (centers, sigmas)."""
    return step_blfg(state.centers, state.sigmas, state.d, state.b, leader, scheme)


class TestStepBlfg:
    def test_two_isolated_followers(self):
        # mutual closeness exp(-100) is far below d, so each averages with the leader alone
        state = NetworkState([0.0, 20.0], [1.0, 1.0], 0.6, 0.01)
        centers, sigmas = step(state, 10.0, LeaderReference())
        assert centers.tolist() == [5.0, 15.0]
        assert sigmas.tolist() == [1.1, 1.1]

    def test_three_followers_both_schemes(self):
        state = NetworkState([5.0, 10.0, 25.0], [1.0, 1.0, 1.0], 0.6, 0.01)
        centers, sigmas = step(state, 10.0, LocalReference())
        assert centers.tolist() == [7.5, 10.0, 17.5]
        assert sigmas.tolist() == [1.0, 1.0, 1.0]
        centers, sigmas = step(state, 10.0, LeaderReference())
        assert centers.tolist() == [7.5, 10.0, 17.5]
        assert sigmas.tolist() == [1.05, 1.0, 1.15]

    def test_five_follower_ramp(self):
        state = NetworkState([5.0, 10.0, 15.0, 20.0, 25.0], [1.0] * 5, 0.6, 0.01)
        centers, sigmas = step(state, 10.0, LeaderReference())
        assert centers.tolist() == [7.5, 10.0, 12.5, 15.0, 17.5]
        assert sigmas.tolist() == [1.05, 1.0, 1.05, 1.1, 1.15]

    def test_external_scheme_rejected(self):
        state = NetworkState([0.0], [1.0], 0.5, 0.5)
        for steps in (0, 3):
            with pytest.raises(ConfigurationError, match="only the local or leader reference scheme"):
                run_blfg(state, steps, ExternalReference(lambda t, i: 0.0), 10.0)

    def test_threshold_one_rejected(self):
        # checked once, at run entry, even when nothing is stepped, as in run_td
        state = NetworkState([0.0, 0.0], [1.0, 1.0], [0.5, 1.0], 0.5)
        for steps in (0, 3):
            with pytest.raises(ConfigurationError, match=r"thresholds d must lie in \[0, 1\) inside a group"):
                run_blfg(state, steps, LocalReference(), 10.0)

    @given(
        n=st.integers(1, 7),
        seed=st.integers(0, 2**32),
        d=st.floats(0.0, 0.99),
        leader=st.floats(-20, 20),
        local=st.booleans(),
    )
    @settings(max_examples=60)
    def test_matches_reference_stepper(self, n, seed, d, leader, local):
        rng = np.random.default_rng(seed)
        state = NetworkState(rng.uniform(-5, 5, n), rng.uniform(0.1, 2.0, n), d, 0.3)
        centers, sigmas = step(state, leader, LocalReference() if local else LeaderReference())
        ref_c, ref_s = group_step(state.centers, state.sigmas, state.d, state.b, leader, local)
        assert centers.tobytes() == ref_c.tobytes()
        assert sigmas.tobytes() == ref_s.tobytes()


class TestRun:
    def test_non_finite_constant_leader_rejected(self):
        state = NetworkState([0.0], [1.0], 0.5, 0.1)
        for leader in (float("inf"), float("nan")):
            for steps in (0, 3):
                with pytest.raises(ConfigurationError, match=f"^leader center must be finite, got {leader!r}$"):
                    run_blfg(state, steps, LocalReference(), leader)

    def test_moving_leader_checked_at_every_step(self):
        state = NetworkState([0.0], [1.0], 0.5, 0.1)

        def leader(t):
            return 10.0 if t < 2 else float("nan")

        assert run_blfg(state, 2, LocalReference(), leader).n_samples == 3
        with pytest.raises(ConfigurationError, match=r"^leader center at t=2 must be finite, got nan$"):
            run_blfg(state, 3, LocalReference(), leader)

    def test_state_d_and_b_are_stepped(self):
        # per-follower (d, b) come from the state alone
        wide = run_blfg(NetworkState([0.0, 1.0, 5.0], [1.0] * 3, 0.9, 0.5), 2, LocalReference(), 10.0)
        assert wide.sigmas[-1].tolist() == [1.125, 1.125, 1.0]
        narrow = run_blfg(NetworkState([0.0, 1.0, 5.0], [1.0] * 3, 0.1, 0.01), 2, LocalReference(), 10.0)
        assert narrow.sigmas[-1].tolist() == [1.005, 1.005, 1.0]

    def test_moving_leader(self):
        # far-apart followers never hear each other, so every row is hand-checkable
        state = NetworkState([0.0, 100.0], [1.0, 1.0], 0.99, 0.5)
        record = run_blfg(state, 2, LeaderReference(), lambda t: 10.0 + t)
        assert record.centers[1].tolist() == [5.0, 55.0]
        assert record.sigmas[1].tolist() == [6.0, 46.0]
        assert record.centers[2].tolist() == [8.0, 33.0]
        assert record.sigmas[2].tolist() == [9.0, 68.0]


class TestConsensusDetection:
    def test_reports_persistent_agreement(self):
        record = make_record(
            [0, 1, 2, 3], [[0.0, 2.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        )
        report = detect_consensus_time(record)
        assert report.t_consensus == 1
        assert report.center == 1.0
        assert report.sigma == 0.0

    def test_ignores_transient_agreement(self):
        record = make_record([0, 1, 2], [[1.0, 1.0], [0.0, 2.0], [1.0, 1.0]])
        report = detect_consensus_time(record)
        assert report.t_consensus == 2

    def test_none_without_agreement(self):
        record = make_record([0, 1], [[0.0, 2.0], [0.0, 2.0]])
        assert detect_consensus_time(record) is None

    def test_single_agent_agrees_immediately(self):
        record = make_record([0, 1], [[5.0], [7.0]])
        assert detect_consensus_time(record).t_consensus == 0

    def test_tol_is_inclusive(self):
        record = make_record([0, 1], [[0.0, 4.0], [0.0, 1.0]])
        assert detect_consensus_time(record, tol=1.0).t_consensus == 1
        assert detect_consensus_time(record, tol=0.999) is None
        with pytest.raises(ValueError):
            detect_consensus_time(record, tol=-1.0)

    def test_sigma_spread_also_required(self):
        record = make_record(
            [0, 1], [[1.0, 1.0], [1.0, 1.0]], sigmas=[[0.0, 5.0], [0.0, 5.0]]
        )
        assert detect_consensus_time(record) is None

    def test_symmetric_pair_run(self):
        # two followers mirror-placed around the leader meet it exactly
        state = NetworkState([5.0, 15.0], [1.0, 1.0], 0.9999, 0.01)
        record = run_blfg(state, 12, LocalReference(), 10.0)
        report = detect_consensus_time(record)
        assert report.t_consensus == 10
        assert report.center == 10.0
        assert report.sigma == 1.00009765625
        # local scheme: sigma frozen once consensus is exact
        assert record.sigmas[12].tolist() == [1.00009765625, 1.00009765625]


class TestClosedForms:
    def test_center_prediction(self):
        assert predict_center(12.0, 10.0, 1, 3) == 10.25
        assert predict_center(12.0, 10.0, 5, 0) == 12.0

    def test_against_recursion_oracles(self):
        # (n, leader, start center, start sigma, b, steps) -> recursion values
        cases = [
            (1, 10.0, 12.0, 3.0, 0.1, 4, 10.125, 3.375, 3.4),
            (5, 2.0, -1.0, 0.5, 0.25, 7, 1.1627550582990398, 3.7441325874485596, 5.0),
            (12, 10.0, 15.0, 1.0, 0.01, 30, 10.453008985673495, 1.5911088318624445, 1.65),
        ]
        for n, xa, x0, s0, b, k, x_k, s_k, limit in cases:
            assert math.isclose(predict_center(x0, xa, n, k), x_k, rel_tol=1e-12)
            assert math.isclose(
                predict_sigma_leader_ref(s0, x0, xa, n, b, k), s_k, rel_tol=1e-12
            )
            assert predict_sigma_limit(s0, x0, xa, n, b) == limit

    def test_sigma_prediction_at_zero_offset(self):
        assert predict_sigma_leader_ref(2.0, 5.0, 10.0, 3, 0.1, 0) == 2.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            predict_center(1.0, 0.0, 0, 1)
        with pytest.raises(ValueError):
            predict_center(1.0, 0.0, 1, -1)
        with pytest.raises(ValueError):
            predict_sigma_leader_ref(1.0, 1.0, 0.0, 1.5, 0.1, 1)

    def test_predictors_refuse_n_where_the_decay_rounds_to_1(self):
        # n / (n + 1) rounds to 1.0 from 2**54 on: the gap would never shrink
        predict_sigma_leader_ref(1.0, 1.0, 2.0, 2**53, 1.0, 5)  # the largest power of two still taken
        for n in (2**54, 10**20):
            for predict in (
                lambda: predict_center(1.0, 2.0, n, 5),
                lambda: predict_sigma_leader_ref(1.0, 1.0, 2.0, n, 1.0, 5),
                lambda: predict_sigma_limit(1.0, 1.0, 2.0, n, 1.0),
            ):
                with pytest.raises(ValueError, match=rf"^n = {n} is too large: n / \(n \+ 1\) rounds to 1$"):
                    predict()

    def test_steps_to_error_fraction_values(self):
        expected = {
            (1, 0.5): 1.0,
            (1, 0.01): 6.643856189774724,
            (5, 0.1): 12.62925313651333,
            (5, 0.01): 25.25850627302666,
            (12, 0.01): 57.533913080137424,
            (50, 0.01): 232.55349490299704,
            (156, 0.01): 720.7066819332092,
            (156, 0.1): 360.3533409666046,
        }
        for (n, eps), value in expected.items():
            assert steps_to_error_fraction(n, eps) == value

    def test_steps_to_error_fraction_domain(self):
        for bad_eps in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                steps_to_error_fraction(5, bad_eps)
        with pytest.raises(ValueError):
            steps_to_error_fraction(0, 0.5)
        with pytest.raises(ValueError):
            steps_to_error_fraction(2.0, 0.5)
        # log(n) - log(n + 1) rounds to 0 past about 2**53
        for n in (2**53, 10**20):
            with pytest.raises(ValueError, match=rf"n = {n} is too large"):
                steps_to_error_fraction(n, 0.1)


class TestWeightMatrix:
    def test_isolated_followers(self):
        state = NetworkState([5.0, 10.0, 25.0], [1.0] * 3, 0.6, 0.01)
        w = leader_weight_matrix(state.centers, state.sigmas, state.d)
        expected = np.array(
            [
                [0.5, 0.0, 0.0, 0.5],
                [0.0, 0.5, 0.0, 0.5],
                [0.0, 0.0, 0.5, 0.5],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.array_equal(w, expected)

    def test_fully_connected(self):
        state = NetworkState([1.0, 2.0, 3.0], [1.0] * 3, 0.0, 0.01)
        w = leader_weight_matrix(state.centers, state.sigmas, state.d)
        assert np.allclose(w[:3], 0.25)
        assert w[3].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_saturated_closure(self):
        # closures: 0 -> {0, 3}, 1 -> {1}, 2 -> {0, 2, 3} in two hops; only follower 1's misses the leader
        w = np.array(
            [
                [0.5, 0.0, 0.0, 0.5],
                [0.0, 1.0, 0.0, 0.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        report = convergence_conditions(w)
        assert report.row_stochastic and report.positive_diagonal and report.entries_above_bound
        assert not report.closures_share_leader
        assert not report.ok
        fixed = w.copy()
        fixed[1] = [0.0, 0.5, 0.0, 0.5]
        assert convergence_conditions(fixed).ok
        # one bad matrix in a stack fails the stack
        assert not convergence_conditions(np.stack([fixed, w, fixed])).closures_share_leader
        assert convergence_conditions(np.stack([fixed, fixed])).ok

    def test_convergence_conditions_pass(self):
        state = NetworkState([5.0, 10.0, 25.0], [1.0] * 3, 0.6, 0.01)
        report = convergence_conditions(leader_weight_matrix(state.centers, state.sigmas, state.d))
        assert report.ok
        assert report.row_sum_error == 0.0
        assert report.min_diagonal == 0.5
        assert report.min_positive_entry == 0.5
        assert report.positive_entry_bound == 1.0 / 5.0 * (1.0 - 1e-12)

    def test_convergence_conditions_fail_without_shared_leader(self):
        # a follower whose row never reaches the leader column
        report = convergence_conditions(np.eye(2))
        assert not report.closures_share_leader
        assert not report.ok

    def test_convergence_conditions_reject_bad_shape(self):
        with pytest.raises(ValueError):
            convergence_conditions(np.ones((2, 3)))
        with pytest.raises(ValueError):
            convergence_conditions(np.ones((1, 1)))
        with pytest.raises(ValueError):
            convergence_conditions(np.ones((0, 3, 3)))
        with pytest.raises(ValueError):
            convergence_conditions(np.ones(3))

    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32), d=st.floats(0.0, 0.99))
    @settings(max_examples=60)
    def test_conditions_hold_on_random_states(self, n, seed, d):
        rng = np.random.default_rng(seed)
        state = NetworkState(rng.uniform(-5, 5, n), rng.uniform(0.0, 2.0, n), d, 0.3)
        assert convergence_conditions(leader_weight_matrix(state.centers, state.sigmas, state.d)).ok


def saturated_closure(weights, i):
    """Reference: smallest saturated set containing i, grown one step of positive weights at a time."""
    support = weights > 0.0
    member = np.zeros(weights.shape[0], dtype=bool)
    member[i] = True
    while True:
        grown = member | support[member].any(axis=0)
        if (grown == member).all():
            return np.nonzero(member)[0]
        member = grown


class TestBlockForms:
    """The (G, k) and stacked forms equal their one-group calls."""

    @given(
        g=st.integers(1, 5),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32),
        d=st.sampled_from([0.0, math.exp(-1.0), np.nextafter(math.exp(-1.0), 1.0), 0.6, 1.0, "per-agent"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_weight_matrix_equals_separate_calls(self, g, k, seed, d):
        # integer centers and sigmas of 0.5 put many pairs at closeness exactly exp(-1); zero sigmas are crisp
        rng = np.random.default_rng(seed)
        centers = rng.integers(-2, 3, (g, k)).astype(np.float64)
        sigmas = rng.choice([0.0, 0.5, 1.0], (g, k), p=[0.2, 0.6, 0.2])
        if d == "per-agent":
            d = rng.choice([0.0, math.exp(-1.0), 0.9], (g, k))
        block = leader_weight_matrix(centers, sigmas, d)
        assert block.shape == (g, k + 1, k + 1)
        for i in range(g):
            single = leader_weight_matrix(centers[i], sigmas[i], d if np.ndim(d) == 0 else d[i])
            assert single.shape == (k + 1, k + 1)
            assert block[i].tobytes() == single.tobytes()

    @given(g=st.integers(1, 5), m=st.integers(2, 8), seed=st.integers(0, 2**32), density=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_stacked_conditions_are_the_worst_of_each(self, g, m, seed, density):
        rng = np.random.default_rng(seed)
        weights = rng.random((g, m, m)) * (rng.random((g, m, m)) < density)
        weights[rng.random((g, m, m)) < 0.05] *= -1.0
        stacked = convergence_conditions(weights)
        singles = [convergence_conditions(w) for w in weights]
        assert stacked.row_sum_error == max(r.row_sum_error for r in singles)
        assert stacked.min_diagonal == min(r.min_diagonal for r in singles)
        assert stacked.min_positive_entry == min(r.min_positive_entry for r in singles)
        assert stacked.closures_share_leader == all(r.closures_share_leader for r in singles)
        assert stacked.positive_entry_bound == singles[0].positive_entry_bound
        assert stacked.ok == all(r.ok for r in singles)

    @given(m=st.integers(2, 300), seed=st.integers(0, 2**32), chained=st.booleans(), degree=st.floats(0.0, 300.0))
    @example(m=300, seed=1, chained=True, degree=1.0)
    @example(m=300, seed=2, chained=False, degree=3.0)
    @example(m=257, seed=3, chained=False, degree=257.0)
    @settings(max_examples=40, deadline=None)
    def test_closures_share_leader_matches_saturated_closure(self, m, seed, chained, degree):
        # each entry is positive with probability degree / m: sparse supports give paths of
        # many hops, dense ones long rows; chained makes every follower reach the leader
        rng = np.random.default_rng(seed)
        weights = rng.random((m, m)) * (rng.random((m, m)) < degree / m)
        if chained:
            for i in range(m - 1):
                weights[i, rng.integers(i + 1, m)] = 0.5
        leader = m - 1
        expected = all(leader in saturated_closure(weights, i) for i in range(m))
        assert convergence_conditions(weights).closures_share_leader == expected

    def test_leader_reached_through_256_followers(self):
        # follower 256 reaches the leader only through followers 0..255, all found in the same
        # step: a count of reaching neighbors kept in 8 bits would wrap to zero here
        m = 258
        weights = np.zeros((m, m))
        weights[:256, m - 1] = 1.0
        weights[256, :256] = 1.0 / 256
        weights[m - 1, m - 1] = 1.0
        assert m - 1 in saturated_closure(weights, 256)
        assert convergence_conditions(weights).closures_share_leader
        weights[256, :256] = 0.0
        assert not convergence_conditions(weights).closures_share_leader
