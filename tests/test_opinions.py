"""Opinion primitives: membership, closeness, neighbor sets, confidence weights.

Frozen numeric literals were computed with an independent pure-python
reference (math.exp, per-pair loops) before the package existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfon import (
    AddressError,
    AgentParams,
    FuzzyOpinion,
    NetworkState,
    closeness,
    closeness_matrix,
    confidence_weights,
    membership,
    neighbor_mask,
    neighbor_set,
)


def ref_closeness(c1, s1, c2, s2):
    # independent scalar reference
    ssum = s1 + s2
    if ssum == 0.0:
        return 1.0 if c1 == c2 else 0.0
    try:
        return math.exp(-(((c1 - c2) / ssum) ** 2))
    except OverflowError:  # squared ratio past float range; exp(-inf) = 0
        return 0.0


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_sigma = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


class TestMembership:
    def test_one_sigma_away(self):
        assert membership(FuzzyOpinion(0.0, 1.0), 1.0) == 0.36787944117144233

    def test_peak_at_center(self):
        assert membership(FuzzyOpinion(3.5, 0.25), 3.5) == 1.0

    def test_zero_sigma_is_indicator(self):
        crisp = FuzzyOpinion(2.0, 0.0)
        assert membership(crisp, 2.0) == 1.0
        assert membership(crisp, 2.0 + 1e-12) == 0.0

    def test_array_argument(self):
        out = membership(FuzzyOpinion(0.0, 2.0), np.array([0.0, 2.0, -2.0]))
        assert out.shape == (3,)
        assert out[0] == 1.0
        assert out[1] == out[2] == math.exp(-1.0)

    @given(center=_finite, sigma=_sigma, x=_finite)
    def test_bounded(self, center, sigma, x):
        value = membership(FuzzyOpinion(center, sigma), x)
        assert 0.0 <= value <= 1.0


class TestCloseness:
    def test_known_values(self):
        assert closeness(FuzzyOpinion(0, 2), FuzzyOpinion(2, 2)) == 0.7788007830714049
        assert closeness(FuzzyOpinion(0, 1), FuzzyOpinion(0.5, 1)) == 0.9394130628134758
        assert closeness(FuzzyOpinion(0, 1), FuzzyOpinion(10, 1)) == 1.3887943864964021e-11

    def test_equal_centers_give_one(self):
        assert closeness(FuzzyOpinion(7.0, 0.1), FuzzyOpinion(7.0, 30.0)) == 1.0

    def test_degenerate_pair(self):
        # zero combined uncertainty: indicator of equal centers
        assert closeness(FuzzyOpinion(1.0, 0.0), FuzzyOpinion(1.0, 0.0)) == 1.0
        assert closeness(FuzzyOpinion(1.0, 0.0), FuzzyOpinion(1.0 + 1e-9, 0.0)) == 0.0

    @given(c1=_finite, s1=_sigma, c2=_finite, s2=_sigma)
    def test_matches_reference_and_symmetric(self, c1, s1, c2, s2):
        a, b = FuzzyOpinion(c1, s1), FuzzyOpinion(c2, s2)
        value = closeness(a, b)
        # numpy's exp and libm's exp may disagree in the last ulp
        assert math.isclose(value, ref_closeness(c1, s1, c2, s2), rel_tol=1e-15, abs_tol=1e-307)
        assert value == closeness(b, a)
        assert 0.0 <= value <= 1.0

    @given(c1=_finite, s1=_sigma, c2=_finite, s2=_sigma)
    def test_strictly_below_one_when_centers_differ(self, c1, s1, c2, s2):
        # separation comparable to the shared width, so exp cannot round to 1
        if abs(c1 - c2) < 1e-3 * max(s1 + s2, 1e-300):
            return
        assert closeness(FuzzyOpinion(c1, s1), FuzzyOpinion(c2, s2)) < 1.0 or c1 == c2


class TestClosenessMatrix:
    def test_matches_pairwise(self):
        centers = np.array([0.0, 2.0, -1.5, 0.0])
        sigmas = np.array([2.0, 2.0, 0.5, 0.0])
        got = closeness_matrix(centers, sigmas)
        for i in range(4):
            for j in range(4):
                expected = ref_closeness(centers[i], sigmas[i], centers[j], sigmas[j])
                assert math.isclose(got[i, j], expected, rel_tol=1e-15, abs_tol=1e-307)

    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(7)
        centers = rng.uniform(-5, 5, 20)
        sigmas = rng.uniform(0, 2, 20)
        m = closeness_matrix(centers, sigmas)
        assert np.array_equal(np.diagonal(m), np.ones(20))
        assert np.array_equal(m, m.T)

    def test_blocks_over_last_axis(self):
        rng = np.random.default_rng(9)
        centers = rng.uniform(-5, 5, (3, 6))
        sigmas = rng.uniform(0, 2, (3, 6))
        sigmas[1, :2] = 0.0
        m = closeness_matrix(centers, sigmas)
        assert m.shape == (3, 6, 6)
        for g in range(3):
            assert np.array_equal(m[g], closeness_matrix(centers[g], sigmas[g]))

    def test_rows_against_columns(self):
        rng = np.random.default_rng(3)
        centers, sigmas = rng.uniform(-5, 5, 9), rng.uniform(0, 2, 9)
        sigmas[[2, 5]] = 0.0
        rows = np.array([5, 0, 2])
        m = closeness_matrix(centers[rows], sigmas[rows], centers, sigmas)
        assert m.tobytes() == closeness_matrix(centers, sigmas)[rows].tobytes()

    def test_all_zero_sigmas(self):
        m = closeness_matrix(np.array([1.0, 1.0, 2.0]), np.zeros(3))
        expected = np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]])
        assert np.array_equal(m, expected)


class TestNetworkState:
    def test_scalar_broadcast(self):
        state = NetworkState([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], 0.4, 0.1)
        assert state.n == 3
        assert np.array_equal(state.d, np.full(3, 0.4))
        assert np.array_equal(state.b, np.full(3, 0.1))

    def test_accessors(self):
        state = NetworkState([1.0, 2.0], [0.5, 0.25], [0.4, 0.6], [0.1, 0.2])
        assert state.opinion(1) == FuzzyOpinion(2.0, 0.25)
        assert state.params(0) == AgentParams(0.4, 0.1)

    def test_bad_agent_id(self):
        state = NetworkState([1.0], [0.5], 0.4, 0.1)
        with pytest.raises(AddressError):
            state.opinion(1)
        with pytest.raises(AddressError):
            state.params(-1)

    def test_from_opinions(self):
        state = NetworkState.from_opinions(
            [FuzzyOpinion(1, 2), FuzzyOpinion(3, 4)],
            [AgentParams(0.5, 1.0), AgentParams(0.25, 2.0)],
        )
        assert np.array_equal(state.centers, [1.0, 3.0])
        assert np.array_equal(state.sigmas, [2.0, 4.0])
        assert np.array_equal(state.d, [0.5, 0.25])
        with pytest.raises(ValueError):
            NetworkState.from_opinions([FuzzyOpinion(1, 2)], [])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(centers=[], sigmas=[], d=0.5, b=1.0),
            dict(centers=[1.0], sigmas=[-0.1], d=0.5, b=1.0),
            dict(centers=[1.0], sigmas=[1.0], d=1.5, b=1.0),
            dict(centers=[1.0], sigmas=[1.0], d=-0.1, b=1.0),
            dict(centers=[1.0], sigmas=[1.0], d=0.5, b=0.0),
            dict(centers=[1.0, 2.0], sigmas=[1.0], d=0.5, b=1.0),
            dict(centers=[np.nan], sigmas=[1.0], d=0.5, b=1.0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NetworkState(**kwargs)

    def test_validation_of_opinion_and_params(self):
        with pytest.raises(ValueError):
            FuzzyOpinion(np.inf, 1.0)
        with pytest.raises(ValueError):
            FuzzyOpinion(0.0, -1.0)
        with pytest.raises(ValueError):
            AgentParams(1.1, 1.0)
        with pytest.raises(ValueError):
            AgentParams(0.5, 0.0)


class TestNeighborhood:
    def test_threshold_is_inclusive(self):
        # closeness of the pair is exactly exp(-1)
        centers = np.array([0.0, 2.0])
        sigmas = np.array([1.0, 1.0])
        at = neighbor_mask(centers, sigmas, np.full(2, math.exp(-1.0)))
        assert at.all()
        above = neighbor_mask(centers, sigmas, np.full(2, np.nextafter(math.exp(-1.0), 1.0)))
        assert np.array_equal(above, np.eye(2, dtype=bool))

    def test_self_always_neighbor_even_at_d_one(self):
        state = NetworkState([0.0, 100.0], [1.0, 1.0], 1.0, 0.5)
        assert list(neighbor_set(state, 0)) == [0]
        assert list(neighbor_set(state, 1)) == [1]

    def test_neighbor_set_matches_mask_row(self):
        rng = np.random.default_rng(3)
        state = NetworkState(rng.uniform(0, 10, 12), rng.uniform(0.1, 2, 12), 0.5, 0.2)
        mask = neighbor_mask(state.centers, state.sigmas, state.d)
        c, s = state.centers, state.sigmas
        for i in range(12):
            assert np.array_equal(neighbor_set(state, i), np.nonzero(mask[i])[0])
            # independent scalar reference for the same row
            expected = [j for j in range(12) if ref_closeness(c[i], s[i], c[j], s[j]) >= 0.5]
            assert neighbor_set(state, i).tolist() == expected

    def test_per_agent_thresholds(self):
        # same geometry, different ears: agent 0 hears agent 1, not vice versa
        state = NetworkState([0.0, 2.0], [2.0, 2.0], [0.5, 0.9], 0.5)
        assert list(neighbor_set(state, 0)) == [0, 1]
        assert list(neighbor_set(state, 1)) == [1]

    def test_confidence_weights(self):
        state = NetworkState([0.0, 2.0, 50.0], [2.0, 2.0, 1.0], 0.5, 0.5)
        w = confidence_weights(state, 0)
        assert np.array_equal(w, [0.5, 0.5, 0.0])
        assert confidence_weights(state, 2).tolist() == [0.0, 0.0, 1.0]

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40)
    def test_weights_sum_to_one(self, n, seed):
        rng = np.random.default_rng(seed)
        state = NetworkState(
            rng.uniform(-5, 5, n), rng.uniform(0.0, 2.0, n), rng.uniform(0, 1), 0.3
        )
        for i in range(n):
            w = confidence_weights(state, i)
            assert w[i] > 0.0
            assert abs(w.sum() - 1.0) <= 1e-12
