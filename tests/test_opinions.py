"""Opinion primitives: the closeness kernel, neighbor sets, neighborhood averages.

Frozen numeric literals were computed with an independent pure-python
reference (math.exp, per-pair loops) before the package existed.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hfon.opinions
from hfon import NetworkState, closeness_matrix
from hfon.opinions import distinct_agents, neighbor_mask, neighborhood_sums


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


def masked_divide_closeness(centers, sigmas, col_centers=None, col_sigmas=None):
    """The closeness kernel written with a masked divide into fresh arrays: the bit-for-bit reference."""
    if col_centers is None:
        col_centers, col_sigmas = centers, sigmas
    diff = centers[..., :, None] - col_centers[..., None, :]
    ssum = sigmas[..., :, None] + col_sigmas[..., None, :]
    positive = ssum > 0.0
    ratio = np.divide(diff, ssum, out=np.zeros_like(diff), where=positive)
    out = np.exp(-np.square(ratio))
    if not positive.all():
        out[~positive] = (diff[~positive] == 0.0).astype(np.float64)
    return out


# signed zeros, equal centers, differences and sigma sums past float range, and sigmas
# small enough that the ratio or its square overflows
_edge_centers = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1.7e308]) | st.floats(-1e6, 1e6)
_edge_sigmas = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e308]) | st.floats(0.0, 1e3)


def _opinion_arrays(shape):
    return st.tuples(arrays(np.float64, shape, elements=_edge_centers),
                     arrays(np.float64, shape, elements=_edge_sigmas))


def pair(c1, s1, c2, s2):
    """Closeness of opinion (c1, s1) to opinion (c2, s2), read off the kernel."""
    return float(closeness_matrix(*(np.array([v], dtype=np.float64) for v in (c1, s1, c2, s2)))[0, 0])


class TestMembership:
    # membership of a crisp value x is the closeness to a zero-sigma opinion at x:
    # exp(-((x - center) / sigma)^2)

    def test_one_sigma_away(self):
        assert pair(0.0, 1.0, 1.0, 0.0) == 0.36787944117144233

    def test_peak_at_center(self):
        assert pair(3.5, 0.25, 3.5, 0.0) == 1.0

    def test_zero_sigma_is_indicator(self):
        assert pair(2.0, 0.0, 2.0, 0.0) == 1.0
        assert pair(2.0, 0.0, 2.0 + 1e-12, 0.0) == 0.0

    def test_array_argument(self):
        out = closeness_matrix(np.array([0.0]), np.array([2.0]), np.array([0.0, 2.0, -2.0]), np.zeros(3))
        assert out.shape == (1, 3)
        assert out[0, 0] == 1.0
        assert out[0, 1] == out[0, 2] == math.exp(-1.0)

    @given(center=_finite, sigma=_sigma, x=_finite)
    def test_bounded(self, center, sigma, x):
        value = pair(center, sigma, x, 0.0)
        assert 0.0 <= value <= 1.0


class TestCloseness:
    def test_known_values(self):
        assert pair(0, 2, 2, 2) == 0.7788007830714049
        assert pair(0, 1, 0.5, 1) == 0.9394130628134758
        assert pair(0, 1, 10, 1) == 1.3887943864964021e-11

    def test_equal_centers_give_one(self):
        assert pair(7.0, 0.1, 7.0, 30.0) == 1.0

    def test_degenerate_pair(self):
        # zero combined uncertainty: indicator of equal centers
        assert pair(1.0, 0.0, 1.0, 0.0) == 1.0
        assert pair(1.0, 0.0, 1.0 + 1e-9, 0.0) == 0.0

    @given(c1=_finite, s1=_sigma, c2=_finite, s2=_sigma)
    def test_matches_reference_and_symmetric(self, c1, s1, c2, s2):
        value = pair(c1, s1, c2, s2)
        # numpy's exp and libm's exp may disagree in the last ulp
        assert math.isclose(value, ref_closeness(c1, s1, c2, s2), rel_tol=1e-15, abs_tol=1e-307)
        assert value == pair(c2, s2, c1, s1)
        assert 0.0 <= value <= 1.0

    @given(c1=_finite, s1=_sigma, c2=_finite, s2=_sigma)
    def test_strictly_below_one_when_centers_differ(self, c1, s1, c2, s2):
        # separation comparable to the shared width, so exp cannot round to 1
        if abs(c1 - c2) < 1e-3 * max(s1 + s2, 1e-300):
            return
        assert pair(c1, s1, c2, s2) < 1.0 or c1 == c2


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

    @pytest.mark.parametrize("rows, columns", [
        ((7,), None), ((3,), (6,)), ((2, 5), None), ((2, 3), (2, 5)),
    ], ids=["square", "rows-by-columns", "blocks", "block-rows-by-columns"])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_bits_match_masked_divide(self, rows, columns, data):
        args = data.draw(_opinion_arrays(rows))
        if columns is not None:
            args += data.draw(_opinion_arrays(columns))
        with np.errstate(all="ignore"):  # differences past float range, and inf / inf
            expected = masked_divide_closeness(*args)
            got = closeness_matrix(*args)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

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
        assert state.centers.tolist() == [1.0, 2.0]
        assert state.sigmas.tolist() == [0.5, 0.25]
        assert state.d.tolist() == [0.4, 0.6]
        assert state.b.tolist() == [0.1, 0.2]

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
        assert np.array_equal(neighbor_mask(state.centers, state.sigmas, state.d), np.eye(2, dtype=bool))

    def test_neighbor_set_matches_mask_row(self):
        rng = np.random.default_rng(3)
        state = NetworkState(rng.uniform(0, 10, 12), rng.uniform(0.1, 2, 12), 0.5, 0.2)
        mask = neighbor_mask(state.centers, state.sigmas, state.d)
        c, s = state.centers, state.sigmas
        for i in range(12):
            # independent scalar reference for agent i's neighbor set
            expected = [j for j in range(12) if ref_closeness(c[i], s[i], c[j], s[j]) >= 0.5]
            assert np.nonzero(mask[i])[0].tolist() == expected

    def test_per_agent_thresholds(self):
        # same geometry, different ears: agent 0 hears agent 1, not vice versa
        state = NetworkState([0.0, 2.0], [2.0, 2.0], [0.5, 0.9], 0.5)
        mask = neighbor_mask(state.centers, state.sigmas, state.d)
        assert mask.tolist() == [[True, True], [False, True]]

    def test_confidence_weights(self):
        # equal weights on the neighbor set: counts and the plain neighborhood mean
        state = NetworkState([0.0, 2.0, 50.0], [2.0, 2.0, 1.0], 0.5, 0.5)
        counts, center_sums, sigma_sums = neighborhood_sums(state.centers, state.sigmas, state.d)
        assert counts.tolist() == [2.0, 2.0, 1.0]
        assert (center_sums / counts).tolist() == [1.0, 1.0, 50.0]
        assert (sigma_sums / counts).tolist() == [2.0, 2.0, 1.0]

    def test_rows_take_vectors_only(self):
        centers, sigmas, d = np.zeros((2, 3)), np.ones((2, 3)), np.full((2, 3), 0.5)
        rows = distinct_agents(centers[0], sigmas[0], d[0], np.ones(3))
        with pytest.raises(ValueError, match=r"\(n,\) vectors only, got centers of shape \(2, 3\)"):
            neighborhood_sums(centers, sigmas, d, rows)

    @pytest.mark.parametrize("chunk_rows", [1, None])
    def test_kernels_write_nothing_into_their_inputs(self, monkeypatch, chunk_rows):
        # row views of a record, as a run passes them; zero sigmas take the crisp branch
        rng = np.random.default_rng(5)
        record_c, record_s = rng.uniform(0, 10, (3, 12)), rng.uniform(0, 2, (3, 12))
        record_c[1, :4], record_s[1, :6] = 3.0, 0.0
        d = np.full(12, 0.4)
        before = record_c.tobytes(), record_s.tobytes(), d.tobytes()
        if chunk_rows is not None:
            monkeypatch.setattr(hfon.opinions, "_CHUNK_PAIRS", chunk_rows * 12)
        centers, sigmas = record_c[1], record_s[1]
        closeness_matrix(centers, sigmas)
        closeness_matrix(centers[:5], sigmas[:5], centers, sigmas)
        dense = neighborhood_sums(centers, sigmas, d)
        rows = distinct_agents(centers, sigmas, d, np.ones(12))
        for a, b in zip(neighborhood_sums(centers, sigmas, d, rows), dense):
            assert a[rows.inverse].tobytes() == b.tobytes()  # one row per state, spread back
        neighborhood_sums(record_c[1:].reshape(4, 6), record_s[1:].reshape(4, 6), d[:6])
        assert (record_c.tobytes(), record_s.tobytes(), d.tobytes()) == before

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_memory_is_bounded_by_the_chunk(self, n):
        # every agent distinct, so every row is computed; a whole-step closeness matrix
        # alone would take 8 MB at n = 1000 and 32 MB at n = 2000
        rng = np.random.default_rng(n)
        centers, sigmas, d = rng.uniform(5, 25, n), rng.uniform(0, 2, n), np.full(n, 0.5)
        tracemalloc.start()
        try:
            neighborhood_sums(centers, sigmas, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40)
    def test_weights_sum_to_one(self, n, seed):
        rng = np.random.default_rng(seed)
        state = NetworkState(
            rng.uniform(-5, 5, n), rng.uniform(0.0, 2.0, n), rng.uniform(0, 1), 0.3
        )
        mask = neighbor_mask(state.centers, state.sigmas, state.d)
        counts, center_sums, _ = neighborhood_sums(state.centers, state.sigmas, state.d)
        assert np.diagonal(mask).all()
        assert np.array_equal(counts, mask.sum(axis=1))
        weights = mask / counts[:, None]
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.allclose(center_sums / counts, weights @ state.centers, rtol=1e-12, atol=1e-12)
