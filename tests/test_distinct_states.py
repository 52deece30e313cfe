"""Stepping one row per distinct agent state equals the dense step bit for bit.

The 1-D engines compute the neighbourhood sums once per distinct
(center, sigma, d, b) and copy them to every agent sharing that state.  The
dense reference below computes every row, as the engines did before; both
must give the same bytes for every agent, including duplicate states, agents
that share (center, sigma) but not (d, b), per-agent external signals, the
leader scheme, signed zeros and zero sigmas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfon import (
    ExternalReference,
    LeaderReference,
    LocalReference,
    NetworkState,
    closeness_matrix,
    step_bcfon,
    step_blfg,
)
from hfon.opinions import distinct_agents, neighborhood_sums


def dense_sums(state):
    adj = closeness_matrix(state.centers, state.sigmas) >= state.d[:, None]
    counts = adj.sum(axis=1).astype(np.float64)
    center_sums = np.where(adj, state.centers[None, :], 0.0).sum(axis=1)
    sigma_sums = np.where(adj, state.sigmas[None, :], 0.0).sum(axis=1)
    return counts, center_sums, sigma_sums


def dense_bcfon(state, scheme, t):
    counts, center_sums, sigma_sums = dense_sums(state)
    mean = center_sums / counts
    if isinstance(scheme, LocalReference):
        reference = mean
    else:
        reference = np.array([scheme.signal(t, i) for i in range(state.n)], dtype=np.float64)
    return mean, sigma_sums / counts + state.b * np.abs(state.centers - reference)


def dense_blfg(state, leader, scheme):
    counts, center_sums, sigma_sums = dense_sums(state)
    reference = center_sums / counts if isinstance(scheme, LocalReference) else leader
    new_centers = (center_sums + leader) / (counts + 1.0)
    return new_centers, sigma_sums / counts + state.b * np.abs(state.centers - reference)


def assert_same_bits(got, expected):
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


_center = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-5.0, 5.0)
_sigma = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0)
_b = st.sampled_from([0.5, 1.0]) | st.floats(0.01, 2.0)


@st.composite
def states(draw, max_d=1.0):
    """Agents drawn from small pools of (c, s), d and b, so states repeat and partly coincide."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.tuples(_center, _sigma), min_size=1, max_size=n))
    d_pool = draw(st.lists(st.sampled_from([0.0, 0.5, max_d]) | st.floats(0.0, max_d), min_size=1, max_size=3))
    b_pool = draw(st.lists(_b, min_size=1, max_size=3))
    agents = [
        (*draw(st.sampled_from(pool)), draw(st.sampled_from(d_pool)), draw(st.sampled_from(b_pool)))
        for _ in range(n)
    ]
    return NetworkState(*map(list, zip(*agents)))


_group_states = states(max_d=np.nextafter(1.0, 0.0))


class TestDistinctAgents:
    def test_groups_identical_states(self):
        state = NetworkState([1.0, 2.0, 1.0, 1.0, 2.0], [0.5, 0.5, 0.5, 0.5, 0.5], [0.1, 0.1, 0.1, 0.2, 0.1], 1.0)
        first, inverse = distinct_agents(state)
        assert sorted(first.tolist()) == [0, 1, 3]
        assert first[inverse].tolist() == [0, 1, 0, 3, 1]

    def test_signed_zeros_stay_apart(self):
        state = NetworkState([0.0, -0.0, 0.0], [0.0, 0.0, 0.0], 0.5, 1.0)
        first, inverse = distinct_agents(state)
        assert sorted(first.tolist()) == [0, 1]
        assert first[inverse].tolist() == [0, 1, 0]

    @given(state=states())
    @settings(max_examples=100)
    def test_first_occurrences_cover_every_agent(self, state):
        first, inverse = distinct_agents(state)
        keys = np.stack([state.centers, state.sigmas, state.d, state.b], axis=1)
        assert_same_bits(keys[first][inverse], keys)
        assert len({row.tobytes() for row in keys[first]}) == first.size
        assert all(first[inverse[i]] <= i for i in range(state.n))


class TestNeighborhoodSums:
    @given(state=states())
    @settings(max_examples=100)
    def test_distinct_rows_equal_dense_rows(self, state):
        got = neighborhood_sums(state.centers, state.sigmas, state.d, distinct_agents(state))
        for a, b in zip(got, dense_sums(state)):
            assert_same_bits(a, b)


class TestFlatStep:
    @given(state=states(), t=st.integers(0, 50))
    @settings(max_examples=150)
    def test_local_reference(self, state, t):
        out = step_bcfon(state, LocalReference(), t)
        ref_c, ref_s = dense_bcfon(state, LocalReference(), t)
        assert_same_bits(out.centers, ref_c)
        assert_same_bits(out.sigmas, ref_s)

    @given(state=states(), offsets=st.lists(st.floats(-5.0, 5.0), min_size=12, max_size=12), t=st.integers(0, 50))
    @settings(max_examples=150)
    def test_external_reference_per_agent(self, state, offsets, t):
        scheme = ExternalReference(lambda t, i: offsets[i] + 0.1 * t)
        out = step_bcfon(state, scheme, t)
        ref_c, ref_s = dense_bcfon(state, scheme, t)
        assert_same_bits(out.centers, ref_c)
        assert_same_bits(out.sigmas, ref_s)


class TestGroupStep:
    @given(state=_group_states, leader=st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0),
           local=st.booleans())
    @settings(max_examples=150)
    def test_both_schemes(self, state, leader, local):
        scheme = LocalReference() if local else LeaderReference()
        out = step_blfg(state, leader, scheme)
        ref_c, ref_s = dense_blfg(state, leader, scheme)
        assert_same_bits(out.centers, ref_c)
        assert_same_bits(out.sigmas, ref_s)


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("equal", [False, True])
def test_all_distinct_and_all_equal(n, equal):
    rng = np.random.default_rng(n)
    centers, sigmas = rng.uniform(-5, 5, n), rng.uniform(0, 2, n)
    if equal:
        centers, sigmas = np.full(n, centers[0]), np.full(n, sigmas[0])
    state = NetworkState(centers, sigmas, 0.6, 0.4)
    assert distinct_agents(state)[0].size == (1 if equal else n)
    flat = step_bcfon(state)
    group = step_blfg(state, 1.5, LeaderReference())
    for got, ref in zip((flat.centers, flat.sigmas), dense_bcfon(state, LocalReference(), 0)):
        assert_same_bits(got, ref)
    for got, ref in zip((group.centers, group.sigmas), dense_blfg(state, 1.5, LeaderReference())):
        assert_same_bits(got, ref)


def test_many_steps_of_a_merging_population():
    """Along a whole run the distinct-state path never drifts from the dense one."""
    rng = np.random.default_rng(11)
    state = NetworkState(rng.uniform(5, 25, 200), rng.uniform(0, 1, 200), 0.45, 0.5)
    dense = state
    for t in range(60):
        state = step_bcfon(state, LocalReference(), t)
        dense = NetworkState(*dense_bcfon(dense, LocalReference(), t), dense.d, dense.b)
        assert_same_bits(state.centers, dense.centers)
        assert_same_bits(state.sigmas, dense.sigmas)
    assert distinct_agents(state)[0].size < 200
