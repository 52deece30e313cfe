"""Stepping one row per distinct agent state equals the dense step bit for bit.

The 1-D engines compute the neighbourhood sums once per distinct
(center, sigma, d, b) and copy them to every agent sharing that state.  The
dense reference below computes every row, as the engines did before; both
must give the same bytes for every agent, including duplicate states, agents
that share (center, sigma) but not (d, b), per-agent external signals, the
leader scheme, signed zeros and zero sigmas.  A run carries the partition
from step to step, so whole runs are compared with a dense per-step loop too,
including states that split under per-agent external signals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfon.opinions
from hfon import (
    BlfgConfig,
    ExternalReference,
    LeaderReference,
    LocalReference,
    NetworkState,
    Phase,
    PhaseSchedule,
    closeness_matrix,
    run_bcfon,
    run_blfg,
    run_bu,
    step_bcfon,
)
from hfon.engine import _regroup
from hfon.leader import step_blfg
from hfon.opinions import distinct_agents, neighborhood_sums


def distinct(state):
    return distinct_agents(state.centers, state.sigmas, state.d, state.b)


def flat_step(state, scheme=LocalReference(), t=0):
    return step_bcfon(state.centers, state.sigmas, state.d, state.b, scheme, t, distinct(state))


def group_step(state, leader, scheme):
    return step_blfg(state.centers, state.sigmas, state.d, state.b, leader, scheme, distinct(state))


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
        first, inverse = distinct(state)
        assert sorted(first.tolist()) == [0, 1, 3]
        assert first[inverse].tolist() == [0, 1, 0, 3, 1]

    def test_signed_zeros_stay_apart(self):
        state = NetworkState([0.0, -0.0, 0.0], [0.0, 0.0, 0.0], 0.5, 1.0)
        first, inverse = distinct(state)
        assert sorted(first.tolist()) == [0, 1]
        assert first[inverse].tolist() == [0, 1, 0]

    @given(state=states())
    @settings(max_examples=100)
    def test_first_occurrences_cover_every_agent(self, state):
        first, inverse = distinct(state)
        keys = np.stack([state.centers, state.sigmas, state.d, state.b], axis=1)
        assert_same_bits(keys[first][inverse], keys)
        assert len({row.tobytes() for row in keys[first]}) == first.size
        assert all(first[inverse[i]] <= i for i in range(state.n))


class TestNeighborhoodSums:
    @given(state=states())
    @settings(max_examples=100)
    def test_distinct_rows_equal_dense_rows(self, state):
        got = neighborhood_sums(state.centers, state.sigmas, state.d, distinct(state))
        for a, b in zip(got, dense_sums(state)):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 256])
    @pytest.mark.parametrize("shape", [(600,), (31, 5), (3, 300)])
    def test_row_chunks_change_no_bit(self, monkeypatch, shape, chunk_rows):
        # a pool of 400 states, so rows= computes fewer rows than there are agents
        rng = np.random.default_rng(chunk_rows)
        pool = rng.integers(0, 400, shape)
        centers, sigmas = rng.uniform(5.0, 25.0, 400)[pool], rng.uniform(0.0, 2.0, 400)[pool]
        d = rng.choice([0.0, 0.5, 0.95], 400)[pool]
        calls = [(centers, sigmas, d)]
        if len(shape) == 1:
            calls.append((centers, sigmas, d, distinct_agents(centers, sigmas, d, np.ones(shape))))
        # one row index along the last axis pairs with centers.size cells
        monkeypatch.setattr(hfon.opinions, "_CHUNK_PAIRS", shape[-1] * centers.size)  # one chunk
        whole = [neighborhood_sums(*args) for args in calls]
        monkeypatch.setattr(hfon.opinions, "_CHUNK_PAIRS", chunk_rows * centers.size)
        for args, expected in zip(calls, whole):
            for a, b in zip(neighborhood_sums(*args), expected):
                assert_same_bits(a, b)


class TestFlatStep:
    @given(state=states(), t=st.integers(0, 50))
    @settings(max_examples=150)
    def test_local_reference(self, state, t):
        centers, sigmas = flat_step(state, LocalReference(), t)
        ref_c, ref_s = dense_bcfon(state, LocalReference(), t)
        assert_same_bits(centers, ref_c)
        assert_same_bits(sigmas, ref_s)

    @given(state=states(), offsets=st.lists(st.floats(-5.0, 5.0), min_size=12, max_size=12), t=st.integers(0, 50))
    @settings(max_examples=150)
    def test_external_reference_per_agent(self, state, offsets, t):
        scheme = ExternalReference(lambda t, i: offsets[i] + 0.1 * t)
        centers, sigmas = flat_step(state, scheme, t)
        ref_c, ref_s = dense_bcfon(state, scheme, t)
        assert_same_bits(centers, ref_c)
        assert_same_bits(sigmas, ref_s)


class TestGroupStep:
    @given(state=_group_states, leader=st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0),
           local=st.booleans())
    @settings(max_examples=150)
    def test_both_schemes(self, state, leader, local):
        scheme = LocalReference() if local else LeaderReference()
        centers, sigmas = group_step(state, leader, scheme)
        ref_c, ref_s = dense_blfg(state, leader, scheme)
        assert_same_bits(centers, ref_c)
        assert_same_bits(sigmas, ref_s)


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("equal", [False, True])
def test_all_distinct_and_all_equal(n, equal):
    rng = np.random.default_rng(n)
    centers, sigmas = rng.uniform(-5, 5, n), rng.uniform(0, 2, n)
    if equal:
        centers, sigmas = np.full(n, centers[0]), np.full(n, sigmas[0])
    state = NetworkState(centers, sigmas, 0.6, 0.4)
    assert distinct(state)[0].size == (1 if equal else n)
    for got, ref in zip(flat_step(state), dense_bcfon(state, LocalReference(), 0)):
        assert_same_bits(got, ref)
    for got, ref in zip(group_step(state, 1.5, LeaderReference()), dense_blfg(state, 1.5, LeaderReference())):
        assert_same_bits(got, ref)


def test_many_steps_of_a_merging_population():
    """Along a whole run the distinct-state path never drifts from the dense one."""
    rng = np.random.default_rng(11)
    state = NetworkState(rng.uniform(5, 25, 200), rng.uniform(0, 1, 200), 0.45, 0.5)
    dense = state
    for t in range(60):
        state = NetworkState(*flat_step(state, LocalReference(), t), state.d, state.b)
        dense = NetworkState(*dense_bcfon(dense, LocalReference(), t), dense.d, dense.b)
        assert_same_bits(state.centers, dense.centers)
        assert_same_bits(state.sigmas, dense.sigmas)
    assert distinct(state)[0].size < 200


def assert_record_matches(record, state, dense_step, d=None):
    """Every recorded row equals a dense per-step loop from the same state; d(t) varies d."""
    centers, sigmas = state.centers, state.sigmas
    for k, t in enumerate(record.times[:-1]):
        step_d = state.d if d is None else np.full(state.n, d(t))
        centers, sigmas = dense_step(NetworkState(centers, sigmas, step_d, state.b), int(t))
        assert_same_bits(record.centers[k + 1], centers)
        assert_same_bits(record.sigmas[k + 1], sigmas)


def n_states(record, k):
    """Distinct (center, sigma) pairs at row k of a record."""
    return np.unique(np.stack([record.centers[k], record.sigmas[k]], axis=1), axis=0).shape[0]


def pooled_state(n, seed, d, b):
    """Centers and sigmas drawn from small pools, so agents start equal and merge further."""
    rng = np.random.default_rng(seed)
    return NetworkState(rng.choice([5.0, 6.0, 9.0, 15.0, 25.0], n), rng.choice([0.0, 0.5, 1.5], n), d, b)


class TestCarriedPartition:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_run_local(self, seed):
        rng = np.random.default_rng(seed)
        state = pooled_state(80, seed, rng.choice([0.3, 0.6], 80), rng.choice([0.2, 0.5], 80))
        record = run_bcfon(state, 60, LocalReference(), t0=3)
        assert_record_matches(record, state, lambda s, t: dense_bcfon(s, LocalReference(), t))
        assert n_states(record, -1) < n_states(record, 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_flat_run_external(self, seed):
        offsets = np.random.default_rng(seed).choice([0.0, 2.0], 80)
        scheme = ExternalReference(lambda t, i: 10.0 + offsets[i] * (t % 3))
        state = pooled_state(80, seed, 0.5, 0.3)
        record = run_bcfon(state, 40, scheme)
        assert_record_matches(record, state, lambda s, t: dense_bcfon(s, scheme, t))

    def test_shared_state_splits_under_external_signals(self):
        # agents 0 and 1 share a state at t = 0; their signals differ, so their sigmas part at
        # t = 1, and at t = 2 only agent 1 is wide enough to hear agent 2
        signals = [1.0, 3.0, 2.5]
        scheme = ExternalReference(lambda t, i: signals[i])
        state = NetworkState([1.0, 1.0, 2.5], [0.5, 0.5, 0.5], 0.5, 1.0)
        record = run_bcfon(state, 3, scheme)
        assert record.sigmas[1].tolist() == [0.5, 2.5, 0.5]
        assert record.centers[1, 0] == record.centers[1, 1]
        assert record.centers[2, 0] != record.centers[2, 1]
        assert_record_matches(record, state, lambda s, t: dense_bcfon(s, scheme, t))

    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    @pytest.mark.parametrize("moving", [False, True])
    def test_group_run(self, scheme, moving):
        leader = (lambda t: 10.0 + 0.5 * t) if moving else 10.0
        config = BlfgConfig(n=60, d=0.4, b=0.3, scheme=scheme, leader=leader)
        state = pooled_state(60, 7, 0.4, 0.3)
        record = run_blfg(state, config, 60)
        assert_record_matches(record, state, lambda s, t: dense_blfg(s, config.leader_at(t), scheme))
        assert n_states(record, -1) < n_states(record, 0)

    def test_phased_run_across_changes_of_d(self):
        phases = (Phase(0.2, 0), Phase(0.9, 15), Phase(0.3, 20), Phase(0.0, 0), Phase(0.7, 10))
        schedule = PhaseSchedule(phases, b=0.4)
        # the state's own (d, b) differ per agent; the schedule's replace them
        rng = np.random.default_rng(3)
        state = pooled_state(90, 3, rng.uniform(0.0, 1.0, 90), rng.uniform(0.1, 1.0, 90))
        record = run_bu(state, schedule)
        scheduled = NetworkState(state.centers, state.sigmas, 0.0, schedule.b)
        d_at = {t: span.d for span in record.phases for t in range(span.t_start, span.t_end)}
        assert_record_matches(record, scheduled, lambda s, t: dense_bcfon(s, LocalReference(), t), d_at.get)

    def test_carried_partition_equals_a_full_one(self):
        state = pooled_state(120, 5, 0.45, 0.5)
        record = run_bcfon(state, 50)
        rows, sizes = None, []
        for centers, sigmas in zip(record.centers, record.sigmas):
            rows = _regroup(rows, centers, sigmas, state.d, state.b)
            full = distinct_agents(centers, sigmas, state.d, state.b)
            pairs = np.unique(np.stack([rows[1], full[1]]), axis=1)
            assert pairs.shape[1] == rows[0].size == full[0].size
            keys = np.stack([centers, sigmas], axis=1)
            assert_same_bits(keys[rows[0]][rows[1]], keys)
            sizes.append(rows[0].size)
        assert sizes[0] > sizes[-1] >= 1
