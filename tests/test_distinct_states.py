"""The distinct-state partition and the neighbourhood kernel's edge inputs.

The 1-D engines compute the neighbourhood sums and the update once per
distinct (center, sigma, d, b), and the run copies the result to every agent
sharing that state (result[inverse]).  The kernel's rows, one step of each
update and whole runs that carry the partition from step to step equal the
shared dense model in tests/reference.py bit for bit, including duplicate
states, agents that share (center, sigma) but not (d, b), per-agent external
signals, the leader scheme, signed zeros and zero sigmas.  This file also
pins the partition's structure, the states that split under per-agent
external signals, and the kernel inputs the property in
tests/test_reference.py cannot draw: non-finite values, hundreds of agents in
many chunks, and rows whose agents all share one center, which skip the
closeness kernel and still give the masked sums' bytes.  It also pins the
kernel's call counts, which guard speed, not values.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfon.engine
import hfon.leader
import hfon.opinions
from hfon import (
    ExternalReference,
    LeaderReference,
    LocalReference,
    NetworkState,
    Phase,
    builtin_scenarios,
    closeness_matrix,
    execute_scenario,
    parse_scenario,
    run_bcfon,
    run_blfg,
    run_bu,
)
from hfon.engine import _regroup, step_bcfon
from hfon.leader import step_blfg
from hfon.opinions import distinct_agents, distinct_rows, neighborhood_sums
from reference import center_values, flat_step, group_step, reference_record, states, sums


def distinct(state):
    return distinct_agents(state.centers, state.sigmas, state.d, state.b)


def spread(rows, values):
    """One value per distinct state, checked to be k long, copied to every agent."""
    for a in values:
        assert a.shape == rows.centers.shape
    return tuple(a[rows.inverse] for a in values)


def partitioned_flat_step(state, scheme=LocalReference(), t=0):
    """step_bcfon over the distinct states; an external reference is per agent and takes none."""
    if isinstance(scheme, ExternalReference):
        return step_bcfon(state.centers, state.sigmas, state.d, state.b, scheme, t)
    rows = distinct(state)
    return spread(rows, step_bcfon(state.centers, state.sigmas, state.d, state.b, scheme, t, rows))


def partitioned_group_step(state, leader, scheme):
    rows = distinct(state)
    return spread(rows, step_blfg(state.centers, state.sigmas, state.d, state.b, leader, scheme, rows))


def labels(inverse):
    """inverse relabelled by each state's first agent, so two groupings compare as lists."""
    seen = {}
    return [seen.setdefault(k, len(seen)) for k in inverse.tolist()]


def signals(scheme, t, n):
    return np.array([scheme.signal(t, i) for i in range(n)], dtype=np.float64)


def assert_same_bits(got, expected):
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


_any_states = st.integers(1, 12).flatmap(lambda n: states(n, 1.0))
_group_states = st.integers(1, 12).flatmap(lambda n: states(n, np.nextafter(1.0, 0.0)))

_one_center = st.sampled_from([0.0, 2.5, -1e300, np.inf, -np.inf, np.nan]) | st.floats(-5.0, 5.0)


@st.composite
def blocks(draw):
    """(centers, sigmas, d) as (n,) vectors or (G, k) blocks whose rows hold one center or any.

    A zero center takes either sign agent by agent; sigmas and d vary agent by agent."""
    shape = draw(st.sampled_from([(draw(st.integers(1, 12)),), (draw(st.integers(1, 5)), draw(st.integers(1, 6)))]))
    every_row_one = draw(st.booleans())
    rows = []
    for _ in range(int(np.prod(shape[:-1]))):
        if every_row_one or draw(st.booleans()):
            center = draw(_one_center)
            rows.append([-center if center == 0.0 and draw(st.booleans()) else center for _ in range(shape[-1])])
        else:
            rows.append(draw(st.lists(center_values | _one_center, min_size=shape[-1], max_size=shape[-1])))
    size = len(rows) * shape[-1]
    sigmas = draw(st.lists(st.sampled_from([0.0, 0.5, np.inf]) | st.floats(0.0, 3.0), min_size=size, max_size=size))
    d = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=size, max_size=size))
    return tuple(np.array(a, dtype=np.float64).reshape(shape) for a in (rows, sigmas, d))


def state_keys(state):
    return np.stack([state.centers, state.sigmas, state.d, state.b], axis=1)


class TestDistinctAgents:
    def test_groups_identical_states(self):
        state = NetworkState([1.0, 2.0, 1.0, 1.0, 2.0], [0.5, 0.5, 0.5, 0.5, 0.5], [0.1, 0.1, 0.1, 0.2, 0.1], 1.0)
        assert labels(distinct(state).inverse) == [0, 1, 0, 2, 1]
        first, inverse = distinct_rows(state_keys(state))
        assert sorted(first.tolist()) == [0, 1, 3]
        assert first[inverse].tolist() == [0, 1, 0, 3, 1]

    def test_signed_zeros_stay_apart(self):
        state = NetworkState([0.0, -0.0, 0.0], [0.0, 0.0, 0.0], 0.5, 1.0)
        assert labels(distinct(state).inverse) == [0, 1, 0]
        first, inverse = distinct_rows(state_keys(state))
        assert sorted(first.tolist()) == [0, 1]
        assert first[inverse].tolist() == [0, 1, 0]

    @given(state=_any_states)
    @settings(max_examples=100)
    def test_states_cover_every_agent(self, state):
        rows, keys = distinct(state), state_keys(state)
        assert_same_bits(np.stack([rows.centers, rows.sigmas, rows.d, rows.b], axis=1)[rows.inverse], keys)
        assert len({row.tobytes() for row in keys}) == rows.centers.size
        first, inverse = distinct_rows(keys)
        assert_same_bits(inverse, rows.inverse)
        assert_same_bits(keys[first][inverse], keys)
        assert all(first[inverse[i]] <= i for i in range(state.n))


class TestNeighborhoodSums:
    @given(state=_any_states)
    @settings(max_examples=100)
    def test_distinct_rows_equal_dense_rows(self, state):
        rows = distinct(state)
        got = spread(rows, neighborhood_sums(state.centers, state.sigmas, state.d, rows))
        for a, b in zip(got, sums(state.centers, state.sigmas, state.d)):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("pool_kind", ["uniform", "ulps", "exp-one", "non-finite"])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 256])
    @pytest.mark.parametrize("shape", [(600,), (31, 5), (3, 300)])
    def test_row_chunks_change_no_bit(self, monkeypatch, shape, chunk_rows, pool_kind):
        # a pool of 400 states, so rows= computes fewer rows than there are agents; (n,) vectors
        # in several chunks compute each chunk's closeness within its center window only
        rng = np.random.default_rng(chunk_rows)
        pool = rng.integers(0, 400, shape)
        if pool_kind == "uniform":
            centers, sigmas = rng.uniform(5.0, 25.0, 400), rng.uniform(0.0, 2.0, 400)
            d = rng.choice([0.0, 0.5, 0.95], 400)
        elif pool_kind == "exp-one":
            # d = 1 hears the pairs whose closeness rounds to 1: centers 1e-9 apart under unit
            # sigmas, which a window of radius 0 would drop; d = 0 takes every column
            centers = rng.choice([3.0, 3.0 + 1e-9, 3.0 - 1e-9, 7.0], 400)
            sigmas = rng.choice([0.0, 1.0, 1e-9], 400)
            d = rng.choice([0.0, 0.5, 1.0, np.nextafter(1.0, 0.0)], 400, p=[0.02, 0.18, 0.4, 0.4])
        else:
            # centers a few ulps apart near +-1e6 with sigmas from 1e-12 to one ulp sit at the
            # window's rounding edge; zero sigmas are crisp and signed zeros one center
            ulp = np.spacing(1e6)
            centers = np.concatenate([
                1e6 + ulp * rng.integers(-4, 5, 150), -1e6 + ulp * rng.integers(-4, 5, 150),
                rng.choice([0.0, -0.0, 3.0, 3.0 + 1e-9], 100),
            ])
            sigmas = rng.choice([0.0, 1e-12, 3e-12, ulp / 2, ulp, 1e-9], 400)
            d = rng.choice([0.5, 0.9, 1.0, np.nextafter(1.0, 0.0)], 400)
            if pool_kind == "non-finite":  # the whole call takes every column
                centers[pool.flat[0]], sigmas[pool.flat[1]] = np.inf, np.nan
        centers, sigmas, d = centers[pool], sigmas[pool], d[pool]
        calls = [(centers, sigmas, d)]
        if len(shape) == 1:
            calls.append((centers, sigmas, d, distinct_agents(centers, sigmas, d, np.ones(shape))))
        with np.errstate(all="ignore"):
            # one row index along the last axis pairs with centers.size cells
            monkeypatch.setattr(hfon.opinions, "_CHUNK_PAIRS", shape[-1] * centers.size)  # one chunk
            whole = [neighborhood_sums(*args) for args in calls]
            monkeypatch.setattr(hfon.opinions, "_CHUNK_PAIRS", chunk_rows * centers.size)
            for args, expected in zip(calls, whole):
                for a, b in zip(neighborhood_sums(*args), expected):
                    assert_same_bits(a, b)


    @pytest.mark.parametrize("n", [1, 7, 156, 1000])
    @pytest.mark.parametrize("center, sigma", [(3.25, 0.5), (-0.0, 0.0), (0.0, 0.0), (-2.5, 0.0), (1e300, 1e300)])
    @pytest.mark.parametrize("d", [0.0, 0.6, 1.0])
    def test_one_state_equals_the_dense_rows(self, n, center, sigma, d):
        # one distinct state: every agent hears every agent, whatever d in [0, 1]
        state = NetworkState(np.full(n, center), np.full(n, sigma), d, 0.5)
        rows = distinct(state)
        assert rows.centers.size == 1
        expected = sums(state.centers, state.sigmas, state.d)
        assert_same_bits(expected[0], np.full(n, float(n)))
        for got in (spread(rows, neighborhood_sums(state.centers, state.sigmas, state.d, rows)),
                    neighborhood_sums(state.centers, state.sigmas, state.d)):
            for a, b in zip(got, expected):
                assert_same_bits(a, b)

    @pytest.mark.parametrize("center, sigma", [(np.inf, 1.0), (-np.inf, 0.0), (np.nan, 1.0), (1.0, np.nan)])
    def test_one_non_finite_state_takes_the_dense_rows(self, center, sigma):
        # an overflowed center is no neighbor even of itself, so its agents hear nobody
        centers, sigmas, d = np.full(5, center), np.full(5, sigma), np.full(5, 0.5)
        rows = distinct_agents(centers, sigmas, d, np.ones(5))
        with np.errstate(all="ignore"):
            for a, b in zip(spread(rows, neighborhood_sums(centers, sigmas, d, rows)),
                            neighborhood_sums(centers, sigmas, d)):
                assert_same_bits(a, b)

    @given(inputs=blocks(), use_rows=st.booleans())
    @settings(max_examples=400)
    def test_rows_of_one_finite_center_skip_the_kernel_bit_for_bit(self, inputs, use_rows):
        centers, sigmas, d = inputs
        rows = distinct_agents(centers, sigmas, d, np.ones_like(d)) if use_rows and centers.ndim == 1 else None
        with np.errstate(all="ignore"):
            expected = sums(centers, sigmas, d)
            calls = []
            with mock.patch.object(hfon.opinions, "closeness_matrix", lambda *a: calls.append(a) or closeness_matrix(*a)):
                got = neighborhood_sums(centers, sigmas, d, rows)
        if rows is not None:
            got = spread(rows, got)
        for a, b in zip(got, expected):
            assert a.shape == centers.shape
            assert_same_bits(a, b)
        one_center = np.isfinite(centers).all() and (centers == centers[..., :1]).all()
        assert bool(calls) != one_center


@pytest.mark.parametrize("name, fewest, most", [
    ("example1-local", 1, 110), ("example1-leader", 1, 57), ("example2-3level-local", 1, 10),
    ("example2-3level-leader", 1, 10), ("example2-4level-local", 1, 10), ("example2-4level-leader", 1, 10),
    ("example3", 28, 28),
])
def test_builtins_run_the_kernel_only_before_consensus(monkeypatch, name, fewest, most):
    """Each run makes a fixed number of dense kernel calls: a tree steps densely only until
    every group's followers share one center, a flat group until all of them do."""
    calls = []
    monkeypatch.setattr(hfon.opinions, "closeness_matrix", lambda *args: calls.append(1) or closeness_matrix(*args))
    execute_scenario(builtin_scenarios()[name])
    assert fewest <= len(calls) <= most


def test_emergence_computes_closeness_only_in_center_windows(monkeypatch, tmp_path):
    """Speed guard: the seed-0 emergence document (1000 uniform agents, five falling
    thresholds) computes closeness only within each chunk's center window, a fraction of
    the k n pairs of every dense step; the count is the same on every run."""
    doc = {"schema_version": 1, "name": "emergence", "kind": "bottomup", "n": 1000, "b": 0.5,
           "phases": [{"d": d, "steps": 40} for d in (0.95, 0.7, 0.45, 0.2, 0.05)],
           "initial": {"centers": "uniform", "low": 5.0, "high": 25.0, "sigma": "uniform"}, "seed": 0}
    path = tmp_path / "emergence.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = []  # per kernel call: [its k n (row, column) pairs, the closeness cells computed]
    kernel = hfon.engine.neighborhood_sums

    def traced_sums(centers, sigmas, d, rows=None):
        calls.append([(centers.size if rows is None else rows.centers.size) * centers.size, 0])
        return kernel(centers, sigmas, d, rows)

    def traced_closeness(*args):
        out = closeness_matrix(*args)
        calls[-1][1] += out.size
        return out

    monkeypatch.setattr(hfon.engine, "neighborhood_sums", traced_sums)
    monkeypatch.setattr(hfon.opinions, "closeness_matrix", traced_closeness)
    execute_scenario(parse_scenario(path))
    pairs, cells = np.array(calls).T
    assert pairs[0] == 1000 * 1000
    assert cells[0] <= 0.25 * pairs[0]
    assert cells.sum() <= 0.40 * pairs[cells > 0].sum()  # the dense kernel computes every pair


def test_one_state_steps_update_one_row(monkeypatch):
    """Once every follower of example1-leader shares one state, each step updates that one
    state: the first such step returns (1,) arrays, and every later one 0-d scalars, not
    one row per agent."""
    group_update, shapes = hfon.leader.group_update, []

    def traced(centers, sigmas, d, b, leader_center, scheme, rows=None):
        out = group_update(centers, sigmas, d, b, leader_center, scheme, rows)
        if rows is not None and rows.centers.size == 1:
            shapes.append({a.shape for a in out})
        return out

    monkeypatch.setattr(hfon.leader, "group_update", traced)
    record = execute_scenario(builtin_scenarios()["example1-leader"]).record
    assert record.n_agents == 156
    assert len(shapes) >= 1400
    assert shapes[0] == {(1,)}
    assert all(shape == {()} for shape in shapes[1:])


class TestFlatStep:
    @given(state=_any_states, t=st.integers(0, 50))
    @settings(max_examples=150)
    def test_local_reference(self, state, t):
        centers, sigmas = partitioned_flat_step(state, LocalReference(), t)
        ref_c, ref_s = flat_step(state.centers, state.sigmas, state.d, state.b)
        assert_same_bits(centers, ref_c)
        assert_same_bits(sigmas, ref_s)

    @given(state=_any_states, offsets=st.lists(st.floats(-5.0, 5.0), min_size=12, max_size=12), t=st.integers(0, 50))
    @settings(max_examples=150)
    def test_external_reference_per_agent(self, state, offsets, t):
        scheme = ExternalReference(lambda t, i: offsets[i] + 0.1 * t)
        centers, sigmas = partitioned_flat_step(state, scheme, t)
        ref_c, ref_s = flat_step(state.centers, state.sigmas, state.d, state.b, signals(scheme, t, state.n))
        assert_same_bits(centers, ref_c)
        assert_same_bits(sigmas, ref_s)


class TestGroupStep:
    @given(state=_group_states, leader=st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0),
           local=st.booleans())
    @settings(max_examples=150)
    def test_both_schemes(self, state, leader, local):
        scheme = LocalReference() if local else LeaderReference()
        centers, sigmas = partitioned_group_step(state, leader, scheme)
        ref_c, ref_s = group_step(state.centers, state.sigmas, state.d, state.b, leader, local)
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
    assert distinct(state).centers.size == (1 if equal else n)
    for got, ref in zip(partitioned_flat_step(state), flat_step(centers, sigmas, state.d, state.b)):
        assert_same_bits(got, ref)
    for got, ref in zip(partitioned_group_step(state, 1.5, LeaderReference()),
                        group_step(centers, sigmas, state.d, state.b, 1.5, False)):
        assert_same_bits(got, ref)


def test_many_steps_of_a_merging_population():
    """Along a whole run the distinct-state path never drifts from the dense one."""
    rng = np.random.default_rng(11)
    state = NetworkState(rng.uniform(5, 25, 200), rng.uniform(0, 1, 200), 0.45, 0.5)
    dense = state.centers, state.sigmas
    for t in range(60):
        state = NetworkState(*partitioned_flat_step(state, LocalReference(), t), state.d, state.b)
        dense = flat_step(*dense, state.d, state.b)
        assert_same_bits(state.centers, dense[0])
        assert_same_bits(state.sigmas, dense[1])
    assert distinct(state).centers.size < 200


def test_an_external_reference_takes_no_partition():
    state = NetworkState([1.0, 1.0, 2.0], [0.5, 0.5, 0.5], 0.5, 1.0)
    scheme = ExternalReference(lambda t, i: float(i))
    with pytest.raises(ValueError, match="an external reference is per agent: it takes no partition"):
        step_bcfon(state.centers, state.sigmas, state.d, state.b, scheme, 0, distinct(state))


def pooled_state(n, seed, d, b):
    """Centers and sigmas drawn from small pools, so agents start equal and merge further."""
    rng = np.random.default_rng(seed)
    return NetworkState(rng.choice([5.0, 6.0, 9.0, 15.0, 25.0], n), rng.choice([0.0, 0.5, 1.5], n), d, b)


def assert_same_record(record, reference):
    assert_same_bits(record.centers, reference[0])
    assert_same_bits(record.sigmas, reference[1])


def n_states(record, k):
    """Distinct (center, sigma) pairs at row k of a record."""
    return np.unique(np.stack([record.centers[k], record.sigmas[k]], axis=1), axis=0).shape[0]


class TestCarriedPartition:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_run_local(self, seed):
        rng = np.random.default_rng(seed)
        state = pooled_state(80, seed, rng.choice([0.3, 0.6], 80), rng.choice([0.2, 0.5], 80))
        record = run_bcfon(state, 60, LocalReference())
        assert_same_record(record, reference_record(lambda c, s, t: flat_step(c, s, state.d, state.b), state, 60))
        assert n_states(record, -1) < n_states(record, 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_flat_run_external(self, seed):
        offsets = np.random.default_rng(seed).choice([0.0, 2.0], 80)
        scheme = ExternalReference(lambda t, i: 10.0 + offsets[i] * (t % 3))
        state = pooled_state(80, seed, 0.5, 0.3)
        record = run_bcfon(state, 40, scheme)
        assert_same_record(record, reference_record(
            lambda c, s, t: flat_step(c, s, state.d, state.b, signals(scheme, t, state.n)), state, 40))

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

    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    @pytest.mark.parametrize("moving", [False, True])
    def test_group_run(self, scheme, moving):
        leader = (lambda t: 10.0 + 0.5 * t) if moving else 10.0
        state = pooled_state(60, 7, 0.4, 0.3)
        record = run_blfg(state, 60, scheme, leader)
        local = isinstance(scheme, LocalReference)
        assert_same_record(record, reference_record(
            lambda c, s, t: group_step(c, s, state.d, state.b, leader(t) if moving else leader, local), state, 60))
        assert n_states(record, -1) < n_states(record, 0)

    def test_phased_run_across_changes_of_d(self):
        phases = (Phase(0.2, 0), Phase(0.9, 15), Phase(0.3, 20), Phase(0.0, 0), Phase(0.7, 10))
        # the state's own d and b differ per agent; each phase's d replaces every d, b stays
        rng = np.random.default_rng(3)
        state = pooled_state(90, 3, rng.uniform(0.0, 1.0, 90), rng.uniform(0.1, 1.0, 90))
        record = run_bu(state, phases)
        assert record.phases == phases
        d_at = [phase.d for phase in phases for _ in range(phase.steps)]
        steps = record.n_samples - 1
        assert steps == len(d_at) == 45
        assert_same_record(record, reference_record(
            lambda c, s, t: flat_step(c, s, np.full(state.n, d_at[t]), state.b), state, steps))

    def test_carried_partition_equals_a_full_one(self):
        state = pooled_state(120, 5, 0.45, 0.5)
        record = run_bcfon(state, 50)
        rows, sizes = distinct(state), []
        for centers, sigmas in zip(record.centers, record.sigmas):
            # a state's new value is the record's value at any of its agents: scattered, each wins
            new_c, new_s = np.empty((2, rows.inverse.max() + 1))
            new_c[rows.inverse], new_s[rows.inverse] = centers, sigmas
            rows = _regroup(rows, new_c, new_s)
            full = distinct_agents(centers, sigmas, state.d, state.b)
            pairs = np.unique(np.stack([rows.inverse, full.inverse]), axis=1)
            assert pairs.shape[1] == rows.centers.size == full.centers.size
            assert_same_bits(np.atleast_1d(rows.centers)[rows.inverse], centers)
            assert_same_bits(np.atleast_1d(rows.sigmas)[rows.inverse], sigmas)
            sizes.append(rows.centers.size)
        assert sizes[0] > sizes[-1] >= 1
