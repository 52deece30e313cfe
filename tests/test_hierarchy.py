"""Uniform hierarchy layout, synchronous tree stepping, and the 2-level reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfon import (
    AddressError,
    ConfigurationError,
    ExternalReference,
    LeaderReference,
    LocalReference,
    HierarchySpec,
    NetworkState,
    run_blfg,
    run_td,
    step_td,
)
from hfon.leader import group_update


def tiny_tree(b=0.1, d=0.0):
    # 2 bottom groups of 2 under one top group of 2; ids 0..3 bottom, 4..5 top
    spec = HierarchySpec((2, 2), 10.0)
    return spec, NetworkState([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 6, d, b)


def step(spec, state, scheme):
    """step_td over a state's arrays: new (centers, sigmas)."""
    return step_td(spec, state.centers, state.sigmas, state.d, state.b, scheme)


class TestLayout:
    def test_three_level_counts(self):
        spec = HierarchySpec((12, 12), 10.0)
        assert spec.n_levels == 2
        assert spec.n_groups(1) == 12
        assert spec.n_groups(2) == 1
        assert spec.level_count(1) == 144
        assert spec.level_count(2) == 12
        assert spec.n_agents == 156

    def test_four_level_counts(self):
        spec = HierarchySpec((5, 5, 5), 10.0)
        assert spec.n_agents == 155
        assert [spec.n_groups(l) for l in (1, 2, 3)] == [25, 5, 1]
        assert [spec.level_offset(l) for l in (1, 2, 3)] == [0, 125, 150]

    def test_slices_and_leaders(self):
        spec = HierarchySpec((5, 5, 5), 10.0)
        assert spec.group_slice(1, 2) == slice(10, 15)
        assert spec.group_slice(2, 3) == slice(140, 145)
        assert spec.leader_index(1, 7) == 132
        assert spec.leader_index(2, 3) == 153
        assert spec.leader_index(3, 0) is None

    def test_every_agent_has_one_address(self):
        spec = HierarchySpec((3, 2, 4), 10.0)
        levels, groups = spec.agent_addresses()
        seen = np.zeros(spec.n_agents, dtype=int)
        for level, group in spec.groups():
            sl = spec.group_slice(level, group)
            seen[sl] += 1
            assert np.all(levels[sl] == level)
            assert np.all(groups[sl] == group)
        assert np.all(seen == 1)

    def test_address_errors(self):
        spec = HierarchySpec((2, 2), 10.0)
        with pytest.raises(AddressError):
            spec.n_groups(0)
        with pytest.raises(AddressError):
            spec.n_groups(3)
        with pytest.raises(AddressError):
            spec.group_slice(1, 2)
        with pytest.raises(AddressError):
            spec.leader_index(2, -1)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            HierarchySpec((), 10.0)
        with pytest.raises(ConfigurationError):
            HierarchySpec((0, 2), 10.0)
        with pytest.raises(ConfigurationError):
            HierarchySpec((2,), float("nan"))

    def test_state_size_check(self):
        spec = HierarchySpec((2, 2), 10.0)
        for steps in (0, 3):
            with pytest.raises(ConfigurationError, match="expects 6 agents, state has 1"):
                run_td(spec, NetworkState([1.0], [1.0], 0.5, 0.1), steps, LocalReference())


class TestStepping:
    def test_one_synchronous_step_local(self):
        centers, sigmas = step(*tiny_tree(), LocalReference())
        # bottom groups average themselves plus their OLD level-2 leader center
        assert centers.tolist() == [
            (0.0 + 1.0 + 4.0) / 3.0,
            (0.0 + 1.0 + 4.0) / 3.0,
            (2.0 + 3.0 + 5.0) / 3.0,
            (2.0 + 3.0 + 5.0) / 3.0,
            (4.0 + 5.0 + 10.0) / 3.0,
            (4.0 + 5.0 + 10.0) / 3.0,
        ]
        assert sigmas.tolist() == [1.05] * 6

    def test_one_synchronous_step_leader(self):
        _, sigmas = step(*tiny_tree(), LeaderReference())
        # u = 0.1 * |center - own group leader center|
        assert sigmas.tolist() == [
            1.0 + 0.1 * 4.0,
            1.0 + 0.1 * 3.0,
            1.0 + 0.1 * 3.0,
            1.0 + 0.1 * 2.0,
            1.0 + 0.1 * 6.0,
            1.0 + 0.1 * 5.0,
        ]

    def test_group_slice_and_leader_index(self):
        spec, state = tiny_tree()
        assert state.centers[spec.group_slice(1, 1)].tolist() == [2.0, 3.0]
        assert state.centers[spec.leader_index(1, 1)] == 5.0
        assert spec.leader_index(2, 0) is None
        assert spec.top_center == 10.0

    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    def test_level_blocks_match_per_group_updates(self, scheme):
        spec = HierarchySpec((3, 2, 4), 10.0)
        rng = np.random.default_rng(5)
        state = NetworkState(
            rng.uniform(0.0, 20.0, spec.n_agents), rng.uniform(0.0, 2.0, spec.n_agents),
            rng.uniform(0.0, 0.9, spec.n_agents), 0.1,
        )
        stepped_centers, stepped_sigmas = step(spec, state, scheme)
        for level, group in spec.groups():
            sl = spec.group_slice(level, group)
            idx = spec.leader_index(level, group)
            leader = spec.top_center if idx is None else float(state.centers[idx])
            centers, sigmas = group_update(
                state.centers[sl], state.sigmas[sl], state.d[sl], state.b[sl], leader, scheme
            )
            assert np.array_equal(stepped_centers[sl], centers), (level, group)
            assert np.array_equal(stepped_sigmas[sl], sigmas), (level, group)

    def test_scheme_and_threshold_guards(self):
        # checked once, at run entry, even when nothing is stepped
        spec, state = tiny_tree()
        bad = NetworkState(state.centers, state.sigmas, 1.0, 0.1)
        for steps in (0, 3):
            with pytest.raises(ConfigurationError):
                run_td(spec, state, steps, ExternalReference(lambda t, i: 0.0))
            with pytest.raises(ConfigurationError):
                run_td(spec, bad, steps, LocalReference())

    def test_run_records_addresses(self):
        record = run_td(*tiny_tree(), 3, LocalReference())
        assert record.n_samples == 4
        assert record.levels.tolist() == [1, 1, 1, 1, 2, 2]
        assert record.groups.tolist() == [0, 0, 1, 1, 0, 0]
        centers, _ = step(*tiny_tree(), LocalReference())
        assert np.array_equal(record.centers[1], centers)

    def test_run_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            run_td(*tiny_tree(), -1, LocalReference())


def per_level_step(spec, centers, sigmas, d, b, scheme):
    """Reference tree step: one group_update per level, each (G, k) level led by the G agents
    right after it (the whole next level up), the top level by the top leader."""
    new_centers, new_sigmas = np.empty_like(centers), np.empty_like(sigmas)
    for level, k in enumerate(spec.group_sizes, start=1):
        g, start = spec.n_groups(level), spec.level_offset(level)
        sl = slice(start, start + g * k)
        leader = spec.top_center if level == spec.n_levels else centers[sl.stop:sl.stop + g, None]
        level_centers, level_sigmas = group_update(
            *(a[sl].reshape(g, k) for a in (centers, sigmas, d, b)), leader, scheme
        )
        new_centers[sl], new_sigmas[sl] = level_centers.ravel(), level_sigmas.ravel()
    return new_centers, new_sigmas


class TestMixedSizes:
    @pytest.mark.parametrize("sizes", [(3, 2, 4), (4, 4, 1, 3), (2, 5), (1,)])
    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    def test_run_equals_per_level_steps(self, sizes, scheme):
        spec = HierarchySpec(sizes, 10.0)
        n = spec.n_agents
        rng = np.random.default_rng(sum(sizes))
        # centers from a small pool, so groups reach exact consensus along the run
        state = NetworkState(
            rng.choice([0.0, 5.0, 5.5, 20.0], n), rng.uniform(0.0, 2.0, n),
            rng.uniform(0.0, 0.95, n), rng.uniform(0.01, 0.5, n),
        )
        record = run_td(spec, state, 80, scheme)
        centers, sigmas = state.centers, state.sigmas
        for k in range(1, record.n_samples):
            centers, sigmas = per_level_step(spec, centers, sigmas, state.d, state.b, scheme)
            assert centers.tobytes() == record.centers[k].tobytes(), k
            assert sigmas.tobytes() == record.sigmas[k].tobytes(), k

    def test_one_block_per_group_size(self):
        spec = HierarchySpec((4, 4, 1, 3), 10.0)
        shapes = [(agents.shape, leaders.shape) for agents, leaders in spec._blocks]
        assert shapes == [((15, 4), (15,)), ((3, 1), (3,)), ((1, 3), (1,))]
        agents = np.concatenate([a.ravel() for a, _ in spec._blocks])
        assert sorted(agents.tolist()) == list(range(spec.n_agents))
        levels, groups = spec.agent_addresses()
        for block_agents, leaders in spec._blocks:
            for row, leader in zip(block_agents, leaders):
                expected = spec.leader_index(int(levels[row[0]]), int(groups[row[0]]))
                assert leader == (spec.n_agents if expected is None else expected)


class TestTwoLevelReduction:
    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    def test_single_group_tree_equals_flat_group(self, scheme):
        centers = [5.0, 10.0, 15.0, 20.0]
        sigmas = [1.0, 1.0, 1.0, 1.0]
        spec = HierarchySpec((4,), 10.0)
        tree = run_td(spec, NetworkState(centers, sigmas, 0.6, 0.01), 30, scheme)
        flat = run_blfg(NetworkState(centers, sigmas, 0.6, 0.01), 30, scheme, 10.0)
        assert np.array_equal(tree.centers, flat.centers)
        assert np.array_equal(tree.sigmas, flat.sigmas)

    @given(
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        leader=st.floats(-20.0, 20.0),
        local=st.booleans(),
        steps=st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_per_agent_d_and_b_group_equals_single_group_tree(self, n, seed, leader, local, steps):
        # small pools, so agents share states, some of them with different (d, b)
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, max(1, n // 2), n)
        state = NetworkState(
            rng.uniform(0.0, 20.0, n)[pool],
            rng.choice([0.0, 0.5, 2.0], n)[pool],
            rng.choice([0.0, 0.3, 0.6, 0.9], n),
            rng.choice([0.01, 0.3, 1.5], n),
        )
        scheme = LocalReference() if local else LeaderReference()
        group = run_blfg(state, steps, scheme, leader)
        tree = run_td(HierarchySpec((n,), leader), state, steps, scheme)
        assert group.centers.tobytes() == tree.centers.tobytes()
        assert group.sigmas.tobytes() == tree.sigmas.tobytes()
