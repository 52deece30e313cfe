"""Uniform hierarchy layout, synchronous tree stepping, and the 2-level reduction."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfon import (
    ConfigurationError,
    ExternalReference,
    LeaderReference,
    LocalReference,
    HierarchySpec,
    InitialSpec,
    NetworkState,
    ScenarioConfig,
    convergence_conditions,
    execute_scenario,
    leader_weight_matrix,
    run_blfg,
    run_td,
    steps_to_target,
)
from hfon.hierarchy import step_td
from reference import reference_record, tree_step


TOP = 10.0  # the top group's exogenous leader


def tiny_tree(b=0.1, d=0.0):
    # 2 bottom groups of 2 under one top group of 2; ids 0..3 bottom, 4..5 top
    spec = HierarchySpec((2, 2))
    return spec, NetworkState([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 6, d, b)


def step(spec, state, scheme):
    """step_td over a state's arrays under the TOP leader: new (centers, sigmas)."""
    return step_td(spec, state.centers, state.sigmas, state.d, state.b, TOP, scheme)


class TestLayout:
    def test_three_level_counts(self):
        spec = HierarchySpec((12, 12))
        assert spec._levels == ((slice(0, 144), (12, 12)), (slice(144, 156), (1, 12)))
        assert spec.n_agents == 156

    def test_four_level_counts(self):
        spec = HierarchySpec((5, 5, 5))
        assert spec.n_agents == 155
        assert [g for _, (g, _) in spec._levels] == [25, 5, 1]
        assert [sl.start for sl, _ in spec._levels] == [0, 125, 150]

    def test_groups_and_their_leaders(self):
        ((agents, leaders),) = HierarchySpec((5, 5, 5))._blocks
        assert agents[2].tolist() == list(range(10, 15))
        assert agents[25 + 3].tolist() == list(range(140, 145))
        assert leaders[[7, 25 + 3, 30]].tolist() == [132, 153, 155]  # 155: the top leader

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            HierarchySpec(())
        with pytest.raises(ConfigurationError):
            HierarchySpec((0, 2))

    def test_deep_tree_layout_is_linear_in_levels(self):
        begin = time.perf_counter()
        assert HierarchySpec((1,) * 100_000).n_agents == 100_000
        assert time.perf_counter() - begin < 5.0

    def test_state_size_check(self):
        spec = HierarchySpec((2, 2))
        for steps in (0, 3):
            with pytest.raises(ConfigurationError, match="expects 6 agents, state has 1"):
                run_td(spec, NetworkState([1.0], [1.0], 0.5, 0.1), steps, LocalReference(), TOP)


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

    @pytest.mark.parametrize("leader", [float("nan"), float("inf"), -float("inf")])
    def test_run_refuses_a_non_finite_leader(self, leader):
        # checked once, at run entry, with run_blfg's message
        for steps in (0, 3):
            with pytest.raises(ConfigurationError, match=f"^leader center must be finite, got {leader!r}$"):
                run_td(*tiny_tree(), steps, LocalReference(), leader)

    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    def test_level_blocks_match_per_group_updates(self, scheme):
        spec = HierarchySpec((3, 2, 4))
        rng = np.random.default_rng(5)
        state = NetworkState(
            rng.uniform(0.0, 20.0, spec.n_agents), rng.uniform(0.0, 2.0, spec.n_agents),
            rng.uniform(0.0, 0.9, spec.n_agents), 0.1,
        )
        centers, sigmas = step(spec, state, scheme)
        # the reference steps one group at a time, each led by its agent one level up or by TOP
        ref_c, ref_s = tree_step(spec.group_sizes, state.centers, state.sigmas, state.d, state.b, TOP,
                                 isinstance(scheme, LocalReference))
        assert centers.tobytes() == ref_c.tobytes()
        assert sigmas.tobytes() == ref_s.tobytes()

    def test_scheme_and_threshold_guards(self):
        # checked once, at run entry, even when nothing is stepped
        spec, state = tiny_tree()
        bad = NetworkState(state.centers, state.sigmas, 1.0, 0.1)
        for steps in (0, 3):
            with pytest.raises(ConfigurationError):
                run_td(spec, state, steps, ExternalReference(lambda t, i: 0.0), TOP)
            with pytest.raises(ConfigurationError):
                run_td(spec, bad, steps, LocalReference(), TOP)

    def test_run_records_addresses(self):
        record = run_td(*tiny_tree(), 3, LocalReference(), TOP)
        assert record.n_samples == 4
        assert record.levels.tolist() == [1, 1, 1, 1, 2, 2]
        assert record.groups.tolist() == [0, 0, 1, 1, 0, 0]
        centers, _ = step(*tiny_tree(), LocalReference())
        assert np.array_equal(record.centers[1], centers)

    def test_run_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            run_td(*tiny_tree(), -1, LocalReference(), TOP)


class TestMixedSizes:
    @pytest.mark.parametrize("sizes", [(3, 2, 4), (4, 4, 1, 3), (2, 5), (1,)])
    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    def test_run_equals_per_level_steps(self, sizes, scheme):
        spec = HierarchySpec(sizes)
        n = spec.n_agents
        rng = np.random.default_rng(sum(sizes))
        # centers from a small pool, so groups reach exact consensus along the run
        state = NetworkState(
            rng.choice([0.0, 5.0, 5.5, 20.0], n), rng.uniform(0.0, 2.0, n),
            rng.uniform(0.0, 0.95, n), rng.uniform(0.01, 0.5, n),
        )
        record = run_td(spec, state, 80, scheme, TOP)
        local = isinstance(scheme, LocalReference)
        centers, sigmas = reference_record(
            lambda c, s, t: tree_step(sizes, c, s, state.d, state.b, TOP, local), state, 80
        )
        assert record.centers.tobytes() == centers.tobytes()
        assert record.sigmas.tobytes() == sigmas.tobytes()

    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_one_block_per_group_size(self, sizes):
        spec = HierarchySpec(tuple(sizes))
        assert [agents.shape[1] for agents, _ in spec._blocks] == list(dict.fromkeys(sizes))
        agents = np.concatenate([a.ravel() for a, _ in spec._blocks])
        assert sorted(agents.tolist()) == list(range(spec.n_agents))
        levels, groups = spec._agent_addresses()
        for block_agents, leaders in spec._blocks:
            assert leaders.shape == block_agents.shape[:1]
            for row, leader in zip(block_agents, leaders):
                level, group = levels[row[0]], groups[row[0]]
                assert np.all(levels[row] == level) and np.all(groups[row] == group)
                # agent `group` of the next level up; the top leader sits at id n_agents
                expected = spec.n_agents if level == len(sizes) else spec._levels[level][0].start + group
                assert leader == expected


class TestTwoLevelReduction:
    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    def test_single_group_tree_equals_flat_group(self, scheme):
        centers = [5.0, 10.0, 15.0, 20.0]
        sigmas = [1.0, 1.0, 1.0, 1.0]
        spec = HierarchySpec((4,))
        tree = run_td(spec, NetworkState(centers, sigmas, 0.6, 0.01), 30, scheme, TOP)
        flat = run_blfg(NetworkState(centers, sigmas, 0.6, 0.01), 30, scheme, TOP)
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
        tree = run_td(HierarchySpec((n,)), state, steps, scheme, leader)
        assert group.centers.tobytes() == tree.centers.tobytes()
        assert group.sigmas.tobytes() == tree.sigmas.tobytes()


class TestRandomTrees:
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        d=st.floats(0.0, 0.99),
        b=st.floats(0.0, 0.5, exclude_min=True),
        leader=st.floats(-10.0, 10.0),
        local=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_center_reaches_the_leader(self, sizes, seed, d, b, leader, local):
        # the paper's top-down claim on any tree: every opinion converges to the top leader's,
        # and at the first steps every group's stacked weight matrix meets the convergence conditions
        spec = HierarchySpec(tuple(sizes))
        rng = np.random.default_rng(seed)
        state = NetworkState(rng.uniform(-10.0, 10.0, spec.n_agents), rng.uniform(0.0, 2.0, spec.n_agents), d, b)
        record = run_td(spec, state, 400, LocalReference() if local else LeaderReference(), leader)
        assert np.abs(record.centers[-1] - leader).max() <= 2e-8
        for sl, (g, k) in spec._levels:
            centers = record.centers[:5, sl].reshape(-1, g, k)
            sigmas = record.sigmas[:5, sl].reshape(-1, g, k)
            assert convergence_conditions(leader_weight_matrix(centers, sigmas, d)).ok


# every uniform tree of 120-160 agents with at least two levels of groups
MATCHED_TREES = ((11, 11), (12, 12), (5, 5, 5), (3, 3, 3, 3), (2,) * 6)


@pytest.mark.parametrize("scheme", ["local", "leader"])
def test_small_groups_converge_fastest_at_matched_agent_counts(scheme):
    """Paper claim 2 at 120-160 agents: each tree against a flat group of its n, both from
    example 1's ramp and parameters.  Steps to within 1% of the leader, measured
    (local/leader): trees of groups of 11 51/53, of 12 56/56, of 5 36/36, of 3 30/30 and
    of 2 31/31, against flat groups of the same n, 282/353, 335/429, 330/423, 288/317 and 259/333."""
    common = dict(d=0.6, b=0.01, scheme=scheme, leader=TOP, initial=InitialSpec("ramp", 5.0, 25.0, 1.0), steps=1500)
    tree_steps, flat_steps = {}, {}
    for sizes in MATCHED_TREES:
        tree = execute_scenario(ScenarioConfig(name="tree", kind="topdown", group_sizes=sizes, **common)).record
        flat = execute_scenario(ScenarioConfig(name="flat", kind="blfg", n=tree.n_agents, **common)).record
        tree_steps[sizes], flat_steps[sizes] = steps_to_target(tree, TOP), steps_to_target(flat, TOP)
    assert None not in {*tree_steps.values(), *flat_steps.values()}
    assert all(flat_steps[sizes] > tree_steps[sizes] for sizes in MATCHED_TREES)
    small = [tree_steps[sizes] for sizes in MATCHED_TREES if max(sizes) <= 5]
    large = [tree_steps[sizes] for sizes in MATCHED_TREES if max(sizes) >= 11]
    assert max(small) < min(large)
