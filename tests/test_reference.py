"""A plain reference simulator as the oracle for all four engines, bit for bit.

The reference takes a dense closeness mask of every agent against every agent
of its population (a flat run, or one tree group) at every step.  It has no
distinct-state partition, no kernel chunks, no one-centre rule, no
fast-forward and no (G, k) blocks; a tree is stepped one group at a time.
Its masked sums are the full-row reductions the engines make, each row over
all of its columns in id order (a matrix product adds in another order and
is off by up to 4.5e-13), so every recorded bit of every engine must match.
The property runs twice: as the engines run, and with kernel chunks of 1-3
rows, so that flat runs also take the kernel's center-window path.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hfon.opinions
from hfon import (
    ExternalReference,
    HierarchySpec,
    LeaderReference,
    LocalReference,
    NetworkState,
    Phase,
    closeness_matrix,
    run_bcfon,
    run_blfg,
    run_bu,
    run_td,
)


def sums(c, s, d):
    adj = closeness_matrix(c, s) >= d[:, None]
    counts = adj.sum(axis=1).astype(np.float64)
    return counts, np.where(adj, c[None, :], 0.0).sum(axis=1), np.where(adj, s[None, :], 0.0).sum(axis=1)


def flat_step(c, s, d, b, reference=None):
    """reference None is the local scheme: the agent's own neighborhood mean."""
    counts, center_sums, sigma_sums = sums(c, s, d)
    mean = center_sums / counts
    return mean, sigma_sums / counts + b * np.abs(c - (mean if reference is None else reference))


def group_step(c, s, d, b, leader, local):
    counts, center_sums, sigma_sums = sums(c, s, d)
    reference = center_sums / counts if local else leader
    return (center_sums + leader) / (counts + 1.0), sigma_sums / counts + b * np.abs(c - reference)


def tree_groups(group_sizes):
    """(agent slice, leader id) of every group, bottom level first; id n is the top leader."""
    out, start = [], 0
    for level, k in enumerate(group_sizes):
        g = math.prod(group_sizes[level + 1:])  # every agent one level up leads one group
        out += [(slice(start + j * k, start + (j + 1) * k), start + g * k + j) for j in range(g)]
        start += g * k
    return out


def tree_step(group_sizes, c, s, d, b, leader, local):
    new_c, new_s = np.empty_like(c), np.empty_like(s)
    pool = np.append(c, leader)
    for agents, lead in tree_groups(group_sizes):
        new_c[agents], new_s[agents] = group_step(c[agents], s[agents], d[agents], b[agents], pool[lead], local)
    return new_c, new_s


def reference_record(step, state, steps):
    """(centers, sigmas) rows of step(c, s, t) for t = 0 .. steps - 1, the initial row first."""
    centers, sigmas = [state.centers], [state.sigmas]
    for t in range(steps):
        c, s = step(centers[-1], sigmas[-1], t)
        centers.append(c)
        sigmas.append(s)
    return np.array(centers), np.array(sigmas)


_center = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-5.0, 5.0)
_sigma = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0)
_b = st.sampled_from([0.5, 1.0]) | st.floats(0.01, 2.0)
_leader = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-10.0, 10.0)


@st.composite
def states(draw, n, max_d):
    """Agents drawn from small pools of (c, s), d and b, so states repeat, merge and stop moving."""
    pool = draw(st.lists(st.tuples(_center, _sigma), min_size=1, max_size=n))
    d_pool = draw(st.lists(st.sampled_from([0.0, 0.5, max_d]) | st.floats(0.0, max_d), min_size=1, max_size=3))
    b_pool = draw(st.lists(_b, min_size=1, max_size=3))
    agents = [
        (*draw(st.sampled_from(pool)), draw(st.sampled_from(d_pool)), draw(st.sampled_from(b_pool)))
        for _ in range(n)
    ]
    return NetworkState(*map(list, zip(*agents)))


@st.composite
def runs(draw):
    """(agents, engine run, reference record) of one drawn run of any of the four engines.

    The engine run is a thunk, so that a test can run it under a patched kernel."""
    kind = draw(st.sampled_from(["bcfon", "blfg", "bu", "td"]))
    steps = draw(st.integers(0, 8))
    group_d = np.nextafter(1.0, 0.0)  # followers need d < 1
    if kind == "td":
        sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        state = draw(states(HierarchySpec(sizes).n_agents, group_d))
        local, leader = draw(st.booleans()), draw(_leader)
        scheme = LocalReference() if local else LeaderReference()
        return (state.n, lambda: run_td(HierarchySpec(sizes), state, steps, scheme, leader),
                reference_record(lambda c, s, t: tree_step(sizes, c, s, state.d, state.b, leader, local),
                                 state, steps))
    n = draw(st.integers(1, 12))
    if kind == "blfg":
        state = draw(states(n, group_d))
        local = draw(st.booleans())
        scheme = LocalReference() if local else LeaderReference()
        if draw(st.booleans()):  # a moving leader
            leaders = draw(st.lists(_leader, min_size=max(steps, 1), max_size=max(steps, 1)))
            leader = leaders.__getitem__
            at = leader
        else:
            leader = draw(_leader)
            at = lambda t: leader
        return (n, lambda: run_blfg(state, steps, scheme, leader),
                reference_record(lambda c, s, t: group_step(c, s, state.d, state.b, at(t), local), state, steps))
    state = draw(states(n, 1.0))
    if kind == "bu":
        phases = draw(st.lists(st.builds(Phase, st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                         st.integers(0, 3)), min_size=1, max_size=4))
        d_at = [np.full(n, phase.d) for phase in phases for _ in range(phase.steps)]
        return (n, lambda: run_bu(state, phases),
                reference_record(lambda c, s, t: flat_step(c, s, d_at[t], state.b), state, len(d_at)))
    if draw(st.booleans()):
        return (n, lambda: run_bcfon(state, steps),
                reference_record(lambda c, s, t: flat_step(c, s, state.d, state.b), state, steps))
    offsets = draw(st.lists(_center, min_size=n, max_size=n))
    drift = draw(st.lists(_center, min_size=max(steps, 1), max_size=max(steps, 1)))
    scheme = ExternalReference(lambda t, i: offsets[i] + drift[t])
    signals = [np.array([scheme.signal(t, i) for i in range(n)]) for t in range(steps)]
    return (n, lambda: run_bcfon(state, steps, scheme),
            reference_record(lambda c, s, t: flat_step(c, s, state.d, state.b, signals[t]), state, steps))


def assert_reference_bits(run):
    _, engine, (centers, sigmas) = run
    record = engine()
    assert record.centers.tobytes() == centers.tobytes()
    assert record.sigmas.tobytes() == sigmas.tobytes()


@given(run=runs())
@settings(max_examples=200, deadline=None)
def test_every_engine_records_the_reference_bits(run):
    assert_reference_bits(run)


@given(run=runs(), chunk_rows=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_every_engine_records_the_reference_bits_in_small_chunks(run, chunk_rows):
    # at most chunk_rows rows per kernel chunk, so flat runs of 2 or more states take the
    # center-window path that a whole call of n <= 12 agents never reaches
    with mock.patch.object(hfon.opinions, "_CHUNK_PAIRS", chunk_rows * run[0]):
        assert_reference_bits(run)
