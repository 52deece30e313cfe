"""The plain reference simulator: the suite's one dense model of what every engine computes.

The reference takes a dense closeness mask of every agent against every agent
of its population (a flat run, or one tree group) at every step.  It has no
distinct-state partition, no kernel chunks, no one-centre rule, no
fast-forward and no (G, k) tree blocks; a tree is stepped one group at a time.
Its masked sums are the full-row reductions the engines make, each row over
all of its columns in id order (a matrix product adds in another order and
is off by up to 4.5e-13), so every recorded bit of every engine must match.
tests/test_reference.py checks all four engines against it; a new engine or
mechanism is tested by adding it to that property.
"""

import math

import numpy as np
from hypothesis import strategies as st

from hfon import NetworkState, closeness_matrix


def sums(c, s, d):
    """Every row's neighbour count and masked center and sigma sums over all of its columns.

    Works over the last axis: (n,) vectors for one population, (G, k) blocks
    with neighbours taken within each row."""
    adj = closeness_matrix(c, s) >= d[..., None]
    return (adj.sum(axis=-1, dtype=np.float64), np.where(adj, c[..., None, :], 0.0).sum(axis=-1),
            np.where(adj, s[..., None, :], 0.0).sum(axis=-1))


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


center_values = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-5.0, 5.0)
_sigma = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0)
_b = st.sampled_from([0.5, 1.0]) | st.floats(0.01, 2.0)
leader_values = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-10.0, 10.0)


@st.composite
def states(draw, n, max_d):
    """n agents drawn from small pools of (c, s), d <= max_d and b, so states repeat, merge and stop moving."""
    pool = draw(st.lists(st.tuples(center_values, _sigma), min_size=1, max_size=n))
    d_pool = draw(st.lists(st.sampled_from([0.0, 0.5, max_d]) | st.floats(0.0, max_d), min_size=1, max_size=3))
    b_pool = draw(st.lists(_b, min_size=1, max_size=3))
    agents = [
        (*draw(st.sampled_from(pool)), draw(st.sampled_from(d_pool)), draw(st.sampled_from(b_pool)))
        for _ in range(n)
    ]
    return NetworkState(*map(list, zip(*agents)))
