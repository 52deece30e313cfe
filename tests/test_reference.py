"""The plain reference simulator (tests/reference.py) as the oracle for all four engines, bit for bit.

Every recorded bit of every engine must equal the reference's.  The property
runs twice: as the engines run, and with kernel chunks of 1-3 rows, so that
flat runs also take the kernel's center-window path.  A new engine or
mechanism is tested by drawing it in runs() below.
"""

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
    Phase,
    run_bcfon,
    run_blfg,
    run_bu,
    run_td,
)
from reference import center_values, flat_step, group_step, leader_values, reference_record, states, tree_step


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
        local, leader = draw(st.booleans()), draw(leader_values)
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
            leaders = draw(st.lists(leader_values, min_size=max(steps, 1), max_size=max(steps, 1)))
            leader = leaders.__getitem__
            at = leader
        else:
            leader = draw(leader_values)
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
    offsets = draw(st.lists(center_values, min_size=n, max_size=n))
    drift = draw(st.lists(center_values, min_size=max(steps, 1), max_size=max(steps, 1)))
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
