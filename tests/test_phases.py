"""Phased runs over one persistent population: spans, cluster reports, merge stability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfon import (
    ConfigurationError,
    InitialSpec,
    NetworkState,
    Phase,
    ScenarioConfig,
    detect_consensus_partition,
    phase_summary,
    run_bcfon,
    run_bu,
)
from hfon.engine import step_bcfon
from hfon.opinions import distinct_rows


class TestScheduleValidation:
    def test_phase_bounds(self):
        Phase(d=0.0, steps=0)
        Phase(d=1.0, steps=3)
        with pytest.raises(ConfigurationError):
            Phase(d=1.5, steps=3)
        with pytest.raises(ConfigurationError):
            Phase(d=0.5, steps=-1)
        with pytest.raises(ConfigurationError):
            Phase(d=0.5, steps=2.0)

    def test_empty_schedule_refused(self):
        with pytest.raises(ConfigurationError, match=r"^key 'phases' must be a non-empty list of Phase, got \(\)$"):
            run_bu(NetworkState([1.0], [1.0], 0.5, 0.5), ())

    @pytest.mark.parametrize("phases, shown", [
        ([0.5], r"\[0\.5\]"), ([(0.5, 2)], r"\[\(0\.5, 2\)\]"), (0.5, r"0\.5"),
    ])
    def test_run_bu_and_a_scenario_share_the_phase_list_rule(self, phases, shown):
        message = rf"^key 'phases' must be a non-empty list of Phase, got {shown}$"
        with pytest.raises(ConfigurationError, match=message):
            run_bu(NetworkState([1.0], [1.0], 0.5, 0.5), phases)
        with pytest.raises(ConfigurationError, match=message):
            ScenarioConfig(name="x", kind="bottomup", n=1, b=0.5, phases=phases,
                           initial=InitialSpec(centers="ramp", low=0.0, high=1.0, sigma=1.0))


class TestRunBu:
    def test_single_phase_equals_flat_run(self):
        rng = np.random.default_rng(11)
        centers = rng.uniform(0, 10, 20)
        sigmas = rng.uniform(0.1, 1.0, 20)
        phased = run_bu(NetworkState(centers, sigmas, 0.5, 0.3), (Phase(d=0.5, steps=25),))
        flat = run_bcfon(NetworkState(centers, sigmas, 0.5, 0.3), 25)
        assert np.array_equal(phased.centers, flat.centers)
        assert np.array_equal(phased.sigmas, flat.sigmas)

    def test_phase_spans(self):
        state = NetworkState([0.0, 1.0, 5.0], [1.0] * 3, 0.9, 0.2)
        record = run_bu(state, (Phase(0.9, 3), Phase(0.5, 4)))
        assert record.n_samples == 8
        assert record.phases == (Phase(0.9, 3), Phase(0.5, 4))
        assert [(r.d, r.t_end) for r in phase_summary(record)] == [(0.9, 3), (0.5, 7)]

    def test_next_phase_starts_from_previous_end(self):
        state = NetworkState([0.0, 1.0, 5.0, 9.0], [1.0] * 4, 0.9, 0.2)
        record = run_bu(state, (Phase(0.9, 3), Phase(0.3, 2)))
        # recompute the first phase-2 transition by hand from the recorded boundary row
        boundary = NetworkState(record.centers[3], record.sigmas[3], 0.3, 0.2)
        centers, sigmas = step_bcfon(boundary.centers, boundary.sigmas, boundary.d, boundary.b)
        assert np.array_equal(record.centers[4], centers)
        assert np.array_equal(record.sigmas[4], sigmas)

    def test_phase_d_overrides_state_d(self):
        centers, sigmas = [0.0, 1.0, 5.0], [1.0] * 3
        schedule = (Phase(0.7, 5),)
        carried = run_bu(NetworkState(centers, sigmas, 0.01, 0.3), schedule)
        plain = run_bu(NetworkState(centers, sigmas, 0.7, 0.3), schedule)
        assert np.array_equal(carried.centers, plain.centers)
        assert np.array_equal(carried.sigmas, plain.sigmas)
        # b is the state's own
        other_b = run_bu(NetworkState(centers, sigmas, 0.7, 9.0), schedule)
        assert not np.array_equal(other_b.sigmas, plain.sigmas)

    @given(
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]),
        steps=st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_phase_with_per_agent_b_equals_flat_run(self, n, seed, d, steps):
        # small pools, so agents share states and reach fixed points
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, max(1, n // 2), n)
        centers = rng.uniform(0.0, 10.0, n)[pool]
        sigmas = rng.choice([0.0, 0.5, 2.0], n)[pool]
        b = rng.choice([0.01, 0.3, 1.5], n)
        phased = run_bu(NetworkState(centers, sigmas, rng.uniform(0.0, 1.0, n), b), (Phase(d, steps),))
        flat = run_bcfon(NetworkState(centers, sigmas, d, b), steps)
        assert phased.centers.tobytes() == flat.centers.tobytes()
        assert phased.sigmas.tobytes() == flat.sigmas.tobytes()


class TestPhaseSummary:
    def run_two_blocks(self):
        # two tight pairs far apart; the d=0 phase collapses everyone
        state = NetworkState([0.0, 0.4, 10.0, 10.4], [1.0] * 4, 0.8, 0.2)
        return run_bu(state, (Phase(0.8, 2), Phase(0.0, 2)))

    def test_counts_and_fields(self):
        reports = phase_summary(self.run_two_blocks())
        assert [r.cluster_count for r in reports] == [2, 1]
        first = reports[0]
        assert first.phase == 0
        assert first.d == 0.8
        assert first.t_end == 2
        assert first.cluster_sizes == (2, 2)
        assert len(first.representatives) == 2
        assert first.max_sigma >= first.mean_sigma

    def test_gap_override(self):
        reports = phase_summary(self.run_two_blocks(), gap=50.0)
        assert [r.cluster_count for r in reports] == [1, 1]

    def test_requires_phases(self):
        record = run_bcfon(NetworkState([0.0, 1.0], [1.0] * 2, 0.5, 0.2), 2)
        with pytest.raises(ValueError):
            phase_summary(record)


def distinct_state_counts(record):
    """Distinct (center, sigma) pairs at every recorded step, by exact bits."""
    return np.array([
        distinct_rows(np.stack([c, s], axis=1))[0].size for c, s in zip(record.centers, record.sigmas)
    ])


class TestDistinctStates:
    def test_counts_identical_agents_once(self):
        state = NetworkState([1.0, 1.0, 2.0], [0.5, 0.5, 0.5], 0.5, 0.2)
        record = run_bcfon(state, 0)
        assert distinct_state_counts(record).tolist() == [2]

    def test_full_collapse(self):
        state = NetworkState([0.0, 0.4, 10.0, 10.4], [1.0] * 4, 0.8, 0.2)
        record = run_bu(state, (Phase(0.8, 2), Phase(0.0, 2)))
        counts = distinct_state_counts(record)
        assert counts[0] == 4
        assert counts[-1] == 1
        assert np.all(np.diff(counts) <= 0)

    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32),
        d1=st.floats(0.0, 1.0),
        d2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40)
    def test_never_increases(self, n, seed, d1, d2):
        # merged agents stay merged, so distinct states cannot multiply
        rng = np.random.default_rng(seed)
        state = NetworkState(rng.uniform(0, 10, n), rng.uniform(0.1, 1.0, n), d1, 0.3)
        counts = distinct_state_counts(run_bu(state, (Phase(d1, 4), Phase(d2, 4))))
        assert np.all(np.diff(counts) <= 0)


def _final_clusters(record) -> int:
    """Clusters of 2 or more agents at gap 1e-6 in the record's last row."""
    return sum(ids.size >= 2 for ids in detect_consensus_partition(record.centers[-1], 1e-6))


@pytest.mark.parametrize("b", [1e-3, 0.05])
def test_a_falling_schedule_keeps_more_opinions_than_a_flat_run(b):
    """The abstract's layer-by-layer bottom-up network as a measured law.

    500 agents uniform on [0, 10] with sigma 0.1, seeds 0-4; a cluster is a group of 2 or more
    at gap 1e-6.  run_bu splits 300 steps evenly over the thresholds 0.9, 0.7, 0.5, 0.3, 0.1,
    0.01 down to a final d, against 300 flat run_bcfon steps at that d.  Measured medians for
    final d = 0.7 ... 0.01: schedule 49, 35, 27, 18, 15 against flat 31, 22, 17, 12, 10 at
    b = 1e-3, and 48, 36, 26, 19, 12 against 30, 21, 17, 12, 8 at b = 0.05.  In every cell the
    schedule's fewest clusters over the seeds exceed the flat run's most.
    """
    grid = (0.9, 0.7, 0.5, 0.3, 0.1, 0.01)
    medians = []
    for last in range(1, len(grid)):
        thresholds, phased, flat = grid[:last + 1], [], []
        for seed in range(5):
            centers, sigmas = InitialSpec("uniform", 0.0, 10.0, 0.1).build(500, seed)
            phases = [Phase(d, 300 // len(thresholds)) for d in thresholds]
            phased.append(_final_clusters(run_bu(NetworkState(centers, sigmas, grid[0], b), phases)))
            flat.append(_final_clusters(run_bcfon(NetworkState(centers, sigmas, grid[last], b), 300)))
        assert min(phased) > max(flat), (grid[last], phased, flat)
        medians.append(np.median(phased))
    assert all(later <= earlier for earlier, later in zip(medians, medians[1:])), medians
