"""Phased runs over one persistent population: spans, cluster reports, merge stability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfon import (
    ConfigurationError,
    NetworkState,
    Phase,
    PhaseSchedule,
    phase_summary,
    run_bcfon,
    run_bu,
    step_bcfon,
)
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

    def test_schedule_bounds(self):
        with pytest.raises(ConfigurationError):
            PhaseSchedule(phases=(), b=0.5)
        with pytest.raises(ConfigurationError):
            PhaseSchedule(phases=(Phase(0.5, 1),), b=0.0)
        schedule = PhaseSchedule(phases=(Phase(0.9, 3), Phase(0.5, 4)), b=0.5)
        assert schedule.total_steps == 7


class TestRunBu:
    def test_single_phase_equals_flat_run(self):
        rng = np.random.default_rng(11)
        centers = rng.uniform(0, 10, 20)
        sigmas = rng.uniform(0.1, 1.0, 20)
        schedule = PhaseSchedule(phases=(Phase(d=0.5, steps=25),), b=0.3)
        phased = run_bu(NetworkState(centers, sigmas, 0.5, 0.3), schedule)
        flat = run_bcfon(NetworkState(centers, sigmas, 0.5, 0.3), 25)
        assert np.array_equal(phased.centers, flat.centers)
        assert np.array_equal(phased.sigmas, flat.sigmas)

    def test_phase_spans(self):
        state = NetworkState([0.0, 1.0, 5.0], [1.0] * 3, 0.9, 0.2)
        record = run_bu(state, PhaseSchedule(phases=(Phase(0.9, 3), Phase(0.5, 4)), b=0.2))
        assert record.n_samples == 8
        assert [(s.d, s.t_start, s.t_end) for s in record.phases] == [
            (0.9, 0, 3),
            (0.5, 3, 7),
        ]

    def test_next_phase_starts_from_previous_end(self):
        state = NetworkState([0.0, 1.0, 5.0, 9.0], [1.0] * 4, 0.9, 0.2)
        record = run_bu(state, PhaseSchedule(phases=(Phase(0.9, 3), Phase(0.3, 2)), b=0.2))
        # recompute the first phase-2 transition by hand from the recorded boundary row
        boundary = NetworkState(record.centers[3], record.sigmas[3], 0.3, 0.2)
        centers, sigmas = step_bcfon(boundary.centers, boundary.sigmas, boundary.d, boundary.b)
        assert np.array_equal(record.centers[4], centers)
        assert np.array_equal(record.sigmas[4], sigmas)

    def test_schedule_overrides_state_params(self):
        centers, sigmas = [0.0, 1.0, 5.0], [1.0] * 3
        schedule = PhaseSchedule(phases=(Phase(0.7, 5),), b=0.3)
        carried = run_bu(NetworkState(centers, sigmas, 0.01, 9.0), schedule)
        plain = run_bu(NetworkState(centers, sigmas, 0.7, 0.3), schedule)
        assert np.array_equal(carried.centers, plain.centers)
        assert np.array_equal(carried.sigmas, plain.sigmas)


class TestPhaseSummary:
    def run_two_blocks(self):
        # two tight pairs far apart; the d=0 phase collapses everyone
        state = NetworkState([0.0, 0.4, 10.0, 10.4], [1.0] * 4, 0.8, 0.2)
        return run_bu(state, PhaseSchedule(phases=(Phase(0.8, 2), Phase(0.0, 2)), b=0.2))

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
        record = run_bu(state, PhaseSchedule(phases=(Phase(0.8, 2), Phase(0.0, 2)), b=0.2))
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
        schedule = PhaseSchedule(phases=(Phase(d1, 4), Phase(d2, 4)), b=0.3)
        counts = distinct_state_counts(run_bu(state, schedule))
        assert np.all(np.diff(counts) <= 0)
