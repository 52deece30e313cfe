"""Flat network stepping, trajectory records, cluster partition, steps_to_target."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfon import (
    ConfigurationError,
    ExternalReference,
    HierarchySpec,
    InitialSpec,
    LeaderReference,
    LocalReference,
    NetworkState,
    Phase,
    TrajectoryRecord,
    detect_consensus_partition,
    run_bcfon,
    run_blfg,
    run_bu,
    run_td,
    steps_to_target,
)
from hfon.engine import _run, step_bcfon
from reference import flat_step, group_step, reference_record, tree_step


def step(state, scheme=LocalReference(), t=0):
    """step_bcfon over a state's arrays: new (centers, sigmas)."""
    return step_bcfon(state.centers, state.sigmas, state.d, state.b, scheme, t)


class TestStep:
    def test_two_agent_merge(self):
        # (0, 2) and (2, 2) are mutually close at d = 0.6; both land on the mean
        state = NetworkState([0.0, 2.0], [2.0, 2.0], 0.6, 0.5)
        centers, sigmas = step(state)
        assert centers.tolist() == [1.0, 1.0]
        assert sigmas.tolist() == [2.5, 2.5]

    def test_isolated_agents_hold_state(self):
        state = NetworkState([0.0, 100.0], [1.0, 1.0], 0.99, 0.5)
        centers, sigmas = step(state)
        assert centers.tolist() == [0.0, 100.0]
        assert sigmas.tolist() == [1.0, 1.0]  # u = 0 when the reference is the agent itself

    def test_leader_scheme_rejected(self):
        # checked once, at run entry, even when nothing is stepped
        state = NetworkState([0.0], [1.0], 0.5, 0.5)
        for steps in (0, 3):
            with pytest.raises(ConfigurationError):
                run_bcfon(state, steps, LeaderReference())

    @pytest.mark.parametrize("scheme, shown", [("local", "'local'"), (None, "None"), (LocalReference, "<class")])
    def test_a_scheme_that_is_not_one_refused(self, scheme, shown):
        # refused by name before any step, not as a partition the step would not take
        state = NetworkState([0.0, 1.0], [1.0, 1.0], 0.5, 0.5)
        for steps in (0, 3):
            with pytest.raises(ConfigurationError, match=f"^a flat network takes LocalReference\\(\\) or an "
                                                         f"ExternalReference, got {re.escape(shown)}"):
                run_bcfon(state, steps, scheme)

    def test_external_reference(self):
        state = NetworkState([0.0, 4.0], [1.0, 1.0], 0.99, 0.5)
        centers, sigmas = step(state, ExternalReference(lambda t, i: float(t + i)), t=3)
        assert centers.tolist() == [0.0, 4.0]
        # u_i = 0.5 * |center_i - (3 + i)|
        assert sigmas.tolist() == [2.5, 1.0]

    def test_external_signal_must_be_finite(self):
        state = NetworkState([0.0], [1.0], 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            step(state, ExternalReference(lambda t, i: float("nan")))
        with pytest.raises(ConfigurationError):
            step(state, ExternalReference(lambda t, i: None))

    def test_external_signal_exception_wrapped(self):
        state = NetworkState([0.0], [1.0], 0.5, 0.5)

        def broken(t, i):
            raise KeyError("no value")

        with pytest.raises(ConfigurationError, match="t=0, agent=0"):
            step(state, ExternalReference(broken))

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32), d=st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_matches_reference_stepper(self, n, seed, d):
        rng = np.random.default_rng(seed)
        state = NetworkState(rng.uniform(-5, 5, n), rng.uniform(0.1, 2.0, n), d, 0.3)
        centers, sigmas = step(state)
        ref_c, ref_s = flat_step(state.centers, state.sigmas, state.d, state.b)
        assert centers.tobytes() == ref_c.tobytes()
        assert sigmas.tobytes() == ref_s.tobytes()

    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_centers_stay_in_hull(self, n, seed):
        rng = np.random.default_rng(seed)
        state = NetworkState(rng.uniform(-5, 5, n), rng.uniform(0.1, 2.0, n), 0.4, 0.3)
        centers, _ = step(state)
        lo, hi = state.centers.min(), state.centers.max()
        pad = 1e-12 * max(1.0, abs(lo), abs(hi))
        assert centers.min() >= lo - pad
        assert centers.max() <= hi + pad


class TestRun:
    def test_record_shape_and_initial_row(self):
        state = NetworkState([0.0, 2.0], [2.0, 2.0], 0.6, 0.5)
        record = run_bcfon(state, 5)
        assert record.n_samples == 6
        assert record.n_agents == 2
        assert record.times.tolist() == [0, 1, 2, 3, 4, 5]
        assert np.array_equal(record.centers[0], state.centers)
        assert np.array_equal(record.sigmas[0], state.sigmas)
        assert record.levels is None and record.groups is None

    def test_zero_steps(self):
        state = NetworkState([1.0], [1.0], 0.5, 0.5)
        record = run_bcfon(state, 0)
        assert record.n_samples == 1

    def test_negative_steps_rejected(self):
        state = NetworkState([1.0], [1.0], 0.5, 0.5)
        with pytest.raises(ValueError):
            run_bcfon(state, -1)

    @pytest.mark.parametrize("steps", [2.0, 2.5, "3", -1, True])
    @pytest.mark.parametrize("engine", ["bcfon", "blfg", "td", "bu"])
    def test_steps_must_be_an_integer(self, engine, steps):
        # run_bu's Phase checks its own steps, as a ConfigurationError, which is a ValueError
        state = NetworkState([1.0, 2.0], [1.0, 1.0], 0.5, 0.5)
        message = f"{'phase steps' if engine == 'bu' else 'steps'} must be an integer >= 0, got {steps!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            {
                "bcfon": lambda: run_bcfon(state, steps),
                "blfg": lambda: run_blfg(state, steps, LocalReference(), 1.0),
                "td": lambda: run_td(HierarchySpec((2,)), state, steps, LocalReference(), 1.0),
                "bu": lambda: run_bu(state, [Phase(0.5, steps)]),
            }[engine]()

    def test_times_and_signal_start_at_zero(self):
        seen = []

        def signal(t, i):
            seen.append(t)
            return 0.0

        state = NetworkState([1.0], [1.0], 0.5, 0.5)
        record = run_bcfon(state, 3, ExternalReference(signal))
        assert record.times.tolist() == [0, 1, 2, 3]
        assert seen == [0, 1, 2]

    def test_run_matches_repeated_steps(self):
        state = NetworkState([0.0, 1.0, 5.0], [1.0, 1.0, 1.0], 0.5, 0.2)
        record = run_bcfon(state, 4)
        centers, sigmas = reference_record(lambda c, s, t: flat_step(c, s, state.d, state.b), state, 4)
        assert record.centers.tobytes() == centers.tobytes()
        assert record.sigmas.tobytes() == sigmas.tobytes()

    def test_no_state_is_built_inside_a_run(self, monkeypatch):
        # the initial state is validated once; steps work on raw arrays
        flat = NetworkState([0.0, 1.0, 5.0], [1.0, 1.0, 1.0], 0.5, 0.2)
        tree = NetworkState([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 6, 0.5, 0.2)
        built = []
        original = NetworkState.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(NetworkState, "__init__", counting)
        records = [
            run_bcfon(flat, 3),
            run_blfg(flat, 3, LeaderReference(), 10.0),
            run_td(HierarchySpec((2, 2)), tree, 3, LocalReference(), 10.0),
            run_bu(flat, (Phase(0.9, 2), Phase(0.3, 2))),
        ]
        assert [r.n_samples for r in records] == [4, 4, 4, 5]
        assert built == []

    def test_overflow_names_the_step(self):
        state = NetworkState([1e308, 1.7e308], [1.0, 1.0], 0.0, 0.5)
        with pytest.raises(ValueError, match=r"step 0 -> 1 overflowed"):
            run_bcfon(state, 3)

    def test_overflow_in_a_later_phase_names_its_step(self):
        # at d = 1 each agent hears only itself and nothing moves; at d = 0 the sum overflows
        state = NetworkState([1e308, 1.7e308], [1.0, 1.0], 0.5, 0.5)
        with pytest.raises(ValueError, match=r"step 3 -> 4 overflowed"):
            run_bu(state, (Phase(1.0, 3), Phase(0.0, 2), Phase(0.5, 2)))

    # followers at 0 close in on the leader L, so the sum 2c + L first passes float range at step 3
    _climbing = NetworkState([0.0, 0.0], [1.0, 1.0], 0.0, 0.5)

    def test_overflow_early_in_a_long_run_names_its_step(self):
        with pytest.raises(ValueError, match=r"step 3 -> 4 overflowed"):
            run_blfg(self._climbing, 50, LeaderReference(), 0.8e308)

    @pytest.mark.parametrize("leader, error, message", [
        (0.8e308, ValueError, r"step 3 -> 4 overflowed"),
        (1.0, ConfigurationError, r"leader center at t=5 must be finite, got nan"),
    ])
    def test_overflow_is_reported_before_a_later_step_fails(self, leader, error, message):
        # the leader turns NaN at t = 5; an overflow at step 3 is the earlier failure
        with pytest.raises(error, match=message):
            run_blfg(self._climbing, 50, LeaderReference(), lambda t: leader if t < 5 else math.nan)

    def test_index_of(self):
        state = NetworkState([0.0, 1.0, 5.0], [1.0, 1.0, 1.0], 0.5, 0.2)
        record = run_bcfon(state, 4)
        assert record.index_of(3) == 3
        with pytest.raises(KeyError):
            record.index_of(99)


def calls_to(monkeypatch, module, name):
    """Patch module.name to log the positional arguments of each call; returns the log."""
    log = []
    original = getattr(module, name)

    def logged(*args, **kwargs):
        log.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)
    return log


def assert_same_record(record, reference):
    assert record.centers.tobytes() == reference[0].tobytes()
    assert record.sigmas.tobytes() == reference[1].tobytes()


def has_fixed_point(centers, sigmas, before: int) -> bool:
    """Whether some step k -> k+1 with k < before leaves every bit of the state unchanged."""
    same = [(a[1:] == a[:-1]).all(axis=1) for a in (centers.view(np.uint64), sigmas.view(np.uint64))]
    return bool((same[0] & same[1])[:before].any())


class TestFastForward:
    """A run copies a bitwise fixed point forward to the end of its segment.

    Each record equals the dense reference, which takes every step, bit for bit,
    and the step calls show where the run jumped.
    """

    # at d = 0.9 the agents at 0 and 4 hear only themselves and hold still; at d = 0 they
    # merge to (2, 2) in one step, and a merged state holds still under any d
    _pair = NetworkState([0.0, 4.0], [1.0, 1.0], 0.5, 0.5)

    @pytest.mark.parametrize("phases, stepped", [
        # held from t = 0 until phase 2 merges the pair at t = 5; held again from t = 6
        ([(0.9, 5), (0.0, 4), (0.9, 3)], [0, 5, 6, 9]),
        # the first fixed step is phase 1's last; an empty phase shares the next start
        ([(0.0, 2), (0.5, 0), (0.9, 3)], [0, 1, 2]),
        # a fixed point that holds across two boundaries and an empty phase
        ([(0.0, 3), (0.3, 0), (0.9, 4), (0.0, 2)], [0, 1, 3, 7]),
        # the pair merges on a phase's only step and holds still only after the boundary
        ([(0.9, 0), (0.0, 1), (0.9, 3), (0.0, 0)], [0, 1]),
    ])
    def test_bottom_up_resumes_at_each_phase_start(self, monkeypatch, phases, stepped):
        import hfon.phases

        d_at = [d for d, n in phases for _ in range(n)]
        reference = reference_record(lambda c, s, t: flat_step(c, s, np.full(2, d_at[t]), self._pair.b),
                                     self._pair, len(d_at))
        log = calls_to(monkeypatch, hfon.phases, "step_bcfon")
        record = run_bu(self._pair, tuple(Phase(d, n) for d, n in phases))
        assert_same_record(record, reference)
        assert [args[5] for args in log] == stepped  # step_bcfon's t

    def test_external_reference_never_fast_forwards(self, monkeypatch):
        import hfon.engine

        # each agent's signal is its own center, so nothing moves, until t = 6
        scheme = ExternalReference(lambda t, i: 4.0 * i + (t >= 6))
        state = NetworkState([0.0, 4.0], [1.0, 1.0], 0.9, 0.5)
        reference = reference_record(
            lambda c, s, t: flat_step(c, s, state.d, state.b, np.array([scheme.signal(t, i) for i in range(2)])),
            state, 10,
        )
        assert has_fixed_point(*reference, before=6)
        log = calls_to(monkeypatch, hfon.engine, "step_bcfon")
        record = run_bcfon(state, 10, scheme)
        assert_same_record(record, reference)
        assert len(log) == 10
        assert record.sigmas[-1, 0] > record.sigmas[6, 0]

    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    @pytest.mark.parametrize("moving", [False, True])
    def test_group_under_constant_and_callable_leaders(self, monkeypatch, scheme, moving):
        import hfon.leader

        # the followers settle on the leader well before t = 150, where the moving one jumps
        leader = (lambda t: 10.0 if t < 150 else 12.0) if moving else 10.0
        state = NetworkState([0.0, 1.0, 3.0], [1.0, 0.5, 1.0], 0.5, 0.1)
        local = isinstance(scheme, LocalReference)
        reference = reference_record(
            lambda c, s, t: group_step(c, s, state.d, state.b, leader(t) if moving else leader, local), state, 200
        )
        assert has_fixed_point(*reference, before=150)
        log = calls_to(monkeypatch, hfon.leader, "step_blfg")
        record = run_blfg(state, 200, scheme, leader)
        assert_same_record(record, reference)
        if moving:
            assert len(log) == 200
            assert record.centers[-1, 0] > 10.0
        else:
            assert len(log) < 150

    @pytest.mark.parametrize("scheme", [LocalReference(), LeaderReference()])
    def test_top_down_both_schemes(self, monkeypatch, scheme):
        import hfon.hierarchy

        spec = HierarchySpec((3, 2))
        state = NetworkState(np.linspace(5.0, 25.0, spec.n_agents), np.full(spec.n_agents, 1.0), 0.6, 0.01)
        local = isinstance(scheme, LocalReference)
        reference = reference_record(
            lambda c, s, t: tree_step(spec.group_sizes, c, s, state.d, state.b, 10.0, local), state, 600
        )
        log = calls_to(monkeypatch, hfon.hierarchy, "step_td")
        record = run_td(spec, state, 600, scheme, 10.0)
        assert_same_record(record, reference)
        assert len(log) < 600

    def test_overflow_then_a_nan_fixed_point_names_the_same_step(self, monkeypatch):
        import hfon.engine

        log = calls_to(monkeypatch, hfon.engine, "step_bcfon")
        for state, expected in [
            # the sum overflows at step 0 -> 1; from there the state turns NaN and holds still
            (NetworkState([1e308, 1.7e308], [1.0, 1.0], 0.0, 0.5), 1),
            # one shared state from the start: step 0 -> 1 rounds its center up, and step
            # 1 -> 2, on float64 scalars, overflows the center sum
            (NetworkState(np.full(39, 4.609469576570039e306), np.ones(39), 0.0, 0.5), 2),
        ]:
            with np.errstate(all="ignore"):
                centers, sigmas = reference_record(lambda c, s, t: flat_step(c, s, state.d, state.b), state, 50)
            assert np.isnan(centers[-1]).all() and has_fixed_point(centers, sigmas, before=49)
            first_bad = int(np.argmin(np.isfinite(centers).all(axis=1) & np.isfinite(sigmas).all(axis=1)))
            assert first_bad == expected
            log.clear()
            with pytest.raises(ValueError, match=rf"step {first_bad - 1} -> {first_bad} overflowed"):
                run_bcfon(state, 50)
            assert len(log) < 10
        # the shared state steps as (1,) arrays, then as scalars from then on, overflowed or not
        assert [np.ndim(args[-1].centers) for args in log[:3]] == [1, 0, 0]

    @staticmethod
    def _record(step, segments, still=True, center=0.0):
        """_run over one segment of each length in segments, every one stepping step."""
        return _run(NetworkState([center, 1.0], [1.0, 1.0], 0.5, 0.5), [(n, step, None) for n in segments], still)

    def test_states_are_compared_by_their_bits(self):
        # -0.0 -> 0.0 is no fixed point, although the two compare equal as floats
        def step(c, s, t, rows):
            return np.where(np.signbit(c), 0.0, np.minimum(c + 1.0, 2.0)), s

        record = self._record(step, [6], center=-0.0)
        assert record.centers[:, 0].tolist() == [0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 2.0]
        assert np.signbit(record.centers[0, 0])

    def test_change_points_bound_each_jump(self):
        seen = []

        def step(c, s, t, rows):
            seen.append(t)
            return c + (t in (4, 9)), s

        record = self._record(step, [4, 5, 3], center=0.0)
        assert seen == [0, 4, 5, 9, 10]
        assert record.centers[:, 0].tolist() == [0.0] * 5 + [1.0] * 5 + [2.0] * 3
        assert len(self._record(step, [4, 5, 3], still=False).times) == 13
        assert seen[5:] == list(range(12))

    def test_a_step_that_raises_after_a_jump_reports_the_earlier_overflow(self):
        # overflow at step 2 -> 3, an inf fixed point from there, and a failing step at t = 10
        def step(c, s, t, rows):
            if t == 10:
                raise ConfigurationError("step 10 failed")
            return c * (1e100 if t < 3 else 1.0), s

        with pytest.raises(ValueError, match=r"step 2 -> 3 overflowed"):
            self._record(step, [10, 10], center=1e100)
        with pytest.raises(ConfigurationError, match="step 10 failed"):
            self._record(step, [10, 10], center=1.0)


class TestStepsToTarget:
    def test_first_recorded_hit(self):
        record = TrajectoryRecord(
            times=np.arange(3),
            centers=np.array([[0.0, 20.0], [9.0, 11.0], [9.95, 10.05]]),
            sigmas=np.zeros((3, 2)),
        )
        # spread0 = 20, so the window is |center - 10| < 0.2
        assert steps_to_target(record, 10.0) == 2
        assert steps_to_target(record, 10.0, fraction=0.1) == 1
        assert steps_to_target(record, 10.0, fraction=1e-4) is None


class TestClusterPartition:
    def test_interval_clusters(self):
        centers = [1.0, 1.1, 5.0, 5.05, -3.0]
        blocks = detect_consensus_partition(centers, 0.5)
        assert [b.tolist() for b in blocks] == [[4], [0, 1], [2, 3]]

    def test_zero_gap_groups_exact_equals(self):
        blocks = detect_consensus_partition([2.0, 2.0, 3.0], 0.0)
        assert [b.tolist() for b in blocks] == [[0, 1], [2]]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            detect_consensus_partition([], 0.5)
        with pytest.raises(ValueError):
            detect_consensus_partition([1.0], -0.5)
        with pytest.raises(ValueError):
            detect_consensus_partition([1.0], float("nan"))

    @given(seed=st.integers(0, 2**32), gap=st.floats(0.0, 5.0))
    @settings(max_examples=40)
    def test_partition_covers_everyone_once(self, seed, gap):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-10, 10, 30)
        blocks = detect_consensus_partition(centers, gap)
        all_ids = np.sort(np.concatenate(blocks))
        assert np.array_equal(all_ids, np.arange(30))
        # adjacent clusters really are separated by more than gap
        reps = [centers[b].max() for b in blocks]
        lows = [centers[b].min() for b in blocks]
        for k in range(len(blocks) - 1):
            assert lows[k + 1] - reps[k] > gap


@pytest.mark.parametrize("b", [1e-3, 0.05])
def test_few_opinions_survive_and_their_count_follows_the_radius(b):
    """The bottom-up "few opinions" claim as a measured law, on a flat network.

    500 agents uniform on [0, L = 10] with sigma 0.1, 300 steps, seeds 0-4; a cluster is a
    group of 2 or more at gap 1e-6.  With equal sigmas agent i hears j exactly when
    |c_i - c_j| <= eps = 2 sigma sqrt(-ln d), and the median cluster count falls with d,
    staying near L / (2 eps).  Measured medians for d = 0.9 ... 0.01: 53, 31, 22, 17, 12, 10
    at b = 1e-3 and 54, 30, 21, 17, 12, 8 at b = 0.05, 0.69-0.86 x L / (2 eps); the band
    asserted is 0.65-0.9.
    """
    medians, ratios = [], []
    for d in (0.9, 0.7, 0.5, 0.3, 0.1, 0.01):
        counts = []
        for seed in range(5):
            centers, sigmas = InitialSpec("uniform", 0.0, 10.0, 0.1).build(500, seed)
            final = run_bcfon(NetworkState(centers, sigmas, d, b), 300).centers[-1]
            counts.append(sum(ids.size >= 2 for ids in detect_consensus_partition(final, 1e-6)))
        medians.append(np.median(counts))
        ratios.append(medians[-1] / (10.0 / (2.0 * 2.0 * 0.1 * math.sqrt(-math.log(d)))))
    assert all(later <= earlier for earlier, later in zip(medians, medians[1:]))
    assert 0.65 <= min(ratios) and max(ratios) <= 0.9, ratios


@pytest.mark.parametrize("d", [0.9, 0.5, 0.1])
def test_uncertainty_growth_merges_clusters(d):
    """Sigma growth widens every agent's radius, so a larger b leaves no more clusters.

    The runs above with b = 0.05, 0.2, 0.5 and 1.0.  Measured medians: 54, 54, 53, 50 at
    d = 0.9; 21, 20, 18, 9 at d = 0.5; 12, 10, 6, 1 at d = 0.1, where the median max sigma
    rises from 0.118 to 3.705 and b = 1.0 ends in one cluster for every seed.
    """
    medians = []
    for b in (0.05, 0.2, 0.5, 1.0):
        counts = []
        for seed in range(5):
            centers, sigmas = InitialSpec("uniform", 0.0, 10.0, 0.1).build(500, seed)
            final = run_bcfon(NetworkState(centers, sigmas, d, b), 300).centers[-1]
            counts.append(sum(ids.size >= 2 for ids in detect_consensus_partition(final, 1e-6)))
        medians.append(np.median(counts))
    assert all(later <= earlier for earlier, later in zip(medians, medians[1:])), medians
    if d == 0.1:
        assert counts == [1] * 5
