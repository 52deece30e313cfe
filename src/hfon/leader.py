"""Leader-follower group: followers average each other plus a leader they cannot hear back.

The leader joins every follower's average with the same unit weight as one
neighbor but never updates itself.  After the followers reach consensus the
group tracks the leader geometrically: the gap shrinks by n/(n+1) per step.
The closed forms for that regime live here next to the simulator so they can
be checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError
from .engine import LeaderReference, LocalReference, ReferenceScheme, TrajectoryRecord, _allocate
from .opinions import NetworkState, distinct_agents, neighbor_mask, neighborhood_sums


def group_update(centers, sigmas, d, b, leader_center, scheme, rows=None):
    """One synchronous follower update with the leader mixed into every average.

    Inputs are (k,) vectors for one group or (G, k) blocks, one row per group;
    leader_center is a scalar or a (G, 1) column.  Neighbor sets are taken
    among a group's followers only; the leader is appended to every agent's
    average with weight 1/(|N_i| + 1).  rows is passed on to
    neighborhood_sums.  Returns new (centers, sigmas).
    """
    counts, center_sums, sigma_sums = neighborhood_sums(centers, sigmas, d, rows)
    new_centers = (center_sums + leader_center) / (counts + 1.0)
    if isinstance(scheme, LocalReference):
        reference = center_sums / counts  # follower neighborhood mean, leader excluded
    else:
        reference = leader_center
    u = b * np.abs(centers - reference)
    new_sigmas = sigma_sums / counts + u
    return new_centers, new_sigmas


def _check_group_scheme(scheme: ReferenceScheme):
    if not isinstance(scheme, (LocalReference, LeaderReference)):
        raise ConfigurationError(
            "leader-follower groups accept only the local or leader reference scheme"
        )


def _check_group_thresholds(d: np.ndarray):
    if np.any(d >= 1.0):
        raise ConfigurationError("follower thresholds d must lie in [0, 1) inside a group")


@dataclass(frozen=True)
class BlfgConfig:
    """Scenario-level description of one leader-follower group.

    leader may be a constant or a callable t -> center for a moving leader.
    The closed-form predictors assume a constant leader.
    """

    n: int
    d: float
    b: float
    scheme: ReferenceScheme
    leader: Union[float, Callable[[int], float]]

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ConfigurationError("follower count n must be an integer >= 1")
        if not (np.isfinite(self.d) and 0.0 <= self.d < 1.0):
            raise ConfigurationError("group threshold d must lie in [0, 1)")
        if not (np.isfinite(self.b) and self.b > 0.0):
            raise ConfigurationError("uncertainty gain b must be positive")
        _check_group_scheme(self.scheme)
        if not callable(self.leader) and not np.isfinite(self.leader):
            raise ConfigurationError("leader center must be finite")

    def leader_at(self, t: int) -> float:
        value = self.leader(t) if callable(self.leader) else self.leader
        if not np.isfinite(value):
            raise ConfigurationError(f"leader center must be finite at t={t}, got {value!r}")
        return float(value)

    def initial_state(self, centers, sigmas) -> NetworkState:
        """Uniform-parameter follower state for this group."""
        state = NetworkState(centers, sigmas, self.d, self.b)
        if state.n != self.n:
            raise ConfigurationError(f"expected {self.n} followers, got {state.n}")
        return state


def step_blfg(state: NetworkState, leader_center: float, scheme: ReferenceScheme) -> NetworkState:
    """One synchronous update of a follower group under a fixed leader value."""
    _check_group_scheme(scheme)
    _check_group_thresholds(state.d)
    new_centers, new_sigmas = group_update(
        state.centers, state.sigmas, state.d, state.b, leader_center, scheme,
        distinct_agents(state),
    )
    return NetworkState(new_centers, new_sigmas, state.d, state.b)


def run_blfg(initial: NetworkState, config: BlfgConfig, steps: int) -> TrajectoryRecord:
    """Follower trajectory over `steps` updates; the exogenous leader is not recorded."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if initial.n != config.n:
        raise ConfigurationError(f"config expects {config.n} followers, state has {initial.n}")
    _check_group_thresholds(initial.d)
    centers, sigmas = _allocate(initial, steps)
    state = initial
    for k in range(steps):
        state = step_blfg(state, config.leader_at(k), config.scheme)
        centers[k + 1] = state.centers
        sigmas[k + 1] = state.sigmas
    return TrajectoryRecord(times=np.arange(steps + 1), centers=centers, sigmas=sigmas)


@dataclass(frozen=True)
class ConsensusReport:
    """First step from which the record stays in consensus, and the common state just after.

    center and sigma are read one step after t_consensus (at t_consensus when
    the record ends there), where the agreed values have settled.
    """

    t_consensus: int
    center: float
    sigma: float


def detect_consensus_time(record: TrajectoryRecord, tol: float | None = None) -> ConsensusReport | None:
    """Earliest recorded step where centers and sigmas agree within tol, persisting to the end.

    tol defaults to 1e-9 * max(1, initial center spread).  Returns None when no
    such step exists in the record.
    """
    if record.n_samples == 0:
        return None
    if tol is None:
        spread0 = float(record.centers[0].max() - record.centers[0].min())
        tol = 1e-9 * max(1.0, spread0)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be finite and >= 0")
    center_spread = record.centers.max(axis=1) - record.centers.min(axis=1)
    sigma_spread = record.sigmas.max(axis=1) - record.sigmas.min(axis=1)
    agree = (center_spread <= tol) & (sigma_spread <= tol)
    late_bad = np.nonzero(~agree)[0]
    k = 0 if late_bad.size == 0 else int(late_bad[-1]) + 1
    if k >= record.n_samples:
        return None
    kv = min(k + 1, record.n_samples - 1)
    return ConsensusReport(
        t_consensus=int(record.times[k]),
        center=float(record.centers[kv].mean()),
        sigma=float(record.sigmas[kv].mean()),
    )


def _check_predictor_args(n: int, t_offset: int):
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be an integer >= 1")
    if not (isinstance(t_offset, int) and t_offset >= 0):
        raise ValueError("t_offset must be an integer >= 0")


def predict_center(consensus_center: float, leader_center: float, n: int, t_offset: int) -> float:
    """Common follower center t_offset steps after consensus under a constant leader.

    The gap to the leader decays by n/(n+1) each step.
    """
    _check_predictor_args(n, t_offset)
    q = n / (n + 1)
    return leader_center + q**t_offset * (consensus_center - leader_center)


def predict_sigma_leader_ref(
    consensus_sigma: float,
    consensus_center: float,
    leader_center: float,
    n: int,
    b: float,
    t_offset: int,
) -> float:
    """Common sigma t_offset steps after consensus under the leader reference scheme.

    Each step adds b times the then-current gap to the leader, so sigma grows by
    b * |gap at consensus| * sum of the first t_offset powers of n/(n+1).
    """
    _check_predictor_args(n, t_offset)
    q = n / (n + 1)
    geometric = (1.0 - q**t_offset) / (1.0 - q)
    return consensus_sigma + b * abs(consensus_center - leader_center) * geometric


def predict_sigma_limit(
    consensus_sigma: float, consensus_center: float, leader_center: float, n: int, b: float
) -> float:
    """Limit of the leader-reference sigma: consensus sigma plus b * |gap| * (n + 1)."""
    _check_predictor_args(n, 0)
    return consensus_sigma + b * abs(consensus_center - leader_center) * (n + 1)


def steps_to_error_fraction(n: int, epsilon: float) -> float:
    """Post-consensus steps for the leader gap to shrink to the fraction epsilon.

    log(epsilon) / (log n - log(n+1)); epsilon must lie strictly inside (0, 1).
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be an integer >= 1")
    if not (np.isfinite(epsilon) and 0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return math.log(epsilon) / (math.log(n) - math.log(n + 1))


def leader_weight_matrix(state: NetworkState) -> np.ndarray:
    """Stacked update weights of the group with the leader as last row and column.

    Row i <= n-1 places 1/(|N_i| + 1) on each of i's follower neighbors and on
    the leader column, zero elsewhere; the leader row keeps the leader fixed.
    """
    n = state.n
    adj = neighbor_mask(state.centers, state.sigmas, state.d)
    share = 1.0 / (adj.sum(axis=1).astype(np.float64) + 1.0)
    w = np.zeros((n + 1, n + 1), dtype=np.float64)
    w[:n, :n] = adj * share[:, None]
    w[:n, n] = share
    w[n, n] = 1.0
    return w


def saturated_closure(weights: np.ndarray, i: int) -> np.ndarray:
    """Smallest saturated set containing i: ids reachable through positive weights.

    A set is saturated when every member's row places all its weight inside
    the set.
    """
    m = weights.shape[0]
    if not 0 <= i < m:
        raise ValueError(f"index {i} out of range for {m} rows")
    support = weights > 0.0
    member = np.zeros(m, dtype=bool)
    member[i] = True
    while True:
        grown = member | support[member].any(axis=0)
        if (grown == member).all():
            return np.nonzero(member)[0]
        member = grown


@dataclass(frozen=True)
class ConvergenceConditions:
    """Checkable convergence conditions of the stacked weight matrix.

    All three hold for every reachable group state: rows sum to one, every
    diagonal entry is positive, every positive entry stays above 1/(n+2), and
    all saturated sets share the leader (so any two of them intersect).
    """

    row_sum_error: float
    min_diagonal: float
    min_positive_entry: float
    positive_entry_bound: float
    closures_share_leader: bool

    @property
    def row_stochastic(self) -> bool:
        return self.row_sum_error <= 1e-12

    @property
    def positive_diagonal(self) -> bool:
        return self.min_diagonal > 0.0

    @property
    def entries_above_bound(self) -> bool:
        return self.min_positive_entry >= self.positive_entry_bound

    @property
    def ok(self) -> bool:
        return (
            self.row_stochastic
            and self.positive_diagonal
            and self.entries_above_bound
            and self.closures_share_leader
        )


def convergence_conditions(weights: np.ndarray) -> ConvergenceConditions:
    """Evaluate the convergence conditions on a stacked (n+1) x (n+1) weight matrix."""
    m = weights.shape[0]
    if weights.ndim != 2 or weights.shape != (m, m) or m < 2:
        raise ValueError("need a square stacked matrix with at least one follower")
    n = m - 1
    row_sum_error = float(np.abs(weights.sum(axis=1) - 1.0).max())
    min_diagonal = float(np.diagonal(weights).min())
    positive = weights[weights > 0.0]
    min_positive = float(positive.min()) if positive.size else 0.0
    bound = 1.0 / (n + 2) * (1.0 - 1e-12)
    leader = n
    share_leader = all(leader in saturated_closure(weights, i) for i in range(m))
    return ConvergenceConditions(
        row_sum_error=row_sum_error,
        min_diagonal=min_diagonal,
        min_positive_entry=min_positive,
        positive_entry_bound=bound,
        closures_share_leader=share_leader,
    )
