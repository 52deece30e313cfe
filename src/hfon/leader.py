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
from .engine import LeaderReference, LocalReference, ReferenceScheme, TrajectoryRecord, _initial_spread, _run
from .opinions import NetworkState, neighbor_mask, neighborhood_sums


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


def step_blfg(centers, sigmas, d, b, leader_center: float, scheme: ReferenceScheme, rows=None):
    """One synchronous update of a follower group under a fixed leader value: new (centers, sigmas).

    An array kernel over (n,) arrays that checks nothing; run_blfg checks once.
    rows is passed on to neighborhood_sums.  Not exported: run_blfg calls it
    through this module global so that bench/tracing.py can wrap it by name.
    """
    return group_update(centers, sigmas, d, b, leader_center, scheme, rows)


def run_blfg(initial: NetworkState, config: BlfgConfig, steps: int) -> TrajectoryRecord:
    """Follower trajectory over `steps` updates; the exogenous leader is not recorded.

    Every follower's d and b must equal the config's.
    """
    if initial.n != config.n:
        raise ConfigurationError(f"config expects {config.n} followers, state has {initial.n}")
    for key, values, expected in (("d", initial.d, config.d), ("b", initial.b, config.b)):
        differs = np.nonzero(values != expected)[0]
        if differs.size:
            raise ConfigurationError(
                f"key {key!r} of the state must equal the config's {expected!r}, "
                f"got {float(values[differs[0]])!r} for follower {int(differs[0])}"
            )
    return _run(
        lambda c, s, t, rows: step_blfg(c, s, initial.d, initial.b, config.leader_at(t), config.scheme, rows),
        initial, steps, partition=(initial.d, initial.b),
    )


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
        tol = 1e-9 * max(1.0, _initial_spread(record))
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


def leader_weight_matrix(centers, sigmas, d) -> np.ndarray:
    """Stacked update weights of a group with the leader as last row and column.

    Works over the last axis: (k,) followers give (k+1, k+1), (G, k) blocks one
    matrix per group.  Row i < k places 1/(|N_i| + 1) on each of i's follower
    neighbors and on the leader column, zero elsewhere; the leader row keeps
    the leader fixed.
    """
    adj = neighbor_mask(centers, sigmas, d)
    k = adj.shape[-1]
    share = 1.0 / (adj.sum(axis=-1).astype(np.float64) + 1.0)
    w = np.zeros(adj.shape[:-2] + (k + 1, k + 1), dtype=np.float64)
    w[..., :k, :k] = adj * share[..., None]
    w[..., :k, k] = share
    w[..., k, k] = 1.0
    return w


@dataclass(frozen=True)
class ConvergenceConditions:
    """Checkable convergence conditions of stacked weight matrices, worst value over the stack.

    All four hold for every reachable group state: rows sum to one, every
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
    """Worst value of each convergence condition over a stack of (n+1) x (n+1) weight matrices.

    weights is one stacked matrix or an (..., n+1, n+1) stack of them.  The
    leader lies in the saturated closure of i exactly when i reaches the
    leader through positive weights, so the closures are checked by walking
    back from the leader column.
    """
    if weights.ndim < 2 or weights.shape[-2] != weights.shape[-1] or weights.shape[-1] < 2 or weights.size == 0:
        raise ValueError("need square stacked matrices with at least one follower")
    n = weights.shape[-1] - 1
    row_sum_error = float(np.abs(weights.sum(axis=-1) - 1.0).max())
    min_diagonal = float(np.diagonal(weights, axis1=-2, axis2=-1).min())
    support = weights > 0.0
    # a matrix without a positive entry reports 0.0, and so does any stack holding one
    min_positive = float(weights[support].min()) if support.any(axis=(-2, -1)).all() else 0.0
    reaches = np.zeros(weights.shape[:-1], dtype=bool)
    reaches[..., n] = True
    while True:
        grown = reaches | (support & reaches[..., None, :]).any(axis=-1)
        if (grown == reaches).all():
            break
        reaches = grown
    return ConvergenceConditions(
        row_sum_error=row_sum_error,
        min_diagonal=min_diagonal,
        min_positive_entry=min_positive,
        positive_entry_bound=1.0 / (n + 2) * (1.0 - 1e-12),
        closures_share_leader=bool(reaches.all()),
    )
