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

from .errors import ConfigurationError, _integer, _number
from .engine import LeaderReference, LocalReference, ReferenceScheme, TrajectoryRecord, _initial_spread, _run
from .opinions import NetworkState, neighbor_mask, neighborhood_sums


def group_update(centers, sigmas, d, b, leader_center, scheme, rows=None):
    """One synchronous follower update with the leader mixed into every average.

    Inputs are (k,) vectors for one group or (G, k) blocks, one row per group;
    leader_center is a scalar or a (G, 1) column.  Neighbor sets are taken
    among a group's followers only; the leader is appended to every agent's
    average with weight 1/(|N_i| + 1).  rows, a Partition of (n,) vectors,
    updates only its k distinct states, from their (center, sigma, d, b) in
    place of the agents', and returns (k,) arrays: under either scheme the
    reference is shared within a state.  Returns new (centers, sigmas).
    """
    counts, center_sums, sigma_sums = neighborhood_sums(centers, sigmas, d, rows)
    if rows is not None:
        centers, b = rows.centers, rows.b
    new_centers = (center_sums + leader_center) / (counts + 1.0)
    if isinstance(scheme, LocalReference):
        reference = center_sums / counts  # follower neighborhood mean, leader excluded
    else:
        reference = leader_center
    u = b * np.abs(centers - reference)
    new_sigmas = sigma_sums / counts + u
    return new_centers, new_sigmas


def _check_group(scheme: ReferenceScheme, d: np.ndarray):
    """A group run's scheme and threshold preconditions, in this order; the run checks its leader after them."""
    if not isinstance(scheme, (LocalReference, LeaderReference)):
        raise ConfigurationError(
            "leader-follower groups accept only the local or leader reference scheme"
        )
    if np.any(d >= 1.0):
        raise ConfigurationError("follower thresholds d must lie in [0, 1) inside a group")


def step_blfg(centers, sigmas, d, b, leader_center: float, scheme: ReferenceScheme, rows=None):
    """One synchronous update of a follower group under a fixed leader value: new (centers, sigmas).

    An array kernel over (n,) arrays that checks nothing; run_blfg checks once.
    rows is passed on to group_update.  Not exported: run_blfg calls it
    through this module global so that bench/tracing.py can wrap it by name.
    """
    return group_update(centers, sigmas, d, b, leader_center, scheme, rows)


def run_blfg(
    initial: NetworkState, steps: int, scheme: ReferenceScheme, leader: Union[float, Callable[[int], float]]
) -> TrajectoryRecord:
    """Follower trajectory over `steps` updates; the exogenous leader is not recorded.

    leader may be a constant, checked to be finite once, or a callable
    t -> center for a moving leader, checked at every step.  The closed-form
    predictors assume a constant leader.
    """
    moving = callable(leader)
    _check_group(scheme, initial.d)
    if not moving:
        leader = _number(leader, "leader center")

    def step(centers, sigmas, t: int, rows):
        value = _number(leader(t), f"leader center at t={t}") if moving else leader
        return step_blfg(centers, sigmas, initial.d, initial.b, value, scheme, rows)

    # a moving leader changes the step at any t
    return _run(initial, [(steps, step, (initial.d, initial.b))], still=not moving)


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
    tol = _number(tol, "tol", ">= 0")
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
    _integer(n, "n", 1)
    if n / (n + 1) == 1.0:
        raise ValueError(f"n = {n} is too large: n / (n + 1) rounds to 1")
    _integer(t_offset, "t_offset", 0)


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
    _integer(n, "n", 1)
    epsilon = _number(epsilon, "epsilon", "in (0, 1)")
    log_ratio = math.log(n) - math.log(n + 1)
    if log_ratio == 0.0:
        raise ValueError(f"n = {n} is too large: log(n) - log(n + 1) rounds to 0")
    return math.log(epsilon) / log_ratio


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
