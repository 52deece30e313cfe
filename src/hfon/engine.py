"""Flat bounded-confidence network: synchronous stepping and cluster detection.

Every agent replaces its center with the plain mean of its neighbor set's
centers and its sigma with the mean of their sigmas plus an uncertainty input
u that scales with how far the agent sits from its reference.  All updates in
one step read the same frozen snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError
from .opinions import NetworkState, distinct_agents, neighbor_mask, neighborhood_sums  # noqa: F401

# neighbor_mask is unused here but stays importable as hfon.engine.neighbor_mask:
# bench/tracing.py wraps the name at this lookup site.


@dataclass(frozen=True)
class LocalReference:
    """u is driven by the gap between an agent and its own neighborhood mean."""


@dataclass(frozen=True)
class LeaderReference:
    """u is driven by the gap to the group leader; only valid inside leader-follower groups."""


@dataclass(frozen=True)
class ExternalReference:
    """u is driven by the gap to an external signal.

    signal(t, i) must return a finite real for every stepped time t and agent
    id i; anything else is a configuration error.
    """

    signal: Callable[[int, int], float]


ReferenceScheme = Union[LocalReference, LeaderReference, ExternalReference]


def _external_values(scheme: ExternalReference, t: int, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        try:
            value = scheme.signal(t, i)
        except Exception as exc:
            raise ConfigurationError(
                f"external reference signal failed at (t={t}, agent={i}): {exc}"
            ) from exc
        if value is None or not np.isfinite(value):
            raise ConfigurationError(
                f"external reference signal must be finite at (t={t}, agent={i}), got {value!r}"
            )
        out[i] = value
    return out


def step_bcfon(centers, sigmas, d, b, scheme: ReferenceScheme = LocalReference(), t: int = 0, rows=None):
    """One synchronous update of every agent from frozen time-t (n,) arrays: new (centers, sigmas).

    Checks nothing (run_bcfon checks once); scheme is local or external.  rows
    is passed on to neighborhood_sums.
    """
    counts, center_sums, sigma_sums = neighborhood_sums(centers, sigmas, d, rows)
    neigh_mean = center_sums / counts
    if isinstance(scheme, LocalReference):
        reference = neigh_mean
    else:
        reference = _external_values(scheme, t, centers.shape[0])
    return neigh_mean, sigma_sums / counts + b * np.abs(centers - reference)


@dataclass(frozen=True)
class PhaseSpan:
    """Annotation for one phase of a phased run: its threshold and step span.

    The span covers the transitions t_start -> t_start+1 ... t_end-1 -> t_end,
    so the state at t_end is the phase's final state.
    """

    d: float
    t_start: int
    t_end: int


@dataclass
class TrajectoryRecord:
    """Dense per-step record of every agent's (center, sigma).

    times[k] is the step index of row k.  Runs record every step including the
    initial state; file output may be strided, detectors should not be.
    levels/groups hold each agent's fixed address in hierarchical runs and are
    None for flat ones.
    """

    times: np.ndarray
    centers: np.ndarray
    sigmas: np.ndarray
    levels: np.ndarray | None = None
    groups: np.ndarray | None = None
    phases: list[PhaseSpan] = field(default_factory=list)

    @property
    def n_agents(self) -> int:
        return self.centers.shape[1]

    @property
    def n_samples(self) -> int:
        return self.centers.shape[0]

    def index_of(self, t: int) -> int:
        """Row index of step t; raises if t was not recorded."""
        hits = np.nonzero(self.times == t)[0]
        if hits.size == 0:
            raise KeyError(f"step {t} is not in the record")
        return int(hits[0])

    def select_agents(self, ids) -> "TrajectoryRecord":
        """Sub-record over a subset of agent columns (addresses dropped)."""
        ids = np.asarray(ids, dtype=np.intp)
        return TrajectoryRecord(
            times=self.times.copy(),
            centers=self.centers[:, ids].copy(),
            sigmas=self.sigmas[:, ids].copy(),
            phases=list(self.phases),
        )


def _run(
    step, state: NetworkState, steps: int, t0: int = 0, partition=None, regroup=False
) -> TrajectoryRecord:
    """Trajectory of centers, sigmas = step(centers, sigmas, t, rows) for t = t0 .. t0 + steps - 1.

    The initial state, row 0, is the run's only validated object.  A step keeps
    sigmas non-negative but its sums can overflow, so the record is checked
    once, after the loop: the first row holding a non-finite center or sigma
    is reported as the step that overflowed.  A step that raises after an
    overflow reports that overflow instead, as the earlier failure.

    rows is None unless partition gives the step's (d, b); then it is the
    distinct_agents partition of the step's input.  Agents that share a state
    get the same update and never split, so after the first step only the
    previous representatives are regrouped.  regroup recomputes it over all n
    agents every step, for per-agent inputs under which shared states split.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    centers = np.empty((steps + 1, state.n), dtype=np.float64)
    sigmas = np.empty((steps + 1, state.n), dtype=np.float64)
    centers[0] = state.centers
    sigmas[0] = state.sigmas
    rows = None
    k = 0
    try:
        # a step on overflowed values may divide by zero or make NaNs; reported below
        with np.errstate(all="ignore"):
            for k, t in enumerate(range(t0, t0 + steps)):
                if partition is not None:
                    rows = _regroup(None if regroup else rows, centers[k], sigmas[k], *partition)
                centers[k + 1], sigmas[k + 1] = step(centers[k], sigmas[k], t, rows)
    except Exception:
        _check_finite(centers[:k + 1], sigmas[:k + 1], t0)
        raise
    _check_finite(centers, sigmas, t0)
    return TrajectoryRecord(times=np.arange(t0, t0 + steps + 1), centers=centers, sigmas=sigmas)


def _check_finite(centers, sigmas, t0: int):
    """Raise naming the step into the first row of a record from t0 with a non-finite value."""
    # a row's min and max are both finite exactly when the whole row is: NaN propagates
    finite = np.isfinite(centers.min(axis=1)) & np.isfinite(centers.max(axis=1))
    finite &= np.isfinite(sigmas.min(axis=1)) & np.isfinite(sigmas.max(axis=1))
    if not finite.all():
        t = t0 + int(np.argmin(finite)) - 1
        raise ValueError(f"step {t} -> {t + 1} overflowed: a center or sigma is not finite")


def _regroup(rows, centers, sigmas, d, b):
    """Agents grouped by identical (center, sigma, d, b) as (first, inverse), like distinct_agents.

    rows, the partition one step earlier, is regrouped over its k
    representatives only, O(k log k + n) instead of O(n log n), so first need
    not hold the lowest ids.  None computes it over all n agents.
    """
    if rows is None:
        return distinct_agents(centers, sigmas, d, b)
    first, inverse = rows
    if first.size == 1:
        return rows
    sub_first, sub_inverse = distinct_agents(centers[first], sigmas[first], d[first], b[first])
    return first[sub_first], sub_inverse[inverse]


def run_bcfon(
    initial: NetworkState,
    steps: int,
    scheme: ReferenceScheme = LocalReference(),
    t0: int = 0,
) -> TrajectoryRecord:
    """Trajectory of `steps` synchronous updates, initial state included."""
    if isinstance(scheme, LeaderReference):
        raise ConfigurationError("a flat network has no leader; use a leader-follower group")
    return _run(
        lambda c, s, t, rows: step_bcfon(c, s, initial.d, initial.b, scheme, t, rows),
        initial, steps, t0, partition=(initial.d, initial.b),
        regroup=isinstance(scheme, ExternalReference),  # per-agent signals split shared states
    )


def _initial_spread(record: TrajectoryRecord) -> float:
    """Range of the record's first-row centers."""
    return float(record.centers[0].max() - record.centers[0].min())


def steps_to_target(record: TrajectoryRecord, target: float, fraction: float = 0.01) -> int | None:
    """First recorded step where every center is within fraction * initial spread of target.

    Returns None when the record never gets there (or starts with zero spread
    and off target).
    """
    threshold = fraction * _initial_spread(record)
    ok = np.abs(record.centers - target).max(axis=1) < threshold
    hits = np.nonzero(ok)[0]
    return int(record.times[hits[0]]) if hits.size else None


def _default_gap(record: TrajectoryRecord) -> float:
    """Cluster gap used when none is given: 5% of the record's initial center range."""
    return 0.05 * _initial_spread(record)


def detect_consensus_partition(state_or_centers, gap: float) -> list[np.ndarray]:
    """Split agents into opinion clusters by sorted center gaps.

    Sort the centers; any adjacent gap strictly greater than `gap` starts a new
    cluster, so every cluster is an interval of the sorted order and exactly
    equal centers always land together (even at gap 0).  Returns ascending-id
    arrays ordered by cluster center.
    """
    if isinstance(state_or_centers, NetworkState):
        centers = state_or_centers.centers
    else:
        centers = np.asarray(state_or_centers, dtype=np.float64)
    if centers.ndim != 1 or centers.size == 0:
        raise ValueError("need a non-empty vector of centers")
    if not (np.isfinite(gap) and gap >= 0.0):
        raise ValueError("gap must be finite and >= 0")
    order = np.argsort(centers, kind="stable")
    breaks = np.nonzero(np.diff(centers[order]) > gap)[0]
    return [np.sort(block) for block in np.split(order, breaks + 1)]
