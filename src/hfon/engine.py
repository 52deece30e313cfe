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


def step_bcfon(state: NetworkState, scheme: ReferenceScheme = LocalReference(), t: int = 0) -> NetworkState:
    """One synchronous update of every agent from the frozen time-t state."""
    if isinstance(scheme, LeaderReference):
        raise ConfigurationError("a flat network has no leader; use a leader-follower group")
    counts, center_sums, sigma_sums = neighborhood_sums(
        state.centers, state.sigmas, state.d, distinct_agents(state)
    )
    neigh_mean = center_sums / counts
    if isinstance(scheme, LocalReference):
        reference = neigh_mean
    else:
        reference = _external_values(scheme, t, state.n)
    u = state.b * np.abs(state.centers - reference)
    return NetworkState(neigh_mean, sigma_sums / counts + u, state.d, state.b)


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


def _allocate(initial: NetworkState, steps: int):
    centers = np.empty((steps + 1, initial.n), dtype=np.float64)
    sigmas = np.empty((steps + 1, initial.n), dtype=np.float64)
    centers[0] = initial.centers
    sigmas[0] = initial.sigmas
    return centers, sigmas


def run_bcfon(
    initial: NetworkState,
    steps: int,
    scheme: ReferenceScheme = LocalReference(),
    t0: int = 0,
) -> TrajectoryRecord:
    """Trajectory of `steps` synchronous updates, initial state included."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    centers, sigmas = _allocate(initial, steps)
    state = initial
    for k in range(steps):
        state = step_bcfon(state, scheme, t0 + k)
        centers[k + 1] = state.centers
        sigmas[k + 1] = state.sigmas
    return TrajectoryRecord(times=np.arange(t0, t0 + steps + 1), centers=centers, sigmas=sigmas)


def steps_to_target(record: TrajectoryRecord, target: float, fraction: float = 0.01) -> int | None:
    """First recorded step where every center is within fraction * initial spread of target.

    Returns None when the record never gets there (or starts with zero spread
    and off target).
    """
    spread0 = float(record.centers[0].max() - record.centers[0].min())
    threshold = fraction * spread0
    ok = np.abs(record.centers - target).max(axis=1) < threshold
    hits = np.nonzero(ok)[0]
    return int(record.times[hits[0]]) if hits.size else None


def _default_gap(record: TrajectoryRecord) -> float:
    """Cluster gap used when none is given: 5% of the record's initial center range."""
    return 0.05 * float(record.centers[0].max() - record.centers[0].min())


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
