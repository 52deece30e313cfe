"""Flat bounded-confidence network: synchronous stepping and cluster detection.

Every agent replaces its center with the plain mean of its neighbor set's
centers and its sigma with the mean of their sigmas plus an uncertainty input
u that scales with how far the agent sits from its reference.  All updates in
one step read the same frozen snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError, _integer, _number, _shown
from .opinions import NetworkState, Partition, distinct_agents, neighbor_mask, neighborhood_sums  # noqa: F401

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
        out[i] = _number(value, f"external reference signal at (t={t}, agent={i})")
    return out


def step_bcfon(centers, sigmas, d, b, scheme: ReferenceScheme = LocalReference(), t: int = 0, rows=None):
    """One synchronous update of every agent from frozen time-t (n,) arrays: new (centers, sigmas).

    Checks no values (run_bcfon checks once); scheme is local or external.
    rows, a Partition of the input, updates only its k distinct states, from
    their (center, sigma, d, b) in place of the agents', and returns (k,)
    arrays; an external reference is per agent and refuses one.
    """
    counts, center_sums, sigma_sums = neighborhood_sums(centers, sigmas, d, rows)
    if rows is not None:
        if not isinstance(scheme, LocalReference):
            raise ValueError("an external reference is per agent: it takes no partition")
        centers, b = rows.centers, rows.b
    neigh_mean = center_sums / counts
    if isinstance(scheme, LocalReference):
        reference = neigh_mean
    else:
        reference = _external_values(scheme, t, centers.shape[0])
    return neigh_mean, sigma_sums / counts + b * np.abs(centers - reference)


@dataclass
class TrajectoryRecord:
    """Dense per-step record of every agent's (center, sigma).

    times[k] is the step index of row k.  Runs record every step including the
    initial state; file output may be strided, detectors should not be.
    levels/groups hold each agent's fixed address in hierarchical runs and are
    None for flat ones.  phases is a phased run's Phase schedule, in order,
    and empty for any other run.
    """

    times: np.ndarray
    centers: np.ndarray
    sigmas: np.ndarray
    levels: np.ndarray | None = None
    groups: np.ndarray | None = None
    phases: tuple = ()

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


def _run(state: NetworkState, segments, still: bool = True) -> TrajectoryRecord:
    """Trajectory of state stepped through segments in order, row 0 being the state.

    Each segment is (steps, step, partition) and takes its steps with
    centers, sigmas = step(centers, sigmas, t, rows), t counted from the
    run's start.  The initial state is the run's only validated object.  A
    step keeps sigmas non-negative but its sums can overflow, so the record
    is checked once, after the loop: the first row holding a non-finite
    center or sigma is reported as the step that overflowed.  A step that
    raises after an overflow reports that overflow instead, as the earlier
    failure.

    rows is None unless the segment's partition gives its (d, b); then a
    non-empty segment builds the Partition of its first row, and the step
    returns one (center, sigma) per distinct state, which is written to the
    record row as new[inverse] (a broadcast for k = 1).  Once one state is
    left, the partition holds it as float64 scalars, so each step is a few
    scalar operations and two O(n) sums.  Agents that share a
    state get the same update and never split, so the next partition is
    built from the k outputs alone.  A step whose per-agent inputs can split
    shared states passes no partition and returns every agent's row.

    Within a segment a step is a pure function of (centers, sigmas) unless
    still is False, as it must be for a step that reads t.  So once a step's
    output equals its input in every bit, the state is copied forward to
    the segment's end and stepping resumes with the next segment; the record
    is the same as if every step had been taken.  Agents of one state share
    their old bits and their new bits, so with a partition the k outputs are
    compared with the k inputs.
    """
    for steps, _, _ in segments:
        _integer(steps, "steps", 0)
    total = sum(steps for steps, _, _ in segments)
    centers = np.empty((total + 1, state.n), dtype=np.float64)
    sigmas = np.empty((total + 1, state.n), dtype=np.float64)
    centers[0] = state.centers
    sigmas[0] = state.sigmas
    k = 0
    try:
        # a step on overflowed values may divide by zero or make NaNs; reported below
        with np.errstate(all="ignore"):
            for steps, step, partition in segments:
                end = k + steps
                if steps and partition is not None:
                    rows = distinct_agents(centers[k], sigmas[k], *partition)
                else:
                    rows = None
                while k < end:
                    new_c, new_s = step(centers[k], sigmas[k], k, rows)
                    if rows is None:
                        old_c, old_s = centers[k], sigmas[k]
                        centers[k + 1], sigmas[k + 1] = new_c, new_s
                    else:
                        old_c, old_s = rows.centers, rows.sigmas
                        if new_c.size == 1:
                            centers[k + 1], sigmas[k + 1] = new_c, new_s  # one state, broadcast
                        else:
                            np.take(new_c, rows.inverse, out=centers[k + 1])
                            np.take(new_s, rows.inverse, out=sigmas[k + 1])
                        rows = _regroup(rows, new_c, new_s)
                    k += 1
                    # bits, not values: -0.0 == 0.0 and NaN != NaN as floats
                    if still and new_c.tobytes() == old_c.tobytes() and new_s.tobytes() == old_s.tobytes():
                        centers[k + 1:end + 1] = centers[k]
                        sigmas[k + 1:end + 1] = sigmas[k]
                        k = end
    except Exception:
        _check_finite(centers[:k + 1], sigmas[:k + 1])
        raise
    _check_finite(centers, sigmas)
    return TrajectoryRecord(times=np.arange(total + 1), centers=centers, sigmas=sigmas)


def _check_finite(centers, sigmas):
    """Raise naming the step into the first row of a record with a non-finite value."""
    # a row's min and max are both finite exactly when the whole row is: NaN propagates
    finite = np.isfinite(centers.min(axis=1)) & np.isfinite(centers.max(axis=1))
    finite &= np.isfinite(sigmas.min(axis=1)) & np.isfinite(sigmas.max(axis=1))
    if not finite.all():
        t = int(np.argmin(finite)) - 1
        raise ValueError(f"step {t} -> {t + 1} overflowed: a center or sigma is not finite")


def _regroup(rows: Partition, centers, sigmas) -> Partition:
    """The partition of a step's output, from its k states' new (centers, sigmas).

    Only the k states are regrouped, O(k log k), and the new inverse is
    composed with the old when some of them merged, O(n).  One state is held
    as float64 scalars, which neighborhood_sums answers without its kernel.
    A non-finite state is already in the record, which _check_finite reports
    whatever the later steps compute.
    """
    if rows.centers.size > 1:
        sub = distinct_agents(centers, sigmas, rows.d, rows.b)
        if sub.centers.size < rows.centers.size:
            return sub._replace(inverse=sub.inverse[rows.inverse])
    elif centers.ndim:  # one state: float64 scalars from here
        return Partition(rows.inverse, centers[0], sigmas[0], rows.d[0], rows.b[0])
    return Partition(rows.inverse, centers, sigmas, rows.d, rows.b)


def run_bcfon(initial: NetworkState, steps: int, scheme: ReferenceScheme = LocalReference()) -> TrajectoryRecord:
    """Trajectory of `steps` synchronous updates, initial state included."""
    if isinstance(scheme, LeaderReference):
        raise ConfigurationError("a flat network has no leader; use a leader-follower group")
    if not isinstance(scheme, (LocalReference, ExternalReference)):
        raise ConfigurationError(f"a flat network takes LocalReference() or an ExternalReference, got {_shown(scheme)}")
    # per-agent signals split shared states, and the step reads t
    local = not isinstance(scheme, ExternalReference)
    return _run(initial, [(
        steps, lambda c, s, t, rows: step_bcfon(c, s, initial.d, initial.b, scheme, t, rows),
        (initial.d, initial.b) if local else None,
    )], still=local)


def _initial_spread(record: TrajectoryRecord) -> float:
    """Range of the record's first-row centers (inf or nan, with no numpy warning, when not finite)."""
    return float(record.centers[0].max()) - float(record.centers[0].min())


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


def detect_consensus_partition(centers, gap: float) -> list[np.ndarray]:
    """Split agents into opinion clusters by sorted center gaps.

    Sort the centers; any adjacent gap strictly greater than `gap` starts a new
    cluster, so every cluster is an interval of the sorted order and exactly
    equal centers always land together (even at gap 0).  Returns ascending-id
    arrays ordered by cluster center.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 1 or centers.size == 0:
        raise ValueError("need a non-empty vector of centers")
    gap = _number(gap, "gap", ">= 0")
    order = np.argsort(centers, kind="stable")
    with np.errstate(over="ignore"):  # a gap past float range is inf, which splits as it should
        breaks = np.nonzero(np.diff(centers[order]) > gap)[0]
    return [np.sort(block) for block in np.split(order, breaks + 1)]
