"""Bottom-up emergence: one population run through phases of falling confidence thresholds.

Each phase reruns the flat bounded-confidence dynamics with its own threshold
d over the same persistent population, so clusters formed in one phase are the
starting point of the next and the effective hierarchy emerges from the data
instead of being imposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .engine import (
    LocalReference,
    PhaseSpan,
    TrajectoryRecord,
    _default_gap,
    detect_consensus_partition,
    step_bcfon,
)
from .opinions import NetworkState


@dataclass(frozen=True)
class Phase:
    """One phase: confidence threshold and how many steps to run it."""

    d: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.d) and 0.0 <= self.d <= 1.0):
            raise ConfigurationError("phase threshold d must lie in [0, 1]")
        if not (isinstance(self.steps, int) and self.steps >= 0):
            raise ConfigurationError("phase steps must be an integer >= 0")


@dataclass(frozen=True)
class PhaseSchedule:
    """Ordered phases with one shared uncertainty gain b.

    Phased runs always use the local reference scheme.
    """

    phases: tuple[Phase, ...]
    b: float

    def __post_init__(self):
        if len(self.phases) == 0:
            raise ConfigurationError("a schedule needs at least one phase")
        if not (np.isfinite(self.b) and self.b > 0.0):
            raise ConfigurationError("uncertainty gain b must be positive")

    @property
    def total_steps(self) -> int:
        return sum(p.steps for p in self.phases)


def run_bu(initial: NetworkState, schedule: PhaseSchedule) -> TrajectoryRecord:
    """Run the population through every phase in order, recording each step.

    The schedule's (d, b) override whatever the initial state carries; the
    first state of each phase is exactly the last state of the previous one.
    """
    scheme = LocalReference()
    centers = np.empty((schedule.total_steps + 1, initial.n), dtype=np.float64)
    sigmas = np.empty((schedule.total_steps + 1, initial.n), dtype=np.float64)
    centers[0] = initial.centers
    sigmas[0] = initial.sigmas
    spans: list[PhaseSpan] = []
    state = initial
    t = 0
    for phase in schedule.phases:
        state = NetworkState(state.centers, state.sigmas, phase.d, schedule.b)
        start = t
        for _ in range(phase.steps):
            state = step_bcfon(state, scheme, t)
            t += 1
            centers[t] = state.centers
            sigmas[t] = state.sigmas
        spans.append(PhaseSpan(d=phase.d, t_start=start, t_end=t))
    return TrajectoryRecord(
        times=np.arange(schedule.total_steps + 1), centers=centers, sigmas=sigmas, phases=spans
    )


@dataclass(frozen=True)
class ClusterReport:
    """End-of-phase cluster structure: count, representative centers, sigma summary."""

    phase: int
    d: float
    t_end: int
    cluster_count: int
    representatives: tuple[float, ...]
    cluster_sizes: tuple[int, ...]
    mean_sigma: float
    max_sigma: float


def phase_summary(record: TrajectoryRecord, gap: float | None = None) -> list[ClusterReport]:
    """Cluster report at the final state of each phase.

    gap defaults to 5% of the record's initial center range.
    """
    if not record.phases:
        raise ValueError("record has no phase annotations")
    gap = _default_gap(record) if gap is None else gap
    reports = []
    for p, span in enumerate(record.phases):
        k = record.index_of(span.t_end)
        centers = record.centers[k]
        sigmas = record.sigmas[k]
        clusters = detect_consensus_partition(centers, gap)
        reports.append(
            ClusterReport(
                phase=p,
                d=span.d,
                t_end=span.t_end,
                cluster_count=len(clusters),
                representatives=tuple(float(centers[ids].mean()) for ids in clusters),
                cluster_sizes=tuple(int(ids.size) for ids in clusters),
                mean_sigma=float(sigmas.mean()),
                max_sigma=float(sigmas.max()),
            )
        )
    return reports


def distinct_state_counts(record: TrajectoryRecord) -> np.ndarray:
    """Number of distinct (center, sigma) pairs at every recorded step.

    Agents that have merged never split again, so this is non-increasing along
    any valid trajectory.
    """
    counts = np.empty(record.n_samples, dtype=np.intp)
    for k in range(record.n_samples):
        pairs = np.stack([record.centers[k], record.sigmas[k]], axis=1)
        counts[k] = np.unique(pairs, axis=0).shape[0]
    return counts
