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
    _run,
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
    spans, t = [], 0
    for phase in schedule.phases:
        spans.append(PhaseSpan(d=phase.d, t_start=t, t_end=t + phase.steps))
        t += phase.steps
    # every step lies in exactly one non-empty span; its d applies from the span's first step,
    # and the first non-empty span starts at 0 whenever anything is stepped
    starts = {span.t_start: span.d for span in spans if span.t_end > span.t_start}
    d = np.full(initial.n, float(starts.get(0, schedule.phases[0].d)))
    b = np.full(initial.n, float(schedule.b))

    def step(centers, sigmas, t: int, rows):
        nonlocal d
        if t in starts:
            d = np.full(initial.n, float(starts[t]))
        return step_bcfon(centers, sigmas, d, b, scheme, t, rows)

    # every agent shares each phase's d and b, so a phase change splits no state and the
    # partition over the first phase's d holds for every phase
    record = _run(step, initial, schedule.total_steps, partition=(d, b))
    record.phases = spans
    return record


@dataclass(frozen=True)
class ClusterReport:
    """Cluster structure at one recorded step: count, representative centers, sigma summary.

    phase and d name the phase the step ends; both are None outside a phased run.
    """

    phase: int | None
    d: float | None
    t_end: int
    cluster_count: int
    representatives: tuple[float, ...]
    cluster_sizes: tuple[int, ...]
    mean_sigma: float
    max_sigma: float


def _cluster_report(record, k: int, gap: float | None, phase=None, d=None) -> ClusterReport:
    """Partition row k of the record by gap; each cluster is its mean center and size.

    gap defaults to 5% of the record's initial center range.
    """
    centers, sigmas = record.centers[k], record.sigmas[k]
    clusters = detect_consensus_partition(centers, _default_gap(record) if gap is None else gap)
    return ClusterReport(
        phase=phase,
        d=d,
        t_end=int(record.times[k]),
        cluster_count=len(clusters),
        representatives=tuple(float(centers[ids].mean()) for ids in clusters),
        cluster_sizes=tuple(int(ids.size) for ids in clusters),
        mean_sigma=float(sigmas.mean()),
        max_sigma=float(sigmas.max()),
    )


def phase_summary(record: TrajectoryRecord, gap: float | None = None) -> list[ClusterReport]:
    """Cluster report at the final state of each phase.

    gap defaults to 5% of the record's initial center range.
    """
    if not record.phases:
        raise ValueError("record has no phase annotations")
    return [
        _cluster_report(record, record.index_of(span.t_end), gap, phase=p, d=span.d)
        for p, span in enumerate(record.phases)
    ]

