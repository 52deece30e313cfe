"""Bottom-up emergence: one population run through phases of falling confidence thresholds.

Each phase reruns the flat bounded-confidence dynamics with its own threshold
d over the same persistent population, so clusters formed in one phase are the
starting point of the next and the effective hierarchy emerges from the data
instead of being imposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, _integer, _number, _shown
from .engine import (
    LocalReference,
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
        object.__setattr__(self, "d", _number(self.d, "key 'd'", "in [0, 1]"))
        _integer(self.steps, "phase steps", 0)


def _phase_list(phases) -> tuple[Phase, ...]:
    """phases as a tuple if it is a non-empty list or tuple of Phase: the schedule run_bu runs."""
    if not (isinstance(phases, (list, tuple)) and phases and all(isinstance(p, Phase) for p in phases)):
        raise ConfigurationError(f"key 'phases' must be a non-empty list of Phase, got {_shown(phases)}")
    return tuple(phases)


def run_bu(initial: NetworkState, phases: Sequence[Phase]) -> TrajectoryRecord:
    """Run the population through every phase in order, recording each step.

    Each phase's d replaces every agent's d; b is the state's.  Phased runs
    always use the local reference scheme.  The first state of each phase is
    exactly the last state of the previous one.
    """
    phases = _phase_list(phases)
    scheme = LocalReference()

    def segment(phase: Phase):
        d = np.full(initial.n, phase.d)
        return phase.steps, lambda c, s, t, rows: step_bcfon(c, s, d, initial.b, scheme, t, rows), (d, initial.b)

    record = _run(initial, [segment(phase) for phase in phases])
    record.phases = phases
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
    ends = np.cumsum([phase.steps for phase in record.phases])
    return [
        _cluster_report(record, record.index_of(int(t)), gap, phase=p, d=phase.d)
        for p, (phase, t) in enumerate(zip(record.phases, ends))
    ]

