"""Top-down hierarchy: a uniform tree of leader-follower groups under one top leader.

Level 1 is the bottom layer; every agent at level l+1 leads exactly one group
of level-l agents, and the single top group is led by a constant exogenous
center.  All groups step synchronously from one frozen whole-tree snapshot,
so information still travels one level per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import AddressError, ConfigurationError
from .engine import ReferenceScheme, TrajectoryRecord, _run
from .leader import _check_group_scheme, _check_group_thresholds, group_update
from .opinions import NetworkState


@dataclass(frozen=True)
class HierarchySpec:
    """Shape of a uniform hierarchy.

    group_sizes[k] is the size of every group whose followers sit at level
    k+1.  The last entry is the single top group; the top leader itself is
    exogenous and not an agent.
    """

    group_sizes: tuple[int, ...]
    top_center: float

    def __post_init__(self):
        if len(self.group_sizes) == 0:
            raise ConfigurationError("a hierarchy needs at least one level of groups")
        if any(not (isinstance(s, int) and s >= 1) for s in self.group_sizes):
            raise ConfigurationError("every group size must be an integer >= 1")
        if not np.isfinite(self.top_center):
            raise ConfigurationError("top leader center must be finite")

    @property
    def n_levels(self) -> int:
        """Number of agent-bearing levels (the top leader sits above them)."""
        return len(self.group_sizes)

    def n_groups(self, level: int) -> int:
        """Groups at a level; level n_levels has exactly one."""
        self._check_level(level)
        return self._levels[level - 1][1][0]

    def level_count(self, level: int) -> int:
        return self.n_groups(level) * self.group_sizes[level - 1]

    @property
    def n_agents(self) -> int:
        return self._levels[-1][0].stop

    def level_offset(self, level: int) -> int:
        """Index of the level's first agent in the flattened layout (level 1 first)."""
        self._check_level(level)
        return self._levels[level - 1][0].start

    def group_slice(self, level: int, group: int) -> slice:
        self._check_level(level)
        if not (isinstance(group, (int, np.integer)) and 0 <= group < self.n_groups(level)):
            raise AddressError(f"group {group!r} out of range at level {level}")
        size = self.group_sizes[level - 1]
        start = self.level_offset(level) + group * size
        return slice(start, start + size)

    def leader_index(self, level: int, group: int) -> int | None:
        """Flattened id of the agent leading this group; None when the top leader does."""
        self.group_slice(level, group)  # validates the address
        if level == self.n_levels:
            return None
        return self.level_offset(level + 1) + group

    def groups(self) -> Iterator[tuple[int, int]]:
        for level in range(1, self.n_levels + 1):
            for group in range(self.n_groups(level)):
                yield level, group

    def agent_addresses(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent (level, group) arrays in flattened order."""
        levels = np.empty(self.n_agents, dtype=np.intp)
        groups = np.empty(self.n_agents, dtype=np.intp)
        for level, (sl, (g, k), _) in enumerate(self._levels, start=1):
            levels[sl] = level
            groups[sl] = np.repeat(np.arange(g), k)
        return levels, groups

    @cached_property
    def _levels(self) -> tuple[tuple[slice, tuple[int, int], slice | None], ...]:
        """Per level, bottom first: its agents' slice, its (G, k) block shape, and the slice
        of the next level up, whose G agents lead its groups in order (None at the top)."""
        out, start = [], 0
        for level, k in enumerate(self.group_sizes, start=1):
            g = math.prod(self.group_sizes[level:])
            stop = start + g * k
            above = slice(stop, stop + g) if level < self.n_levels else None
            out.append((slice(start, stop), (g, k), above))
            start = stop
        return tuple(out)

    def _check_level(self, level: int):
        if not (isinstance(level, (int, np.integer)) and 1 <= level <= self.n_levels):
            raise AddressError(f"level {level!r} out of range (1..{self.n_levels})")


def step_td(spec: HierarchySpec, centers, sigmas, d, b, scheme: ReferenceScheme):
    """One synchronous update of every group from one frozen whole-tree snapshot: new (centers, sigmas).

    An array kernel over (n,) arrays in the spec's layout that checks nothing;
    run_td checks once.  Each level is one (G, k) block led by the level above.
    """
    new_centers = np.empty_like(centers)
    new_sigmas = np.empty_like(sigmas)
    for sl, shape, above in spec._levels:
        leader = spec.top_center if above is None else centers[above, None]
        blocks = (a[sl].reshape(shape) for a in (centers, sigmas, d, b))
        level_centers, level_sigmas = group_update(*blocks, leader, scheme)
        new_centers[sl] = level_centers.ravel()
        new_sigmas[sl] = level_sigmas.ravel()
    return new_centers, new_sigmas


def run_td(spec: HierarchySpec, initial: NetworkState, steps: int, scheme: ReferenceScheme) -> TrajectoryRecord:
    """Trajectory of all tree agents; columns follow the flattened layout (level 1 first)."""
    if initial.n != spec.n_agents:
        raise ConfigurationError(f"hierarchy expects {spec.n_agents} agents, state has {initial.n}")
    _check_group_scheme(scheme)
    _check_group_thresholds(initial.d)
    record = _run(lambda c, s, t: step_td(spec, c, s, initial.d, initial.b, scheme), initial, steps)
    record.levels, record.groups = spec.agent_addresses()
    return record
