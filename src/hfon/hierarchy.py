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
        for level, (sl, (g, k)) in enumerate(self._levels, start=1):
            levels[sl] = level
            groups[sl] = np.repeat(np.arange(g), k)
        return levels, groups

    @cached_property
    def _levels(self) -> tuple[tuple[slice, tuple[int, int]], ...]:
        """Per level, bottom first: its agents' slice and its (G, k) block shape.

        The G agents right after a level's slice lead its groups in order: the
        whole next level up, or the top leader at id n_agents for the top level.
        """
        out, start = [], 0
        for level, k in enumerate(self.group_sizes, start=1):
            g = math.prod(self.group_sizes[level:])
            out.append((slice(start, start + g * k), (g, k)))
            start += g * k
        return tuple(out)

    @cached_property
    def _blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per distinct group size k: the agent ids of every such group as one (G, k) array,
        and their leaders' ids as a (G,) array into [centers..., top_center]."""
        ids = np.arange(self.n_agents + 1)
        by_size: dict[int, tuple[list, list]] = {}
        for sl, (g, k) in self._levels:
            agents, leaders = by_size.setdefault(k, ([], []))
            agents.append(ids[sl].reshape(g, k))
            leaders.append(ids[sl.stop:sl.stop + g])
        return tuple((np.concatenate(a), np.concatenate(l)) for a, l in by_size.values())

    def _check_level(self, level: int):
        if not (isinstance(level, (int, np.integer)) and 1 <= level <= self.n_levels):
            raise AddressError(f"level {level!r} out of range (1..{self.n_levels})")


def step_td(spec: HierarchySpec, centers, sigmas, d, b, scheme: ReferenceScheme):
    """One synchronous update of every group from one frozen whole-tree snapshot: new (centers, sigmas).

    An array kernel over (n,) arrays in the spec's layout that checks nothing;
    run_td checks once.  All groups of one size, at whatever level, step as one
    (G, k) block, each led by its own leader's center.
    """
    new_centers = np.empty_like(centers)
    new_sigmas = np.empty_like(sigmas)
    leader_pool = np.append(centers, spec.top_center)
    for agents, leaders in spec._blocks:
        new_centers[agents], new_sigmas[agents] = group_update(
            centers[agents], sigmas[agents], d[agents], b[agents], leader_pool[leaders, None], scheme
        )
    return new_centers, new_sigmas


def run_td(spec: HierarchySpec, initial: NetworkState, steps: int, scheme: ReferenceScheme) -> TrajectoryRecord:
    """Trajectory of all tree agents; columns follow the flattened layout (level 1 first)."""
    if initial.n != spec.n_agents:
        raise ConfigurationError(f"hierarchy expects {spec.n_agents} agents, state has {initial.n}")
    _check_group_scheme(scheme)
    _check_group_thresholds(initial.d)
    record = _run(
        lambda c, s, t, rows: step_td(spec, c, s, initial.d, initial.b, scheme), initial, steps, changes=()
    )
    record.levels, record.groups = spec.agent_addresses()
    return record
