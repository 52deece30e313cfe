"""Top-down hierarchy: a uniform tree of leader-follower groups under one top leader.

Level 1 is the bottom layer; every agent at level l+1 leads exactly one group
of level-l agents, and the single top group is led by a constant exogenous
center.  All groups step synchronously from one frozen whole-tree snapshot,
so information still travels one level per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, _integer, _number, _shown
from .engine import ReferenceScheme, TrajectoryRecord, _run
from .leader import _check_group, group_update
from .opinions import NetworkState


@dataclass(frozen=True)
class HierarchySpec:
    """Shape of a uniform hierarchy.

    group_sizes[k] is the size of every group whose followers sit at level
    k+1.  The last entry is the single top group; its leader is exogenous, not
    an agent, and run_td takes it as run_blfg takes a group's.
    """

    group_sizes: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.group_sizes, (list, tuple)) or not self.group_sizes:
            raise ConfigurationError(f"key 'group_sizes' must be a non-empty list, got {_shown(self.group_sizes)}")
        sizes = tuple(_integer(size, f"key 'group_sizes[{k}]'", 1) for k, size in enumerate(self.group_sizes))
        object.__setattr__(self, "group_sizes", sizes)

    @property
    def n_agents(self) -> int:
        return self._levels[-1][0].stop

    def _agent_addresses(self) -> tuple[np.ndarray, np.ndarray]:
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
        counts = [1]  # groups per level, top first: every agent of a level leads one group below
        for k in reversed(self.group_sizes[1:]):
            counts.append(counts[-1] * k)
        out, start = [], 0
        for k, g in zip(self.group_sizes, reversed(counts)):
            out.append((slice(start, start + g * k), (g, k)))
            start += g * k
        return tuple(out)

    @cached_property
    def _blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per distinct group size k: the agent ids of every such group as one (G, k) array,
        and their leaders' ids as a (G,) array into [centers..., top leader]."""
        ids = np.arange(self.n_agents + 1)
        by_size: dict[int, tuple[list, list]] = {}
        for sl, (g, k) in self._levels:
            agents, leaders = by_size.setdefault(k, ([], []))
            agents.append(ids[sl].reshape(g, k))
            leaders.append(ids[sl.stop:sl.stop + g])
        return tuple((np.concatenate(a), np.concatenate(l)) for a, l in by_size.values())


def step_td(spec: HierarchySpec, centers, sigmas, d, b, leader: float, scheme: ReferenceScheme):
    """One synchronous update of every group from one frozen whole-tree snapshot: new (centers, sigmas).

    An array kernel over (n,) arrays in the spec's layout that checks nothing;
    run_td checks once.  All groups of one size, at whatever level, step as one
    (G, k) block, each led by its own leader's center; leader leads the top group.
    """
    new_centers = np.empty_like(centers)
    new_sigmas = np.empty_like(sigmas)
    leader_pool = np.append(centers, leader)
    for agents, leaders in spec._blocks:
        new_centers[agents], new_sigmas[agents] = group_update(
            centers[agents], sigmas[agents], d[agents], b[agents], leader_pool[leaders, None], scheme
        )
    return new_centers, new_sigmas


def run_td(
    spec: HierarchySpec, initial: NetworkState, steps: int, scheme: ReferenceScheme, leader: float
) -> TrajectoryRecord:
    """Trajectory of all tree agents under a constant top leader; columns follow the
    flattened layout (level 1 first) and the top leader is not recorded."""
    if initial.n != spec.n_agents:
        raise ConfigurationError(f"hierarchy expects {spec.n_agents} agents, state has {initial.n}")
    _check_group(scheme, initial.d)
    leader = _number(leader, "leader center")
    record = _run(initial, [(
        steps, lambda c, s, t, rows: step_td(spec, c, s, initial.d, initial.b, leader, scheme), None
    )])
    record.levels, record.groups = spec._agent_addresses()
    return record
