"""Gaussian fuzzy opinions and the bounded-confidence primitives built on them.

An agent's opinion is a Gaussian fuzzy set: the center is the stated opinion,
the width (sigma) is the agent's uncertainty about it.  Agents listen only to
agents whose opinions are close enough, where "close enough" is measured by a
similarity that shrinks with center distance and grows with shared uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AddressError


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True)
class FuzzyOpinion:
    """One agent's opinion: center (the opinion itself) and sigma (uncertainty)."""

    center: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ValueError("center must be finite")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and non-negative")


@dataclass(frozen=True)
class AgentParams:
    """Per-agent confidence threshold d and uncertainty gain b.

    d in [0, 1]: an agent listens to opinions whose closeness is at least d.
    b > 0: how strongly disagreement with the agent's reference feeds back
    into its uncertainty.
    """

    d: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.d) and 0.0 <= self.d <= 1.0):
            raise ValueError("confidence threshold d must lie in [0, 1]")
        if not (np.isfinite(self.b) and self.b > 0.0):
            raise ValueError("uncertainty gain b must be positive")


class NetworkState:
    """Synchronous snapshot of a population: centers, sigmas, per-agent (d, b).

    Engines never mutate a state; each step constructs a new one.  Scalars
    passed for d or b are broadcast to every agent.
    """

    __slots__ = ("centers", "sigmas", "d", "b")

    def __init__(self, centers, sigmas, d, b):
        self.centers = _as_float_vector(centers, "centers")
        self.sigmas = _as_float_vector(sigmas, "sigmas")
        n = self.centers.shape[0]
        if n == 0:
            raise ValueError("a network needs at least one agent")
        if self.sigmas.shape[0] != n:
            raise ValueError("centers and sigmas must have the same length")
        if np.any(self.sigmas < 0.0):
            raise ValueError("sigmas must be non-negative")
        self.d = np.array(np.broadcast_to(np.asarray(d, dtype=np.float64), (n,)))
        self.b = np.array(np.broadcast_to(np.asarray(b, dtype=np.float64), (n,)))
        if not np.all(np.isfinite(self.d)) or np.any(self.d < 0.0) or np.any(self.d > 1.0):
            raise ValueError("every threshold d must lie in [0, 1]")
        if not np.all(np.isfinite(self.b)) or np.any(self.b <= 0.0):
            raise ValueError("every gain b must be positive")

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    def opinion(self, i: int) -> FuzzyOpinion:
        self._check_id(i)
        return FuzzyOpinion(float(self.centers[i]), float(self.sigmas[i]))

    def params(self, i: int) -> AgentParams:
        self._check_id(i)
        return AgentParams(float(self.d[i]), float(self.b[i]))

    def _check_id(self, i: int):
        if not (isinstance(i, (int, np.integer)) and 0 <= i < self.n):
            raise AddressError(f"agent id {i!r} out of range for {self.n} agents")

    @classmethod
    def from_opinions(cls, opinions, params) -> "NetworkState":
        """Build a state from FuzzyOpinion and AgentParams sequences of equal length."""
        opinions = list(opinions)
        params = list(params)
        if len(params) != len(opinions):
            raise ValueError("need exactly one AgentParams per opinion")
        return cls(
            [o.center for o in opinions],
            [o.sigma for o in opinions],
            [p.d for p in params],
            [p.b for p in params],
        )

    def __repr__(self):
        return f"NetworkState(n={self.n})"


def membership(opinion: FuzzyOpinion, x):
    """Degree in [0, 1] to which value x agrees with the opinion.

    exp(-((x - center) / sigma)^2).  A zero-sigma opinion accepts exactly its
    own center and nothing else.  Accepts scalars or arrays for x.
    """
    xa = np.asarray(x, dtype=np.float64)
    if opinion.sigma == 0.0:
        out = np.where(xa == opinion.center, 1.0, 0.0)
    else:
        # the ratio may overflow to inf for tiny sigma; exp(-inf) = 0 is the right limit
        with np.errstate(over="ignore"):
            out = np.exp(-np.square((xa - opinion.center) / opinion.sigma))
    return float(out) if out.ndim == 0 else out


def closeness(a: FuzzyOpinion, b: FuzzyOpinion) -> float:
    """Similarity of two opinions in [0, 1].

    exp(-((center_a - center_b) / (sigma_a + sigma_b))^2): equal centers give 1,
    and more shared uncertainty makes the same center gap more forgivable.
    Two zero-sigma opinions agree fully at the same center and not at all otherwise.
    """
    ssum = a.sigma + b.sigma
    if ssum == 0.0:
        return 1.0 if a.center == b.center else 0.0
    with np.errstate(over="ignore"):
        return float(np.exp(-np.square((a.center - b.center) / ssum)))


def closeness_matrix(centers, sigmas, col_centers=None, col_sigmas=None) -> np.ndarray:
    """Closeness of every row agent to every column agent over the last axis.

    Rows (..., m) against columns (..., n) give (..., m, n).  The columns
    default to the rows, which gives a symmetric unit-diagonal (..., n, n).
    """
    if col_centers is None:
        col_centers, col_sigmas = centers, sigmas
    diff = centers[..., :, None] - col_centers[..., None, :]
    ssum = sigmas[..., :, None] + col_sigmas[..., None, :]
    positive = ssum > 0.0
    with np.errstate(over="ignore"):
        ratio = np.divide(diff, ssum, out=np.zeros_like(diff), where=positive)
        out = np.exp(-np.square(ratio))
    # zero combined uncertainty degenerates to an indicator of equal centers
    if not positive.all():
        out[~positive] = (diff[~positive] == 0.0).astype(np.float64)
    return out


def distinct_agents(state: NetworkState) -> tuple[np.ndarray, np.ndarray]:
    """Agents grouped by identical state: (first, inverse).

    first holds the lowest id of each distinct state and inverse maps every
    agent to its state's position in first.  States are compared by the exact
    bits of (center, sigma, d, b), so -0.0 and 0.0 stay apart.
    """
    keys = np.stack([state.centers, state.sigmas, state.d, state.b], axis=1)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def neighborhood_sums(centers, sigmas, d, rows=None):
    """Per agent: its neighbor count and the sums of its neighbors' centers and sigmas.

    Works over the last axis: (n,) vectors for one population, or (G, k)
    blocks with neighbors taken within each block.  Every row is reduced over
    all of its columns in id order.  rows = (first, inverse) from
    distinct_agents computes a row only for the first agent of each distinct
    state and copies it to the agents that share that state; a row depends
    only on the agent's own (center, sigma, d) and the frozen columns, so the
    result is the same bit for bit.
    """
    row_c, row_s, row_d = centers, sigmas, np.asarray(d)
    if rows is not None:
        first, inverse = rows
        row_c, row_s, row_d = centers[first], sigmas[first], row_d[first]
    adj = closeness_matrix(row_c, row_s, centers, sigmas) >= row_d[..., None]
    sums = (
        adj.sum(axis=-1).astype(np.float64),  # >= 1, every agent hears itself
        np.where(adj, centers[..., None, :], 0.0).sum(axis=-1),
        np.where(adj, sigmas[..., None, :], 0.0).sum(axis=-1),
    )
    if rows is not None:
        return tuple(a[inverse] for a in sums)
    return sums


def neighbor_mask(centers: np.ndarray, sigmas: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Boolean (n, n) matrix whose row i marks agent i's neighbor set.

    Row i is {j : closeness(i, j) >= d_i}; the threshold is hard, and i itself
    always qualifies because closeness(i, i) = 1 >= d_i.
    """
    return closeness_matrix(centers, sigmas) >= np.asarray(d, dtype=np.float64)[:, None]


def neighbor_set(state: NetworkState, i: int) -> np.ndarray:
    """Ids of the agents i listens to, ascending; always contains i."""
    state._check_id(i)
    return np.nonzero(neighbor_mask(state.centers, state.sigmas, state.d)[i])[0]


def confidence_weights(state: NetworkState, i: int) -> np.ndarray:
    """Agent i's averaging weights: equal on its neighbor set, zero elsewhere.

    The returned length-n vector sums to 1.
    """
    ids = neighbor_set(state, i)
    w = np.zeros(state.n, dtype=np.float64)
    w[ids] = 1.0 / ids.size
    return w
