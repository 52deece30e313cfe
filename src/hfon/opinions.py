"""Gaussian fuzzy opinions and the bounded-confidence primitives built on them.

An agent's opinion is a Gaussian fuzzy set: the center is the stated opinion,
the width (sigma) is the agent's uncertainty about it.  Agents listen only to
agents whose opinions are close enough, where "close enough" is measured by a
similarity that shrinks with center distance and grows with shared uncertainty.
"""

from __future__ import annotations

import numpy as np

# the most (row, column) pairs one neighborhood_sums chunk holds: 512 KB per float
# temporary, so a chunk's closeness, mask and masked sums stay in cache
_CHUNK_PAIRS = 1 << 16


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


class NetworkState:
    """Validated initial population of a run: centers, sigmas, per-agent (d, b).

    Every check runs here, once: a run reads the arrays at entry and steps raw
    arrays from there, and nothing mutates a state.  Scalars passed for d or b
    are broadcast to every agent.
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

    def __repr__(self):
        return f"NetworkState(n={self.n})"


def closeness_matrix(centers, sigmas, col_centers=None, col_sigmas=None) -> np.ndarray:
    """Closeness exp(-((c_i - c_j) / (s_i + s_j))^2) of every row agent i to every column agent j.

    Works over the last axis: rows (..., m) against columns (..., n) give
    (..., m, n).  The columns default to the rows, which gives a symmetric
    unit-diagonal (..., n, n).  A zero-sigma column j gives row i's
    membership degree of the crisp value c_j.  Zero combined sigma gives 1
    where the centers are equal and 0 elsewhere.  The inputs are only read.
    """
    if col_centers is None:
        col_centers, col_sigmas = centers, sigmas
    out = centers[..., :, None] - col_centers[..., None, :]
    ssum = sigmas[..., :, None] + col_sigmas[..., None, :]
    # one buffer: the center differences become the ratios, their squares and the closeness
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.divide(out, ssum, out=out)
        np.square(out, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
    # zero combined sigma: an indicator of equal centers.  min propagates NaN, so NaN sums,
    # which fail ssum > 0 too, take this branch; initial covers empty input
    if not ssum.min(initial=np.inf) > 0.0:
        crisp = ~(ssum > 0.0)
        row_c = np.broadcast_to(centers[..., :, None], out.shape)[crisp]
        out[crisp] = row_c - np.broadcast_to(col_centers[..., None, :], out.shape)[crisp] == 0.0
    return out


def distinct_agents(centers, sigmas, d, b) -> tuple[np.ndarray, np.ndarray]:
    """Agents of (n,) arrays grouped by identical state: (first, inverse).

    first holds the lowest id of each distinct state and inverse maps every
    agent to its state's position in first.  States are compared by the exact
    bits of (center, sigma, d, b), so -0.0 and 0.0 stay apart.
    """
    return distinct_rows(np.stack([centers, sigmas, d, b], axis=1))


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a C-contiguous (n, m) array grouped by their exact bits: (first, inverse)."""
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def neighborhood_sums(centers, sigmas, d, rows=None):
    """Per agent: its neighbor count and the sums of its neighbors' centers and sigmas.

    Works over the last axis: (n,) vectors for one population, or (G, k)
    blocks with neighbors taken within each block.  Every row is reduced over
    all of its columns in id order.  rows = (first, inverse) from
    distinct_agents, for (n,) vectors only, computes a row only for the first
    agent of each distinct state and copies it to the agents that share that
    state; a row depends only on the agent's own (center, sigma, d) and the
    frozen columns, so the result is the same bit for bit.  Rows are computed
    in chunks of at most about _CHUNK_PAIRS (row, column) pairs, which for the
    same reason changes no bit either.
    """
    row_c, row_s, row_d = centers, sigmas, np.asarray(d)
    if rows is not None:
        if centers.ndim != 1:
            raise ValueError(f"rows= takes (n,) vectors only, got centers of shape {centers.shape}")
        first, inverse = rows
        row_c, row_s, row_d = centers[first], sigmas[first], row_d[first]
    # one row index along the last axis pairs with centers.size (row, column) cells
    chunk = max(1, _CHUNK_PAIRS // centers.size)
    parts = []
    for start in range(0, row_c.shape[-1], chunk):
        part = np.s_[..., start:start + chunk]
        adj = closeness_matrix(row_c[part], row_s[part], centers, sigmas) >= row_d[part][..., None]
        parts.append((
            adj.sum(axis=-1, dtype=np.float64),  # >= 1, every agent hears itself
            np.where(adj, centers[..., None, :], 0.0).sum(axis=-1),
            np.where(adj, sigmas[..., None, :], 0.0).sum(axis=-1),
        ))
    sums = parts[0] if len(parts) == 1 else [np.concatenate(columns, axis=-1) for columns in zip(*parts)]
    if rows is not None:
        return tuple(a[inverse] for a in sums)
    return tuple(sums)


def neighbor_mask(centers: np.ndarray, sigmas: np.ndarray, d) -> np.ndarray:
    """Boolean (..., n, n) mask whose row i marks agent i's neighbor set.

    Works over the last axis like closeness_matrix; d is a scalar or broadcasts
    against centers.  Row i is {j : closeness(i, j) >= d_i}; the threshold is
    hard, and i itself always qualifies because closeness(i, i) = 1 >= d_i.
    """
    return closeness_matrix(centers, sigmas) >= np.asarray(d, dtype=np.float64)[..., None]
