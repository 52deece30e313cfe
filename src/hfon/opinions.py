"""Gaussian fuzzy opinions and the bounded-confidence primitives built on them.

An agent's opinion is a Gaussian fuzzy set: the center is the stated opinion,
the width (sigma) is the agent's uncertainty about it.  Agents listen only to
agents whose opinions are close enough, where "close enough" is measured by a
similarity that shrinks with center distance and grows with shared uncertainty.
"""

from __future__ import annotations

from typing import NamedTuple

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


class Partition(NamedTuple):
    """Agents of (n,) arrays grouped by identical (center, sigma, d, b), with each group's state.

    centers, sigmas, d and b are the k distinct states and inverse maps every
    agent to its state's position in them, so values[inverse] spreads one
    value per state back over the agents.
    """

    inverse: np.ndarray
    centers: np.ndarray
    sigmas: np.ndarray
    d: np.ndarray
    b: np.ndarray


def distinct_agents(centers, sigmas, d, b) -> Partition:
    """Agents of (n,) arrays grouped by identical state, each state the values of its lowest id.

    States are compared by the exact bits of (center, sigma, d, b), so -0.0
    and 0.0 stay apart.
    """
    first, inverse = distinct_rows(np.stack([centers, sigmas, d, b], axis=1))
    return Partition(inverse, centers[first], sigmas[first], d[first], b[first])


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a C-contiguous (n, m) array grouped by their exact bits: (first, inverse)."""
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def neighborhood_sums(centers, sigmas, d, rows=None):
    """Per row agent: its neighbor count and the sums of its neighbors' centers and sigmas.

    Works over the last axis: (n,) vectors for one population, or (G, k)
    blocks with neighbors taken within each block.  Every row is reduced over
    all of its columns in id order.  rows, a Partition of (n,) vectors,
    computes only the k rows of its distinct states, from its (center, sigma,
    d) in place of the agents', and returns (k,) sums; sums[rows.inverse] are
    every agent's, bit for bit, since a row depends only on the agent's own
    (center, sigma, d) and the frozen columns.  Rows are computed in chunks
    of at most about _CHUNK_PAIRS (row, column) pairs, which for the same
    reason changes no bit either.  When every row's agents share one finite
    center, tested on the distinct states when rows is given, the call costs
    O(n): equal finite centers are exp(0) = 1 >= d close whatever the sigmas
    (crisp or not), so every agent hears its whole row, and a full row's
    masked sums are the plain contiguous row sums.  A partition holding its
    one state as float64 scalars, as engine._regroup builds it for any one
    state, takes that rule untested: (n, center sum, sigma sum), scalars.
    Array partitions always return (k,) sums.  (n,) vectors that need more
    than one chunk take their rows in center order and compute each chunk's
    closeness only within its center window (_windowed_sums).
    """
    if rows is not None and not rows.centers.ndim:  # one state (engine._regroup): the one-center rule below
        return centers.shape[0], np.add.reduce(centers), np.add.reduce(sigmas)
    row_c, row_s, row_d = centers, sigmas, np.asarray(d)
    if rows is not None:
        if centers.ndim != 1:
            raise ValueError(f"rows= takes (n,) vectors only, got centers of shape {centers.shape}")
        row_c, row_s, row_d = rows.centers, rows.sigmas, rows.d
    # a row with NaN, inf (inf - inf is NaN) or two centers has a nonzero difference
    if not np.count_nonzero(row_c - row_c[..., :1]):
        out = np.empty((3, *row_c.shape))  # counts k and the plain row sums, filled along each row
        out[0] = centers.shape[-1]
        out[1] = np.add.reduce(centers, axis=-1, keepdims=True)
        out[2] = np.add.reduce(sigmas, axis=-1, keepdims=True)
        return out[0], out[1], out[2]
    # one row index along the last axis pairs with centers.size (row, column) cells
    chunk = max(1, _CHUNK_PAIRS // centers.size)
    if row_c.shape[-1] > chunk and centers.ndim == 1:
        return _windowed_sums(centers, sigmas, row_c, row_s, row_d, chunk)
    parts = []
    for start in range(0, row_c.shape[-1], chunk):
        part = np.s_[..., start:start + chunk]
        adj = closeness_matrix(row_c[part], row_s[part], centers, sigmas) >= row_d[part][..., None]
        parts.append((
            adj.sum(axis=-1, dtype=np.float64),  # >= 1, every agent hears itself
            np.where(adj, centers[..., None, :], 0.0).sum(axis=-1),
            np.where(adj, sigmas[..., None, :], 0.0).sum(axis=-1),
        ))
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(columns, axis=-1) for columns in zip(*parts))


def _windowed_sums(centers, sigmas, row_c, row_s, row_d, chunk):
    """neighborhood_sums of (n,) vectors, chunk rows at a time in center order.

    A chunk's rows, centers lo..hi, compute closeness only against the
    columns with lo - R <= c_j <= hi + R, where R = (max row sigma + max
    column sigma) * sqrt(2 * -ln(min row d) + 1e-9).  A pair outside is at
    most d^2 e^-1e-9 < d close, a margin far wider than the rounding of the
    closeness, so the pairs left out are exactly those the dense mask
    rejects.  R is padded against the rounding of lo - R and hi + R; a chunk
    whose R is not finite takes every column: d = 0, or any non-finite center
    or sigma, whose spacing or maximum is NaN or inf.  The masked centers
    and sigmas go into a zeroed (rows, n) buffer in id order, so every row
    is the dense step's full-row reduction bit for bit; counts are integer
    sums, exact in any order.
    """
    n = centers.size
    order = np.argsort(row_c, kind="stable")
    col_order = order if row_c is centers else np.argsort(centers, kind="stable")
    col_c, col_s = centers[col_order], sigmas[col_order]
    max_col_s, pad = col_s.max(), 4.0 * np.spacing(np.abs(centers).max())
    buf = np.zeros((chunk, n))
    out = np.empty((3, order.size))
    for start in range(0, order.size, chunk):
        ids = order[start:start + chunk]
        rc, rs, rd = row_c[ids], row_s[ids], row_d[ids]
        with np.errstate(divide="ignore", invalid="ignore"):  # d = 0: R is inf, or nan for zero sigmas
            radius = (rs.max() + max_col_s) * np.sqrt(2.0 * -np.log(rd.min()) + 1e-9)
            radius += radius * 1e-9 + pad
        window = np.s_[:]  # every column
        if np.isfinite(radius):
            window = np.s_[np.searchsorted(col_c, rc[0] - radius):np.searchsorted(col_c, rc[-1] + radius, "right")]
        adj = closeness_matrix(rc, rs, col_c[window], col_s[window]) >= rd[:, None]
        cols, masked = col_order[window], buf[:ids.size]
        out[0, ids] = adj.sum(axis=-1, dtype=np.float64)  # >= 1, every agent hears itself
        masked[:, cols] = np.where(adj, col_c[window], 0.0)
        out[1, ids] = masked.sum(axis=-1)
        masked[:, cols] = np.where(adj, col_s[window], 0.0)
        out[2, ids] = masked.sum(axis=-1)
        masked[:, cols] = 0.0
    return out[0], out[1], out[2]


def neighbor_mask(centers: np.ndarray, sigmas: np.ndarray, d) -> np.ndarray:
    """Boolean (..., n, n) mask whose row i marks agent i's neighbor set.

    Works over the last axis like closeness_matrix; d is a scalar or broadcasts
    against centers.  Row i is {j : closeness(i, j) >= d_i}; the threshold is
    hard, and i itself always qualifies because closeness(i, i) = 1 >= d_i.
    """
    return closeness_matrix(centers, sigmas) >= np.asarray(d, dtype=np.float64)[..., None]
