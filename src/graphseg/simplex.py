"""Gibbs-simplex geometry: Euclidean projection and nearest-vertex thresholding.

The Gibbs simplex is the set of length-K vectors with nonnegative entries
summing to one. Projection sorts each row with Batcher's odd-even merge
network on whole class columns, then applies the running-sum threshold.
"""

import functools

import numpy as np

__all__ = ["project_rows", "nearest_vertices"]


def _check_finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("simplex operation received non-finite entries")


@functools.cache
def _comparators(k):
    """Batcher's merge exchange for k keys (Knuth, TAOCP 5.3.4, Algorithm M)."""
    t, pairs = (k - 1).bit_length(), []
    for p in (1 << e for e in range(t - 1, -1, -1)):
        q, r, d = 1 << t >> 1, 0, p
        while d:
            pairs += [(i, i + d) for i in range(k - d) if i & p == r]
            q, r, d = q >> 1, p, q - p if q != p else 0
    return tuple(pairs)


def project_rows(V):
    """Project each row v of an (n, K) array to argmin_{s in simplex} ||s - v||_2.

    Every step, the sort included, is an operation on whole class columns,
    in the order of np.cumsum and np.argmax, so the bytes equal the row-wise
    form's: the network gives np.sort's values, bar the order of a -0.0/+0.0
    tie, which no threshold sees. Inputs are checked first, because
    np.minimum and np.maximum spread a NaN that np.sort would move last.
    Works on, and returns, a Fortran-ordered array: class columns are
    contiguous.
    """
    V = np.asarray(V, dtype=float, order="F")
    _check_finite(V)
    _, k = V.shape
    s = [V[:, j] for j in range(k)]  # sorted: s[k - 1 - j] is the j-th largest
    for a, b in _comparators(k):
        s[a], s[b] = np.minimum(s[a], s[b]), np.maximum(s[a], s[b])
    # theta_j = (cumsum_j - 1)/(j + 1); theta is theta_rho at the last rho with
    # s_rho - theta_rho > 0, else theta_{k-1} (argmax of an all-False row is 0)
    thetas, holds = [], []
    for j in range(k):
        col = s[k - 1 - j]
        c = col if j == 0 else c + col
        thetas.append((c - 1.0) / (j + 1))
        holds.append(col - thetas[-1] > 0)
    theta = thetas[-1]
    for theta_j, hold in zip(thetas, holds):
        theta = np.where(hold, theta_j, theta)
    out = V - theta[:, None]
    return np.maximum(out, 0.0, out=out)


def nearest_vertices(V):
    """Row-wise nearest simplex vertex indices for an (n, K) array
    (ties -> lowest index).

    np.argmax's indices, found a class column at a time: a column replaces
    the running index only where it is strictly larger, which on the
    solvers' Fortran-ordered fields is faster than np.argmax along rows.
    """
    V = np.asarray(V, dtype=float)
    _check_finite(V)
    best = V[:, 0].copy()
    idx = np.zeros(V.shape[0], dtype=np.intp)
    for l in range(1, V.shape[1]):
        col = V[:, l]
        idx = np.where(col > best, l, idx)
        np.maximum(best, col, out=best)
    return idx
