"""Gibbs-simplex geometry: Euclidean projection and nearest-vertex thresholding.

The Gibbs simplex is the set of length-K vectors with nonnegative entries
summing to one. Projection uses the sort-based O(K log K) algorithm
(descending sort, running-sum threshold).
"""

import numpy as np

__all__ = ["project_to_simplex", "project_rows", "nearest_vertex", "nearest_vertices"]


def _check_finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("simplex operation received non-finite entries")


def project_to_simplex(v):
    """Euclidean projection of a length-K vector onto the Gibbs simplex.

    Returns argmin_{s in simplex} ||s - v||_2.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-D vector with at least one entry")
    return project_rows(v[None, :])[0]


def project_rows(V):
    """Project each row of an (n, K) array onto the Gibbs simplex.

    After the sort, every step is an operation on a whole class column (a
    reduction along short rows costs about 20 ns a row), in the order of
    np.cumsum and np.argmax, so the bytes equal the row-wise form's.
    """
    V = np.asarray(V, dtype=float)
    _check_finite(V)
    _, k = V.shape
    s = np.sort(V, axis=1)  # column k - 1 - j holds the j-th largest entry
    # theta_j = (cumsum_j - 1)/(j + 1); theta is theta_rho at the last rho with
    # s_rho - theta_rho > 0, else theta_{k-1} (argmax of an all-False row is 0)
    thetas, holds = [], []
    for j in range(k):
        col = s[:, k - 1 - j]
        c = col if j == 0 else c + col
        thetas.append((c - 1.0) / (j + 1))
        holds.append(col - thetas[-1] > 0)
    theta = thetas[-1]
    for theta_j, hold in zip(thetas, holds):
        theta = np.where(hold, theta_j, theta)
    out = V - theta[:, None]
    return np.maximum(out, 0.0, out=out)


def nearest_vertex(v):
    """Index of the simplex vertex e_k closest to v (ties -> lowest index)."""
    v = np.asarray(v, dtype=float)
    _check_finite(v)
    return int(np.argmax(v))


def nearest_vertices(V):
    """Row-wise nearest simplex vertex indices for an (n, K) array
    (ties -> lowest index)."""
    V = np.asarray(V, dtype=float)
    _check_finite(V)
    return np.argmax(V, axis=1)
