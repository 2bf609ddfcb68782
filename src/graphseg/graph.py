"""Sparse N-nearest-neighbor similarity graphs and the symmetric normalized Laplacian.

Supports Gaussian weights exp(-d^2/sigma^2), Zelnik-Manor--Perona local
scaling weights exp(-d_ij^2 / sqrt(tau_i tau_j)) with sqrt(tau_i) the
distance to the M-th closest neighbor, and cosine-similarity weights.
Neighborhoods are union-symmetrized: i~j if i is among j's N nearest
neighbors or vice versa.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from graphseg.cache import load_arrays, save_arrays

__all__ = [
    "WeightSpec",
    "SparseWeightGraph",
    "NormalizedLaplacian",
    "gaussian_weight",
    "local_scaling_weight",
    "knn_graph",
    "normalized_laplacian",
    "save_graph",
    "load_graph",
]

# The GEMM always runs on blocks of this height: BLAS rounds X[s:s+r] @ X.T
# differently for other r, and edges and weights must not depend on it.
_BLOCK_ROWS = 512
# Distances are assembled and selected in row chunks of about this many bytes
# of the block, so the temporaries stay small (about one L2 cache).
_CHUNK_BYTES = 2**21


@dataclass(frozen=True)
class WeightSpec:
    """Weight function and k-NN parameter for graph construction.

    kind: "gaussian" (requires sigma), "local_scaling" (requires m_scale),
    or "cosine". neighbors is the N in the N-nearest-neighbor structure.
    """

    kind: str
    neighbors: int
    sigma: float = 1.0
    m_scale: int = 1

    def __post_init__(self):
        if self.kind not in ("gaussian", "local_scaling", "cosine"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.neighbors < 1:
            raise ValueError("neighbors must be >= 1")
        if self.kind == "gaussian" and not self.sigma > 0:
            raise ValueError("gaussian weights require sigma > 0")
        if self.kind == "local_scaling" and self.m_scale < 1:
            raise ValueError("local scaling requires M >= 1")


@dataclass(frozen=True)
class SparseWeightGraph:
    """Symmetric weighted graph stored as an upper-triangular edge list.

    Edges are (rows[k], cols[k], weights[k]) with rows[k] < cols[k] and
    weights[k] > 0; degrees[i] = sum of weights incident to i, summed from
    the edge list on first use.
    """

    n_vertices: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @functools.cached_property
    def degrees(self):
        d = np.zeros(self.n_vertices)
        np.add.at(d, self.rows, self.weights)
        np.add.at(d, self.cols, self.weights)
        return d

    def validate(self):
        if np.any(self.rows >= self.cols):
            raise ValueError("edge list must be stored with i < j")
        if np.any(self.rows < 0) or np.any(self.cols >= self.n_vertices):
            raise ValueError("vertex indices must lie in [0, n)")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ValueError("edge weights must be finite and positive")

    @property
    def n_edges(self):
        return self.rows.size

    def weight_matrix(self):
        """Full symmetric weight matrix as a CSR sparse matrix."""
        n = self.n_vertices
        i = np.concatenate([self.rows, self.cols])
        j = np.concatenate([self.cols, self.rows])
        w = np.concatenate([self.weights, self.weights])
        return sp.csr_matrix((w, (i, j)), shape=(n, n))


@dataclass(frozen=True)
class NormalizedLaplacian:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2} of a graph."""

    matrix: sp.csr_matrix
    graph: SparseWeightGraph

    @property
    def n_vertices(self):
        return self.matrix.shape[0]


def gaussian_weight(d, sigma):
    """Gaussian similarity exp(-d^2 / sigma^2)."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    return np.exp(-(d**2) / sigma**2)


def local_scaling_weight(d_ij, tau_i, tau_j):
    """Zelnik-Manor--Perona weight exp(-d_ij^2 / sqrt(tau_i tau_j)).

    tau_i is the squared distance from i to its M-th closest neighbor.
    """
    tau_i = np.asarray(tau_i, dtype=float)
    tau_j = np.asarray(tau_j, dtype=float)
    if np.any(tau_i <= 0) or np.any(tau_j <= 0):
        raise ValueError(
            "nonpositive local scale; duplicate points at the M-th neighbor"
        )
    d_ij = np.asarray(d_ij, dtype=float)
    return np.exp(-(d_ij**2) / np.sqrt(tau_i * tau_j))


def _nearest(keys, k, squared):
    """The k nearest columns of each row of `keys` and their distances.

    The distance is sqrt(key) if `squared`, else the key itself. Returns the
    first k columns of the stable argsort of each distance row (ties broken
    by lower column index) and the distances there. np.argpartition picks k
    candidates per row by key, and only their roots are taken; they are
    sorted by index and then stable-sorted by distance. sqrt is monotone but
    may map adjacent keys to one root: a key whose root equals that of the
    k-th smallest key kth is at most kth * (1 + 2 eps), rounding to nearest.
    A row with more than k keys at or below kth * (1 + 8 eps) (kth itself
    when not `squared`) may therefore tie at the cut-off, and is re-selected
    by a full stable argsort.
    """
    part = np.argpartition(keys, k - 1, axis=1)
    kth = np.take_along_axis(keys, part[:, k - 1 : k], axis=1)
    cand = part[:, :k]
    cand.sort(axis=1)
    root = np.take_along_axis(keys, cand, axis=1)
    if squared:
        np.sqrt(root, out=root)
        kth = kth * (1.0 + 2.0**-49)
    nbr = np.take_along_axis(cand, np.argsort(root, axis=1, kind="stable"), axis=1)
    # count the keys above the bound: nothing compares above a NaN bound
    # (overflowing features), so such a row also takes the full sort
    tied = np.flatnonzero(np.count_nonzero(keys > kth, axis=1) < keys.shape[1] - k)
    if tied.size:
        full = np.sqrt(keys[tied]) if squared else keys[tied]
        nbr[tied] = np.argsort(full, axis=1, kind="stable")[:, :k]
    dist = np.take_along_axis(keys, nbr, axis=1)
    return nbr, np.sqrt(dist) if squared else dist


def unit_rows(features):
    """The rows of `features` scaled to unit Euclidean norm; a zero row raises."""
    norms = np.linalg.norm(features, axis=1)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise ValueError(f"zero feature vector at row {zero[0]}")
    return features / norms[:, None]


def knn_graph(features, spec):
    """Build the union-symmetrized N-nearest-neighbor weight graph.

    Vertices i and j are connected iff i is among the N nearest neighbors
    of j or vice versa. Self-edges are excluded; distance ties are broken
    by lower vertex index, exactly as a stable argsort of each distance
    row would break them. Each row selects k = max(N, M) candidates for
    local scaling and k = N otherwise by partial selection on squared
    distances; rows that may tie at the k-th distance fall back to the full
    stable sort. Edge weights follow `spec`. Cosine weights rank neighbors
    by cosine distance, the others by Euclidean distance.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError("features must be a 2-D array with at least 2 rows")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite entries")
    n = features.shape[0]
    if spec.neighbors >= n:
        raise ValueError(f"neighbors N={spec.neighbors} must be < N_D={n}")
    if spec.kind == "local_scaling" and spec.m_scale >= n:
        raise ValueError(f"local scale index M={spec.m_scale} must be < N_D={n}")
    if spec.kind == "cosine":
        features = unit_rows(features)
        sq_norms = None
    else:
        sq_norms = np.einsum("ij,ij->i", features, features)

    n_nbr = spec.neighbors
    m = spec.m_scale
    src_list, dst_list, dist_list = [], [], []
    tau = np.empty(n) if spec.kind == "local_scaling" else None
    k = max(n_nbr, m) if tau is not None else n_nbr

    squared = sq_norms is not None
    g = np.empty((min(_BLOCK_ROWS, n), n))  # one GEMM block, reused
    chunk = max(1, _CHUNK_BYTES // (8 * n))
    tmp = np.empty((min(chunk, n), n)) if squared else None
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        # multiply a copy of the rows: for n <= _BLOCK_ROWS a view would be the
        # whole matrix, and numpy rounds A @ A.T on its symmetric path
        np.matmul(features[start:stop].copy(), features.T, out=g[: stop - start])
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            block = np.arange(lo, hi)
            keys = g[lo - start : hi - start]
            if squared:  # d^2 = (|x_i|^2 + |x_j|^2) - 2 g, rounded in that order
                keys *= 2.0
                np.add(sq_norms[lo:hi, None], sq_norms, out=tmp[: hi - lo])
                np.subtract(tmp[: hi - lo], keys, out=keys)
                np.maximum(keys, 0.0, out=keys)
            else:
                np.subtract(1.0, keys, out=keys)
            keys[np.arange(hi - lo), block] = np.inf  # exclude self
            nbr, dist = _nearest(keys, k, squared)
            src_list.append(np.repeat(block, n_nbr))
            dst_list.append(nbr[:, :n_nbr].ravel())
            dist_list.append(dist[:, :n_nbr].ravel())
            if tau is not None:
                dm = dist[:, m - 1]
                if np.any(dm == 0):
                    bad = block[np.flatnonzero(dm == 0)[0]]
                    raise ValueError(
                        f"vertex {bad}: zero local scale (duplicate point at the "
                        f"M={m} neighbor)"
                    )
                tau[block] = dm**2

    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    d = np.concatenate(dist_list)

    # union symmetrization: keep each undirected pair once with i < j
    i = np.minimum(src, dst)
    j = np.maximum(src, dst)
    keys = i.astype(np.int64) * n + j
    _, uniq = np.unique(keys, return_index=True)
    i, j, d = i[uniq], j[uniq], d[uniq]

    if spec.kind == "gaussian":
        w = gaussian_weight(d, spec.sigma)
    elif spec.kind == "local_scaling":
        w = local_scaling_weight(d, tau[i], tau[j])
    else:  # cosine: weight is the (clamped) similarity itself
        w = np.maximum(1.0 - d, 0.0)

    keep = w > 0
    return SparseWeightGraph(n, i[keep], j[keep], w[keep])


def normalized_laplacian(graph):
    """Symmetric normalized Laplacian L_s = I - D^{-1/2} W D^{-1/2}."""
    isolated = np.flatnonzero(graph.degrees <= 0)
    if isolated.size:
        raise ValueError(f"vertex {isolated[0]} is isolated (degree 0)")
    n = graph.n_vertices
    inv_sqrt_d = 1.0 / np.sqrt(graph.degrees)
    w = graph.weight_matrix()
    scaled = w.multiply(inv_sqrt_d[:, None]).multiply(inv_sqrt_d[None, :])
    ls = (sp.identity(n, format="csr") - scaled).tocsr()
    return NormalizedLaplacian(ls, graph)


def save_graph(graph, path):
    """Write the graph cache: the vertex count and the i < j edge list."""
    save_arrays(path, "edge cache", n_vertices=graph.n_vertices,
                rows=graph.rows, cols=graph.cols, weights=graph.weights)


def load_graph(path):
    """Load a graph cache and validate its invariants."""
    n, rows, cols, weights = load_arrays(
        path, "edge cache", ("n_vertices", "rows", "cols", "weights"))
    # the degrees are summed at these indices, so check them here
    if not (all(a.dtype.kind in "iu" for a in (n, rows, cols)) and n.shape == ()
            and rows.shape == cols.shape == weights.shape == (weights.size,)
            and np.all((0 <= rows) & (rows < cols) & (cols < n))):
        raise ValueError(f"{path}: not a graphseg edge cache")
    g = SparseWeightGraph(int(n), rows, cols, weights)
    g.validate()
    return g
