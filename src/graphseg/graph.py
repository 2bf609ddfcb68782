"""Sparse N-nearest-neighbor similarity graphs and the symmetric normalized Laplacian.

Supports Gaussian weights exp(-d^2/sigma^2), Zelnik-Manor--Perona local
scaling weights exp(-d_ij^2 / sqrt(tau_i tau_j)) with sqrt(tau_i) the
distance to the M-th closest neighbor, and cosine-similarity weights.
Neighborhoods are union-symmetrized: i~j if i is among j's N nearest
neighbors or vice versa.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "WeightSpec",
    "SparseWeightGraph",
    "NormalizedLaplacian",
    "gaussian_weight",
    "local_scaling_weight",
    "cosine_weight",
    "knn_graph",
    "normalized_laplacian",
    "save_graph",
    "load_graph",
]

_BLOCK_ROWS = 512

EDGE_CACHE_MAGIC = "graphseg-edges v1"


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
    weights[k] > 0; degrees[i] = sum of weights incident to i.
    """

    n_vertices: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.degrees is None:
            object.__setattr__(self, "degrees", self._compute_degrees())

    def _compute_degrees(self):
        d = np.zeros(self.n_vertices)
        np.add.at(d, self.rows, self.weights)
        np.add.at(d, self.cols, self.weights)
        return d

    def validate(self):
        if np.any(self.rows >= self.cols):
            raise ValueError("edge list must be stored with i < j")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ValueError("edge weights must be finite and positive")
        if not np.array_equal(self.degrees, self._compute_degrees()):
            raise ValueError("stored degrees do not match the edge list")

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


def cosine_weight(x_i, x_j):
    """Cosine similarity of two feature vectors, clamped below at 0."""
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    ni = np.linalg.norm(x_i)
    nj = np.linalg.norm(x_j)
    if ni == 0 or nj == 0:
        raise ValueError("cosine weight undefined for a zero vector")
    return max(float(np.dot(x_i, x_j)) / (ni * nj), 0.0)


def _pairwise_block(features, block, metric, sq_norms=None):
    """Distances from feature rows `block` to all rows.

    metric "euclidean": L2 distance. metric "cosine_distance": 1 - cosine
    similarity (features must have nonzero rows, pre-checked by caller).
    """
    if metric == "euclidean":
        xb = features[block]
        g = xb @ features.T
        d2 = sq_norms[block][:, None] + sq_norms[None, :] - 2.0 * g
        np.maximum(d2, 0.0, out=d2)
        return np.sqrt(d2)
    if metric == "cosine_distance":
        xb = features[block]
        sim = xb @ features.T
        return 1.0 - sim
    raise ValueError(f"unknown metric {metric!r}")


def _nearest(dists, k):
    """Column indices of the k smallest entries of each row of `dists`.

    Returns the first k columns of the stable argsort of each row: ordered
    by distance, ties broken by lower column index. np.argpartition picks
    k candidates per row; they are sorted by index and then stable-sorted
    by distance. A row with more than k entries at or below its k-th
    distance ties at the cut-off, and argpartition may have picked any of
    the tied columns, so that row is re-selected by a full stable argsort.
    """
    cand = np.argpartition(dists, k - 1, axis=1)[:, :k]
    cand.sort(axis=1)
    by_dist = np.argsort(np.take_along_axis(dists, cand, axis=1), axis=1, kind="stable")
    nbr = np.take_along_axis(cand, by_dist, axis=1)
    kth = np.take_along_axis(dists, nbr[:, -1:], axis=1)
    # count the entries above the cut-off: nothing compares above a NaN
    # cut-off (overflowing features), so such a row also takes the full sort
    tied = np.flatnonzero(np.count_nonzero(dists > kth, axis=1) < dists.shape[1] - k)
    if tied.size:
        nbr[tied] = np.argsort(dists[tied], axis=1, kind="stable")[:, :k]
    return nbr


def knn_graph(features, spec, metric=None):
    """Build the union-symmetrized N-nearest-neighbor weight graph.

    Vertices i and j are connected iff i is among the N nearest neighbors
    of j or vice versa. Self-edges are excluded; distance ties are broken
    by lower vertex index, exactly as a stable argsort of each distance
    row would break them. Each row selects k = max(N, M) candidates for
    local scaling and k = N otherwise by partial selection; rows that tie
    at the k-th distance fall back to the full stable sort. Edge weights
    follow `spec`. metric None means "cosine_distance" for cosine weights
    and "euclidean" otherwise.
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
    if metric is None:
        metric = "cosine_distance" if spec.kind == "cosine" else "euclidean"
    if spec.kind == "cosine" and metric != "cosine_distance":
        raise ValueError("cosine weights require the cosine_distance metric")

    if metric == "cosine_distance":
        norms = np.linalg.norm(features, axis=1)
        zero = np.flatnonzero(norms == 0)
        if zero.size:
            raise ValueError(f"zero feature vector at row {zero[0]}")
        features = features / norms[:, None]
        sq_norms = None
    else:
        sq_norms = np.einsum("ij,ij->i", features, features)

    n_nbr = spec.neighbors
    m = spec.m_scale
    src_list, dst_list, dist_list = [], [], []
    tau = np.empty(n) if spec.kind == "local_scaling" else None
    k = max(n_nbr, m) if tau is not None else n_nbr

    for start in range(0, n, _BLOCK_ROWS):
        block = np.arange(start, min(start + _BLOCK_ROWS, n))
        dists = _pairwise_block(features, block, metric, sq_norms)
        dists[np.arange(block.size), block] = np.inf  # exclude self
        order = _nearest(dists, k)
        nbr = order[:, :n_nbr]
        nbr_d = np.take_along_axis(dists, nbr, axis=1)
        src_list.append(np.repeat(block, n_nbr))
        dst_list.append(nbr.ravel())
        dist_list.append(nbr_d.ravel())
        if tau is not None:
            dm = np.take_along_axis(dists, order[:, m - 1 : m], axis=1)[:, 0]
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
    """Write the edge-list cache: header, then `i j w` lines (0-based, i<j)."""
    with open(path, "w") as f:
        f.write(f"{EDGE_CACHE_MAGIC} {graph.n_vertices}\n")
        for i, j, w in zip(graph.rows, graph.cols, graph.weights):
            f.write(f"{i} {j} {float(w)!r}\n")


def load_graph(path):
    """Load an edge-list cache, recomputing degrees and validating invariants."""
    with open(path) as f:
        header = f.readline().split()
        if header[:2] != EDGE_CACHE_MAGIC.split() or len(header) != 3:
            raise ValueError(f"{path}: not a graphseg edge cache")
        n = int(header[2])
        rows, cols, weights = [], [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: malformed edge line")
            rows.append(int(parts[0]))
            cols.append(int(parts[1]))
            weights.append(float(parts[2]))
    g = SparseWeightGraph(
        n,
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(weights),
    )
    g.validate()
    return g
