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
    "WEIGHT_KINDS",
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

# The GEMM always runs on row blocks of this height: BLAS rounds
# X[s:s+r] @ X[t:u].T differently for other r, and edges and weights must not
# depend on it. Column groups at least this wide keep the bytes of a block's
# whole product; narrower ones need not.
_BLOCK_ROWS = 512

WEIGHT_KINDS = ("gaussian", "local_scaling", "cosine")


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
        if self.kind not in WEIGHT_KINDS:
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


def _nearest(keys, cols, k, squared):
    """The k nearest of each row's k + 1 smallest keys, and the rows that may tie.

    `keys` holds the k + 1 smallest keys of each distance row, in any order,
    and `cols` their columns. The distance is sqrt(key) if `squared`, else
    the key itself. Returns the columns of the k smallest keys ordered by
    (distance, column), which are the first k columns of the stable argsort
    of the full distance row, the distances there, and a mask of the rows
    for which that is not certain. sqrt is monotone but may map adjacent
    keys to one root: a key whose root equals that of the k-th smallest key
    kth is at most kth * (1 + 2 eps), rounding to nearest. A row whose
    (k + 1)-th key is at or below the bound kth * (1 + 8 eps) (kth itself
    when not `squared`), or whose bound is not finite, may therefore tie at
    the cut-off, and must be re-selected from its full row.
    """
    order = np.argsort(keys, axis=1)
    keys = np.take_along_axis(keys, order, axis=1)
    cols = np.take_along_axis(cols, order, axis=1)[:, :k]
    bound = keys[:, k - 1] * (1.0 + 2.0**-49) if squared else keys[:, k - 1]
    tied = ~(keys[:, k] > bound)  # nothing compares above a NaN or inf bound
    dist = np.sqrt(keys[:, :k]) if squared else keys[:, :k]
    order = np.lexsort((cols, dist), axis=1)
    return (np.take_along_axis(cols, order, axis=1),
            np.take_along_axis(dist, order, axis=1), tied)


def check_features(features):
    """`features` as a float array: 2-D, at least 2 rows, every entry finite."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError("features must be a 2-D array with at least 2 rows")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite entries")
    return features


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
    row would break them. Each row selects k = max(N, M) neighbors for
    local scaling and k = N otherwise. Edge weights follow `spec`. Cosine
    weights rank neighbors by cosine distance, the others by Euclidean
    distance.

    The rows are cut into blocks of 512, and the columns into groups: the
    same blocks, with a short last block joined to the one before it. Each
    pair of a row block s and a column group t >= s is multiplied once. Its
    tile of keys (squared distances, or cosine distances) feeds the rows of
    s directly and, through the transpose, the rows of t's first block.
    Each row keeps a running set of its k + 1 smallest keys; a tile entry
    joins it only when it is below the row's (k + 1)-th key, since an entry
    equal to that key cannot change the kept keys. Every row is first
    seeded from the tile of its own block and group, so that the bound is
    tight before the other tiles arrive. The rows then finish as `_nearest`
    says, and a row that may tie at the k-th distance is re-selected by a
    stable sort of its full row, recomputed from the tiles of its block.

    The tiles keep the bytes of the product of each whole 512-row block with
    all of the features, which BLAS rounds as one (measured with OpenBLAS;
    the reference tests guard it on each build):
    - a column group rounds as the same columns of the whole product. A
      narrow tile, such as the columns of a short last block alone, does not;
    - a mirrored tile rounds as the receiving block's own product when that
      block is 512 rows high. It does not when the receiving block is the
      short last block, so that block takes no mirrored tiles and multiplies
      its own rows with every column group.
    """
    features = check_features(features)
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
    k = max(n_nbr, m) if spec.kind == "local_scaling" else n_nbr
    squared = sq_norms is not None
    b = _BLOCK_ROWS
    blocks = [(s, min(s + b, n)) for s in range(0, n, b)]
    starts = list(range(0, max(n - b, 0) + 1, b))
    groups = list(zip(starts, starts[1:] + [n]))
    gemm = np.empty(min(b, n) * min(2 * b, n))  # one tile, reused
    norms = np.empty(gemm.size) if squared else None

    def tile(rows, r0, c0, c1):
        """Keys of `rows`, a copy of features[r0:r0 + len(rows)], against
        columns c0:c1; squared distances are not yet clamped at 0."""
        shape = (rows.shape[0], c1 - c0)
        g = gemm[: shape[0] * shape[1]].reshape(shape)
        np.matmul(rows, features[c0:c1].T, out=g)
        if squared:  # d^2 = (|x_i|^2 + |x_j|^2) - 2 g, rounded in that order
            g *= 2.0
            s = norms[: g.size].reshape(shape)
            s[...] = sq_norms[r0 : r0 + shape[0], None]
            s += sq_norms[c0:c1]
            np.subtract(s, g, out=g)
        else:
            np.subtract(1.0, g, out=g)
        return g

    best_keys = np.full((n, k + 1), np.inf)  # each row's k + 1 smallest keys
    best_cols = np.zeros((n, k + 1), dtype=np.intp)

    def retain(rows, cand_keys, cand_cols):
        part = np.argpartition(cand_keys, k, axis=1)[:, : k + 1]
        best_keys[rows] = np.take_along_axis(cand_keys, part, axis=1)
        best_cols[rows] = np.take_along_axis(cand_cols, part, axis=1)

    def offer(g, r0, c0, mirror):
        """Merge the entries of tile g (rows r0.., columns c0..) that are below
        their row's (k + 1)-th key; with `mirror`, into the rows of c0.. ."""
        if mirror:
            hit = g < best_keys[c0 : c0 + g.shape[1], k]
        else:
            hit = g < best_keys[r0 : r0 + g.shape[0], k, None]
        i, j = np.divmod(np.flatnonzero(hit), hit.shape[1])  # 2-D nonzero is slower
        if not i.size:
            return
        val = g[i, j]
        if squared:
            np.maximum(val, 0.0, out=val)
        if mirror:
            order = np.argsort(j, kind="stable")
            row, col, val = c0 + j[order], r0 + i[order], val[order]
        else:
            row, col = r0 + i, c0 + j
        rows, first, count = np.unique(row, return_index=True, return_counts=True)
        slot = np.repeat(np.arange(rows.size), count)
        at = k + 1 + np.arange(row.size) - first[slot]
        cand_keys = np.full((rows.size, k + 1 + count.max()), np.inf)
        cand_cols = np.zeros(cand_keys.shape, dtype=np.intp)
        cand_keys[:, : k + 1] = best_keys[rows]
        cand_cols[:, : k + 1] = best_cols[rows]
        cand_keys[slot, at] = val
        cand_cols[slot, at] = col
        retain(rows, cand_keys, cand_cols)

    # multiply a copy of the rows: for n <= 512 a view would be the whole
    # matrix, and numpy rounds A @ A.T on its symmetric path
    for si, (r0, r1) in enumerate(blocks):  # seed from the block's own group
        c0, c1 = groups[min(si, len(groups) - 1)]
        g = tile(features[r0:r1].copy(), r0, c0, c1)
        g[np.arange(r1 - r0), np.arange(r0 - c0, r1 - c0)] = np.inf  # exclude self
        if g.shape[1] < k + 2:  # fewer columns than kept keys: pad with inf
            g = np.pad(g, ((0, 0), (0, k + 2 - g.shape[1])), constant_values=np.inf)
        # a padding column is kept only where inf is, which ties the row
        retain(slice(r0, r1), g, np.broadcast_to(c0 + np.arange(g.shape[1]), g.shape))
        if squared:  # clamp at 0 after selecting: it keeps the order
            np.maximum(best_keys[r0:r1], 0.0, out=best_keys[r0:r1])
    for si, (r0, r1) in enumerate(blocks):
        rows = features[r0:r1].copy()
        if r1 - r0 == b:  # the later groups, whose first blocks take the mirror
            for c0, c1 in groups[si + 1 :]:
                g = tile(rows, r0, c0, c1)
                offer(g, r0, c0, False)
                offer(g[:, :b], r0, c0, True)
        else:  # the short last block: every group but its own
            for c0, c1 in groups[:-1]:
                offer(tile(rows, r0, c0, c1), r0, c0, False)

    nbr, dist, tied = _nearest(best_keys, best_cols, k, squared)
    for r0, r1 in blocks:  # rows that may tie take a stable sort of the full row
        redo = np.flatnonzero(tied[r0:r1])
        if not redo.size:
            continue
        rows = features[r0:r1].copy()
        full = np.empty((redo.size, n))
        for c0, c1 in groups:
            full[:, c0:c1] = tile(rows, r0, c0, c1)[redo]
        full[np.arange(redo.size), r0 + redo] = np.inf  # exclude self
        if squared:
            np.maximum(full, 0.0, out=full)
            np.sqrt(full, out=full)
        order = np.argsort(full, axis=1, kind="stable")[:, :k]
        nbr[r0 + redo] = order
        dist[r0 + redo] = np.take_along_axis(full, order, axis=1)

    tau = None
    if spec.kind == "local_scaling":
        dm = dist[:, m - 1]
        bad = np.flatnonzero(dm == 0)
        if bad.size:
            raise ValueError(
                f"vertex {bad[0]}: zero local scale (duplicate point at the "
                f"M={m} neighbor)"
            )
        tau = dm**2
    src = np.repeat(np.arange(n), n_nbr)
    dst = nbr[:, :n_nbr].ravel()
    d = dist[:, :n_nbr].ravel()
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
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ValueError("edge weights must be finite and positive")
    return SparseWeightGraph(int(n), rows, cols, weights)
