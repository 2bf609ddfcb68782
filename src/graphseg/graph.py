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
    "knn_graph",
    "normalized_laplacian",
    "save_graph",
    "load_graph",
]

# The float32 screen cuts the rows into near-equal blocks of at most this many
# rows, unless the screens each row keeps need more, and a batch of fallback
# rows holds at most its square of full-row keys.
_BLOCK_ROWS = 512

# Each row keeps this many screening keys beyond the k + 1 that selection
# needs. A row the certificate turns away costs a full row of exact keys; on
# both benchmark sweeps at data seeds 1 and 2, 2 spare keys left up to 7
# such rows of 5000 or 6000, and 3 left none.
_SPARE_KEYS = 3

# Float64 entries gathered per chunk of exact keys (2 MiB).
_GATHER_ENTRIES = 2**18

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


def _nearest(keys, cols, k, squared):
    """The k nearest of each row's keys, and the rows tied at the cut-off.

    `keys` holds at least the k + 1 smallest keys of each distance row, or
    the full row, in any order, and `cols` their columns. The distance is
    sqrt(key) if `squared`, else the key itself. Returns the columns of the
    k smallest distances ordered by (distance, column), which are the first
    k columns of the stable argsort of the full distance row, the distances
    there, and a mask of the rows whose (k + 1)-th distance is not above the
    k-th (NaN included). A column missing from such a row may tie at the
    cut-off and win by its lower index, so the row must be re-selected from
    its full row.
    """
    dist = np.sqrt(keys) if squared else keys
    order = np.lexsort((cols, dist), axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    tied = ~(dist[:, k] > dist[:, k - 1])
    return np.take_along_axis(cols, order[:, :k], axis=1), dist[:, :k], tied


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


def _pair_keys(x, sq_norms, rows, cols=None):
    """Float64 keys of each row i of `rows` against the columns j in its row
    of `cols`, or against every row of `x` when `cols` is None.

    The key is the squared distance (|x_i|^2 + |x_j|^2) - 2<x_i, x_j>,
    rounded in that order and clamped at 0, given `sq_norms`, and else the
    cosine distance 1 - <x_i, x_j>. Each inner product is np.einsum's over
    the two rows alone, so the bytes of a key depend on x_i and x_j only,
    not on the batch it is formed in. With `cols`, rows are taken in chunks
    that gather at most _GATHER_ENTRIES floats; full rows come in batches
    from the caller.
    """
    width = x.shape[0] if cols is None else cols.shape[1]
    keys = np.empty((rows.size, width))
    step = max(1, rows.size if cols is None else _GATHER_ENTRIES // (width * x.shape[1]))
    for a in range(0, rows.size, step):
        r, out = rows[a : a + step], keys[a : a + step]
        if cols is None:
            c = slice(None)
            np.einsum("jd,rd->rj", x, x[r], out=out)
        else:
            c = cols[a : a + step]
            np.einsum("rcd,rd->rc", x[c], x[r], out=out)
        if sq_norms is None:
            np.subtract(1.0, out, out=out)
        else:
            out *= 2.0
            np.subtract(sq_norms[r, None] + sq_norms[c], out, out=out)
            np.maximum(out, 0.0, out=out)
    return keys


def _candidates(x, sq_norms, k):
    """Screen every pair in float32 and key each row's nearest screens exactly.

    Returns, for each row, the columns of its c = k + 1 + _SPARE_KEYS
    smallest screening keys (every column when there are at most c, itself
    included with key inf), their `_pair_keys` (squared distances clamped at
    0), and whether the row is uncertain: whether a column left out may have
    a key at or below the (k + 1)-th smallest of those kept.

    The screens are taken from y, the float32 copy of x * 2^-e, where 2^e is
    the power of two above every |x| entry, so that no screen overflows:
    (|y_i|^2 + |y_j|^2) - 2<y_i, y_j> for squared distances, -2<y_i, y_j>
    for cosine ones. The rows are cut into near-equal blocks of at most
    _BLOCK_ROWS rows and at least c. Each row keeps its c smallest from its
    own block, then from each later pair of blocks, multiplied and merged
    once; every column left out has a screen no smaller than the largest kept.
    """
    n, dim = x.shape
    c = min(k + 1 + _SPARE_KEYS, n)
    n_blocks = min(-(-n // _BLOCK_ROWS), n // c)  # n // c >= 1, as c <= n
    edges = [i * n // n_blocks for i in range(n_blocks + 1)]  # near-equal blocks
    blocks = list(zip(edges, edges[1:]))
    e = int(np.frexp(max(x.max(), -x.min()))[1])
    y = np.empty(x.shape, dtype=np.float32)
    norms = np.empty(n)  # |y_i| before the cast, in float64
    for r0, r1 in blocks:
        yb = np.ldexp(x[r0:r1], -e)
        norms[r0:r1] = np.einsum("ij,ij->i", yb, yb)
        y[r0:r1] = yb
    np.sqrt(norms, out=norms)
    y_sq = None if sq_norms is None else np.einsum("ij,ij->i", y, y)
    widest = max(r1 - r0 for r0, r1 in blocks)
    gemm = np.empty(widest**2, dtype=np.float32)  # one tile, reused

    def tile(r0, r1, c0, c1):
        g = gemm[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
        np.matmul(y[r0:r1], y[c0:c1].T, out=g)
        g *= -2.0
        if y_sq is not None:
            g += y_sq[r0:r1, None]
            g += y_sq[c0:c1]
        return g

    best_keys = np.full((n, c), np.inf, dtype=np.float32)  # largest kept last
    best_cols = np.zeros((n, c), dtype=np.intp)

    def retain(rows, cand_keys, cand_cols):
        part = np.argpartition(cand_keys, c - 1, axis=1)[:, :c]
        best_keys[rows] = np.take_along_axis(cand_keys, part, axis=1)
        best_cols[rows] = np.take_along_axis(cand_cols, part, axis=1)

    def offer(g, r0, c0):
        """Merge each entry of tile g (rows r0.., columns c0.. past them) into
        its row and its column's row, wherever below that row's largest kept."""
        rw, cw = g.shape  # flat indices: 2-D nonzero is slower; g.T's group by column
        ri, rj = np.divmod(np.flatnonzero(g < best_keys[r0 : r0 + rw, -1, None]), cw)
        cj, ci = np.divmod(np.flatnonzero(g.T < best_keys[c0 : c0 + cw, -1, None]), rw)
        if not (ri.size or cj.size):
            return
        row = np.concatenate([r0 + ri, c0 + cj])  # sorted: block r0 ends before c0
        col = np.concatenate([c0 + rj, r0 + ci])
        val = np.concatenate([g[ri, rj], g[ci, cj]])
        rows, first, count = np.unique(row, return_index=True, return_counts=True)
        slot = np.repeat(np.arange(rows.size), count)
        at = c + np.arange(row.size) - first[slot]
        cand_keys = np.full((rows.size, c + count.max()), np.inf, dtype=np.float32)
        cand_cols = np.zeros(cand_keys.shape, dtype=np.intp)
        cand_keys[:, :c] = best_keys[rows]
        cand_cols[:, :c] = best_cols[rows]
        cand_keys[slot, at] = val
        cand_cols[slot, at] = col
        retain(rows, cand_keys, cand_cols)

    for r0, r1 in blocks:  # seed each row from its own block (at least c
        g = tile(r0, r1, r0, r1)  # columns), then take every other pair once
        g[np.arange(r1 - r0), np.arange(r1 - r0)] = np.inf  # exclude self
        retain(slice(r0, r1), g, np.broadcast_to(np.arange(r0, r1), g.shape))
    for si, (r0, r1) in enumerate(blocks):
        for c0, c1 in blocks[si + 1 :]:
            offer(tile(r0, r1, c0, c1), r0, c0)

    keys = _pair_keys(x, sq_norms, np.arange(n), best_cols)
    keys[best_keys == np.inf] = np.inf  # itself
    # The certificate. Let u = 2^-24, g_m = m u / (1 - m u), a = |y_i| and
    # M = max_j |y_j| in exact arithmetic; M >= 1/2. The float32 cast moves
    # |y_i - y_j| by at most u (|y_i| + |y_j|), the GEMM and the squared norms
    # err by g_D times the products of the norms, and the two additions of
    # the assembly by g_2 (1 + g_D) (|y_i| + |y_j|)^2, so a screen lies within
    # g_{D+4} (a + M)^2 of the real 2^-2e |x_i - x_j|^2, or of 2^-2e times
    # twice the real cosine distance less 2. A float64 key, scaled alike, lies
    # within (D + 2) 2^-53 (a + M)^2 < u (a + M)^2 of the same value, and one
    # more u (a + M)^2 >= u / 4 covers float32 underflow and the rounding of
    # this bound; (D + 2) 2^-1073, scaled, covers float64 underflow. A column
    # left out thus has a key of at least `floor`.
    gamma = (dim + 6) * 2.0**-24 / (1 - (dim + 6) * 2.0**-24)
    low = best_keys[:, -1] - (gamma * (norms + norms.max()) ** 2
                              + np.ldexp(dim + 2.0, -2 * e - 1072))
    floor = (np.ldexp(low, 2 * e) if sq_norms is not None
             else 1.0 + np.ldexp(low, 2 * e - 1))
    uncertain = ~(np.partition(keys, k, axis=1)[:, k] < floor)
    return best_cols, keys, uncertain


def knn_graph(features, spec):
    """Build the union-symmetrized N-nearest-neighbor weight graph.

    Vertices i and j are connected iff i is among the N nearest neighbors
    of j or vice versa. Self-edges are excluded; distance ties are broken
    by lower vertex index, exactly as a stable argsort of each row of
    `_pair_keys` would break them. Each row selects k = max(N, M) neighbors
    for local scaling and k = N otherwise. Edge weights follow `spec`.
    Cosine weights rank neighbors by cosine distance, the others by
    Euclidean distance.

    A float32 screen of every pair (see `_candidates`) leaves each row a few
    candidates more than the k + 1 it needs, and the candidates get exact
    float64 keys one pair at a time, and `_nearest` selects from them. A
    row that the screen's certificate cannot vouch for, or that ties at the
    k-th distance, is selected by `_nearest` from a full row of exact keys
    instead. The graph thus depends only on the features, not on BLAS
    blocking or thread count. The temporaries are the float32 copy of the
    features, one screening tile, c keys and columns per row, and chunks
    of a few MiB for the exact keys.
    """
    features = np.ascontiguousarray(check_features(features))
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
    cols, keys, uncertain = _candidates(features, sq_norms, k)
    nbr, dist, tied = _nearest(keys, cols, k, squared)
    redo = np.flatnonzero(uncertain | tied)
    step = max(1, _BLOCK_ROWS**2 // n)
    for a in range(0, redo.size, step):  # a full row misses no column
        rows = redo[a : a + step]
        full = _pair_keys(features, sq_norms, rows)
        full[np.arange(rows.size), rows] = np.inf  # exclude self
        every = np.broadcast_to(np.arange(n), full.shape)
        nbr[rows], dist[rows], _ = _nearest(full, every, k, squared)

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
        w = np.exp(-(d**2) / spec.sigma**2)
    elif spec.kind == "local_scaling":
        w = np.exp(-(d**2) / np.sqrt(tau[i] * tau[j]))
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
