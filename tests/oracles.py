"""Independent reference computations used to check the library paths.

Everything here deliberately avoids the code under test: dense eigensolvers,
grid searches, finite differences, exhaustive enumeration, and the original
full-sort neighbour selection of the k-NN graph.
"""

import itertools

import numpy as np

from graphseg.graph import (
    _BLOCK_ROWS,
    SparseWeightGraph,
    _pairwise_block,
    gaussian_weight,
    local_scaling_weight,
)


def grid_project_simplex(v, tol=1e-9):
    """Brute-force grid projection onto the probability simplex.

    Scans a shrinking grid over the shift parameter t of the candidate
    family clip(v - t, 0) until the simplex sum constraint is met to
    `tol`, refining the grid tenfold each round. Knows nothing about the
    sort-based algorithm under test.
    """
    v = np.asarray(v, dtype=float)
    lo, hi = v.min() - 1.0, v.max()
    for _ in range(64):
        ts = np.linspace(lo, hi, 201)
        sums = np.clip(v[None, :] - ts[:, None], 0.0, None).sum(axis=1)
        best = int(np.argmin(np.abs(sums - 1.0)))
        step = ts[1] - ts[0]
        lo, hi = ts[best] - step, ts[best] + step
        if step < tol:
            break
    return np.clip(v - ts[best], 0.0, None)


def dense_laplacian(graph):
    """Dense symmetric normalized Laplacian built independently from the
    edge list."""
    n = graph.n_vertices
    w = np.zeros((n, n))
    for i, j, wt in zip(graph.rows, graph.cols, graph.weights):
        w[i, j] += wt
        w[j, i] += wt
    d = w.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return np.eye(n) - inv[:, None] * w * inv[None, :]


def quadratic_form(graph, u):
    """(1/2) sum_ij w(i,j) (u_i/sqrt(d_i) - u_j/sqrt(d_j))^2 by direct
    summation over the stored edges (each undirected edge counted twice)."""
    s = u / np.sqrt(graph.degrees)
    return float(np.sum(graph.weights * (s[graph.rows] - s[graph.cols]) ** 2))


def brute_force_cut(graph, subset_mask):
    """Weighted cut between a vertex subset and its complement, by direct
    enumeration of the edge list."""
    total = 0.0
    for i, j, w in zip(graph.rows, graph.cols, graph.weights):
        if subset_mask[i] != subset_mask[j]:
            total += w
    return total


def well_potential(row):
    """Multi-well product potential of a single row (no 1/2eps prefactor)."""
    row = np.asarray(row, dtype=float)
    k = row.size
    value = 1.0
    for l in range(k):
        e = np.zeros(k)
        e[l] = 1.0
        value *= 0.25 * np.sum(np.abs(row - e)) ** 2
    return value


def gradient_fd(f, u, step=1e-6):
    """Central finite differences of a scalar function f of an array,
    one entry at a time."""
    u = np.asarray(u, dtype=float)
    grad = np.empty_like(u)
    for idx in np.ndindex(u.shape):
        hi = u.copy()
        lo = u.copy()
        hi[idx] += step
        lo[idx] -= step
        grad[idx] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def well_gradient_fd(row, step=1e-6):
    """Central finite differences of the product potential."""
    return gradient_fd(well_potential, row, step)


def dense_kernel_laplacian_eigs(features, sigma):
    """Eigenpairs of the normalized Laplacian of the fully connected
    Gaussian kernel (diagonal included), via a dense solver."""
    x = np.asarray(features, dtype=float)
    d2 = (
        np.einsum("ij,ij->i", x, x)[:, None]
        + np.einsum("ij,ij->i", x, x)[None, :]
        - 2.0 * x @ x.T
    )
    np.maximum(d2, 0.0, out=d2)
    w = np.exp(-d2 / sigma**2)
    d = w.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    ls = np.eye(x.shape[0]) - inv[:, None] * w * inv[None, :]
    vals, vecs = np.linalg.eigh(ls)
    return vals, vecs


def random_connected_graph(rng, n, extra_edges=None):
    """Random connected SparseWeightGraph: a random spanning tree plus
    extra random edges, with uniform(0.1, 2) weights."""
    edges = set()
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        edges.add((min(a, b), max(a, b)))
    if extra_edges is None:
        extra_edges = n
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    edges = sorted(edges)
    rows = np.array([e[0] for e in edges], dtype=np.int64)
    cols = np.array([e[1] for e in edges], dtype=np.int64)
    weights = rng.uniform(0.1, 2.0, size=len(edges))
    return SparseWeightGraph(n, rows, cols, weights)


def all_subsets(n):
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            mask = np.zeros(n, dtype=bool)
            mask[list(combo)] = True
            yield mask


# The original knn_graph, kept verbatim: it selects neighbours with a full
# stable argsort of every distance row. knn_graph must match it byte for byte.
def knn_graph_reference(features, spec, metric="euclidean"):
    """Build the union-symmetrized N-nearest-neighbor weight graph.

    Vertices i and j are connected iff i is among the N nearest neighbors
    of j or vice versa. Self-edges are excluded; distance ties are broken
    by lower vertex index. Edge weights follow `spec`.
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

    for start in range(0, n, _BLOCK_ROWS):
        block = np.arange(start, min(start + _BLOCK_ROWS, n))
        dists = _pairwise_block(features, block, metric, sq_norms)
        dists[np.arange(block.size), block] = np.inf  # exclude self
        # stable argsort: ties broken by lower vertex index
        order = np.argsort(dists, axis=1, kind="stable")
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
