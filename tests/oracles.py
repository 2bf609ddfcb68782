"""Independent reference computations used to check the library paths.

Everything here deliberately avoids the code under test: dense eigensolvers,
grid searches, finite differences, exhaustive enumeration, the original
full-sort neighbour selection of the k-NN graph, on its GEMM distance
tiles and on per-pair inner products, exact integer comparison of cosines,
the original row-wise solver kernels, the Gaussian, local scaling and
scalar cosine weights, and the scalar +/-1 binary MBO pipeline. The IDX
writers and `write_bad_cache` build input files for the loaders' tests, and
`confusion` tabulates labels for the evaluation tests.
"""

import itertools
import struct
from dataclasses import dataclass

import numpy as np

from graphseg.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from graphseg.fields import iterate, random_label_field, stop_ratio
from graphseg.graph import SparseWeightGraph
from graphseg.mbo import mbo_step
from graphseg.simplex import nearest_vertices


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


def confusion(predicted, truth, n_classes):
    """K x K count matrix with rows = obtained label, columns = true label."""
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth label lengths differ")
    for name, arr in (("predicted", predicted), ("truth", truth)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{name} labels out of range")
    mat = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(mat, (predicted, truth), 1)
    return mat


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


def lattice_graph(side):
    """side x side grid with unit edges to the 4 nearest lattice neighbours."""
    idx = np.arange(side * side).reshape(side, side)
    rows = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    cols = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return SparseWeightGraph(side * side, rows, cols, np.ones(rows.size))


def ring_graph(n):
    """Cycle of n vertices with unit edges: every Laplacian eigenvalue but
    0 and 2 is double."""
    rows = np.arange(n)
    cols = (rows + 1) % n
    return SparseWeightGraph(n, np.minimum(rows, cols), np.maximum(rows, cols),
                             np.ones(n))


def dense_subspace_gap(laplacian_dense, vals, vecs, cluster=1e-9):
    """Largest eigenvalue error and largest subspace defect of (vals, vecs)
    against np.linalg.eigh of the dense Laplacian. A column's defect is the
    norm of its part outside the dense eigenspace of the eigenvalues within
    `cluster` of the dense value it stands for, so a column from a repeated
    eigenvalue may be any unit vector of that eigenspace."""
    dense_vals, dense_vecs = np.linalg.eigh(laplacian_dense)
    n_e = vals.size
    value_err = np.max(np.abs(vals - dense_vals[:n_e]))
    defect = 0.0
    for k in range(n_e):
        space = dense_vecs[:, np.abs(dense_vals - dense_vals[k]) <= cluster]
        outside = vecs[:, k] - space @ (space.T @ vecs[:, k])
        defect = max(defect, np.linalg.norm(outside))
    return value_err, defect


def all_subsets(n):
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            mask = np.zeros(n, dtype=bool)
            mask[list(combo)] = True
            yield mask


_BLOCK_ROWS = 512


# The original distance kernel, kept verbatim so that a change to the
# library's kernel cannot change the reference by accident.
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


def _per_pair_block(features, block, metric, sq_norms=None):
    """`_pairwise_block` with each inner product formed from its two rows
    alone: np.einsum of one row against every row, whose bytes do not
    depend on BLAS blocking or threads."""
    features = np.ascontiguousarray(features)
    g = np.array([np.einsum("jd,d->j", features, features[i]) for i in block])
    if metric == "euclidean":
        d2 = sq_norms[block][:, None] + sq_norms[None, :] - 2.0 * g
        np.maximum(d2, 0.0, out=d2)
        return np.sqrt(d2)
    return 1.0 - g


def knn_graph_reference(features, spec):
    """The original knn_graph, whose distances are rows of GEMM tiles."""
    return _full_sort_knn_graph(features, spec, _pairwise_block)


def knn_graph_exact_reference(features, spec):
    """knn_graph_reference on per-pair inner products: knn_graph must match
    it byte for byte."""
    return _full_sort_knn_graph(features, spec, _per_pair_block)


def cosine_cutoff_ties(features, k):
    """For integer features, the n x n mask of the pairs (i, j), j != i,
    whose cosine distance equals in exact arithmetic the k-th smallest
    cosine distance from i: the columns among which a stable sort of
    rounded distances may choose at row i's cut-off.

    With p_ij = <x_i, x_j> and a_j = |x_j|^2, the cosine from i to j is
    above that to l iff p_ij |p_ij| a_l > p_il |p_il| a_j, in integers.
    Rows are ordered by the rounded quotients first, and that order is
    checked to be exact up to ties.
    """
    x = np.asarray(features)
    xi = x.astype(np.int64)
    assert np.array_equal(xi, x)
    n = len(xi)
    p = xi @ xi.T
    a = np.diag(p).copy()
    s = p * np.abs(p)
    key = -s / a
    np.fill_diagonal(key, np.inf)  # itself last
    order = np.argsort(key, axis=1, kind="stable")[:, : n - 1]
    rows = np.arange(n)[:, None]
    so, ao = s[rows, order], a[order]
    assert np.all(so[:, :-1] * ao[:, 1:] >= so[:, 1:] * ao[:, :-1])
    kth = order[:, k - 1]
    ties = s * a[kth][:, None] == s[rows, kth[:, None]] * a
    np.fill_diagonal(ties, False)
    return ties


# The original knn_graph, kept verbatim but for taking its metric from the
# weight kind and its distance kernel as an argument: it selects neighbours
# with a full stable argsort of every distance row.
def _full_sort_knn_graph(features, spec, distance_block):
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
    metric = "cosine_distance" if spec.kind == "cosine" else "euclidean"

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
        dists = distance_block(features, block, metric, sq_norms)
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


# The original row-wise solver kernels, kept verbatim apart from their names:
# one numpy reduction along the K axis per step. The library computes them
# as operations on class columns and must match them byte for byte on the
# same input. Row sums are numpy's in both, so at K >= 8 they round in the
# order of the input's layout.
def _check_finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("simplex operation received non-finite entries")


def project_rows_reference(V):
    """Project each row of an (n, K) array onto the Gibbs simplex."""
    V = np.asarray(V, dtype=float)
    _check_finite(V)
    n, k = V.shape
    # descending sort per row; threshold is the largest rho with
    # s[rho] - (cumsum(s)[rho] - 1)/(rho+1) > 0
    s = -np.sort(-V, axis=1)
    cssum = np.cumsum(s, axis=1)
    idx = np.arange(1, k + 1)
    cond = s - (cssum - 1.0) / idx > 0
    rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (cssum[np.arange(n), rho] - 1.0) / (rho + 1)
    out = np.maximum(V - theta[:, None], 0.0)
    return out


def nearest_vertices_reference(V):
    """Row-wise nearest simplex vertex indices for an (n, K) array."""
    V = np.asarray(V, dtype=float)
    _check_finite(V)
    return np.argmax(V, axis=1)


def row_l1_to_vertices_reference(u):
    """A[i, l] = ||u_i - e_l||_1 for each row i and class l."""
    s = np.sum(np.abs(u), axis=1, keepdims=True)
    return s - np.abs(u) + np.abs(u - 1.0)


def well_derivative_reference(u):
    """Gradient T of the multi-well product potential, row-wise.

    T_ik = sum_l (1/2)(1 - 2 delta_kl) ||u_i - e_l||_1
           prod_{m != l} (1/4) ||u_i - e_m||_1^2,
    valid for rows with entries in [0, 1].
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("well_derivative received non-finite entries")
    a = row_l1_to_vertices_reference(u)
    q = 0.25 * a**2
    k = u.shape[1]
    loo = np.empty_like(q)  # leave-one-out products of q over classes
    for l in range(k):
        cols = [m for m in range(k) if m != l]
        loo[:, l] = np.prod(q[:, cols], axis=1) if cols else 1.0
    g = a * loo
    return 0.5 * np.sum(g, axis=1, keepdims=True) - g


def well_derivative_prefix_suffix_reference(u):
    """well_derivative_reference with each leave-one-out product in the
    library's order, row-wise: (suffix q_{l+1} ... q_{K-1}, accumulated
    right to left) times (prefix q_0 ... q_{l-1}, left to right), then
    times a_l. An empty product is 1.0, which multiplies exactly."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("well_derivative received non-finite entries")
    a = row_l1_to_vertices_reference(u)
    q = 0.25 * a**2
    ones = np.ones((u.shape[0], 1))
    prefix = np.cumprod(np.hstack([ones, q[:, :-1]]), axis=1)
    suffix = np.cumprod(np.hstack([ones, q[:, :0:-1]]), axis=1)[:, ::-1]
    g = np.multiply(suffix * prefix, a, out=np.empty_like(u))  # laid out like u
    return 0.5 * np.sum(g, axis=1, keepdims=True) - g


def stop_ratio_reference(u_new, u_old):
    """max_i ||u_i^new - u_i^old||^2 / max_i ||u_i^new||^2."""
    num = np.max(np.sum((u_new - u_old) ** 2, axis=1))
    den = np.max(np.sum(u_new**2, axis=1))
    return num / den


# (module, global name) -> reference; patching these restores the row-wise
# kernels everywhere the solvers look them up at call time
REFERENCE_KERNELS = {
    ("graphseg.fields", "project_rows"): project_rows_reference,
    ("graphseg.gl", "project_rows"): project_rows_reference,
    ("graphseg.gl", "nearest_vertices"): nearest_vertices_reference,
    ("graphseg.gl", "well_derivative"): well_derivative_reference,
    ("graphseg.gl", "_row_l1_to_vertices"): row_l1_to_vertices_reference,
    ("graphseg.gl", "stop_ratio"): stop_ratio_reference,
    ("graphseg.mbo", "nearest_vertices"): nearest_vertices_reference,
    ("graphseg.mbo", "stop_ratio"): stop_ratio_reference,
}


def binary_mbo_segment(basis, fidelity, cfg, u0):
    """Scalar +/-1 binary MBO pipeline from a given initial field.

    u0 is a length-N_D real vector; labeled values and forcing use the
    scalar targets 2*U_hat[:, 0] - 1. Thresholding maps u >= 0 to +1.
    Returns (final scalar field in {-1, +1}, iterations, converged).
    """
    if not cfg.dt > 0:
        raise ValueError("dt must be positive")
    sub_dt = cfg.dt / cfg.n_s
    weights = 1.0 / (1.0 + sub_dt * basis.eigenvalues)
    targets = 2.0 * fidelity.targets[:, 0] - 1.0
    u = np.asarray(u0, dtype=float).copy()
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        v = u
        for _ in range(cfg.n_s):
            r = v.copy()
            r[fidelity.indices] -= sub_dt * fidelity.mu * (v[fidelity.indices] - targets)
            v = basis.eigenvectors @ (weights * (basis.eigenvectors.T @ r))
        u_new = np.where(v >= 0, 1.0, -1.0)
        if np.array_equal(u_new, u):
            u = u_new
            converged = True
            break
        u = u_new
    return u, iterations, converged


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-node label agreement between the K=2 multiclass and the scalar
    binary MBO pipelines under matched initialization."""

    agreement: float
    labels_multiclass: np.ndarray
    labels_binary: np.ndarray


def binary_equivalence_check(basis, fidelity, cfg):
    """Run both two-class pipelines from matched initializations.

    The binary field is initialized as 2*U[:, 0] - 1 from the same random
    simplex field the multiclass run starts from; binary labels come from
    the sign (+1 -> class 0). The multiclass side runs mbo_step under the
    shared driver without mbo_segment's fidelity check, so a fidelity set
    that labels one class only is allowed.
    """
    if fidelity.n_classes != 2:
        raise ValueError("binary equivalence check requires K=2 fidelity")
    u0 = random_label_field(basis.n_vertices, fidelity, cfg.seed)
    u, _, _ = iterate(
        lambda u: mbo_step(u, basis, fidelity, cfg), u0,
        lambda new, old: stop_ratio(new, old) < cfg.eta, cfg.max_iters)
    labels_multiclass = nearest_vertices(u)
    b, _, _ = binary_mbo_segment(basis, fidelity, cfg, 2.0 * u0[:, 0] - 1.0)
    labels_binary = np.where(b > 0, 0, 1)
    agreement = float(np.mean(labels_multiclass == labels_binary))
    return EquivalenceReport(agreement, labels_multiclass, labels_binary)


def write_idx_images(images, path):
    """Write (n, h, w) uint8 images in IDX format."""
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">4i", IDX_IMAGE_MAGIC, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(labels, path):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">2i", IDX_LABEL_MAGIC, labels.size))
        f.write(labels.tobytes())


BAD_CACHE_CASES = [
    "empty", "v1 text", "truncated", "bad crc", "bare npy",
    "wrong format key", "missing format key", "object array",
]


def write_bad_cache(path, case, valid, v1_text):
    """Write to `path` one kind of file a cache loader must reject.

    `valid` is a cache file written by the library; the archive cases are
    built from its arrays. `v1_text` is the same cache in the old text format.
    """
    raw = valid.read_bytes()
    with np.load(valid) as archive:
        arrays = {name: archive[name] for name in archive.files}
    if case == "empty":
        path.write_bytes(b"")
    elif case == "v1 text":
        path.write_text(v1_text)
    elif case == "truncated":
        path.write_bytes(raw[: len(raw) // 2])
    elif case == "bad crc":
        # the central directory starts right after the last member's data
        end = raw.index(b"PK\x01\x02")
        path.write_bytes(raw[: end - 1] + bytes([raw[end - 1] ^ 0xFF]) + raw[end:])
    elif case == "bare npy":
        with open(path, "wb") as f:
            np.save(f, arrays["format"])
    else:
        if case == "wrong format key":
            arrays["format"] = np.char.replace(arrays["format"], "v2", "v3")
        elif case == "missing format key":
            del arrays["format"]
        elif case == "object array":
            name = next(name for name in arrays if name != "format")
            arrays[name] = arrays[name].astype(object)
        elif case == "nan eigenvectors":
            arrays["eigenvectors"][0, 0] = np.nan
        elif case == "complex eigenvectors":
            arrays["eigenvectors"] = arrays["eigenvectors"] + 0j
        with open(path, "wb") as f:
            np.savez(f, **arrays)
