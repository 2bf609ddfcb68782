"""Truncated spectral decomposition of the symmetric normalized Laplacian.

Two routes: an exact iterative sparse eigensolver (Lanczos-type, applied
to 2I - L_s or to a Chebyshev filter of L_s so the target pairs are
extremal), and the Nystrom extension
approximating the eigenpairs of the normalized Laplacian of the fully
connected kernel matrix from a random landmark subset.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.csgraph import connected_components

from graphseg.cache import load_arrays, save_arrays
from graphseg.graph import check_features, unit_rows

__all__ = [
    "SpectralBasis",
    "EigensolverError",
    "smallest_eigenpairs",
    "nystrom_eigenpairs",
    "save_basis",
    "load_basis",
]

log = logging.getLogger(__name__)


class EigensolverError(FloatingPointError):
    """Eigensolver failed to converge; carries the best residuals seen.
    A numerical failure, so the CLI exits 3 on it as on a solver blow-up."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class SpectralBasis:
    """The n_e smallest eigenpairs (ascending) of a normalized Laplacian.

    eigenvectors is N_D x n_e, held in Fortran order whatever built it, so
    the solvers' products round alike on every basis; columns are
    orthonormal on the exact path and approximately so on the Nystrom path.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "eigenvectors", np.asfortranarray(self.eigenvectors))

    @property
    def n_e(self):
        return self.eigenvalues.size

    @property
    def n_vertices(self):
        return self.eigenvectors.shape[0]


def _fix_signs(vecs):
    """Flip each column so its largest-magnitude entry is positive."""
    top = np.argmax(np.abs(vecs), axis=0)
    return vecs * np.sign(vecs[top, np.arange(vecs.shape[1])])


# Filtered Lanczos pays where ARPACK's re-orthogonalization of a step,
# n * ncv multiply-adds, costs this many sparse products of L_s or more.
_ORTH_PER_MATVEC = 4
# Degree of the Chebyshev filter: products of L_s per Lanczos step.
_FILTER_DEGREE = 4
# A Lanczos step this short (||L_s|| <= 2) means the Krylov space is invariant.
_BREAKDOWN = 1e-10
# ARPACK's implicit restarts on 2I - L_s; the filtered route gets 1/_FILTER_DEGREE.
_RESTARTS = 100


def _ritz_bound(ls, v0, ncv, n_e):
    """The n_e-th smallest Ritz value of ls on the ncv-step Krylov space of
    v0, built with full re-orthogonalization, or None if that space became
    invariant. By Poincare separation it is at least lambda_{n_e}."""
    q = np.zeros((ncv, ls.shape[0]))
    alpha, beta = np.empty(ncv), np.empty(ncv - 1)
    q[0] = v0 / np.linalg.norm(v0)
    for j in range(ncv):
        w = ls @ q[j]
        alpha[j] = q[j] @ w
        if j + 1 == ncv:
            break
        w -= alpha[j] * q[j]
        if j:
            w -= beta[j - 1] * q[j - 1]
        w -= q[: j + 1].T @ (q[: j + 1] @ w)  # the full re-orthogonalization
        beta[j] = np.linalg.norm(w)
        if beta[j] <= _BREAKDOWN:
            return None
        q[j + 1] = w / beta[j]
    return eigh_tridiagonal(alpha, beta, eigvals_only=True,
                            select="i", select_range=(n_e - 1, n_e - 1))[0]


def _chebyshev_filter(ls, a):
    """T_m(X) for X = (cI - L_s)/e and the fixed degree m, with [a, 2]
    mapped onto [-1, 1]: eigenvalues of L_s below a come out above 1, the
    rest within [-1, 1]. Each of the m products is one with 2X, a matrix of
    L_s's pattern."""
    c, e = (2.0 + a) / 2.0, (2.0 - a) / 2.0
    x2 = ((2.0 / e) * (c * sp.identity(ls.shape[0], format="csr") - ls)).tocsr()

    def apply(v):
        prev, cur = v, 0.5 * (x2 @ v)
        for _ in range(_FILTER_DEGREE - 1):
            prev, cur = cur, x2 @ cur - prev
        return cur

    return spla.LinearOperator(ls.shape, matvec=apply, dtype=ls.dtype)


def _rayleigh(ls, vecs):
    """Rayleigh quotients of the columns of vecs and their residuals."""
    lv = ls @ vecs
    vals = np.einsum("ij,ij->j", vecs, lv) / np.einsum("ij,ij->j", vecs, vecs)
    return vals, np.linalg.norm(lv - vecs * vals, axis=0)


def smallest_eigenpairs(laplacian, n_e, tol=1e-8):
    """Compute the n_e algebraically smallest eigenpairs of L_s = laplacian.matrix.

    Runs an implicitly restarted Lanczos iteration (ARPACK, to full
    precision from a fixed start vector) for the largest pairs of an
    operator whose top eigenvectors are L_s's bottom ones, so no
    shift-invert factorization is needed. Which operator depends on the
    input's cost ratio n * ncv / nnz(L_s), ncv being ARPACK's basis size:

    - below 4, ARPACK runs on 2I - L_s;
    - from 4 up, ARPACK's re-orthogonalization of each step against its
      n x ncv basis outweighs a sparse product, so each step applies a
      Chebyshev filter instead. A first ncv-step Lanczos pass with full
      re-orthogonalization from the same start vector gives a, the n_e-th
      smallest Ritz value, which is at least lambda_{n_e} by Poincare
      separation. ARPACK then runs on T_m((cI - L_s)/e), which maps
      [a, 2] onto [-1, 1] and the wanted eigenvalues above 1, in fewer
      steps of m sparse products each. Every eigenvalue must lie below a,
      or the call raises EigensolverError. If the first pass finds an
      invariant subspace, the 2I - L_s route runs instead.

    Every route, small graphs' dense LAPACK one too, returns eigenvectors
    only; their Rayleigh quotients on L_s, sorted ascending, are the
    eigenvalues. The routes agree to rounding, not in bytes. maxiter caps
    ARPACK's implicit restarts, not its products with L_s: _RESTARTS on
    2I - L_s, _RESTARTS // _FILTER_DEGREE on the filter.
    Eigenvector signs are fixed so the largest-magnitude entry of each
    column is positive. ARPACK runs to tol=0: a single-vector Lanczos
    method finds further copies of a repeated eigenvalue only by rounding,
    once the first has converged, so a stop at tol can skip them. Besides
    residuals within tol, the result needs an eigenvalue within tol of 0
    per connected component, up to n_e. EigensolverError is raised if not,
    and on non-convergence, naming the components if there is more than one.
    """
    ls = laplacian.matrix
    n = ls.shape[0]
    if not 1 <= n_e <= n:
        raise ValueError(f"n_e={n_e} must be in [1, {n}]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n_parts = connected_components(ls, directed=False)[0]

    bound = None  # set where the filtered route runs
    # ARPACK needs k < n and healthy subspace headroom; small problems go dense
    if n <= 3 * n_e + 10 or n < 64:
        vecs = np.linalg.eigh(ls.toarray())[1][:, :n_e]
    else:
        v0 = np.random.default_rng(0).standard_normal(n)
        ncv = max(2 * n_e + 1, 20)
        if n * ncv >= _ORTH_PER_MATVEC * ls.nnz:
            bound = _ritz_bound(ls, v0, ncv, n_e)
        if bound is None:
            op, maxiter = 2.0 * sp.identity(n, format="csr") - ls, _RESTARTS
        else:
            op, maxiter = _chebyshev_filter(ls, bound), _RESTARTS // _FILTER_DEGREE
        try:
            vecs = spla.eigsh(op, k=n_e, which="LA", v0=v0, ncv=ncv, maxiter=maxiter,
                              tol=0)[1]
        except spla.ArpackNoConvergence as exc:
            best = None
            if exc.eigenvectors is not None and exc.eigenvectors.size:
                best = _rayleigh(ls, exc.eigenvectors)[1]
            message = (f"eigensolver did not converge within {maxiter} restarts "
                       f"of {ncv} Lanczos vectors")
            if n_parts > 1:
                message += f"; the graph has {n_parts} connected components"
            raise EigensolverError(message, residuals=best) from exc

    vals, residuals = _rayleigh(ls, vecs)
    order = np.argsort(vals, kind="stable")
    vals, vecs, residuals = vals[order], vecs[:, order], residuals[order]
    if bound is not None and not np.all(vals < bound):
        raise EigensolverError(
            f"eigenvalue {vals.max():.6g} is not below the Krylov bound {bound:.6g}",
            residuals=residuals,
        )
    if np.any(residuals > tol):
        raise EigensolverError(
            f"eigenpair residual {residuals.max():.3e} exceeds tol {tol:.3e}",
            residuals=residuals,
        )
    if np.count_nonzero(np.abs(vals) <= tol) < min(n_parts, n_e):
        raise EigensolverError(f"the basis misses a zero eigenvalue of the graph's {n_parts} "
                               "connected components", residuals=residuals)
    return SpectralBasis(vals, _fix_signs(vecs), "exact")


def _kernel_block(features, rows, cols, spec):
    """Fully connected kernel block W[rows, cols] for a weight spec; cosine
    weights take features with unit rows."""
    if spec.kind == "gaussian":
        a, b = features[rows], features[cols]
        d2 = (
            np.einsum("ij,ij->i", a, a)[:, None]
            + np.einsum("ij,ij->i", b, b)[None, :]
            - 2.0 * a @ b.T
        )
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-d2 / spec.sigma**2)
    return np.maximum(features[rows] @ features[cols].T, 0.0)


def nystrom_eigenpairs(features, spec, sample_size, n_e, seed=0):
    """Approximate smallest Laplacian eigenpairs of the fully connected kernel.

    Samples `sample_size` landmark rows uniformly without replacement,
    completes the degrees by row sums of the Nystrom-completed matrix,
    normalizes, and eigendecomposes with the one-shot symmetric
    completion correction so the extended vectors come out orthonormal.
    Raises LinAlgError when the normalized landmark block is near-singular
    or a completed degree is nonpositive: a larger sample sometimes helps.
    """
    features = check_features(features)
    n = features.shape[0]
    if not 1 <= n_e <= sample_size <= n:
        raise ValueError("need 1 <= n_e <= sample_size <= N_D")
    if spec.kind == "local_scaling":
        raise ValueError(
            "Nystrom extension supports gaussian and cosine kernels only; "
            "local scaling needs all pairwise distances"
        )
    if spec.kind == "cosine":
        features = unit_rows(features)

    rng = np.random.default_rng(seed)
    landmarks = np.sort(rng.choice(n, size=sample_size, replace=False))
    rest = np.setdiff1d(np.arange(n), landmarks)

    w_aa = _kernel_block(features, landmarks, landmarks, spec)
    w_aa = 0.5 * (w_aa + w_aa.T)
    w_ab = _kernel_block(features, landmarks, rest, spec)

    # one-shot orthogonalizing completion S = A + A^{-1/2} B B^T A^{-1/2} of
    # the normalized blocks; A^{-1/2} also completes the degrees
    b_row = w_ab.sum(axis=1)
    d_a = w_aa.sum(axis=1) + b_row
    inv_sqrt_a = 1.0 / np.sqrt(d_a)
    a_hat = w_aa * inv_sqrt_a[:, None] * inv_sqrt_a[None, :]
    ha_vals, ha_vecs = np.linalg.eigh(a_hat)
    if ha_vals[0] <= 1e-12 * max(ha_vals[-1], 1.0):
        raise np.linalg.LinAlgError(
            "normalized landmark block is near-singular; try a larger sample_size"
        )
    a_inv_half = (ha_vecs / np.sqrt(ha_vals)) @ ha_vecs.T

    # degrees of the Nystrom-completed matrix [A B; B^T B^T A^{-1} B], with
    # A^{-1} = D_a^{-1/2} A_hat^{-1} D_a^{-1/2}
    a_inv_b = inv_sqrt_a * (a_inv_half @ (a_inv_half @ (inv_sqrt_a * b_row)))
    d_b = w_ab.sum(axis=0) + w_ab.T @ a_inv_b
    if np.any(d_b <= 0):
        raise np.linalg.LinAlgError(
            f"Nystrom completion gives {np.count_nonzero(d_b <= 0)} nonpositive "
            "degrees; try a larger sample_size"
        )
    all_d = np.concatenate([d_a, d_b])
    log.debug("Nystrom: %d landmarks, degree range [%g, %g]",
              sample_size, all_d.min(), all_d.max())

    b_hat = w_ab * inv_sqrt_a[:, None] * (1.0 / np.sqrt(d_b))[None, :]
    s = a_hat + a_inv_half @ (b_hat @ b_hat.T) @ a_inv_half
    s = 0.5 * (s + s.T)
    s_vals, s_vecs = np.linalg.eigh(s)
    lam_w = s_vals[::-1][:n_e]  # eigh is ascending
    if np.any(lam_w <= 0):
        raise np.linalg.LinAlgError(
            "completion matrix has nonpositive retained eigenvalues; "
            "try a larger sample_size"
        )
    u = s_vecs[:, ::-1][:, :n_e]
    ext = np.vstack([a_hat, b_hat.T]) @ (a_inv_half @ (u / np.sqrt(lam_w)[None, :]))

    vecs = np.empty((n, n_e))
    vecs[landmarks] = ext[:sample_size]
    vecs[rest] = ext[sample_size:]

    lap_vals = 1.0 - lam_w  # ascending since lam_w is descending
    return SpectralBasis(lap_vals, _fix_signs(vecs), f"nystrom({sample_size})")


def save_basis(basis, path):
    """Write the eigencache: eigenvalues, eigenvectors and method."""
    save_arrays(path, "eigencache", eigenvalues=basis.eigenvalues,
                eigenvectors=basis.eigenvectors, method=np.array(basis.method))


def load_basis(path):
    """Load an eigencache file written by save_basis.

    Eigenvalues and eigenvectors must be finite real floats: the solvers
    would read a NaN as a numerical failure.
    """
    vals, vecs, method = load_arrays(
        path, "eigencache", ("eigenvalues", "eigenvectors", "method"))
    if not all(a.dtype.kind == "f" and np.all(np.isfinite(a)) for a in (vals, vecs)):
        raise ValueError(f"{path}: not a graphseg eigencache")
    if vals.ndim != 1 or vecs.shape[1:] != vals.shape:
        raise ValueError(f"{path}: eigencache dimensions do not match")
    return SpectralBasis(vals, vecs, str(method))
