"""Truncated spectral decomposition of the symmetric normalized Laplacian.

Two routes: an exact iterative sparse eigensolver (Lanczos-type, applied
to 2I - L_s so the target pairs are extremal), and the Nystrom extension
approximating the eigenpairs of the normalized Laplacian of the fully
connected kernel matrix from a random landmark subset.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphseg.graph import NormalizedLaplacian

__all__ = [
    "SpectralBasis",
    "EigensolverError",
    "smallest_eigenpairs",
    "nystrom_eigenpairs",
    "save_basis",
    "load_basis",
]

log = logging.getLogger(__name__)

EIG_CACHE_MAGIC = "graphseg-eigs v1"


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge; carries the best residuals seen."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class SpectralBasis:
    """The n_e smallest eigenpairs (ascending) of a normalized Laplacian.

    eigenvectors is N_D x n_e; columns are orthonormal on the exact path
    and approximately orthonormal on the Nystrom path.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    method: str

    @property
    def n_e(self):
        return self.eigenvalues.size

    @property
    def n_vertices(self):
        return self.eigenvectors.shape[0]


def _fix_signs(vecs):
    """Flip each column so its largest-magnitude entry is positive."""
    top = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[top, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def smallest_eigenpairs(laplacian, n_e, tol=1e-8, seed=0, max_matvecs=None):
    """Compute the n_e algebraically smallest eigenpairs of L_s.

    Runs an implicitly restarted Lanczos iteration on 2I - L_s (largest
    pairs) and maps back, so no shift-invert factorization is needed.
    Eigenvector signs are fixed so the largest-magnitude entry of each
    column is positive. Raises EigensolverError on non-convergence.
    """
    ls = laplacian.matrix if isinstance(laplacian, NormalizedLaplacian) else sp.csr_matrix(laplacian)
    n = ls.shape[0]
    if not 1 <= n_e <= n:
        raise ValueError(f"n_e={n_e} must be in [1, {n}]")
    if not tol > 0:
        raise ValueError("tol must be positive")

    # ARPACK needs k < n and healthy subspace headroom; small problems go dense
    if n_e > n - 2 or n <= 3 * n_e + 10 or n < 64:
        dense = ls.toarray()
        vals, vecs = np.linalg.eigh(dense)
        vals, vecs = vals[:n_e], vecs[:, :n_e]
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        flipped = 2.0 * sp.identity(n, format="csr") - ls
        if max_matvecs is None:
            max_matvecs = 40 * n_e
        ncv = min(n, max(2 * n_e + 1, 20))
        maxiter = max(max_matvecs // ncv, 2)
        try:
            theta, vecs = spla.eigsh(
                flipped, k=n_e, which="LA", v0=v0, ncv=ncv, maxiter=maxiter, tol=0
            )
        except spla.ArpackNoConvergence as exc:
            best = None
            if exc.eigenvalues is not None and exc.eigenvalues.size:
                lam = 2.0 - exc.eigenvalues
                best = np.linalg.norm(
                    ls @ exc.eigenvectors - exc.eigenvectors * lam, axis=0
                )
            raise EigensolverError(
                f"eigensolver did not converge within {max_matvecs} matrix applications",
                residuals=best,
            ) from exc
        vals = 2.0 - theta
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]

    residuals = np.linalg.norm(ls @ vecs - vecs * vals, axis=0)
    if np.any(residuals > tol):
        raise EigensolverError(
            f"eigenpair residual {residuals.max():.3e} exceeds tol {tol:.3e}",
            residuals=residuals,
        )
    return SpectralBasis(vals, _fix_signs(vecs), "exact")


def _kernel_block(features, rows, cols, spec):
    """Fully connected kernel block W[rows, cols] for a weight spec."""
    if spec.kind == "gaussian":
        a, b = features[rows], features[cols]
        d2 = (
            np.einsum("ij,ij->i", a, a)[:, None]
            + np.einsum("ij,ij->i", b, b)[None, :]
            - 2.0 * a @ b.T
        )
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-d2 / spec.sigma**2)
    if spec.kind == "cosine":
        norms = np.linalg.norm(features, axis=1)
        zero = np.flatnonzero(norms == 0)
        if zero.size:
            raise ValueError(f"zero feature vector at row {zero[0]}")
        fn = features / norms[:, None]
        return np.maximum(fn[rows] @ fn[cols].T, 0.0)
    raise ValueError(
        "Nystrom extension supports gaussian and cosine kernels only; "
        "local scaling needs all pairwise distances"
    )


def nystrom_eigenpairs(features, spec, sample_size, n_e, seed=0):
    """Approximate smallest Laplacian eigenpairs of the fully connected kernel.

    Samples `sample_size` landmark rows uniformly without replacement,
    completes the degrees by row sums of the Nystrom-completed matrix,
    normalizes, and eigendecomposes with the one-shot symmetric
    completion correction so the extended vectors come out orthonormal.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if not n_e <= sample_size <= n:
        raise ValueError("need n_e <= sample_size <= N_D")

    rng = np.random.default_rng(seed)
    landmarks = np.sort(rng.choice(n, size=sample_size, replace=False))
    rest = np.setdiff1d(np.arange(n), landmarks)

    w_aa = _kernel_block(features, landmarks, landmarks, spec)
    w_aa = 0.5 * (w_aa + w_aa.T)
    w_ab = _kernel_block(features, landmarks, rest, spec)

    aa_vals = np.linalg.eigvalsh(w_aa)
    if aa_vals[0] <= 1e-12 * max(aa_vals[-1], 1.0):
        raise np.linalg.LinAlgError(
            f"landmark kernel block is near-singular (min eigenvalue "
            f"{aa_vals[0]:.3e}); try a larger sample_size"
        )
    w_aa_inv = np.linalg.inv(w_aa)

    # degrees of the Nystrom-completed matrix [A B; B^T B^T A^{-1} B]
    b_row = w_ab.sum(axis=1)
    d_a = w_aa.sum(axis=1) + b_row
    d_b = w_ab.sum(axis=0) + w_ab.T @ (w_aa_inv @ b_row)
    if np.any(d_b <= 0):
        log.warning(
            "Nystrom completion produced %d nonpositive approximate degrees; clipping",
            int(np.sum(d_b <= 0)),
        )
        d_b = np.maximum(d_b, 1e-12)
    all_d = np.concatenate([d_a, d_b])
    log.debug("Nystrom: %d landmarks, degree range [%g, %g]",
              sample_size, all_d.min(), all_d.max())

    inv_sqrt_a = 1.0 / np.sqrt(d_a)
    inv_sqrt_b = 1.0 / np.sqrt(d_b)
    a_hat = w_aa * inv_sqrt_a[:, None] * inv_sqrt_a[None, :]
    b_hat = w_ab * inv_sqrt_a[:, None] * inv_sqrt_b[None, :]

    # one-shot orthogonalizing completion: S = A + A^{-1/2} B B^T A^{-1/2}
    ha_vals, ha_vecs = np.linalg.eigh(a_hat)
    if ha_vals[0] <= 1e-12 * max(ha_vals[-1], 1.0):
        raise np.linalg.LinAlgError(
            "normalized landmark block is near-singular; try a larger sample_size"
        )
    a_inv_half = (ha_vecs / np.sqrt(ha_vals)) @ ha_vecs.T
    s = a_hat + a_inv_half @ (b_hat @ b_hat.T) @ a_inv_half
    s = 0.5 * (s + s.T)
    s_vals, s_vecs = np.linalg.eigh(s)
    top = np.argsort(s_vals, kind="stable")[::-1][:n_e]
    lam_w = s_vals[top]
    if np.any(lam_w <= 0):
        raise np.linalg.LinAlgError(
            "completion matrix has nonpositive retained eigenvalues; "
            "try a larger sample_size"
        )
    u = s_vecs[:, top]
    ext = np.vstack([a_hat, b_hat.T]) @ (a_inv_half @ (u / np.sqrt(lam_w)[None, :]))

    vecs = np.empty((n, n_e))
    vecs[landmarks] = ext[:sample_size]
    vecs[rest] = ext[sample_size:]

    lap_vals = 1.0 - lam_w  # ascending since lam_w is descending
    return SpectralBasis(lap_vals, _fix_signs(vecs), f"nystrom({sample_size})")


def save_basis(basis, path):
    """Write the eigencache: header, eigenvalue line, then X row-major CSV."""
    with open(path, "w") as f:
        f.write(
            f"{EIG_CACHE_MAGIC} {basis.n_vertices} {basis.n_e} {basis.method}\n"
        )
        f.write(",".join(repr(float(v)) for v in basis.eigenvalues) + "\n")
        for row in basis.eigenvectors:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def load_basis(path):
    """Load an eigencache file written by save_basis."""
    with open(path) as f:
        header = f.readline().split()
        if header[:2] != EIG_CACHE_MAGIC.split() or len(header) != 5:
            raise ValueError(f"{path}: not a graphseg eigencache")
        n, n_e, method = int(header[2]), int(header[3]), header[4]
        vals = np.array([float(v) for v in f.readline().split(",")])
        vecs = np.loadtxt(f, delimiter=",", ndmin=2)
    if vals.size != n_e or vecs.shape != (n, n_e):
        raise ValueError(f"{path}: eigencache dimensions do not match header")
    return SpectralBasis(vals, vecs, method)
