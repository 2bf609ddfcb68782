"""Shared solver core: fidelity sets and their check, random phase-field
initialization, the diagonal solve in a truncated eigenbasis, the
relative-change stop ratio, the iteration driver and the result record.

The solvers' (n, K) fields are Fortran-ordered, and their row sums are
numpy's own on that layout: column by column, which at K >= 8 rounds
differently from numpy's pairwise sum along C-ordered rows."""

from dataclasses import dataclass, field

import numpy as np

from graphseg.simplex import project_rows

__all__ = [
    "FidelitySet",
    "SegmentResult",
    "check_fidelity",
    "random_label_field",
    "spectral_solve",
    "stop_ratio",
    "iterate",
]


@dataclass(frozen=True)
class FidelitySet:
    """Labeled node indices, their classes in [0, n_classes), and fidelity
    strength mu; targets holds the one-hot simplex vertex of each label.

    mu expands to the per-node weight mu_i = mu on labeled nodes and 0
    elsewhere (soft assignment: labeled nodes may still change state).
    """

    indices: np.ndarray
    labels: np.ndarray
    n_classes: int
    mu: float
    targets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        lab = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "labels", lab)
        if idx.size != np.unique(idx).size:
            raise ValueError("fidelity indices must be distinct")
        if idx.size and idx.min() < 0:
            raise ValueError("fidelity indices must be nonnegative")
        if lab.shape != idx.shape or np.any((lab < 0) | (lab >= self.n_classes)):
            raise ValueError("one fidelity label in [0, n_classes) required per index")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        targets = np.zeros((lab.size, self.n_classes))
        targets[np.arange(lab.size), lab] = 1.0
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class SegmentResult:
    """Final field, labels and run diagnostics; final_energy is None for MBO."""

    field: np.ndarray
    labels: np.ndarray
    iterations: int
    converged: bool
    final_energy: float = None
    wall_time: float = field(default=0.0, compare=False)


def check_fidelity(fidelity, cfg, n_vertices):
    """Reject a fidelity set that is empty, has an index past the basis's
    n_vertices, misses a class, or is not at cfg.mu."""
    if fidelity.indices.size == 0:
        raise ValueError("fidelity set must be nonempty")
    beyond = fidelity.indices[fidelity.indices >= n_vertices]
    if beyond.size:
        raise ValueError(f"fidelity index {beyond[0]} is out of range for {n_vertices} vertices")
    if np.unique(fidelity.labels).size != fidelity.n_classes:
        raise ValueError("fidelity set must contain samples of every class")
    if fidelity.mu != cfg.mu:
        raise ValueError(f"fidelity mu={fidelity.mu} differs from config mu={cfg.mu}")


def random_label_field(n_vertices, fidelity, seed):
    """Initial phase field: uniform(0,1) entries, rows projected to the
    simplex, fidelity rows overwritten by their one-hot targets. Like every
    (n, K) field of the solvers it is Fortran-ordered: each class column is
    contiguous."""
    rng = np.random.default_rng(seed)
    u = project_rows(rng.uniform(size=(n_vertices, fidelity.n_classes)))
    u[fidelity.indices] = fidelity.targets
    return u


def stop_ratio(u_new, u_old):
    """max_i ||u_i^new - u_i^old||^2 / max_i ||u_i^new||^2."""
    num = np.max(np.sum((u_new - u_old) ** 2, axis=1))
    den = np.max(np.sum(u_new**2, axis=1))
    return num / den


def spectral_solve(basis, n_e, r, shift, scale):
    """X diag(1 / (shift + scale lambda)) X^T r in the truncated basis.

    Solves (shift I + scale L_s) u = r restricted to the span of the
    basis; n_e is the basis size the solver's config expects. Both solvers
    make their new fields here, so a non-finite result raises
    FloatingPointError for either. The product is formed as
    ((w X^T r)^T X^T)^T: it is Fortran-ordered, with the bytes of
    X (w X^T r).
    """
    if basis.n_e != n_e:
        raise ValueError(f"basis has {basis.n_e} eigenpairs, config expects {n_e}")
    if r.shape[0] != basis.n_vertices:
        raise ValueError("field and basis dimensions do not match")
    weights = 1.0 / (shift + scale * basis.eigenvalues)
    coeffs = weights[:, None] * (basis.eigenvectors.T @ r)
    u = (coeffs.T @ basis.eigenvectors.T).T
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("non-finite values in the spectral solve")
    return u


def iterate(step, u0, stop, max_iters):
    """Apply u <- step(u) until stop(u_new, u) holds.

    Returns (field, iterations, converged); converged is False when
    max_iters steps ran without meeting the criterion.
    """
    u = u0
    for iterations in range(1, max_iters + 1):
        u_new = step(u)
        if stop(u_new, u):
            return u_new, iterations, True
        u = u_new
    return u, max_iters, False
