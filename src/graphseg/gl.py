"""Multiclass Ginzburg-Landau minimization by convex splitting.

The energy combines a Laplacian smoothing term, a product multi-well
potential pulling each row toward a simplex vertex, and a soft quadratic
fidelity penalty on labeled nodes. The update treats the convex part
implicitly in the truncated spectral basis and the concave part
explicitly, then projects each row back to the Gibbs simplex.
"""

import time
from dataclasses import dataclass

import numpy as np

from graphseg.fields import (SegmentResult, check_fidelity, iterate, random_label_field,
                             spectral_solve, stop_ratio)
from graphseg.simplex import nearest_vertices, project_rows

__all__ = [
    "GLConfig",
    "multiclass_energy",
    "well_derivative",
    "gl_step",
    "gl_segment",
]


@dataclass(frozen=True)
class GLConfig:
    """Parameters of the convex-splitting scheme."""

    n_e: int
    epsilon: float = 1.0
    dt: float = 0.1
    mu: float = 30.0
    eta: float = 1e-7
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("epsilon", "dt", "mu", "eta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.n_e < 1 or self.max_iters < 1:
            raise ValueError("n_e and max_iters must be >= 1")

    @property
    def c(self):
        """mu + 1/epsilon, the least c that splits the energy convex-concave."""
        return self.mu + 1.0 / self.epsilon


def _row_l1_to_vertices(u):
    """A[i, l] = ||u_i - e_l||_1 for each row i and class l."""
    a = np.abs(u)
    to_one = np.abs(np.subtract(u, 1.0), out=np.empty_like(a))
    a = np.subtract(np.sum(a, axis=1)[:, None], a, out=a)
    a += to_one
    return a


def multiclass_energy(u, basis, fidelity, epsilon):
    """Ginzburg-Landau energy: smoothing + multi-well potential + fidelity,
    with the smoothing term evaluated in the truncated SpectralBasis."""
    u = np.asarray(u, dtype=float)
    if basis.n_vertices != u.shape[0]:
        raise ValueError("field and basis dimensions do not match")
    proj = basis.eigenvectors.T @ u
    smoothing = float(np.sum(basis.eigenvalues[:, None] * proj**2))

    q = 0.25 * _row_l1_to_vertices(u) ** 2
    potential = float(np.sum(np.prod(q, axis=1)))

    diff = u[fidelity.indices] - fidelity.targets
    fid = 0.5 * fidelity.mu * float(np.sum(diff**2))
    return 0.5 * epsilon * smoothing + potential / (2.0 * epsilon) + fid


def well_derivative(u):
    """Gradient T of the multi-well product potential, row-wise.

    T_ik = sum_l (1/2)(1 - 2 delta_kl) ||u_i - e_l||_1
           prod_{m != l} (1/4) ||u_i - e_m||_1^2,
    valid for rows with entries in [0, 1].
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("well_derivative received non-finite entries")
    a = _row_l1_to_vertices(u)
    q = np.multiply(a, a, out=np.empty_like(a))
    q *= 0.25
    # g_l = a_l prod_{m != l} q_m, as (suffix q_{l+1} ... q_{K-1}, built right
    # to left) times (prefix q_0 ... q_{l-1}) times a_l: O(K) column products
    g = np.empty_like(q)
    g[:, -1] = 1.0
    for l in range(u.shape[1] - 1, 0, -1):
        np.multiply(g[:, l], q[:, l], out=g[:, l - 1])
    prefix = np.ones(u.shape[0])
    for l in range(u.shape[1]):
        g[:, l] *= prefix
        prefix *= q[:, l]
    g *= a
    return np.subtract(0.5 * np.sum(g, axis=1)[:, None], g, out=g)


def gl_step(u, basis, fidelity, cfg):
    """One convex-splitting update followed by row-wise simplex projection."""
    shift = 1.0 + cfg.c * cfg.dt
    r = well_derivative(u)
    r *= cfg.dt / (2.0 * cfg.epsilon)
    r = np.subtract(shift * u, r, out=r)
    r[fidelity.indices] -= cfg.dt * fidelity.mu * (u[fidelity.indices] - fidelity.targets)
    return project_rows(spectral_solve(basis, cfg.n_e, r, shift, cfg.epsilon * cfg.dt))


def gl_segment(basis, fidelity, cfg):
    """Run the convex-splitting iteration to the relative-change criterion.

    Starts from a seeded random simplex field with fidelity rows set to
    their targets; stops when
    max_i ||u_i^{n+1} - u_i^n||^2 / max_i ||u_i^{n+1}||^2 < eta
    or at max_iters (non-converged flag). Labels are the nearest simplex
    vertices of the final rows.
    """
    check_fidelity(fidelity, cfg, basis.n_vertices)
    start = time.perf_counter()
    u0 = random_label_field(basis.n_vertices, fidelity, cfg.seed)
    u, iterations, converged = iterate(
        lambda u: gl_step(u, basis, fidelity, cfg), u0,
        lambda new, old: stop_ratio(new, old) < cfg.eta, cfg.max_iters)
    energy = multiclass_energy(u, basis, fidelity, cfg.epsilon)
    return SegmentResult(
        field=u,
        labels=nearest_vertices(u),
        iterations=iterations,
        converged=converged,
        final_energy=energy,
        wall_time=time.perf_counter() - start,
    )
