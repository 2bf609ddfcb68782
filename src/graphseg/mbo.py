"""Multiclass graph MBO scheme: implicit diffusion with fidelity forcing,
then thresholding to the nearest simplex vertex.

Each outer iteration runs n_s implicit heat sub-steps (time dt/n_s each)
and moves each node to its largest class. That is the vertex nearest the
row's projection onto the Gibbs simplex: projection subtracts one threshold
from the whole row and clamps at 0, which in exact arithmetic keeps the
largest entry largest.
"""

import time
from dataclasses import dataclass

import numpy as np

from graphseg.fields import (SegmentResult, check_fidelity, iterate, random_label_field,
                             spectral_solve, stop_ratio)
from graphseg.simplex import nearest_vertices
from graphseg.simplex import project_rows  # not called here; bench/tracing.py binds it

__all__ = [
    "MBOConfig",
    "mbo_diffusion_step",
    "mbo_step",
    "mbo_segment",
]


@dataclass(frozen=True)
class MBOConfig:
    """Parameters of the MBO scheme. dt is the full step per outer
    iteration and is divided by n_s internally."""

    n_e: int
    dt: float = 0.1
    mu: float = 30.0
    n_s: int = 3
    eta: float = 1e-7
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (self.mu >= 0 and self.eta > 0):
            raise ValueError("mu must be nonnegative and eta positive")
        if self.n_s < 1 or self.n_e < 1 or self.max_iters < 1:
            raise ValueError("n_s, n_e and max_iters must be >= 1")


def mbo_diffusion_step(u, basis, fidelity, cfg):
    """One implicit diffusion sub-step of length dt/n_s with forcing.

    Solves (I + (dt/n_s) L_s) U' = U - (dt/n_s) mu (U - U_hat) in the
    truncated basis. No projection or thresholding here.
    """
    sub_dt = cfg.dt / cfg.n_s
    r = u.copy(order="K")
    r[fidelity.indices] -= sub_dt * fidelity.mu * (u[fidelity.indices] - fidelity.targets)
    return spectral_solve(basis, cfg.n_e, r, 1.0, sub_dt)


def mbo_step(u, basis, fidelity, cfg):
    """One outer iteration: n_s diffusion sub-steps, then thresholding of
    each row to its largest class, as a one-hot row."""
    v = u
    for _ in range(cfg.n_s):
        v = mbo_diffusion_step(v, basis, fidelity, cfg)
    labels = nearest_vertices(v)
    onehot = np.zeros((labels.size, fidelity.n_classes), order="F")
    onehot[np.arange(labels.size), labels] = 1.0
    return onehot


def mbo_segment(basis, fidelity, cfg):
    """Alternate diffusion sub-steps with thresholding.

    The stopping criterion is evaluated on the thresholded (vertex-valued)
    fields, so convergence means no node changes class.
    """
    check_fidelity(fidelity, cfg, basis.n_vertices)
    start = time.perf_counter()
    u0 = random_label_field(basis.n_vertices, fidelity, cfg.seed)
    u, iterations, converged = iterate(
        lambda u: mbo_step(u, basis, fidelity, cfg), u0,
        lambda new, old: stop_ratio(new, old) < cfg.eta, cfg.max_iters)
    return SegmentResult(
        field=u,
        labels=nearest_vertices(u),
        iterations=iterations,
        converged=converged,
        wall_time=time.perf_counter() - start,
    )
