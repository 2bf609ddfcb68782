"""The solver kernels computed on class columns must equal, byte for byte,
the row-wise kernels they replaced (kept in `oracles`), and so must the
solver runs built on them. The exceptions are two orders of rounding. The
leave-one-out products in `well_derivative` match a row-wise reference in
their own prefix x suffix order byte for byte, and the original np.prod
order within a rounding bound derived below. Row sums are numpy's own, so
at K >= 8 they round column by column on the solvers' Fortran-ordered
fields, and pairwise on the references' C-ordered ones."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphseg.data import LabeledDataset, sample_fidelity
from graphseg.fields import FidelitySet, random_label_field, spectral_solve, stop_ratio
from graphseg.gl import GLConfig, _row_l1_to_vertices, gl_segment, gl_step, well_derivative
from graphseg.graph import WeightSpec, knn_graph, normalized_laplacian
from graphseg.mbo import MBOConfig, mbo_diffusion_step, mbo_segment, mbo_step
from graphseg.simplex import nearest_vertices, project_rows
from graphseg.spectral import SpectralBasis, smallest_eigenpairs
from oracles import (
    REFERENCE_KERNELS,
    nearest_vertices_reference,
    project_rows_reference,
    row_l1_to_vertices_reference,
    stop_ratio_reference,
    well_derivative_prefix_suffix_reference,
    well_derivative_reference,
)

# signed zeros, subnormals, simplex vertices and barycentres (exact ties),
# and magnitudes at and far beyond 2**53
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3, 0.25, 5e-324, -5e-324, 1e-310,
           1e-8, 2.0**53, 1e16, 1e300, -1e300]
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(0, 1),
    st.floats(allow_nan=False, allow_infinity=False),
)


def fields_of(k_max):
    shapes = st.tuples(st.integers(1, 6), st.integers(1, k_max))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=values))


# K = 1-12 covers both of numpy's summation orders (K < 8 and K >= 8)
fields = fields_of(12)

# no threshold condition holds on this row: argmax of all-False gives rho = K - 1
ALL_FALSE = np.array([[1e-310, 1e300, 1e-8]])
ON_VERTICES = np.eye(4)
TIED = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.25], [-0.0, 0.0, -0.0]])


def assert_same_bytes(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert (new.dtype, new.shape) == (ref.dtype, ref.shape)
    assert new.tobytes() == ref.tobytes()


@given(fields_of(40))  # K up to 40 runs sorting networks six merge levels deep
@example(ALL_FALSE)
@example(ON_VERTICES)
@example(TIED)
def test_project_rows(V):
    with np.errstate(all="ignore"):
        assert_same_bytes(project_rows(V), project_rows_reference(V))


@given(fields)
@example(ON_VERTICES)
@example(TIED)
def test_nearest_vertices(V):
    assert_same_bytes(nearest_vertices(V), nearest_vertices_reference(V))


@given(fields)
@example(ALL_FALSE)
@example(ON_VERTICES)
@example(TIED)
def test_well_derivative(u):
    # row sums run in the input's layout: at K >= 8 numpy rounds a C-ordered
    # row pairwise and a Fortran-ordered one column by column
    with np.errstate(all="ignore"):
        for laid_out in (u, np.asfortranarray(u)):
            assert_same_bytes(_row_l1_to_vertices(laid_out),
                              row_l1_to_vertices_reference(laid_out))
            assert_same_bytes(well_derivative(laid_out),
                              well_derivative_prefix_suffix_reference(laid_out))


UNIT_ROUNDOFF = 2.0**-53


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): the relative error of n roundings."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def np_prod_order_bound(u):
    """Entrywise bound on |well_derivative(u) - well_derivative_reference(u)|
    for rows with entries in [0, 1].

    Both forms share a and q, and multiply the same K - 1 factors q_m into
    each leave-one-out product, with K - 2 roundings in either order, so
    each product is its exact value times (1 + theta), |theta| <= gamma(K - 2).
    g_l = a_l times the product adds one rounding (gamma(K - 1)); the row
    sum adds at most K - 1 to each term (gamma(2K - 2) in all), halving is
    exact, and T_k = S/2 - g_k adds one more. Each form is then within
    gamma(2K - 1) (G/2 + |g_k|) of the exact T_k, where G = sum_l |g_l|; the
    two differ by at most twice that. gamma(2K) covers G taken from a
    computed g. Underflow adds at most 2**-1075 to a product, scaled by the
    factors after it, each at most M = max(1, K^2/4) because a_l <= K.
    """
    a = row_l1_to_vertices_reference(u)
    q = 0.25 * a**2
    k = u.shape[1]
    loo = np.stack([np.prod(np.delete(q, l, axis=1), axis=1) for l in range(k)], axis=1)
    g = np.abs(a * loo)
    underflow = k**3 * max(1.0, k * k / 4) ** max(k - 2, 0) * 2.0**-1074
    return 2 * gamma(2 * k) * (0.5 * g.sum(axis=1, keepdims=True) + g) + underflow


@given(fields_of(12).map(np.abs).map(lambda u: np.minimum(u, 1.0)))
@example(ON_VERTICES)
@example(TIED[:2])
def test_well_derivative_within_rounding_of_the_np_prod_order(u):
    diff = np.abs(well_derivative(u) - well_derivative_reference(u))
    assert np.all(diff <= np_prod_order_bound(u))


@given(fields, st.data())
def test_stop_ratio(u_old, data):
    u_new = data.draw(arrays(np.float64, u_old.shape, elements=values))
    with np.errstate(all="ignore"):
        assert_same_bytes(stop_ratio(u_new, u_old), stop_ratio_reference(u_new, u_old))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "kernel, reference",
    [
        (project_rows, project_rows_reference),
        (nearest_vertices, nearest_vertices_reference),
        (well_derivative, well_derivative_reference),
    ],
)
@given(fields, st.data())
def test_non_finite_input_raises_the_same_error(kernel, reference, bad, V, data):
    V = V.copy()
    V[data.draw(st.integers(0, V.shape[0] - 1)), data.draw(st.integers(0, V.shape[1] - 1))] = bad
    with pytest.raises(ValueError) as new:
        kernel(V)
    with pytest.raises(ValueError) as ref:
        reference(V)
    assert str(new.value) == str(ref.value)


@pytest.fixture(scope="module")
def mixture_k10():
    """A small overlapping 10-class Gaussian mixture, its basis and labels."""
    rng = np.random.default_rng(3)
    labels = np.repeat(np.arange(10), 30)
    means = rng.normal(0.0, 1.5, size=(10, 6))
    data = LabeledDataset(means[labels] + rng.standard_normal((labels.size, 6)), labels, 10)
    spec = WeightSpec(kind="local_scaling", neighbors=8, m_scale=8)
    basis = smallest_eigenpairs(normalized_laplacian(knn_graph(data.features, spec)), 20)
    return data, basis


def _problem(request, problem):
    if problem == "moons":
        return request.getfixturevalue("moons"), request.getfixturevalue("moons_basis20")
    return request.getfixturevalue("mixture_k10")


def _solve(solver, basis, fidelity):
    if solver == "gl":
        result = gl_segment(basis, fidelity, GLConfig(n_e=basis.n_e, dt=0.1, max_iters=300))
        return result, result.final_energy
    return mbo_segment(basis, fidelity, MBOConfig(n_e=basis.n_e, dt=0.1)), None


@pytest.mark.parametrize("solver", ["gl", "mbo"])
@pytest.mark.parametrize("problem", ["moons", "mixture_k10"])
def test_solvers_match_the_reference_kernels(solver, problem, request, monkeypatch):
    data, basis = _problem(request, problem)
    fidelity = sample_fidelity(data, 5, seed=0, mu=30.0)
    new, new_energy = _solve(solver, basis, fidelity)
    for (module, name), reference in REFERENCE_KERNELS.items():
        monkeypatch.setattr(importlib.import_module(module), name, reference)
    ref, ref_energy = _solve(solver, basis, fidelity)
    assert_same_bytes(new.labels, ref.labels)
    assert (new.iterations, new.converged) == (ref.iterations, ref.converged)
    assert new.iterations > 1
    if (solver, problem) == ("gl", "mixture_k10"):
        # at K = 10 the leave-one-out products round in another order than
        # np.prod's, and row sums and, at this size, X^T r round differently
        # for the reference's C-ordered fields than for the library's
        # Fortran-ordered ones. The whole solve is held to the per-call
        # factor of np_prod_order_bound, relative to the field's scale
        # (entries in [0, 1]) and to the energy.
        tol = 2 * gamma(2 * data.n_classes)
        assert np.max(np.abs(new.field - ref.field)) <= tol
        assert abs(new_energy - ref_energy) <= tol * abs(ref_energy)
        return
    assert_same_bytes(new.field, ref.field)
    assert np.asarray(new_energy).tobytes() == np.asarray(ref_energy).tobytes()


def _onehot_of_projected(v):
    """Projection onto the simplex, then snapping to the nearest vertex."""
    onehot = np.zeros(v.shape)
    onehot[np.arange(v.shape[0]), nearest_vertices(project_rows(v))] = 1.0
    return onehot


@pytest.mark.parametrize("problem", ["moons", "mixture_k10"])
def test_mbo_step_snaps_like_the_projected_field(problem, request):
    data, basis = _problem(request, problem)
    fidelity = sample_fidelity(data, 5, seed=0, mu=30.0)
    cfg = MBOConfig(n_e=basis.n_e)
    u = random_label_field(basis.n_vertices, fidelity, seed=0)
    for _ in range(3):
        v = u
        for _ in range(cfg.n_s):
            v = mbo_diffusion_step(v, basis, fidelity, cfg)
        new = mbo_step(u, basis, fidelity, cfg)
        assert_same_bytes(new, _onehot_of_projected(v))
        u = new


@pytest.mark.parametrize("v", [TIED, ON_VERTICES], ids=["tied", "on-vertices"])
def test_mbo_step_snaps_tied_and_vertex_rows_like_the_projected_field(v, monkeypatch):
    n, k = v.shape
    monkeypatch.setattr("graphseg.mbo.mbo_diffusion_step", lambda u, *_: v)
    fidelity = FidelitySet(np.arange(k), np.arange(k), k, 30.0)
    new = mbo_step(np.zeros((n, k)), None, fidelity, MBOConfig(n_e=1, n_s=1))
    assert_same_bytes(new, _onehot_of_projected(v))


@pytest.mark.parametrize("problem", ["moons", "mixture_k10"])
def test_solver_fields_are_fortran_ordered(problem, request):
    data, basis = _problem(request, problem)
    fidelity = sample_fidelity(data, 5, seed=0, mu=30.0)
    gl_cfg, mbo_cfg = GLConfig(n_e=basis.n_e, max_iters=3), MBOConfig(n_e=basis.n_e, max_iters=3)
    u0 = random_label_field(basis.n_vertices, fidelity, seed=0)
    produced = {
        "random_label_field": u0,
        "project_rows": project_rows(np.ascontiguousarray(u0)),
        "gl_step": gl_step(u0, basis, fidelity, gl_cfg),
        "mbo_step": mbo_step(u0, basis, fidelity, mbo_cfg),
        "gl_segment": gl_segment(basis, fidelity, gl_cfg).field,
        "mbo_segment": mbo_segment(basis, fidelity, mbo_cfg).field,
    }
    for name, u in produced.items():
        assert u.shape == (basis.n_vertices, data.n_classes), name
        assert u.flags.f_contiguous, name


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("problem", ["moons", "mixture_k10"])
def test_spectral_solve_has_the_bytes_of_the_direct_product(problem, order, request):
    data, basis = _problem(request, problem)
    rng = np.random.default_rng(5)
    r = np.asarray(rng.uniform(size=(basis.n_vertices, data.n_classes)), order=order)
    shift, scale = 1.3, 0.2
    w = 1.0 / (shift + scale * basis.eigenvalues)
    x = basis.eigenvectors
    assert_same_bytes(spectral_solve(basis, basis.n_e, r, shift, scale),
                      x @ (w[:, None] * (x.T @ r)))


def test_spectral_solve_rejects_a_field_of_other_rows():
    basis = SpectralBasis(np.zeros(1), np.full((4, 1), 0.5), "exact")
    with pytest.raises(ValueError, match="field and basis dimensions do not match"):
        spectral_solve(basis, 1, np.zeros((3, 2)), 1.0, 1.0)
