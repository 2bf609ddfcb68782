"""The solver kernels computed on class columns must equal, byte for byte,
the row-wise kernels they replaced (kept in `oracles`), and so must the
solver runs built on them."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphseg.data import LabeledDataset, sample_fidelity
from graphseg.fields import row_sum, stop_ratio
from graphseg.gl import GLConfig, _row_l1_to_vertices, gl_segment, well_derivative
from graphseg.graph import WeightSpec, knn_graph, normalized_laplacian
from graphseg.mbo import MBOConfig, mbo_segment
from graphseg.simplex import nearest_vertices, project_rows
from graphseg.spectral import smallest_eigenpairs
from oracles import (
    REFERENCE_KERNELS,
    nearest_vertices_reference,
    project_rows_reference,
    row_l1_to_vertices_reference,
    stop_ratio_reference,
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


@given(fields_of(40))
def test_row_sum_matches_numpy(x):
    # K up to 40 runs the 8-accumulator blocks more than once
    with np.errstate(all="ignore"):
        assert_same_bytes(row_sum(x), np.sum(x, axis=1))


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
    with np.errstate(all="ignore"):
        assert_same_bytes(_row_l1_to_vertices(u), row_l1_to_vertices_reference(u))
        assert_same_bytes(well_derivative(u), well_derivative_reference(u))


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


def _solve(solver, basis, fidelity):
    if solver == "gl":
        result = gl_segment(basis, fidelity, GLConfig(n_e=basis.n_e, dt=0.1, max_iters=300))
        return result, result.final_energy
    return mbo_segment(basis, fidelity, MBOConfig(n_e=basis.n_e, dt=0.1)), None


@pytest.mark.parametrize("solver", ["gl", "mbo"])
@pytest.mark.parametrize("problem", ["moons", "mixture_k10"])
def test_solvers_match_the_reference_kernels(solver, problem, request, monkeypatch):
    if problem == "moons":
        data, basis = request.getfixturevalue("moons"), request.getfixturevalue("moons_basis20")
    else:
        data, basis = request.getfixturevalue("mixture_k10")
    fidelity = sample_fidelity(data, 5, seed=0, mu=30.0)
    new, new_energy = _solve(solver, basis, fidelity)
    for (module, name), reference in REFERENCE_KERNELS.items():
        monkeypatch.setattr(importlib.import_module(module), name, reference)
    ref, ref_energy = _solve(solver, basis, fidelity)
    assert_same_bytes(new.field, ref.field)
    assert_same_bytes(new.labels, ref.labels)
    assert (new.iterations, new.converged) == (ref.iterations, ref.converged)
    assert new.iterations > 1
    assert np.asarray(new_energy).tobytes() == np.asarray(ref_energy).tobytes()
