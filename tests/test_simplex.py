import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphseg.simplex import _comparators, nearest_vertices, project_rows
from oracles import grid_project_simplex

finite_rows = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


def test_projection_fixed_point():
    v = np.array([[0.2, 0.5, 0.3]])
    assert np.allclose(project_rows(v), v, atol=1e-15)


def test_projection_outside_vertex():
    # frozen from the grid oracle: argmin over the 1-simplex is (1, 0)
    out = project_rows(np.array([[2.0, 0.0]]))[0]
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)
    assert np.allclose(out, grid_project_simplex(np.array([2.0, 0.0])), atol=1e-6)


def test_projection_symmetric_point_hits_barycenter():
    out = project_rows(np.array([[0.4, 0.4, 0.4]]))
    assert np.allclose(out, 1 / 3, atol=1e-12)


def test_projection_matches_grid_oracle_bulk():
    rng = np.random.default_rng(42)
    for k in range(1, 6):
        v = rng.uniform(-3, 3, size=(200, k))
        fast = project_rows(v)
        for row, projected in zip(v, fast):
            assert np.max(np.abs(projected - grid_project_simplex(row))) <= 1e-6


@pytest.mark.parametrize("k", range(1, 17))
def test_sorting_network_sorts_all_zero_one_vectors(k):
    # 0-1 principle (Knuth, TAOCP 5.3.4, Theorem Z): a comparator network
    # that sorts all 2**k vectors of zeros and ones sorts every input
    bits = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    cols = list(bits.T)
    for a, b in _comparators(k):
        cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
    assert np.array_equal(np.stack(cols, axis=1), np.sort(bits, axis=1))


def test_projection_rejects_non_finite():
    with pytest.raises(ValueError):
        project_rows(np.array([[0.2, 0.8], [np.nan, 0.0]]))
    with pytest.raises(ValueError):
        nearest_vertices(np.array([[0.2, 0.8], [np.inf, 0.0]]))


@given(finite_rows)
def test_projection_output_on_simplex(v):
    out = project_rows(v)
    assert np.all(out >= 0)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)


@given(finite_rows)
def test_projection_idempotent(v):
    once = project_rows(v)
    assert np.allclose(project_rows(once), once, atol=1e-12)


@settings(max_examples=50)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_projection_nonexpansive(k, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-5, 5, size=(2, k))
    p = project_rows(v)
    assert np.linalg.norm(p[0] - p[1]) <= np.linalg.norm(v[0] - v[1]) + 1e-12


@settings(max_examples=50)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_projection_permutation_equivariant(k, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-5, 5, size=(4, k))
    perm = rng.permutation(k)
    assert np.allclose(project_rows(v[:, perm]), project_rows(v)[:, perm], atol=1e-12)


def test_nearest_vertex_examples():
    v = np.array([[0.9, 0.1, 0.0], [0.5, 0.5, 0.0], [0.2, 0.5, 0.3]])
    # a tie goes to the lowest index; distances to e_0, e_1, e_2 enumerate
    # to the middle class winning in the last row
    assert np.array_equal(nearest_vertices(v), [0, 0, 1])


@given(finite_rows)
def test_nearest_vertex_is_argmax(v):
    assert np.array_equal(nearest_vertices(v), [int(np.argmax(row)) for row in v])
