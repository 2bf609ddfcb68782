import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphseg.graph import (
    SparseWeightGraph,
    WeightSpec,
    cosine_weight,
    gaussian_weight,
    knn_graph,
    load_graph,
    local_scaling_weight,
    normalized_laplacian,
    save_graph,
)
from oracles import knn_graph_reference, quadratic_form, random_connected_graph


def edge_set(graph):
    return set(zip(graph.rows.tolist(), graph.cols.tolist()))


def assert_matches_reference(features, spec, metric="euclidean"):
    """knn_graph gives the full-sort reference's graph byte for byte, or
    raises a ValueError with the same message."""
    try:
        expected = knn_graph_reference(features, spec, metric=metric)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            knn_graph(features, spec, metric=metric)
        assert str(raised.value) == str(exc)
        return
    got = knn_graph(features, spec, metric=metric)
    assert got.n_vertices == expected.n_vertices
    for name in ("rows", "cols", "weights", "degrees"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


class TestWeightFunctions:
    def test_gaussian_examples(self):
        assert gaussian_weight(0.0, 1.0) == 1.0
        assert gaussian_weight(2.0, 2.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert gaussian_weight(0.36787944117144233, 1.0) > gaussian_weight(0.5, 1.0)

    def test_gaussian_rejects_zero_sigma(self):
        with pytest.raises(ValueError):
            gaussian_weight(1.0, 0.0)

    def test_local_scaling_examples(self):
        assert local_scaling_weight(0.0, 1.0, 2.0) == 1.0
        r = 0.7
        assert local_scaling_weight(r, r**2, r**2) == pytest.approx(np.exp(-1.0))
        assert local_scaling_weight(0.3, 1.0, 4.0) == local_scaling_weight(0.3, 4.0, 1.0)

    def test_local_scaling_rejects_zero_scale(self):
        with pytest.raises(ValueError, match="local scale"):
            local_scaling_weight(1.0, 0.0, 1.0)

    def test_cosine_examples(self):
        v = np.array([0.3, 1.2])
        assert cosine_weight(v, v) == pytest.approx(1.0)
        assert cosine_weight([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
        assert cosine_weight([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2))
        assert cosine_weight([1.0, 0.0], [-1.0, 0.2]) == 0.0  # clamped

    def test_cosine_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            cosine_weight([0.0, 0.0], [1.0, 0.0])


class TestKnnGraph:
    def test_collinear_points_union_edges(self):
        feats = np.array([[0.0], [1.0], [3.0]])
        g = knn_graph(feats, WeightSpec(kind="gaussian", neighbors=1, sigma=1.0))
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_full_neighbors_gives_complete_graph(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(7, 3))
        g = knn_graph(feats, WeightSpec(kind="gaussian", neighbors=6, sigma=1.0))
        assert g.n_edges == 7 * 6 // 2
        assert np.all(g.rows < g.cols)

    def test_weights_match_spec(self):
        feats = np.array([[0.0], [1.0], [3.0]])
        g = knn_graph(feats, WeightSpec(kind="gaussian", neighbors=2, sigma=2.0))
        lookup = dict(zip(edge_set(g), g.weights))
        assert lookup[(0, 1)] == pytest.approx(np.exp(-1.0 / 4.0))
        assert lookup[(1, 2)] == pytest.approx(np.exp(-4.0 / 4.0))

    def test_local_scaling_graph_weights(self):
        feats = np.array([[0.0], [1.0], [3.0]])
        g = knn_graph(
            feats, WeightSpec(kind="local_scaling", neighbors=2, m_scale=1)
        )
        # tau: squared distance to the closest other point: 1, 1, 4
        lookup = dict(zip(edge_set(g), g.weights))
        assert lookup[(0, 1)] == pytest.approx(np.exp(-1.0))
        assert lookup[(1, 2)] == pytest.approx(np.exp(-4.0 / 2.0))
        assert lookup[(0, 2)] == pytest.approx(np.exp(-9.0 / 2.0))

    def test_cosine_graph_requires_cosine_metric(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            knn_graph(
                feats, WeightSpec(kind="cosine", neighbors=1), metric="euclidean"
            )

    def test_cosine_graph_weights(self):
        feats = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        g = knn_graph(
            feats,
            WeightSpec(kind="cosine", neighbors=2),
            metric="cosine_distance",
        )
        lookup = dict(zip(edge_set(g), g.weights))
        assert lookup[(0, 1)] == pytest.approx(1 / np.sqrt(2))
        # orthogonal vectors give zero similarity; the edge is dropped
        assert (0, 2) not in lookup

    def test_duplicate_points_error_names_vertex(self):
        feats = np.array([[0.0], [0.0], [5.0]])
        with pytest.raises(ValueError, match="vertex 0"):
            knn_graph(
                feats, WeightSpec(kind="local_scaling", neighbors=2, m_scale=1)
            )

    def test_too_many_neighbors_rejected(self):
        feats = np.zeros((3, 2))
        with pytest.raises(ValueError, match="N_D"):
            knn_graph(feats, WeightSpec(kind="gaussian", neighbors=3, sigma=1.0))

    def test_degrees_match_edge_list_exactly(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(40, 4))
        g = knn_graph(feats, WeightSpec(kind="gaussian", neighbors=5, sigma=1.0))
        recomputed = np.zeros(g.n_vertices)
        np.add.at(recomputed, g.rows, g.weights)
        np.add.at(recomputed, g.cols, g.weights)
        assert np.array_equal(g.degrees, recomputed)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(30, 3))
        perm = rng.permutation(30)
        g1 = knn_graph(feats, WeightSpec(kind="gaussian", neighbors=4, sigma=1.0))
        g2 = knn_graph(
            feats[perm], WeightSpec(kind="gaussian", neighbors=4, sigma=1.0)
        )
        weights2 = {}
        for i, j, w in zip(g2.rows, g2.cols, g2.weights):
            a, b = sorted((perm[i], perm[j]))
            weights2[(a, b)] = w
        assert set(weights2) == edge_set(g1)
        for i, j, w in zip(g1.rows, g1.cols, g1.weights):
            assert weights2[(i, j)] == pytest.approx(w, abs=1e-12)


class TestMatchesFullSortReference:
    """Partial selection must reproduce the full stable argsort exactly,
    ties at the cut-off included."""

    @pytest.mark.parametrize("case", ["gaussian", "m_below_n", "m_above_n", "cosine"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_tied_integer_features(self, case, data):
        n = data.draw(st.integers(3, 60), label="n")
        d = data.draw(st.integers(1, 3), label="d")
        feats = data.draw(
            arrays(np.int64, (n, d), elements=st.integers(-3, 3)), label="features"
        ).astype(float)
        top = n - 2 if case == "m_above_n" else n - 1
        neighbors = data.draw(st.integers(1, top), label="neighbors")
        metric = "euclidean"
        if case == "gaussian":
            spec = WeightSpec(kind="gaussian", neighbors=neighbors, sigma=2.0)
        elif case == "cosine":
            spec = WeightSpec(kind="cosine", neighbors=neighbors)
            metric = "cosine_distance"
        else:
            m_range = (1, neighbors) if case == "m_below_n" else (neighbors + 1, n - 1)
            m_scale = data.draw(st.integers(*m_range), label="m_scale")
            spec = WeightSpec(kind="local_scaling", neighbors=neighbors, m_scale=m_scale)
        assert_matches_reference(feats, spec, metric)

    def test_moons(self, moons):
        spec = WeightSpec(kind="local_scaling", neighbors=10, m_scale=17)
        assert_matches_reference(moons.features, spec)

    @pytest.mark.parametrize(
        "spec",
        [
            WeightSpec(kind="gaussian", neighbors=3, sigma=1.0),
            WeightSpec(kind="local_scaling", neighbors=3, m_scale=6),
        ],
    )
    def test_lattice_ties_at_cutoff(self, spec):
        feats = np.array([(x, y) for x in range(10) for y in range(10)], dtype=float)
        # an interior vertex has four lattice neighbours at distance 1, more
        # than the three selected, so its row takes the full-sort branch
        d = np.linalg.norm(feats - feats[55], axis=1)
        assert np.count_nonzero(d == 1.0) == 4
        assert_matches_reference(feats, spec)

    def test_overflowing_distances(self):
        # finite features whose squared norms overflow give inf and NaN
        # distances, which neither selection may order differently
        rng = np.random.default_rng(3)
        feats = np.vstack([rng.normal(size=(30, 2)) * 1e200, rng.normal(size=(30, 2))])
        with np.errstate(over="ignore", invalid="ignore"):
            assert_matches_reference(
                feats, WeightSpec(kind="local_scaling", neighbors=5, m_scale=7)
            )


class TestNormalizedLaplacian:
    def test_two_vertex_laplacian_independent_of_weight(self):
        for w in (0.1, 1.0, 7.3):
            g = SparseWeightGraph(
                2, np.array([0]), np.array([1]), np.array([w])
            )
            ls = normalized_laplacian(g).matrix.toarray()
            assert np.allclose(ls, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)

    def test_quadratic_form_identity_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = random_connected_graph(rng, int(rng.integers(4, 20)))
            ls = normalized_laplacian(g).matrix
            for _ in range(5):
                u = rng.normal(size=g.n_vertices)
                lhs = float(u @ (ls @ u))
                rhs = quadratic_form(g, u)
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
                assert lhs >= -1e-12

    def test_sqrt_degree_vector_in_kernel(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 25)
        ls = normalized_laplacian(g).matrix
        v = np.sqrt(g.degrees)
        assert np.max(np.abs(ls @ v)) <= 1e-12 * np.max(v)

    def test_isolated_vertex_rejected(self):
        g = SparseWeightGraph(
            3, np.array([0]), np.array([1]), np.array([1.0])
        )
        with pytest.raises(ValueError, match="vertex 2"):
            normalized_laplacian(g)


class TestEdgeCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        g = random_connected_graph(rng, 15)
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.n_vertices == g.n_vertices
        assert np.array_equal(loaded.rows, g.rows)
        assert np.array_equal(loaded.cols, g.cols)
        assert np.array_equal(loaded.weights, g.weights)
        assert np.array_equal(loaded.degrees, g.degrees)

    def test_header_line(self, tmp_path):
        g = SparseWeightGraph(2, np.array([0]), np.array([1]), np.array([0.5]))
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        assert path.read_text().splitlines()[0] == "graphseg-edges v1 2"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a cache\n")
        with pytest.raises(ValueError, match="edge cache"):
            load_graph(path)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(kind="unknown", neighbors=3)
    with pytest.raises(ValueError):
        WeightSpec(kind="gaussian", neighbors=0, sigma=1.0)
    with pytest.raises(ValueError):
        WeightSpec(kind="gaussian", neighbors=3, sigma=0.0)
    with pytest.raises(ValueError):
        WeightSpec(kind="local_scaling", neighbors=3, m_scale=0)
