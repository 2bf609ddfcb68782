import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import graphseg
from graphseg.cli import main
from graphseg.data import MoonsSpec, generate_three_moons
from graphseg.graph import (
    SparseWeightGraph,
    WeightSpec,
    _candidates,
    _nearest,
    _pair_keys,
    knn_graph,
    load_graph,
    normalized_laplacian,
    save_graph,
)
from oracles import (
    BAD_CACHE_CASES,
    cosine_cutoff_ties,
    cosine_weight,
    gaussian_weight,
    knn_graph_exact_reference,
    knn_graph_reference,
    local_scaling_weight,
    quadratic_form,
    random_connected_graph,
    write_bad_cache,
)


def edge_set(graph):
    return set(zip(graph.rows.tolist(), graph.cols.tolist()))


def assert_matches_reference(features, spec, gemm="edges"):
    """knn_graph gives the per-pair full-sort reference's graph byte for byte,
    or raises a ValueError with the same message.

    Against the GEMM-tile reference, `gemm` asks for "bytes", or for "edges":
    identical edges, and the weights of the edges within `gemm_weight_bound`.
    With "ties", for cosine distances of integer features, the edges may
    differ only at an exact tie at the cut-off (`cosine_cutoff_ties`):
    parallel features tie in exact arithmetic, and GEMM tiles and per-pair
    products round those ties apart differently.
    """
    try:
        expected = knn_graph_exact_reference(features, spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            knn_graph(features, spec)
        assert str(raised.value) == str(exc)
        return
    got = knn_graph(features, spec)
    assert got.n_vertices == expected.n_vertices
    for name in ("rows", "cols", "weights", "degrees"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    tiles = knn_graph_reference(features, spec)
    if gemm == "ties":
        n = got.n_vertices
        edge_got, edge_tiles = got.rows * n + got.cols, tiles.rows * n + tiles.cols
        i, j = np.divmod(np.setxor1d(edge_got, edge_tiles), n)
        ties = cosine_cutoff_ties(features, spec.neighbors)
        assert np.all(ties[i, j] | ties[j, i])
        _, at_got, at_tiles = np.intersect1d(edge_got, edge_tiles, return_indices=True)
    else:
        for name in ("rows", "cols") if gemm == "edges" else ("rows", "cols", "weights"):
            assert getattr(got, name).tobytes() == getattr(tiles, name).tobytes(), name
        at_got = at_tiles = slice(None)
    rel = np.abs(got.weights[at_got] - tiles.weights[at_tiles]) / tiles.weights[at_tiles]
    assert np.all(rel <= gemm_weight_bound(features, spec, tiles)[at_tiles])


def gemm_weight_bound(features, spec, graph):
    """Per edge, the largest relative weight change that rounding allows
    between the GEMM-tile keys of knn_graph_reference and per-pair keys.

    With u = 2^-53 and g_m = m u / (1 - m u), either float64 key of a pair,
    (|x_i|^2 + |x_j|^2) - 2<x_i, x_j> or 1 - <x_i, x_j> on unit rows, errs
    by g_D |x_i| |x_j| in the inner product, g_D |x|^2 in a squared norm and
    two roundings at most, so it lies within g_{D+2} (|x_i| + |x_j|)^2 of the
    real value, whatever the order of the sums: the two keys differ by
    a_ij = 2 g_{D+2} (|x_i| + |x_j|)^2 at most. A local scale tau_i is the
    key of a neighbour j with |x_j| <= |x_i| + sqrt(tau_i), so it moves by
    a_i = 2 g_{D+2} (2|x_i| + sqrt(tau_i))^2. The exponent e = d^2 / c, with
    c = sigma^2 or sqrt(tau_i tau_j), then moves by a_ij / c + e (a_i / tau_i
    + a_j / tau_j) / 2 to first order, taken 1.001 times for the second order
    (every a / tau is checked below 2e-6), and by 24 u e for the square roots,
    squares, products and quotients each side rounds; exp rounds 4 u each
    side. A cosine weight 1 - d moves by a_ij plus 2 u per side.
    """
    x = np.asarray(features, dtype=float)
    if spec.kind == "cosine":
        x = x / np.linalg.norm(x, axis=1)[:, None]
    m = x.shape[1] + 2
    gamma = m * 2.0**-53 / (1 - m * 2.0**-53)
    norm = np.linalg.norm(x, axis=1)
    i, j, w = graph.rows, graph.cols, graph.weights
    a_ij = 2 * gamma * (norm[i] + norm[j]) ** 2
    u = 2.0**-53
    if spec.kind == "cosine":
        return (a_ij + 4 * u) / w
    e = -np.log(w)
    if spec.kind == "gaussian":
        first = a_ij / spec.sigma**2
    else:
        with np.errstate(all="ignore"):
            sq = np.einsum("ij,ij->i", x, x)
            d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
        np.fill_diagonal(d2, np.inf)
        tau = np.sort(d2, axis=1)[:, spec.m_scale - 1]
        a = 2 * gamma * (2 * norm + np.sqrt(tau)) ** 2
        share = a[i] / tau[i] + a[j] / tau[j]
        assert np.all(share <= 2e-6)
        first = a_ij / np.sqrt(tau[i] * tau[j]) + e * share / 2
    return np.expm1(1.001 * first + 24 * u * e) + 8 * u


class TestWeightFunctions:
    """The oracle's weight functions, which the reference graphs use; the
    library forms the same expressions inside `knn_graph`."""

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

    def test_cosine_graph_weights(self):
        feats = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        g = knn_graph(feats, WeightSpec(kind="cosine", neighbors=2))
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
        with pytest.raises(ValueError, match="local scale index M=3 must be < N_D=3"):
            knn_graph(feats, WeightSpec(kind="local_scaling", neighbors=2, m_scale=3))

    @pytest.mark.parametrize("feats", [np.zeros(5), np.zeros((1, 3))], ids=["1-d", "one-row"])
    def test_features_need_two_rows(self, feats):
        with pytest.raises(ValueError, match="2-D array with at least 2 rows"):
            knn_graph(feats, WeightSpec(kind="gaussian", neighbors=1, sigma=1.0))

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
            assert weights2[(i, j)] == w  # keys depend on the pair alone


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
        if case == "gaussian":
            spec = WeightSpec(kind="gaussian", neighbors=neighbors, sigma=2.0)
        elif case == "cosine":
            spec = WeightSpec(kind="cosine", neighbors=neighbors)
        else:
            m_range = (1, neighbors) if case == "m_below_n" else (neighbors + 1, n - 1)
            m_scale = data.draw(st.integers(*m_range), label="m_scale")
            spec = WeightSpec(kind="local_scaling", neighbors=neighbors, m_scale=m_scale)
        # squared distances of integer features are exact in any order
        assert_matches_reference(feats, spec, gemm="ties" if case == "cosine" else "bytes")

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
        assert_matches_reference(feats, spec, gemm="bytes")

    def test_overflowing_distances(self):
        # finite features whose squared norms overflow give inf and NaN
        # distances, which neither selection may order differently
        rng = np.random.default_rng(3)
        feats = np.vstack([rng.normal(size=(30, 2)) * 1e200, rng.normal(size=(30, 2))])
        with np.errstate(over="ignore", invalid="ignore"):
            assert_matches_reference(
                feats, WeightSpec(kind="local_scaling", neighbors=5, m_scale=7)
            )

    # normal features give distances that integer features cannot: n = 300
    # is one block holding the whole matrix, n = 1024 is two blocks of 512
    # rows, n = 1100 three of 366-367 rows, and n = 1500 at D = 100 three of
    # 500 rows. n = 1030 is three blocks of 343-344 rows; blocks of 512 rows
    # and a remainder would leave it a last block of 6 rows, fewer than the
    # c = 11 or 16 screens each row keeps
    @pytest.mark.parametrize("n, dim", [
        pytest.param(300, 5, id="300"),
        pytest.param(1100, 5, id="1100"),
        pytest.param(1024, 5, id="1024"),
        pytest.param(1500, 100, id="1500-D100"),
        pytest.param(1030, 5, id="1030"),
    ])
    @pytest.mark.parametrize("kind", ["gaussian", "local_scaling", "cosine"])
    def test_normal_features(self, n, dim, kind):
        feats = np.random.default_rng(n).normal(size=(n, dim))
        if kind == "cosine":
            assert_matches_reference(feats, WeightSpec(kind="cosine", neighbors=7))
        elif kind == "gaussian":  # sigma^2 rounds here, unlike at sigma = 1 or 2
            assert_matches_reference(feats, WeightSpec(kind="gaussian", neighbors=7, sigma=1.3))
        else:
            assert_matches_reference(
                feats, WeightSpec(kind="local_scaling", neighbors=7, m_scale=12)
            )

    def test_tile_without_screening_hits(self):
        # two far-apart clusters of 515 rows: n = 1030 is three blocks of
        # 343-344 rows, and blocks 0 and 2 lie in different clusters, so no
        # entry of their tile is below any row's largest kept screen
        rng = np.random.default_rng(1030)
        feats = np.vstack([rng.normal(size=(515, 5)), rng.normal(size=(515, 5)) + 100.0])
        assert_matches_reference(feats, WeightSpec(kind="local_scaling", neighbors=7, m_scale=12))

    def test_more_kept_screens_than_block_rows(self):
        # k = 300 keeps c = 304 screens a row, more than the 300 rows that
        # each of two blocks of n = 600 would hold, so the rows form one block
        feats = np.random.default_rng(600).normal(size=(600, 5))
        assert_matches_reference(
            feats, WeightSpec(kind="local_scaling", neighbors=300, m_scale=12)
        )

    @pytest.mark.parametrize(
        "spec",
        [
            WeightSpec(kind="gaussian", neighbors=3, sigma=1.0),
            WeightSpec(kind="local_scaling", neighbors=3, m_scale=6),
            WeightSpec(kind="cosine", neighbors=3),
        ],
    )
    def test_ties_across_blocks(self, spec):
        # a shuffled 40 x 40 lattice: most rows tie at the cut-off, and the
        # tied neighbours of a row lie in other 400-row blocks, so the rows
        # fall back to their full rows in every block
        grid = np.array([(x, y) for x in range(1, 41) for y in range(1, 41)], dtype=float)
        feats = grid[np.random.default_rng(9).permutation(len(grid))]
        assert_matches_reference(feats, spec, gemm="ties" if spec.kind == "cosine" else "bytes")

    def test_duplicate_rows_across_blocks(self):
        # a duplicate pair across blocks 0 and 2, and a triple across blocks
        # 1 and 2 whose rows each have two neighbours at distance 0, so they
        # tie at k = 1
        feats = np.random.default_rng(4).normal(size=(1536, 3))
        feats[1300] = feats[200]
        feats[1100] = feats[700]
        feats[1535] = feats[1100]
        assert_matches_reference(feats, WeightSpec(kind="gaussian", neighbors=1, sigma=1.0))
        # and give a zero local scale, which must name the lowest such vertex
        assert_matches_reference(
            feats, WeightSpec(kind="local_scaling", neighbors=5, m_scale=1))

    def test_planted_near_tie_takes_the_fallback(self):
        # vertex 0 has twelve neighbours on a sphere whose squared radii
        # differ by 1e-9 relatively: float64 keys order them, float32 screens
        # cannot, so the certificate must turn the row away from its
        # candidates, and its full row must give the stable sort's choice
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(300, 5)) * 10
        v = rng.normal(size=(12, 5))
        radius = 0.5 * np.sqrt(1.0 + 1e-9 * np.arange(12)[::-1])
        feats = np.vstack([feats, feats[0] + v * (radius / np.linalg.norm(v, axis=1))[:, None]])
        sq_norms = np.einsum("ij,ij->i", feats, feats)
        planted = _pair_keys(feats, sq_norms, np.array([0]), np.arange(300, 312)[None, :])[0]
        assert np.all(np.diff(planted) < 0)
        assert planted.max() - planted.min() < 2.0**-24 * planted.min()
        _, _, uncertain = _candidates(feats, sq_norms, 3)
        assert uncertain[0]
        assert_matches_reference(feats, WeightSpec(kind="gaussian", neighbors=3, sigma=1.0))


@pytest.mark.parametrize("kind", ["squared", "cosine"])
@pytest.mark.parametrize("dim", [1, 3, 8, 100, 784])
def test_pair_keys_do_not_depend_on_the_batch(kind, dim):
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(60, dim))
    if kind == "cosine":
        x /= np.linalg.norm(x, axis=1)[:, None]
    sq_norms = np.einsum("ij,ij->i", x, x) if kind == "squared" else None
    rows = rng.permutation(60)[:20]
    cols = rng.integers(0, 60, size=(20, 9))
    batch = _pair_keys(x, sq_norms, rows, cols)
    full = _pair_keys(x, sq_norms, rows)
    for a, i in enumerate(rows):
        for b, j in enumerate(cols[a]):
            one = _pair_keys(x, sq_norms, np.array([i]), np.array([[j]]))[0, 0]
            assert one.tobytes() == batch[a, b].tobytes() == full[a, j].tobytes()
    # and the pair's key is the same from either end
    swapped = _pair_keys(x, sq_norms, cols[:, 0], rows[:, None])[:, 0]
    assert swapped.tobytes() == batch[:, 0].tobytes()


_GRAPH_DIGEST = """
import hashlib, sys
import numpy as np
from graphseg.graph import WeightSpec, knn_graph
n, dim = int(sys.argv[1]), int(sys.argv[2])
g = knn_graph(np.random.default_rng(n).normal(size=(n, dim)),
              WeightSpec(kind="local_scaling", neighbors=7, m_scale=12))
print(hashlib.sha256(g.rows.tobytes() + g.cols.tobytes() + g.weights.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("n, dim", [(1500, 100), (1500, 784)])
def test_graph_bytes_do_not_depend_on_blas_threads(n, dim):
    src = os.path.dirname(os.path.dirname(graphseg.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _GRAPH_DIGEST, str(n), str(dim)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout)
    assert digests[0] == digests[1]


def _nearby(x, steps):
    """x moved by `steps` adjacent doubles."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return x


@st.composite
def near_keys(draw, squared):
    """Rows of keys drawn from one to three base values and their
    np.nextafter neighbours, so that distinct keys share a root at the
    cut-off, with a few inf and NaN entries among them."""
    bases = [0.0, 5e-324, 0.25, 1.0, 2.0, 7.0, 1e300]
    if not squared:
        bases += [-0.0, -1e-16, -1.0]
    used = draw(st.lists(st.sampled_from(bases), min_size=1, max_size=3))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 12)))
    keys = np.array(
        [_nearby(draw(st.sampled_from(used)), draw(st.integers(-3, 3)))
         for _ in range(shape[0] * shape[1])]
    )
    if squared:
        keys = np.abs(keys)
    for at, value in draw(st.lists(st.tuples(st.integers(0, keys.size - 1),
                                             st.sampled_from([np.inf, np.nan])),
                                   max_size=3)):
        keys[at] = value
    return keys.reshape(shape)


class TestNearestSelector:
    """_nearest finishes each row from its k + 1 smallest keys (squared
    distances or cosine distances). On every row it does not flag as tied,
    it must give the first k columns of the stable argsort of the full
    distance row, and the distances there, byte for byte."""

    @staticmethod
    def check(keys, k, squared):
        keys = np.array(keys, dtype=float)
        with np.errstate(invalid="ignore"):
            dist = np.sqrt(keys) if squared else keys.copy()
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        expected = np.take_along_axis(dist, order, axis=1)
        # keep the k + 1 smallest keys as knn_graph does: a NaN never joins,
        # and inf fills the places no key takes
        kept = np.where(np.isnan(keys), np.inf, keys)
        kept = np.hstack([kept, np.full((len(kept), 1), np.inf)])
        cols = np.argpartition(kept, k, axis=1)[:, : k + 1]
        nbr, got, tied = _nearest(np.take_along_axis(kept, cols, axis=1), cols, k, squared)
        for row in np.flatnonzero(~tied):
            assert nbr[row].tobytes() == order[row].tobytes()
            assert got[row].tobytes() == expected[row].tobytes()
        return tied

    @pytest.mark.parametrize("squared", [True, False])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_stable_sort(self, squared, data):
        keys = data.draw(near_keys(squared), label="keys")
        k = data.draw(st.integers(1, keys.shape[1]), label="k")
        self.check(keys, k, squared)

    @pytest.mark.parametrize("k", [1, 2])
    def test_roots_tie_where_keys_differ(self, k):
        # both keys have the root 1.0: the stable sort takes index 0 first,
        # while ordering by the key alone would take index 1 first. At k = 1
        # the row ties at the cut-off and must be flagged; at k = 2 the kept
        # keys alone give the order
        above = np.nextafter(1.0, 2.0)
        assert np.sqrt(above) == np.sqrt(1.0)
        tied = self.check([[above, 1.0, 4.0]], k, True)
        assert tied[0] == (k == 1)

    def test_separated_rows_not_tied(self):
        keys = [[4.0, 1.0, 9.0, 2.0], [0.0, 5.0, 7.0, 1.0]]
        assert not self.check(keys, 2, True).any()
        assert not self.check(keys, 2, False).any()


@pytest.mark.parametrize("per_class, limit_mib", [
    (1000, 24),
    (2000, 40),
    # normal features, N = 5000, D = 784: the float32 copy of the features is
    # 15.7 MB, and the tiles, the kept keys and the chunked gathers of the
    # exact keys take a few MiB each
    pytest.param(None, 32, id="normal-5000x784-32"),
])
def test_knn_graph_transient_memory(per_class, limit_mib):
    # the float32 tiles are built in one reused buffer, only c keys per row
    # are kept, and exact keys are formed in chunks; tracemalloc sees numpy's
    # buffers
    if per_class is None:
        feats = np.random.default_rng(5000).normal(size=(5000, 784))
    else:
        feats = generate_three_moons(MoonsSpec(points_per_class=per_class, seed=0)).features
    spec = WeightSpec(kind="local_scaling", neighbors=10, m_scale=17)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        knn_graph(feats, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


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
        for name in ("rows", "cols", "weights", "degrees"):
            assert getattr(loaded, name).dtype == getattr(g, name).dtype

    def test_format_key(self, tmp_path):
        g = SparseWeightGraph(2, np.array([0]), np.array([1]), np.array([0.5]))
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        with np.load(path) as archive:
            assert archive["format"] == "graphseg-graph v2"
            assert sorted(archive.files) == ["cols", "format", "n_vertices", "rows", "weights"]

    def test_writes_exactly_the_given_path(self, tmp_path, monkeypatch):
        g = random_connected_graph(np.random.default_rng(3), 10)
        first, second = tmp_path / "graph.txt", tmp_path / "again.txt"
        save_graph(g, first)
        monkeypatch.setattr(time, "time", lambda: 2e9)  # a clock in the file would show
        save_graph(g, second)
        assert sorted(tmp_path.iterdir()) == [second, first]
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a cache\n")
        with pytest.raises(ValueError, match="edge cache"):
            load_graph(path)

    @pytest.mark.parametrize("case", BAD_CACHE_CASES)
    def test_rejects_bad_file(self, tmp_path, case):
        valid = tmp_path / "valid.txt"
        save_graph(random_connected_graph(np.random.default_rng(4), 6), valid)
        path = tmp_path / "bad.txt"
        write_bad_cache(path, case, valid, "graphseg-edges v1 6\n0 1 0.5\n")
        with pytest.raises(ValueError, match="not a graphseg edge cache"):
            load_graph(path)

    @pytest.mark.parametrize(
        "rows, cols",
        [
            pytest.param([1], [5], id="past-last-vertex"),
            pytest.param([-1], [1], id="negative"),
            pytest.param([1], [0], id="i-above-j"),
            pytest.param([0.0], [1.0], id="not-integers"),
            pytest.param([[0]], [[1]], id="not-flat"),
        ],
    )
    def test_rejects_bad_indices_before_building(self, tmp_path, rows, cols):
        g = SparseWeightGraph(3, np.array(rows), np.array(cols), np.full(len(rows), 0.5))
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        with pytest.raises(ValueError, match="not a graphseg edge cache"):
            load_graph(path)

    @pytest.mark.parametrize("weight", [np.nan, 0.0, -1.0])
    def test_rejects_weights_that_are_not_finite_and_positive(self, tmp_path, capsys,
                                                              weight):
        g = SparseWeightGraph(3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, weight]))
        path = tmp_path / "graph.npz"
        save_graph(g, path)
        with pytest.raises(ValueError, match="edge weights must be finite and positive"):
            load_graph(path)
        assert main(["eigs", str(path), "--out", str(tmp_path / "eigs.npz"), "--n-e", "2"]) == 2
        assert "edge weights must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "eigs.npz").exists()


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(kind="unknown", neighbors=3)
    with pytest.raises(ValueError):
        WeightSpec(kind="gaussian", neighbors=0, sigma=1.0)
    with pytest.raises(ValueError):
        WeightSpec(kind="gaussian", neighbors=3, sigma=0.0)
    with pytest.raises(ValueError):
        WeightSpec(kind="local_scaling", neighbors=3, m_scale=0)

