import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphseg.cache import save_arrays
from graphseg.data import MoonsSpec, generate_three_moons
from graphseg.graph import (
    SparseWeightGraph,
    WeightSpec,
    knn_graph,
    normalized_laplacian,
)
from graphseg import spectral
from graphseg.spectral import (
    EigensolverError,
    SpectralBasis,
    load_basis,
    nystrom_eigenpairs,
    save_basis,
    smallest_eigenpairs,
)
from oracles import (
    BAD_CACHE_CASES,
    dense_kernel_laplacian_eigs,
    dense_laplacian,
    dense_subspace_gap,
    lattice_graph,
    random_connected_graph,
    ring_graph,
    write_bad_cache,
)


# the blobs' graph: three connected components
BLOB_SPEC = WeightSpec(kind="gaussian", neighbors=8, sigma=1.0)


def complete_graph(n):
    rows, cols = np.triu_indices(n, k=1)
    return SparseWeightGraph(n, rows, cols, np.ones(rows.size))


class TestExactSolver:
    def test_two_vertex_spectrum(self):
        g = SparseWeightGraph(2, np.array([0]), np.array([1]), np.array([1.0]))
        basis = smallest_eigenpairs(normalized_laplacian(g), 2)
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_complete_graph_spectrum(self, n):
        basis = smallest_eigenpairs(normalized_laplacian(complete_graph(n)), n)
        expected = np.concatenate([[0.0], np.full(n - 1, n / (n - 1))])
        assert np.allclose(basis.eigenvalues, expected, atol=1e-10)

    def test_matches_dense_oracle_on_knn_graph(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(50, 4))
        g = knn_graph(feats, WeightSpec(kind="gaussian", neighbors=6, sigma=1.5))
        lap = normalized_laplacian(g)
        basis = smallest_eigenpairs(lap, 8, tol=1e-9)
        vals, vecs = np.linalg.eigh(dense_laplacian(g))
        assert np.max(np.abs(basis.eigenvalues - vals[:8])) <= 1e-8
        for k in range(8):
            ref = vecs[:, k]
            top = np.argmax(np.abs(ref))
            ref = ref * np.sign(ref[top])
            assert np.max(np.abs(basis.eigenvectors[:, k] - ref)) <= 1e-6

    def test_residuals_and_orthonormality(self, moons_laplacian, moons_basis20):
        b = moons_basis20
        res = np.linalg.norm(
            moons_laplacian.matrix @ b.eigenvectors - b.eigenvectors * b.eigenvalues,
            axis=0,
        )
        assert np.all(res <= 1e-6)
        gram = b.eigenvectors.T @ b.eigenvectors
        assert np.max(np.abs(gram - np.eye(b.n_e))) <= 1e-8
        assert np.all(np.diff(b.eigenvalues) >= -1e-12)
        assert np.all(b.eigenvalues >= -1e-10)
        assert np.all(b.eigenvalues <= 2.0 + 1e-10)

    def test_connected_graph_kernel_vector(self, moons_laplacian, moons_basis20):
        assert moons_basis20.eigenvalues[0] <= 1e-10
        ref = np.sqrt(moons_laplacian.graph.degrees)
        ref = ref / np.linalg.norm(ref)
        cos = abs(float(ref @ moons_basis20.eigenvectors[:, 0]))
        assert cos >= 1.0 - 1e-8

    def test_deterministic(self, moons_laplacian):
        b1 = smallest_eigenpairs(moons_laplacian, 6, tol=1e-8)
        b2 = smallest_eigenpairs(moons_laplacian, 6, tol=1e-8)
        assert np.array_equal(b1.eigenvalues, b2.eigenvalues)
        assert np.array_equal(b1.eigenvectors, b2.eigenvectors)

    def test_unreachable_tolerance_reports_residuals(self, moons_laplacian):
        with pytest.raises(EigensolverError) as exc:
            smallest_eigenpairs(moons_laplacian, 5, tol=1e-30)
        assert exc.value.residuals is not None
        assert np.all(exc.value.residuals > 1e-30)

    def test_matvec_budget_reports_non_convergence(self, moons_laplacian, monkeypatch):
        monkeypatch.setattr(spectral, "_RESTARTS", 2)
        with pytest.raises(
            EigensolverError, match="did not converge within 2 restarts of 20 Lanczos vectors"
        ):
            smallest_eigenpairs(moons_laplacian, 5)

    def test_restart_caps_reach_arpack(self, moons_laplacian, monkeypatch):
        # moons 1.5k at n_e = 5 takes the 2I - L_s route, the 20 x 20
        # lattice at n_e = 30 the filtered one
        calls = []
        inner = spectral.spla.eigsh

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return inner(*args, **kwargs)

        monkeypatch.setattr(spectral.spla, "eigsh", spy)
        smallest_eigenpairs(moons_laplacian, 5)
        smallest_eigenpairs(normalized_laplacian(lattice_graph(20)), 30)
        assert [(c["maxiter"], c["ncv"]) for c in calls] == [(100, 20), (25, 61)]

    def test_one_eigenpair_within_the_default_budget(self):
        # at n_e = 1 ncv is 20; a cap of 100 * n_e = 100 products, the
        # budget of an earlier version, did not converge here
        moons = generate_three_moons(MoonsSpec(points_per_class=2000, seed=0))
        spec = WeightSpec(kind="local_scaling", neighbors=10, m_scale=17)
        lap = normalized_laplacian(knn_graph(moons.features, spec))
        basis = smallest_eigenpairs(lap, 1)
        assert abs(basis.eigenvalues[0]) <= 1e-10

    @pytest.mark.parametrize("n_e", [4, 5])
    def test_missed_zero_eigenvalue_raises(self, blobs, n_e):
        # the blobs have three components, and Lanczos returns 0, 0, 0.0988,
        # ... here: one zero eigenvalue is missing, yet every residual is
        # below 1e-14
        lap = normalized_laplacian(knn_graph(blobs.features, BLOB_SPEC))
        with pytest.raises(EigensolverError, match="the graph's 3 connected components"):
            smallest_eigenpairs(lap, n_e, tol=1e-6)

    @pytest.mark.parametrize("n_e", [1, 2, 3, 6, 10, 15])
    def test_one_zero_eigenvalue_per_component(self, blobs, n_e):
        lap = normalized_laplacian(knn_graph(blobs.features, BLOB_SPEC))
        basis = smallest_eigenpairs(lap, n_e, tol=1e-6)
        assert np.count_nonzero(np.abs(basis.eigenvalues) <= 1e-6) == min(3, n_e)

    def test_parameter_validation(self, moons_laplacian):
        with pytest.raises(ValueError):
            smallest_eigenpairs(moons_laplacian, 0)
        with pytest.raises(ValueError):
            smallest_eigenpairs(moons_laplacian, 3, tol=0.0)


def cost_ratio(lap, n_e):
    """n * ncv / nnz(L_s): the filtered route is taken from 4 up."""
    n = lap.matrix.shape[0]
    return n * min(n, max(2 * n_e + 1, 20)) / lap.matrix.nnz


def triangles(k):
    """k disjoint triangles: two distinct eigenvalues, so a Krylov space
    becomes invariant after two steps."""
    base = 3 * np.arange(k)
    rows = np.concatenate([base, base, base + 1])
    cols = np.concatenate([base + 1, base + 2, base + 2])
    return SparseWeightGraph(3 * k, rows, cols, np.ones(3 * k))


@pytest.fixture
def bounds_seen(monkeypatch):
    """The Krylov bounds smallest_eigenpairs computed, None for a breakdown."""
    seen = []
    inner = spectral._ritz_bound

    def spy(*args):
        seen.append(inner(*args))
        return seen[-1]

    monkeypatch.setattr(spectral, "_ritz_bound", spy)
    return seen


class TestFilteredSolver:
    """The Chebyshev-filtered route, taken where n * ncv >= 4 nnz(L_s)."""

    @pytest.mark.parametrize("graph, n_e, ratio", [
        (lattice_graph(20), 30, 12.7),  # 400 vertices, 4 neighbours
        (ring_graph(200), 40, 27.0),  # every eigenvalue but 0 and 2 double
        (random_connected_graph(np.random.default_rng(3), 200, 2000), 20, 1.9),
    ], ids=["lattice", "ring", "dense-random"])
    def test_matches_dense_oracle(self, graph, n_e, ratio, bounds_seen):
        lap = normalized_laplacian(graph)
        assert cost_ratio(lap, n_e) == pytest.approx(ratio, abs=0.1)
        basis = smallest_eigenpairs(lap, n_e, tol=1e-10)
        assert len(bounds_seen) == (ratio >= 4)
        value_err, defect = dense_subspace_gap(
            dense_laplacian(graph), basis.eigenvalues, basis.eigenvectors)
        assert value_err <= 1e-12
        assert defect <= 1e-10
        gram = basis.eigenvectors.T @ basis.eigenvectors
        assert np.max(np.abs(gram - np.eye(n_e))) <= 1e-12
        if bounds_seen:
            assert np.all(basis.eigenvalues < bounds_seen[0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 120),
           n_e=st.integers(1, 12), extra=st.integers(0, 3))
    def test_bound_is_above_the_n_e_th_eigenvalue(self, seed, n, n_e, extra):
        rng = np.random.default_rng(seed)
        graph = random_connected_graph(rng, n, extra * n)
        ls = normalized_laplacian(graph).matrix
        ncv = min(n - 1, 2 * n_e + 1)
        bound = spectral._ritz_bound(ls, rng.standard_normal(n), ncv, n_e)
        if bound is not None:
            # Poincare separation, up to the rounding of the projection
            assert bound >= np.linalg.eigvalsh(dense_laplacian(graph))[n_e - 1] - 1e-12

    def test_deterministic(self):
        lap = normalized_laplacian(lattice_graph(20))
        b1 = smallest_eigenpairs(lap, 30)
        b2 = smallest_eigenpairs(lap, 30)
        assert b1.eigenvalues.tobytes() == b2.eigenvalues.tobytes()
        assert b1.eigenvectors.tobytes() == b2.eigenvectors.tobytes()

    def test_matvec_budget_reports_rayleigh_residuals(self, monkeypatch):
        lap = normalized_laplacian(lattice_graph(20))
        # 8 // _FILTER_DEGREE: two restarts on the filter
        monkeypatch.setattr(spectral, "_RESTARTS", 8)
        with pytest.raises(
            EigensolverError, match="did not converge within 2 restarts of 61 Lanczos vectors$"
        ) as exc:
            smallest_eigenpairs(lap, 30)
        # the pairs ARPACK had converged, with L_s's Rayleigh quotients; the
        # filter's own eigenvalues, all above 1, would leave residuals near 1
        assert 0 < exc.value.residuals.size < 30
        assert np.all(exc.value.residuals <= 1e-12)

    def test_bound_below_the_spectrum_is_refused(self, monkeypatch):
        lap = normalized_laplacian(ring_graph(200))
        lam = np.linalg.eigvalsh(dense_laplacian(ring_graph(200)))
        monkeypatch.setattr(spectral, "_ritz_bound", lambda *args: lam[19])
        with pytest.raises(EigensolverError, match="not below the Krylov bound") as exc:
            smallest_eigenpairs(lap, 40)
        assert exc.value.residuals.shape == (40,)

    def test_invariant_krylov_space_takes_the_plain_route(self, bounds_seen):
        lap = normalized_laplacian(triangles(30))
        assert cost_ratio(lap, 3) >= 4
        basis = smallest_eigenpairs(lap, 3)
        assert bounds_seen == [None]
        assert np.allclose(basis.eigenvalues, 0.0, atol=1e-12)


class TestNystrom:
    def test_full_sampling_matches_dense(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(60, 3))
        spec = WeightSpec(kind="gaussian", neighbors=1, sigma=2.0)
        basis = nystrom_eigenpairs(feats, spec, sample_size=60, n_e=10, seed=0)
        vals, _ = dense_kernel_laplacian_eigs(feats, 2.0)
        assert np.max(np.abs(basis.eigenvalues - vals[:10])) <= 1e-6

    def test_smallest_eigenvalue_near_zero(self):
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(120, 3))
        spec = WeightSpec(kind="gaussian", neighbors=1, sigma=2.0)
        basis = nystrom_eigenpairs(feats, spec, sample_size=40, n_e=6, seed=1)
        assert abs(basis.eigenvalues[0]) <= 1e-6

    def test_subsampled_close_to_dense_oracle(self):
        rng = np.random.default_rng(14)
        feats = np.vstack(
            [rng.normal(c, 0.6, size=(100, 3)) for c in ([0, 0, 0], [4, 0, 0])]
        )
        spec = WeightSpec(kind="gaussian", neighbors=1, sigma=2.5)
        basis = nystrom_eigenpairs(feats, spec, sample_size=50, n_e=5, seed=2)
        vals, _ = dense_kernel_laplacian_eigs(feats, 2.5)
        for approx, exact in zip(basis.eigenvalues, vals[:5]):
            assert abs(approx - exact) <= 0.05 * max(abs(exact), 1e-6)

    def test_near_singular_landmarks_rejected(self):
        feats = np.zeros((20, 2))
        feats[:10] = [1.0, 0.0]  # two point clouds of exact duplicates
        spec = WeightSpec(kind="gaussian", neighbors=1, sigma=1.0)
        with pytest.raises(np.linalg.LinAlgError, match="sample"):
            nystrom_eigenpairs(feats, spec, sample_size=20, n_e=3, seed=0)

    def test_nonpositive_completed_degrees_rejected(self):
        # 3 cosine landmarks complete 2 of the other 12 degrees to at most 0,
        # and no normalized Laplacian has a nonpositive degree
        feats = np.random.default_rng(8).normal(size=(15, 5))
        spec = WeightSpec(kind="cosine", neighbors=3)
        with pytest.raises(np.linalg.LinAlgError,
                           match="gives 2 nonpositive degrees; try a larger sample_size"):
            nystrom_eigenpairs(feats, spec, sample_size=3, n_e=1, seed=0)

    def test_cosine_full_sampling_matches_dense(self):
        # nonnegative rows, as term counts are, in more dimensions than there
        # are points: no similarity is clamped and the kernel is nonsingular
        feats = np.random.default_rng(16).exponential(size=(30, 50))
        spec = WeightSpec(kind="cosine", neighbors=1)
        basis = nystrom_eigenpairs(feats, spec, sample_size=30, n_e=8, seed=0)
        unit = feats / np.linalg.norm(feats, axis=1)[:, None]
        w = np.maximum(unit @ unit.T, 0.0)
        inv = 1.0 / np.sqrt(w.sum(axis=1))
        vals = np.linalg.eigvalsh(np.eye(30) - inv[:, None] * w * inv[None, :])
        assert np.max(np.abs(basis.eigenvalues - vals[:8])) <= 1e-6

    def test_zero_row_rejected_as_by_knn_graph(self):
        feats = np.random.default_rng(17).exponential(size=(20, 30))
        feats[4] = 0.0
        spec = WeightSpec(kind="cosine", neighbors=3)
        with pytest.raises(ValueError) as knn:
            knn_graph(feats, spec)
        with pytest.raises(ValueError) as nystrom:
            nystrom_eigenpairs(feats, spec, sample_size=10, n_e=3)
        assert str(nystrom.value) == str(knn.value) == "zero feature vector at row 4"

    # at row 299 the basis came out all NaN; at rows 7 and 150 eigh raised
    # "Eigenvalues did not converge"
    @pytest.mark.parametrize("row", [7, 150, 299])
    def test_non_finite_features_rejected_as_by_knn_graph(self, row):
        feats = generate_three_moons(MoonsSpec(points_per_class=100, seed=0)).features
        feats[row, 2] = np.nan
        spec = WeightSpec(kind="gaussian", neighbors=10, sigma=2.0)
        with pytest.raises(ValueError) as knn:
            knn_graph(feats, spec)
        with pytest.raises(ValueError) as nystrom:
            nystrom_eigenpairs(feats, spec, sample_size=60, n_e=5)
        assert str(nystrom.value) == str(knn.value) == "features contain non-finite entries"

    def test_local_scaling_rejected(self):
        feats = np.random.default_rng(18).normal(size=(20, 2))
        spec = WeightSpec(kind="local_scaling", neighbors=3, m_scale=2)
        with pytest.raises(ValueError, match="local scaling needs all pairwise distances"):
            nystrom_eigenpairs(feats, spec, sample_size=10, n_e=3)

    def test_sample_size_bounds(self):
        feats = np.random.default_rng(0).normal(size=(30, 2))
        spec = WeightSpec(kind="gaussian", neighbors=1, sigma=1.0)
        with pytest.raises(ValueError):
            nystrom_eigenpairs(feats, spec, sample_size=31, n_e=3)
        with pytest.raises(ValueError):
            nystrom_eigenpairs(feats, spec, sample_size=4, n_e=5)
        with pytest.raises(ValueError):  # returned a basis of no columns
            nystrom_eigenpairs(feats, spec, sample_size=20, n_e=0)


class TestEigencache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        g = random_connected_graph(rng, 20)
        basis = smallest_eigenpairs(normalized_laplacian(g), 5)
        path = tmp_path / "eigs.txt"
        save_basis(basis, path)
        loaded = load_basis(path)
        assert loaded.method == "exact"
        assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
        assert np.array_equal(loaded.eigenvectors, basis.eigenvectors)
        with np.load(path) as archive:
            assert archive["format"] == "graphseg-eigs v2"

    def test_writes_exactly_the_given_path(self, tmp_path, monkeypatch):
        basis = smallest_eigenpairs(normalized_laplacian(complete_graph(6)), 3)
        first, second = tmp_path / "eigs.txt", tmp_path / "again.txt"
        save_basis(basis, first)
        monkeypatch.setattr(time, "time", lambda: 2e9)  # a clock in the file would show
        save_basis(basis, second)
        assert sorted(tmp_path.iterdir()) == [second, first]
        assert first.read_bytes() == second.read_bytes()

    def test_eigenvectors_held_in_fortran_order(self, tmp_path):
        vecs = np.arange(12.0).reshape(4, 3)  # C order
        basis = SpectralBasis(np.array([0.0, 0.5, 1.0]), vecs, "exact")
        assert basis.eigenvectors.flags.f_contiguous
        path = tmp_path / "eigs.txt"
        save_basis(basis, path)
        with np.load(path) as archive:  # npy's fortran_order: no copy on either side
            assert archive["eigenvectors"].flags.f_contiguous
        loaded = load_basis(path)
        assert loaded.eigenvectors.flags.f_contiguous
        assert np.array_equal(loaded.eigenvectors, vecs)

    def test_c_ordered_cache_loads_in_fortran_order(self, tmp_path):
        vecs = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "eigs.npz"
        save_arrays(path, "eigencache", eigenvalues=np.zeros(3), eigenvectors=vecs,
                    method=np.array("exact"))
        loaded = load_basis(path)
        assert loaded.eigenvectors.flags.f_contiguous
        assert np.array_equal(loaded.eigenvectors, vecs)

    @pytest.mark.parametrize("method", ["dense", "arpack", "nystrom"])
    def test_every_solver_gives_fortran_order(self, moons_laplacian, method):
        if method == "dense":
            basis = smallest_eigenpairs(normalized_laplacian(complete_graph(12)), 5)
        elif method == "arpack":
            basis = smallest_eigenpairs(moons_laplacian, 6)
        else:
            feats = np.random.default_rng(19).normal(size=(80, 3))
            spec = WeightSpec(kind="gaussian", neighbors=1, sigma=2.0)
            basis = nystrom_eigenpairs(feats, spec, sample_size=40, n_e=6)
        assert basis.eigenvectors.flags.f_contiguous

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError, match="eigencache"):
            load_basis(path)

    @pytest.mark.parametrize("case", [*BAD_CACHE_CASES, "nan eigenvectors",
                                      "complex eigenvectors"])
    def test_rejects_bad_file(self, tmp_path, case):
        valid = tmp_path / "valid.txt"
        save_basis(smallest_eigenpairs(normalized_laplacian(complete_graph(4)), 2), valid)
        path = tmp_path / "bad.txt"
        v1_text = "graphseg-eigs v1 4 2 exact\n0.0,1.3\n" + "0.5,0.5\n" * 4
        write_bad_cache(path, case, valid, v1_text)
        with pytest.raises(ValueError, match="not a graphseg eigencache"):
            load_basis(path)

    def test_rejects_mismatched_dimensions(self, tmp_path):
        path = tmp_path / "eigs.txt"
        save_basis(SpectralBasis(np.zeros(3), np.zeros((4, 2)), "exact"), path)
        with pytest.raises(ValueError, match="eigencache dimensions"):
            load_basis(path)
