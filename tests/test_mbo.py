import numpy as np
import pytest

from graphseg.fields import FidelitySet, random_label_field
from graphseg.graph import (
    SparseWeightGraph,
    WeightSpec,
    knn_graph,
    normalized_laplacian,
)
from graphseg.mbo import MBOConfig, mbo_diffusion_step, mbo_segment
from graphseg.spectral import smallest_eigenpairs
from oracles import binary_equivalence_check, binary_mbo_segment, random_connected_graph


def full_basis(graph):
    return smallest_eigenpairs(normalized_laplacian(graph), graph.n_vertices)


class TestConfig:
    def test_rejects_bad_parameters(self):
        for kwargs in (
            {"dt": -0.1},
            {"dt": 0.0},
            {"mu": -1.0},
            {"eta": 0.0},
            {"n_s": 0},
            {"max_iters": 0},
        ):
            with pytest.raises(ValueError):
                MBOConfig(n_e=5, **kwargs)


class TestDiffusionStep:
    def test_matches_dense_linear_solve(self):
        rng = np.random.default_rng(31)
        g = random_connected_graph(rng, 25)
        lap = normalized_laplacian(g)
        basis = full_basis(g)
        fid = FidelitySet(
            np.array([0, 5, 10]), np.array([0, 1, 2]), 3, 30.0
        )
        cfg = MBOConfig(n_e=25, dt=0.15, n_s=3, mu=30.0)
        u = random_label_field(25, fid, seed=0)

        sub_dt = cfg.dt / cfg.n_s
        r = u.copy()
        r[fid.indices] -= sub_dt * fid.mu * (u[fid.indices] - fid.targets)
        expect = np.linalg.solve(
            np.eye(25) + sub_dt * lap.matrix.toarray(), r
        )
        out = mbo_diffusion_step(u, basis, fid, cfg)
        assert np.max(np.abs(out - expect)) <= 1e-10

    def test_zero_mu_ignores_targets(self):
        rng = np.random.default_rng(32)
        g = random_connected_graph(rng, 15)
        basis = full_basis(g)
        cfg = MBOConfig(n_e=15, mu=0.0)
        u = rng.uniform(size=(15, 2))
        fid_a = FidelitySet(np.array([0, 1]), np.array([0, 1]), 2, 0.0)
        fid_b = FidelitySet(np.array([0, 1]), np.array([1, 0]), 2, 0.0)
        assert np.array_equal(
            mbo_diffusion_step(u, basis, fid_a, cfg),
            mbo_diffusion_step(u, basis, fid_b, cfg),
        )

    def test_basis_size_mismatch_rejected(self):
        rng = np.random.default_rng(33)
        g = random_connected_graph(rng, 12)
        basis = smallest_eigenpairs(normalized_laplacian(g), 4)
        fid = FidelitySet(np.array([0]), np.array([0]), 1, 1.0)
        with pytest.raises(ValueError, match="eigenpairs"):
            mbo_diffusion_step(np.zeros((12, 1)), basis, fid, MBOConfig(n_e=5))


class TestSegment:
    def test_field_rows_are_vertices(self, blobs):
        from graphseg.data import sample_fidelity

        lap = normalized_laplacian(
            knn_graph(blobs.features, WeightSpec(kind="gaussian", neighbors=8, sigma=1.0))
        )
        basis = smallest_eigenpairs(lap, 10)
        fid = sample_fidelity(blobs, 4, seed=0, mu=30.0)
        res = mbo_segment(basis, fid, MBOConfig(n_e=10))
        assert np.all((res.field == 0.0) | (res.field == 1.0))
        assert np.array_equal(res.field.sum(axis=1), np.ones(blobs.labels.size))
        assert np.array_equal(res.labels, np.argmax(res.field, axis=1))

    def test_blobs_segmentation_accurate_and_deterministic(self, blobs):
        from graphseg.data import sample_fidelity
        from graphseg.evaluate import accuracy

        lap = normalized_laplacian(
            knn_graph(blobs.features, WeightSpec(kind="gaussian", neighbors=8, sigma=1.0))
        )
        basis = smallest_eigenpairs(lap, 10)
        fid = sample_fidelity(blobs, 4, seed=1, mu=30.0)
        cfg = MBOConfig(n_e=10, dt=1.0, seed=1)
        r1 = mbo_segment(basis, fid, cfg)
        r2 = mbo_segment(basis, fid, cfg)
        assert r1.converged
        assert accuracy(r1.labels, blobs.labels) >= 0.95
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.iterations == r2.iterations

    def test_all_nodes_labeled_recovers_labels(self, blobs):
        lap = normalized_laplacian(
            knn_graph(blobs.features, WeightSpec(kind="gaussian", neighbors=8, sigma=1.0))
        )
        n = blobs.labels.size
        basis = smallest_eigenpairs(lap, n)
        fid = FidelitySet(np.arange(n), blobs.labels, 3, mu=50.0)
        res = mbo_segment(basis, fid, MBOConfig(n_e=n, mu=50.0, dt=0.01))
        assert res.converged
        assert np.array_equal(res.labels, blobs.labels)

    def test_max_iters_reports_non_convergence(self, blobs):
        lap = normalized_laplacian(
            knn_graph(blobs.features, WeightSpec(kind="gaussian", neighbors=8, sigma=1.0))
        )
        basis = smallest_eigenpairs(lap, 10)
        fid = FidelitySet(np.array([0, 40, 80]), np.array([0, 1, 2]), 3, 30.0)
        res = mbo_segment(basis, fid, MBOConfig(n_e=10, max_iters=1))
        assert not res.converged
        assert res.iterations == 1

    def test_blow_up_raises(self, moons_basis20):
        # dt mu overflows in the fidelity forcing of the first sub-step
        fid = FidelitySet(
            np.array([10, 600, 1100]), np.array([0, 1, 2]), 3, 1e306
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite values in the spectral solve"
        ):
            mbo_segment(moons_basis20, fid, MBOConfig(n_e=20, mu=1e306, dt=10.0))

    def test_requires_fidelity_coverage(self, blobs):
        lap = normalized_laplacian(
            knn_graph(blobs.features, WeightSpec(kind="gaussian", neighbors=8, sigma=1.0))
        )
        basis = smallest_eigenpairs(lap, 10)
        empty = FidelitySet(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 3, 30.0)
        with pytest.raises(ValueError, match="nonempty"):
            mbo_segment(basis, empty, MBOConfig(n_e=10))
        partial = FidelitySet(np.array([0, 1]), np.array([0, 0]), 3, 30.0)
        with pytest.raises(ValueError, match="every class"):
            mbo_segment(basis, partial, MBOConfig(n_e=10))
        beyond = FidelitySet(np.array([0, 40, 120]), np.array([0, 1, 2]), 3, 30.0)
        with pytest.raises(ValueError, match="index 120 is out of range for 120 vertices"):
            mbo_segment(basis, beyond, MBOConfig(n_e=10))
        labeled = FidelitySet(np.array([0, 40, 80]), np.array([0, 1, 2]), 3, 5.0)
        with pytest.raises(ValueError, match="mu=5.0 differs from config mu=30.0"):
            mbo_segment(basis, labeled, MBOConfig(n_e=10, mu=30.0))


class TestBinaryEquivalence:
    @staticmethod
    def two_class_setup(seed=0):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [3.5, 0.0]])
        features = np.vstack(
            [rng.normal(c, 0.6, size=(50, 2)) for c in centers]
        )
        labels = np.repeat(np.arange(2), 50)
        g = knn_graph(features, WeightSpec(kind="gaussian", neighbors=8, sigma=1.0))
        basis = smallest_eigenpairs(normalized_laplacian(g), 12)
        return basis, labels

    def test_full_agreement_with_fidelity(self):
        basis, labels = self.two_class_setup()
        fid = FidelitySet(
            np.array([0, 3, 55, 60]), labels[[0, 3, 55, 60]], 2, 30.0
        )
        report = binary_equivalence_check(basis, fid, MBOConfig(n_e=12, seed=1))
        assert report.agreement == 1.0
        assert np.array_equal(report.labels_multiclass, report.labels_binary)

    def test_full_agreement_with_zero_mu(self):
        basis, _ = self.two_class_setup(seed=1)
        fid = FidelitySet(np.array([0]), np.array([0]), 2, 0.0)
        report = binary_equivalence_check(basis, fid, MBOConfig(n_e=12, mu=0.0, seed=2))
        assert report.agreement == 1.0

    def test_two_vertex_single_label(self):
        g = SparseWeightGraph(2, np.array([0]), np.array([1]), np.array([1.0]))
        basis = smallest_eigenpairs(normalized_laplacian(g), 2)
        fid = FidelitySet(np.array([0]), np.array([0]), 2, 30.0)
        report = binary_equivalence_check(basis, fid, MBOConfig(n_e=2, seed=0))
        assert report.agreement == 1.0
        assert report.labels_multiclass[0] == 0

    def test_rejects_multiclass_fidelity(self):
        basis, labels = self.two_class_setup(seed=2)
        fid = FidelitySet(np.array([0, 55]), np.array([0, 1]), 3, 30.0)
        with pytest.raises(ValueError, match="K=2"):
            binary_equivalence_check(basis, fid, MBOConfig(n_e=12))

    def test_binary_pipeline_outputs_signs(self):
        basis, labels = self.two_class_setup(seed=3)
        fid = FidelitySet(
            np.array([0, 55]), labels[[0, 55]], 2, 30.0
        )
        cfg = MBOConfig(n_e=12)
        u0 = random_label_field(100, fid, cfg.seed)
        b, iterations, converged = binary_mbo_segment(
            basis, fid, cfg, 2.0 * u0[:, 0] - 1.0
        )
        assert set(np.unique(b)) <= {-1.0, 1.0}
        assert iterations >= 1
        assert converged
