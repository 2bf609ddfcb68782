import time

import numpy as np
import pytest

from graphseg.fields import FidelitySet, random_label_field
from graphseg.gl import (
    GLConfig,
    gl_segment,
    gl_step,
    multiclass_energy,
    well_derivative,
)
from graphseg.graph import SparseWeightGraph, normalized_laplacian
from graphseg.simplex import project_rows
from graphseg.spectral import (SpectralBasis, load_basis, nystrom_eigenpairs, save_basis,
                                smallest_eigenpairs)
from oracles import (
    gradient_fd,
    random_connected_graph,
    well_gradient_fd,
    well_potential,
)


def empty_fidelity(k, mu=1.0):
    return FidelitySet(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), k, mu)


def no_smoothing(n):
    """A one-column basis with eigenvalue 0: the smoothing term vanishes."""
    return SpectralBasis(np.zeros(1), np.full((n, 1), n**-0.5), "exact")


def complete_graph_basis(n):
    rows, cols = np.triu_indices(n, k=1)
    g = SparseWeightGraph(n, rows, cols, np.ones(rows.size))
    return smallest_eigenpairs(normalized_laplacian(g), n)


class TestConfig:
    def test_default_convexity_constant(self):
        cfg = GLConfig(n_e=10, epsilon=2.0, mu=30.0)
        assert cfg.c == pytest.approx(30.0 + 0.5)

    def test_constant_is_derived_not_set(self):
        with pytest.raises(TypeError):
            GLConfig(n_e=10, c=40.0)
        # the bytes of mu + 1/epsilon; (mu * epsilon + 1) / epsilon rounds differently here
        cfg = GLConfig(n_e=10, epsilon=0.7, mu=30.0)
        assert cfg.c == 30.0 + 1.0 / 0.7
        assert "c" not in vars(cfg)

    def test_rejects_nonpositive_parameters(self):
        for kwargs in (
            {"epsilon": 0.0},
            {"dt": -0.1},
            {"eta": 0.0},
            {"max_iters": 0},
        ):
            with pytest.raises(ValueError):
                GLConfig(n_e=5, **kwargs)


class TestEnergy:
    def test_single_node_barycenter_two_classes(self):
        # smoothing and fidelity vanish; the well value is (1/16) / (2 eps)
        u = np.array([[0.5, 0.5]])
        for eps in (0.5, 1.0, 2.0):
            e = multiclass_energy(u, no_smoothing(1), empty_fidelity(2), eps)
            assert e == pytest.approx(1.0 / (32.0 * eps))

    def test_vertex_rows_have_zero_potential(self):
        u = np.eye(4)[[0, 2, 1, 3, 3]]
        e = multiclass_energy(u, no_smoothing(5), empty_fidelity(4), 1.0)
        assert e == 0.0

    def test_fidelity_term(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        fid = FidelitySet(np.array([0]), np.array([1]), 2, mu=3.0)
        e = multiclass_energy(u, no_smoothing(2), fid, 1.0)
        assert e == pytest.approx(0.5 * 3.0 * 2.0)

    def test_smoothing_matches_between_operator_forms(self):
        rng = np.random.default_rng(20)
        g = random_connected_graph(rng, 30)
        lap = normalized_laplacian(g)
        basis = smallest_eigenpairs(lap, 30)
        u = rng.uniform(size=(30, 3))
        fid = empty_fidelity(3)
        e_dense = 0.5 * np.sum(u * (lap.matrix @ u)) + multiclass_energy(
            u, no_smoothing(30), fid, 1.0
        )
        e_basis = multiclass_energy(u, basis, fid, 1.0)
        assert e_basis == pytest.approx(e_dense, rel=1e-10)

    def test_field_rows_must_match_the_basis(self):
        with pytest.raises(ValueError, match="field and basis dimensions do not match"):
            multiclass_energy(np.full((3, 2), 0.5), no_smoothing(4), empty_fidelity(2), 1.0)

    def test_energy_matches_oracle_potential(self):
        rng = np.random.default_rng(21)
        u = rng.uniform(size=(10, 4))
        e = multiclass_energy(u, no_smoothing(10), empty_fidelity(4), 1.0)
        ref = sum(well_potential(row) for row in u) / 2.0
        assert e == pytest.approx(ref, rel=1e-12)


class TestWellDerivative:
    def test_zero_at_simplex_vertices(self):
        u = np.eye(5)[[0, 1, 4]]
        assert np.max(np.abs(well_derivative(u))) == 0.0

    def test_zero_at_two_class_barycenter(self):
        assert np.allclose(well_derivative(np.array([[0.5, 0.5]])), 0.0, atol=1e-15)

    def test_matches_finite_differences_single(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            row = rng.uniform(0.05, 0.95, size=k)
            grad = well_derivative(row[None, :])[0]
            assert np.max(np.abs(grad - well_gradient_fd(row))) <= 1e-5

    def test_matches_finite_differences_bulk(self):
        rng = np.random.default_rng(23)
        u = rng.uniform(0.05, 0.95, size=(200, 3))
        grads = well_derivative(u)
        for i in range(200):
            assert np.max(np.abs(grads[i] - well_gradient_fd(u[i]))) <= 1e-4

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            well_derivative(np.array([[np.nan, 0.5]]))


class TestStep:
    def test_barycenter_fixed_point_on_regular_graph(self):
        # On a regular graph the constant field lies in the lambda=0
        # eigenspace, and the two-class well gradient vanishes at 1/2.
        basis = complete_graph_basis(6)
        cfg = GLConfig(n_e=6, epsilon=1.0, dt=0.1, mu=30.0)
        u = np.full((6, 2), 0.5)
        out = gl_step(u, basis, empty_fidelity(2), cfg)
        assert np.allclose(out, u, atol=1e-12)

    def test_large_mu_pins_labeled_rows(self):
        basis = complete_graph_basis(8)
        fid = FidelitySet(
            np.array([0, 3]), np.array([1, 0]), 2, mu=1e6
        )
        cfg = GLConfig(n_e=8, mu=1e6, dt=0.1)
        u = random_label_field(8, fid, seed=0)
        out = gl_step(np.roll(u, 1, axis=1), basis, fid, cfg)
        assert np.max(np.abs(out[fid.indices] - fid.targets)) <= 1e-3

    def test_full_basis_matches_dense_solve(self):
        # With the full basis the step is the convex split of
        # multiclass_energy: implicit in the smoothing term plus
        # (C/2)|u|^2, explicit in the gradient of the rest. Both parts are
        # read off the energy by finite differences, so an epsilon placed
        # differently in the step and in the energy shows at epsilon != 1.
        n = 25
        rng = np.random.default_rng(24)
        lap = normalized_laplacian(random_connected_graph(rng, n))
        basis = smallest_eigenpairs(lap, n)
        fid = FidelitySet(np.array([0, 1, 2]), np.array([0, 1, 2]), 3, 30.0)
        no_fidelity = empty_fidelity(1)
        flat = no_smoothing(n)
        # strictly interior rows, where the potential is differentiable
        u = rng.dirichlet(np.ones(3), size=n)

        for epsilon in (0.4, 1.0, 2.5):
            cfg = GLConfig(n_e=n, epsilon=epsilon, dt=0.05, mu=30.0)
            explicit = gradient_fd(
                lambda v: multiclass_energy(v, flat, fid, epsilon), u
            )

            def smoothing(v):
                return multiclass_energy(
                    v, basis, no_fidelity, epsilon
                ) - multiclass_energy(v, flat, no_fidelity, epsilon)

            # the smoothing term is quadratic: its gradient at e_j is
            # column j of its Hessian
            hessian = np.column_stack(
                [gradient_fd(smoothing, e[:, None])[:, 0] for e in np.eye(n)]
            )
            r = (1.0 + cfg.c * cfg.dt) * u - cfg.dt * explicit
            b = (1.0 + cfg.c * cfg.dt) * np.eye(n) + cfg.dt * hessian
            expect = project_rows(np.linalg.solve(b, r))
            err = np.max(np.abs(gl_step(u, basis, fid, cfg) - expect))
            assert err <= 1e-8, f"epsilon={epsilon}: step differs by {err:.2e}"

    def test_output_rows_on_simplex(self, moons_basis15):
        fid = FidelitySet(
            np.array([10, 600, 1100]), np.array([0, 1, 2]), 3, 30.0
        )
        cfg = GLConfig(n_e=15)
        u = random_label_field(1500, fid, seed=2)
        for _ in range(5):
            u = gl_step(u, basis=moons_basis15, fidelity=fid, cfg=cfg)
            assert np.all(u >= 0)
            assert np.max(np.abs(u.sum(axis=1) - 1.0)) <= 1e-9

    def test_basis_size_mismatch_rejected(self, moons_basis15):
        cfg = GLConfig(n_e=20)
        u = np.full((1500, 3), 1 / 3)
        with pytest.raises(ValueError, match="eigenpairs"):
            gl_step(u, moons_basis15, empty_fidelity(3), cfg)


class TestSegment:
    def test_blobs_segmentation(self, blobs):
        from graphseg.data import sample_fidelity
        from graphseg.evaluate import accuracy
        from graphseg.graph import WeightSpec, knn_graph

        lap = normalized_laplacian(
            knn_graph(blobs.features, WeightSpec(kind="gaussian", neighbors=8, sigma=1.0))
        )
        basis = smallest_eigenpairs(lap, 10)
        fid = sample_fidelity(blobs, 4, seed=0, mu=30.0)
        res = gl_segment(basis, fid, GLConfig(n_e=10, max_iters=400))
        assert res.converged
        assert accuracy(res.labels, blobs.labels) >= 0.95

    def test_final_energy_below_initial(self, blobs):
        from graphseg.data import sample_fidelity
        from graphseg.graph import WeightSpec, knn_graph

        lap = normalized_laplacian(
            knn_graph(blobs.features, WeightSpec(kind="gaussian", neighbors=8, sigma=1.0))
        )
        basis = smallest_eigenpairs(lap, 10)
        fid = sample_fidelity(blobs, 4, seed=1, mu=30.0)
        cfg = GLConfig(n_e=10, max_iters=400)
        u0 = random_label_field(blobs.labels.size, fid, cfg.seed)
        res = gl_segment(basis, fid, cfg)
        assert res.final_energy < multiclass_energy(u0, basis, fid, cfg.epsilon)
        assert res.final_energy == pytest.approx(
            multiclass_energy(res.field, basis, fid, cfg.epsilon)
        )

    def test_deterministic(self, blobs):
        from graphseg.data import sample_fidelity
        from graphseg.graph import WeightSpec, knn_graph

        lap = normalized_laplacian(
            knn_graph(blobs.features, WeightSpec(kind="gaussian", neighbors=8, sigma=1.0))
        )
        basis = smallest_eigenpairs(lap, 10)
        fid = sample_fidelity(blobs, 4, seed=2, mu=30.0)
        cfg = GLConfig(n_e=10, max_iters=400, seed=5)
        r1 = gl_segment(basis, fid, cfg)
        r2 = gl_segment(basis, fid, cfg)
        assert np.array_equal(r1.field, r2.field)
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.iterations == r2.iterations
        assert r1.final_energy == r2.final_energy

    def test_requires_fidelity_coverage(self, moons_basis15):
        with pytest.raises(ValueError, match="nonempty"):
            gl_segment(moons_basis15, empty_fidelity(3), GLConfig(n_e=15))
        fid = FidelitySet(np.array([0, 1]), np.array([0, 0]), 3, 30.0)
        with pytest.raises(ValueError, match="every class"):
            gl_segment(moons_basis15, fid, GLConfig(n_e=15))
        fid = FidelitySet(np.array([10, 1600, 1500]), np.array([0, 1, 2]), 3, 30.0)
        with pytest.raises(ValueError, match="index 1600 is out of range for 1500 vertices"):
            gl_segment(moons_basis15, fid, GLConfig(n_e=15))
        # the convexity bound c >= mu + 1/epsilon is checked against cfg.mu
        fid = FidelitySet(np.array([10, 600, 1100]), np.array([0, 1, 2]), 3, 300.0)
        with pytest.raises(ValueError, match="mu=300.0 differs from config mu=30.0"):
            gl_segment(moons_basis15, fid, GLConfig(n_e=15, mu=30.0))

    def test_blow_up_raises(self, moons_basis15):
        # 1 + c dt overflows to inf, and inf * 0 is NaN
        fid = FidelitySet(
            np.array([10, 600, 1100]), np.array([0, 1, 2]), 3, 1e307
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite values in the spectral solve"
        ):
            gl_segment(moons_basis15, fid, GLConfig(n_e=15, mu=1e307, dt=100.0))

    def test_max_iters_reports_non_convergence(self, moons_basis15):
        fid = FidelitySet(
            np.array([10, 600, 1100]), np.array([0, 1, 2]), 3, 30.0
        )
        res = gl_segment(moons_basis15, fid, GLConfig(n_e=15, max_iters=2))
        assert not res.converged
        assert res.iterations == 2

    # eigsh returns Fortran-ordered vectors; a cache that kept them in C order
    # rounded the solvers' products differently, and no seed's field matched
    @pytest.mark.parametrize("method", ["exact", "nystrom"])
    def test_saved_basis_gives_the_same_field(self, moons, moons_basis15, method, tmp_path):
        from graphseg.data import sample_fidelity
        from graphseg.graph import WeightSpec

        basis = moons_basis15
        if method == "nystrom":
            spec = WeightSpec(kind="gaussian", neighbors=1, sigma=2.0)
            basis = nystrom_eigenpairs(moons.features, spec, 200, 15)
        save_basis(basis, tmp_path / "eigs.npz")
        loaded = load_basis(tmp_path / "eigs.npz")
        for seed in range(4):
            fid = sample_fidelity(moons, 25, seed, 30.0)
            cfg = GLConfig(n_e=15, max_iters=100, seed=seed)
            in_memory, reloaded = gl_segment(basis, fid, cfg), gl_segment(loaded, fid, cfg)
            assert in_memory.field.tobytes() == reloaded.field.tobytes()


def _orthonormal_basis(n, n_e, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n_e)))
    vals = np.sort(rng.uniform(0.0, 2.0, size=n_e))
    return SpectralBasis(vals, q, "exact")


def _step_setup(n, n_e=40):
    basis = _orthonormal_basis(n, n_e, seed=n)
    fid = FidelitySet(np.array([0, 1, 2]), np.array([0, 1, 2]), 3, 30.0)
    cfg = GLConfig(n_e=n_e)
    u = random_label_field(n, fid, seed=0)
    return u, basis, fid, cfg


def _step_time(u, basis, fid, cfg, reps=30):
    t0 = time.perf_counter()
    v = u
    for _ in range(reps):
        v = gl_step(v, basis, fid, cfg)
    return time.perf_counter() - t0


def test_step_cost_scales_linearly_in_nodes():
    """Doubling the node count at fixed basis size should roughly double
    the per-step cost (the work is dense N_D x n_e products).

    The two sizes alternate within each trial, so a change in machine load
    hits both, and the best of 15 trials is kept per size.
    """
    setups = {n: _step_setup(n) for n in (1000, 2000)}
    best = {n: np.inf for n in setups}
    for _ in range(15):
        for n, setup in setups.items():
            best[n] = min(best[n], _step_time(*setup))
    ratio = best[2000] / best[1000]
    assert 1.2 <= ratio <= 3.5
