"""The benchmark's workloads. Each is a closed loop: one client in one
process, and the next operation starts when the previous one returns.

- moons-cli-6k: one operation is a full CLI pass (graph, eigs, segment with
  MBO, segment with GL) from features and labels CSVs to predicted labels.
  Chosen because it is how a user goes from features on disk to labels:
  the graph build, CSV parsing and the text caches block the result.
- moons-sweep-6k: one operation is one gl_segment or mbo_segment call on a
  graph and bases built once in setup. Chosen because at K = 3 the solver
  layer does almost all the timed work; CLI, CSV and caches are bypassed.
- mixture-k10-sweep: the same at K = 10, n_e = 50, D = 784 on an
  MNIST-shaped mixture. Chosen because there the K-dependent solver ops
  carry the cost and the distance kernel dominates setup, so a solver change
  that helps one K and costs the other shows on one of the two sweeps.

Graph and solver parameters are the README presets. Solver seeds run over a
fixed list; the workload seed only generates the data.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.csgraph import connected_components

from graphseg import cli, data, gl, graph, mbo, spectral
from graphseg.evaluate import accuracy

from mixture import generate_mixture
from tracing import Tracer

SETUP_REPEATS = 5
# share of a traced run spent untraced, to measure the tracing overhead
UNTRACED_SHARE = 0.4
# Every solve must beat labelling all nodes with the largest class by this
# margin. MBO freezing on moons 6k at dt = 0.1 drops single seeds to about
# 0.6; that stays a measured accuracy, not a failed operation.
ACCURACY_MARGIN = 0.1


def _moons(seed):
    return data.generate_three_moons(data.MoonsSpec(points_per_class=2000, seed=seed))


@dataclass(frozen=True)
class Sweep:
    make_data: object
    weights: graph.WeightSpec
    per_class: object  # int per class, or float share sampled proportionally
    gl_config: gl.GLConfig
    mbo_config: mbo.MBOConfig
    eig_tol: float = 1e-6
    fidelity_seeds: tuple = tuple(range(16))


SWEEPS = {
    "moons-sweep-6k": Sweep(
        make_data=_moons,
        weights=graph.WeightSpec(kind="local_scaling", neighbors=10, m_scale=17),
        per_class=25,
        gl_config=gl.GLConfig(n_e=15, dt=0.1, mu=30.0, eta=1e-7),
        mbo_config=mbo.MBOConfig(n_e=20, dt=0.1, mu=30.0, n_s=3, eta=1e-7),
    ),
    "mixture-k10-sweep": Sweep(
        make_data=generate_mixture,
        weights=graph.WeightSpec(kind="local_scaling", neighbors=8, m_scale=8),
        per_class=0.05,  # 250 of 5000, proportional to class sizes
        gl_config=gl.GLConfig(n_e=50, dt=0.15, mu=50.0, eta=1e-7),
        mbo_config=mbo.MBOConfig(n_e=50, dt=0.15, mu=50.0, n_s=3, eta=1e-7),
    ),
}

CLI_SEEDS = (0, 1, 2, 3)
CLI_EIG_TOL = 1e-8  # the eigs command's default --tol
WORKLOADS = ("moons-cli-6k", *SWEEPS)


class CheckFailed(Exception):
    pass


@dataclass
class Run:
    """Outcomes of one benchmark run: timing samples, exact counts, checks."""

    samples: dict = field(default_factory=dict)  # name -> one value per operation
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    timed_s: float = 0.0
    solves: int = 0
    # first result of each (solver, fidelity seed): accuracy, iterations, converged
    first: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    cycle: int = 0  # operations in one pass over the seed list
    by_phase: dict = field(default_factory=dict)  # (phase, key) -> op seconds

    def fail(self, what, exc):
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def record(self, solver, fid_seed, labels, iterations, converged, acc, solve_s):
        """Check determinism against the first result of this seed and keep
        the timing samples."""
        key = (solver, fid_seed)
        if key in self.first:
            if not np.array_equal(labels, self.first[key]["labels"]):
                raise CheckFailed(f"{solver} seed {fid_seed}: labels differ from the first run")
        else:
            self.first[key] = dict(labels=labels, accuracy=acc, iterations=iterations,
                                   converged=converged)
        self.samples.setdefault(f"{solver}_solve_s", []).append(solve_s)
        self.samples.setdefault(f"{solver}_iterations", []).append(iterations)

    def op_done(self, phase, key, seconds, solves):
        self.by_phase.setdefault((phase, key), []).append(seconds)
        if phase != "untraced":
            self.timed_s += seconds
            self.solves += solves


def _check_labels(labels, ds, what):
    """Shape, range and accuracy floor of predicted labels; returns accuracy."""
    labels = np.asarray(labels)
    n, k = ds.labels.size, ds.n_classes
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        raise CheckFailed(f"{what}: labels have shape {labels.shape}, dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise CheckFailed(f"{what}: labels outside [0, {k})")
    acc = accuracy(labels, ds.labels)
    floor = np.bincount(ds.labels).max() / n + ACCURACY_MARGIN
    if acc < floor:
        raise CheckFailed(f"{what}: accuracy {acc:.4f} below the floor {floor:.4f}")
    return acc


def _check_residuals(laplacian, basis, tol, what):
    vecs, vals = basis.eigenvectors, basis.eigenvalues
    res = np.linalg.norm(laplacian.matrix @ vecs - vecs * vals, axis=0)
    if not np.all(res <= tol):
        raise CheckFailed(f"{what}: eigenpair residual {res.max():.3e} exceeds tol {tol:.1e}")
    return float(res.max())


def _graph_counts(run, lap):
    run.counts["graph.edges"] = lap.graph.n_edges
    run.counts["graph.components"] = int(
        connected_components(lap.graph.weight_matrix(), directed=False)[0])


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _closed_loop(tracer, seconds, trace, cycle, do_op):
    """Call do_op(index, phase) back to back until the time is up.

    A traced run spends its first UNTRACED_SHARE untraced, then traces the
    rest. Every timed phase completes at least one cycle (one pass over the
    seed list), so accuracies cover every seed and call counts repeat
    exactly; spans of the first traced cycle carry op ids 0..cycle-1.
    """
    phases = ([("untraced", UNTRACED_SHARE * seconds), ("traced", seconds)]
              if trace else [("timed", seconds)])
    start = time.perf_counter()
    index = 0
    for phase, end in phases:
        tracer.paused = phase == "untraced"
        tracer.phase = phase
        first = index
        while (time.perf_counter() - start < end
               or (phase != "untraced" and index - first < cycle)):
            tracer.op_id = index - first
            do_op(index, phase)
            index += 1


# ---------------------------------------------------------------- CLI pass


def _cli_commands(work, features_csv, labels_csv, fid_seed):
    g = os.path.join(work, "graph.txt")
    e = os.path.join(work, "eigs.txt")
    solver_flags = ["--fidelity-per-class", "25", "--dt", "0.1", "--mu", "30",
                    "--seed", str(fid_seed)]
    return [
        ["graph", features_csv, "--out", g, "--weight", "local_scaling",
         "--neighbors", "10", "--m-scale", "17"],
        ["eigs", g, "--out", e, "--n-e", "20"],
        ["segment", e, labels_csv, "--out", os.path.join(work, "mbo.csv"),
         "--solver", "mbo", *solver_flags],
        ["segment", e, labels_csv, "--out", os.path.join(work, "gl.csv"),
         "--solver", "gl", *solver_flags],
    ]


def run_cli(seed, seconds, trace, root):
    run = Run(cycle=len(CLI_SEEDS))
    tracer = Tracer()
    work = os.path.join(root, ".bench_out", f"work-moons-cli-6k-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    features_csv = os.path.join(work, "features.csv")
    labels_csv = os.path.join(work, "labels.csv")
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ds = _moons(seed)
            data.save_features_csv(ds.features, features_csv)
            data.save_labels_csv(ds.labels, labels_csv)
            run.setup_s.append(time.perf_counter() - t0)
        state = {}

        def do_op(index, phase):
            fid_seed = CLI_SEEDS[index % len(CLI_SEEDS)]
            run.attempted += 1
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes = [cli.main(argv) for argv in
                             _cli_commands(work, features_csv, labels_csv, fid_seed)]
                elapsed = time.perf_counter() - t0
                with tracer.pause():
                    _check_cli_pass(run, state, work, codes, sink.getvalue(), ds, fid_seed)
            except Exception as exc:  # any crash or bad output fails the operation
                run.fail(f"pass {index} (seed {fid_seed})", exc)
                return
            run.op_done(phase, fid_seed, elapsed, solves=2)
            if phase != "untraced":
                run.samples.setdefault("pipeline_s", []).append(elapsed)

        if trace:
            tracer.install()
        try:
            _closed_loop(tracer, seconds, trace, len(CLI_SEEDS), do_op)
        finally:
            tracer.restore()
        run.counts["graph.cache_bytes"] = os.path.getsize(os.path.join(work, "graph.txt"))
        run.counts["spectral.cache_bytes"] = os.path.getsize(os.path.join(work, "eigs.txt"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.counts["graph.distance_gflop"] = 2 * ds.features.size * ds.labels.size / 1e9
    return run, tracer


def _check_cli_pass(run, state, work, codes, output, ds, fid_seed):
    # exit 3 is non-convergence with results written; it is counted apart
    if any(c not in (0, cli.EXIT_NONCONVERGENCE) for c in codes):
        raise CheckFailed(f"exit codes {codes}: {output.strip()[-300:]}")
    g = os.path.join(work, "graph.txt")
    e = os.path.join(work, "eigs.txt")
    hashes = (_sha256(g), _sha256(e))
    if "hashes" not in state:
        lap = graph.normalized_laplacian(graph.load_graph(g))
        basis = spectral.load_basis(e)
        run.counts["spectral.residual_max"] = _check_residuals(lap, basis, CLI_EIG_TOL, "eigs")
        _graph_counts(run, lap)
        state["hashes"] = hashes
    elif hashes != state["hashes"]:
        raise CheckFailed("graph or eigs cache differs from the first pass")
    for solver in ("mbo", "gl"):
        out = os.path.join(work, f"{solver}.csv")
        labels = np.loadtxt(out, dtype=np.int64, ndmin=1)
        with open(out + ".manifest.json") as f:
            manifest = json.load(f)
        with open(out + ".timings.json") as f:
            solve_s = json.load(f)["solver"]
        acc = _check_labels(labels, ds, f"{solver} seed {fid_seed}")
        run.record(solver, fid_seed, labels, manifest["iterations"], manifest["converged"],
                   acc, solve_s)


# ---------------------------------------------------------------- sweeps


def _check_setup(run, sweep, lap, bases, first):
    """Eigenpair residuals, connectivity, and a bit-identical repeated setup."""
    _graph_counts(run, lap)
    run.counts["spectral.residual_max"] = max(
        _check_residuals(lap, b, sweep.eig_tol, f"n_e={n_e}") for n_e, b in bases.items())
    if first is not None:
        lap0, bases0 = first
        same = (np.array_equal(lap0.matrix.data, lap.matrix.data)
                and all(np.array_equal(bases0[n_e].eigenvectors, b.eigenvectors)
                        for n_e, b in bases.items()))
        if not same:
            raise CheckFailed("repeated setup gave a different graph or basis")


def _solve(run, tracer, ds, sweep, bases, solver, fid_seed):
    """One gl_segment or mbo_segment call, checked; its seconds, or None if
    it failed."""
    if solver == "gl":
        segment, cfg = gl.gl_segment, sweep.gl_config
    else:
        segment, cfg = mbo.mbo_segment, sweep.mbo_config
    run.attempted += 1
    try:
        fidelity = data.sample_fidelity(ds, sweep.per_class, fid_seed, cfg.mu)
        t0 = time.perf_counter()
        result = segment(bases[cfg.n_e], fidelity, replace(cfg, seed=fid_seed))
        elapsed = time.perf_counter() - t0
        with tracer.pause():
            acc = _check_labels(result.labels, ds, f"{solver} seed {fid_seed}")
            run.record(solver, fid_seed, result.labels, result.iterations, result.converged,
                       acc, elapsed)
    except Exception as exc:  # any crash or bad output fails the operation
        run.fail(f"{solver} seed {fid_seed}", exc)
        return None
    return elapsed


def run_sweep(name, seed, seconds, trace):
    """Setup builds the graph and bases, SETUP_REPEATS times; its
    features-to-bases part is the sweep's pipeline_s. The loop then sweeps
    both solvers over the seed list on the last setup's bases."""
    sweep = SWEEPS[name]
    seeds = sweep.fidelity_seeds
    run = Run(cycle=len(seeds))
    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        first = None
        for repeat in range(SETUP_REPEATS):
            tracer.op_id = f"setup{repeat}"
            t0 = time.perf_counter()
            ds = sweep.make_data(seed)
            t1 = time.perf_counter()
            lap = graph.normalized_laplacian(graph.knn_graph(ds.features, sweep.weights))
            bases = {n_e: spectral.smallest_eigenpairs(lap, n_e, tol=sweep.eig_tol)
                     for n_e in sorted({sweep.gl_config.n_e, sweep.mbo_config.n_e})}
            t2 = time.perf_counter()
            run.setup_s.append(t2 - t0)
            run.samples.setdefault("pipeline_s", []).append(t2 - t1)
            with tracer.pause():
                _check_setup(run, sweep, lap, bases, first)
            first = first or (lap, bases)
        del first, lap

        def do_op(index, phase):
            fid_seed = seeds[index % len(seeds)]
            times = [_solve(run, tracer, ds, sweep, bases, solver, fid_seed)
                     for solver in ("gl", "mbo")]
            if None not in times:
                run.op_done(phase, fid_seed, sum(times), solves=2)

        _closed_loop(tracer, seconds, trace, len(seeds), do_op)
    finally:
        tracer.restore()
    run.counts["graph.distance_gflop"] = 2 * ds.features.size * ds.labels.size / 1e9
    return run, tracer
