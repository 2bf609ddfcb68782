"""Accuracy, confusion matrices, graph total variation, and the multi-seed
benchmark harness.

The benchmark builds the graph and spectrum once (one-time costs) and runs
the chosen solver over several fidelity seeds, collecting accuracies,
iteration counts, and per-stage wall times.
"""

import json
import time
from dataclasses import dataclass, asdict, replace

import numpy as np

from graphseg.data import sample_fidelity
from graphseg.gl import GLConfig, gl_segment
from graphseg.graph import knn_graph, normalized_laplacian
from graphseg.mbo import MBOConfig, mbo_segment
from graphseg.spectral import smallest_eigenpairs

__all__ = [
    "accuracy",
    "confusion",
    "graph_tv",
    "BenchmarkReport",
    "run_benchmark",
    "write_report",
]


def accuracy(predicted, truth):
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth label lengths differ")
    return float(np.mean(predicted == truth))


def confusion(predicted, truth, n_classes):
    """K x K count matrix with rows = obtained label, columns = true label."""
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth label lengths differ")
    for name, arr in (("predicted", predicted), ("truth", truth)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{name} labels out of range")
    mat = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(mat, (predicted, truth), 1)
    return mat


def graph_tv(graph, f):
    """Graph total variation (1/2) sum_ij w(i,j) |f_i - f_j|.

    For a {0,1} indicator this equals the weighted cut between the
    indicated set and its complement.
    """
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("graph_tv received non-finite values")
    return float(np.sum(graph.weights * np.abs(f[graph.rows] - f[graph.cols])))


@dataclass(frozen=True)
class BenchmarkReport:
    """Multi-seed benchmark results with stage timings kept separate from
    the deterministic results."""

    solver: str
    seeds: list
    accuracies: list
    iterations: list
    converged: list
    mean_accuracy: float
    timings: dict

    def as_dict(self):
        return asdict(self)


def run_benchmark(
    dataset,
    weight_spec,
    solver,
    config,
    per_class,
    n_seeds=10,
    base_seed=0,
    eig_tol=1e-6,
    metric=None,
    basis=None,
):
    """Run the full pipeline n_seeds times over a shared graph and spectrum.

    Seed schedule is base_seed + run_index, applied to both fidelity
    sampling and solver initialization. `config` is a GLConfig or
    MBOConfig matching `solver` ("gl" or "mbo"). `metric` is passed to
    knn_graph; None picks it from the weight kind. A precomputed basis may
    be supplied to skip the graph and eigenvector stages.
    """
    if solver not in ("gl", "mbo"):
        raise ValueError(f"unknown solver {solver!r}")
    timings = {}
    if basis is None:
        t0 = time.perf_counter()
        graph = knn_graph(dataset.features, weight_spec, metric=metric)
        lap = normalized_laplacian(graph)
        timings["graph"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        basis = smallest_eigenpairs(lap, config.n_e, tol=eig_tol)
        timings["eigenvectors"] = time.perf_counter() - t0
    else:
        timings["graph"] = 0.0
        timings["eigenvectors"] = 0.0

    seeds, accs, iters, conv, solver_times = [], [], [], [], []
    for run in range(n_seeds):
        seed = base_seed + run
        fidelity = sample_fidelity(dataset, per_class, seed, config.mu)
        cfg = replace(config, seed=seed)
        result = gl_segment(basis, fidelity, cfg) if solver == "gl" else mbo_segment(basis, fidelity, cfg)
        seeds.append(seed)
        accs.append(accuracy(result.labels, dataset.labels))
        iters.append(result.iterations)
        conv.append(result.converged)
        solver_times.append(result.wall_time)
    timings["solver"] = solver_times
    return BenchmarkReport(
        solver=solver,
        seeds=seeds,
        accuracies=accs,
        iterations=iters,
        converged=conv,
        mean_accuracy=float(np.mean(accs)),
        timings=timings,
    )


def write_report(report, results_path, timings_path, table_path=None):
    """Emit the machine-readable report (deterministic part and timings in
    separate files) and an optional human-readable table."""
    payload = report.as_dict()
    timings = payload.pop("timings")
    with open(results_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(timings_path, "w") as f:
        json.dump(timings, f, indent=2, sort_keys=True)
        f.write("\n")
    if table_path is not None:
        lines = [
            f"solver: {report.solver}",
            f"mean accuracy: {100.0 * report.mean_accuracy:.2f}%",
            "seed  accuracy  iterations  converged",
        ]
        for s, a, i, c in zip(
            report.seeds, report.accuracies, report.iterations, report.converged
        ):
            lines.append(f"{s:>4}  {100.0 * a:7.2f}%  {i:>10}  {c}")
        with open(table_path, "w") as f:
            f.write("\n".join(lines) + "\n")
