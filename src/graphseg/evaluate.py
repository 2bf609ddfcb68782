"""Accuracy, graph total variation, and the multi-seed benchmark harness.

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
from graphseg.mbo import mbo_segment
from graphseg.spectral import smallest_eigenpairs

__all__ = [
    "accuracy",
    "graph_tv",
    "BenchmarkReport",
    "run_benchmark",
    "write_json",
    "write_report",
]


def accuracy(predicted, truth):
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth label lengths differ")
    return float(np.mean(predicted == truth))


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


def run_benchmark(dataset, weight_spec, config, per_class, n_seeds=10):
    """Run the full pipeline n_seeds times over a shared graph and spectrum.

    `config` is a GLConfig or MBOConfig and chooses the solver. Run i uses
    seed config.seed + i for both fidelity sampling and solver
    initialization.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    gl = isinstance(config, GLConfig)
    t0 = time.perf_counter()
    lap = normalized_laplacian(knn_graph(dataset.features, weight_spec))
    timings = {"graph": time.perf_counter() - t0}
    t0 = time.perf_counter()
    basis = smallest_eigenpairs(lap, config.n_e)
    timings["eigenvectors"] = time.perf_counter() - t0

    seeds, accs, iters, conv, solver_times = [], [], [], [], []
    for seed in range(config.seed, config.seed + n_seeds):
        fidelity = sample_fidelity(dataset, per_class, seed, config.mu)
        cfg = replace(config, seed=seed)
        result = gl_segment(basis, fidelity, cfg) if gl else mbo_segment(basis, fidelity, cfg)
        seeds.append(seed)
        accs.append(accuracy(result.labels, dataset.labels))
        iters.append(result.iterations)
        conv.append(result.converged)
        solver_times.append(result.wall_time)
    timings["solver"] = solver_times
    return BenchmarkReport(
        solver="gl" if gl else "mbo",
        seeds=seeds,
        accuracies=accs,
        iterations=iters,
        converged=conv,
        mean_accuracy=float(np.mean(accs)),
        timings=timings,
    )


def write_json(path, payload):
    """Write payload as JSON with sorted keys, indent 2 and a final newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_report(report, out):
    """Write the deterministic results to out.json, the timings to
    out.timings.json and a human-readable table to out.txt."""
    payload = asdict(report)
    timings = payload.pop("timings")
    write_json(f"{out}.json", payload)
    write_json(f"{out}.timings.json", timings)
    lines = [
        f"solver: {report.solver}",
        f"mean accuracy: {100.0 * report.mean_accuracy:.2f}%",
        "seed  accuracy  iterations  converged",
    ]
    for s, a, i, c in zip(
        report.seeds, report.accuracies, report.iterations, report.converged
    ):
        lines.append(f"{s:>4}  {100.0 * a:7.2f}%  {i:>10}  {c}")
    with open(f"{out}.txt", "w") as f:
        f.write("\n".join(lines) + "\n")
