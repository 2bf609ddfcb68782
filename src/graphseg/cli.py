"""Command-line front end: graph construction, eigendecomposition,
segmentation, and multi-seed benchmarks with cached intermediates.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence
(partial results are still written). GRAPHSEG_THREADS caps the BLAS/OpenMP
thread pools; a JSON config file may replace flags, with explicit flags
taking precedence.
"""

import argparse
import hashlib
import json
import os
import sys

EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3


def _cap_threads():
    cap = os.environ.get("GRAPHSEG_THREADS")
    if cap:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, cap)


class ValidationError(Exception):
    pass


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require_file(path):
    if not os.path.isfile(path):
        raise ValidationError(f"input file not found: {path}")
    return path


def _weight_spec(args):
    from graphseg.graph import WeightSpec

    try:
        return WeightSpec(
            kind=args.weight,
            neighbors=args.neighbors,
            sigma=args.sigma,
            m_scale=args.m_scale,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _write_manifest(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_graph(args):
    from graphseg.data import load_features_csv
    from graphseg.graph import knn_graph, save_graph

    spec = _weight_spec(args)
    features = load_features_csv(_require_file(args.features))
    try:
        graph = knn_graph(features, spec, metric=args.metric)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    save_graph(graph, args.out)
    print(f"wrote {args.out}: {graph.n_vertices} vertices, {graph.n_edges} edges")
    return 0


def cmd_eigs(args):
    from graphseg.spectral import (
        EigensolverError,
        nystrom_eigenpairs,
        save_basis,
        smallest_eigenpairs,
    )

    if args.n_e < 1:
        raise ValidationError("--n-e must be >= 1")
    if args.nystrom:
        from graphseg.data import load_features_csv

        if args.sample is None:
            raise ValidationError("--nystrom requires --sample")
        import numpy as np

        features = load_features_csv(_require_file(args.input))
        spec = _weight_spec(args)
        try:
            basis = nystrom_eigenpairs(
                features, spec, args.sample, args.n_e, seed=args.seed
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        except np.linalg.LinAlgError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGENCE
    else:
        from graphseg.graph import load_graph, normalized_laplacian

        graph = load_graph(_require_file(args.input))
        if args.n_e > graph.n_vertices:
            raise ValidationError("--n-e exceeds the number of vertices")
        try:
            lap = normalized_laplacian(graph)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        try:
            basis = smallest_eigenpairs(lap, args.n_e, tol=args.tol, seed=args.seed)
        except EigensolverError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGENCE
    save_basis(basis, args.out)
    print(f"wrote {args.out}: {basis.n_e} eigenpairs ({basis.method})")
    return 0


def _solver_config(args, n_e):
    from graphseg.gl import GLConfig
    from graphseg.mbo import MBOConfig

    try:
        if args.solver == "gl":
            return GLConfig(
                n_e=n_e,
                epsilon=args.epsilon,
                dt=args.dt,
                mu=args.mu,
                eta=args.eta,
                c=args.convexity,
                max_iters=args.max_iters,
                seed=args.seed,
            )
        return MBOConfig(
            n_e=n_e,
            dt=args.dt,
            mu=args.mu,
            n_s=args.n_s,
            eta=args.eta,
            max_iters=args.max_iters,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def cmd_segment(args):
    import numpy as np

    from graphseg.data import load_labels_csv, save_labels_csv, sample_fidelity, LabeledDataset
    from graphseg.gl import gl_segment
    from graphseg.mbo import mbo_segment
    from graphseg.spectral import load_basis

    basis = load_basis(_require_file(args.eigs))
    labels = load_labels_csv(_require_file(args.labels))
    if labels.size != basis.n_vertices:
        raise ValidationError(
            f"label count {labels.size} does not match basis size {basis.n_vertices}"
        )
    n_classes = int(labels.max()) + 1
    dataset = LabeledDataset(
        features=np.zeros((labels.size, 1)),
        labels=labels,
        n_classes=n_classes,
    )
    cfg = _solver_config(args, basis.n_e)
    try:
        fidelity = sample_fidelity(
            dataset, args.fidelity_per_class, args.seed, args.mu
        )
        result = (
            gl_segment(basis, fidelity, cfg)
            if args.solver == "gl"
            else mbo_segment(basis, fidelity, cfg)
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    save_labels_csv(result.labels, args.out)
    manifest = {
        "command": "segment",
        "solver": args.solver,
        "config": {k: v for k, v in vars(cfg).items()},
        "fidelity_per_class": args.fidelity_per_class,
        "seed": args.seed,
        "inputs": {
            "eigs": {"path": args.eigs, "sha256": _sha256(args.eigs)},
            "labels": {"path": args.labels, "sha256": _sha256(args.labels)},
        },
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if args.solver == "gl":
        manifest["final_energy"] = result.final_energy
    _write_manifest(args.out + ".manifest.json", manifest)
    _write_manifest(args.out + ".timings.json", {"solver": result.wall_time})
    if not result.converged:
        print("warning: solver did not converge within max iterations", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    print(f"wrote {args.out} ({result.iterations} iterations)")
    return 0


def _load_dataset(args):
    from graphseg import data

    if args.dataset == "moons":
        return data.generate_three_moons(
            data.MoonsSpec(seed=args.data_seed)
        )
    if args.dataset == "csv":
        if not (args.features and args.labels):
            raise ValidationError("--dataset csv requires --features and --labels")
        feats = data.load_features_csv(_require_file(args.features))
        labels = data.load_labels_csv(_require_file(args.labels))
        if feats.shape[0] != labels.size:
            raise ValidationError("feature rows and label count differ")
        return data.LabeledDataset(feats, labels, int(labels.max()) + 1)
    if args.dataset == "mnist":
        if not (args.mnist_images and args.mnist_labels):
            raise ValidationError(
                "--dataset mnist requires --mnist-images and --mnist-labels"
            )
        ds = data.load_mnist_idx(
            _require_file(args.mnist_images), _require_file(args.mnist_labels)
        )
        if args.subset:
            ds = data.stratified_subset(ds, args.subset, args.data_seed)
        return ds
    raise ValidationError(f"unknown dataset {args.dataset!r}")


def cmd_bench(args):
    from graphseg.evaluate import run_benchmark, write_report

    dataset = _load_dataset(args)
    spec = _weight_spec(args)
    cfg = _solver_config(args, args.n_e)
    try:
        report = run_benchmark(
            dataset,
            spec,
            args.solver,
            cfg,
            per_class=args.fidelity_per_class,
            n_seeds=args.seeds,
            base_seed=args.seed,
            metric=args.metric,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    out = args.out
    write_report(report, out + ".json", out + ".timings.json", out + ".txt")
    print(
        f"mean accuracy over {args.seeds} seeds: {100.0 * report.mean_accuracy:.2f}%"
    )
    if not all(report.converged):
        return EXIT_NONCONVERGENCE
    return 0


def _add_weight_flags(p):
    p.add_argument("--weight", choices=["gaussian", "local_scaling", "cosine"],
                   default="local_scaling")
    p.add_argument("--neighbors", type=int, default=10)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--m-scale", type=int, default=1)
    p.add_argument("--metric", choices=["euclidean", "cosine_distance"],
                   default=None,
                   help="default: cosine_distance for cosine weights, else euclidean")


def _add_solver_flags(p):
    p.add_argument("--solver", choices=["gl", "mbo"], default="mbo")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--mu", type=float, default=30.0)
    p.add_argument("--eta", type=float, default=1e-7)
    p.add_argument("--convexity", type=float, default=None,
                   help="convexity constant C (default mu + 1/epsilon)")
    p.add_argument("--n-s", type=int, default=3)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphseg",
        description="Graph-based semi-supervised multiclass segmentation",
    )
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build and cache a k-NN weight graph")
    p.add_argument("features", help="headerless CSV of feature rows")
    p.add_argument("--out", required=True)
    _add_weight_flags(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("eigs", help="compute and cache the spectral basis")
    p.add_argument("input", help="graph cache, or features CSV with --nystrom")
    p.add_argument("--out", required=True)
    p.add_argument("--n-e", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--nystrom", action="store_true")
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_weight_flags(p)
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("segment", help="segment from a cached spectral basis")
    p.add_argument("eigs", help="eigencache file")
    p.add_argument("labels", help="ground-truth labels CSV (fidelity source)")
    p.add_argument("--out", required=True)
    p.add_argument("--fidelity-per-class", type=int, default=25)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("bench", help="multi-seed end-to-end benchmark")
    p.add_argument("--dataset", choices=["moons", "csv", "mnist"], required=True)
    p.add_argument("--out", default="benchmark")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--n-e", type=int, default=20)
    p.add_argument("--fidelity-per-class", type=int, default=25)
    p.add_argument("--features")
    p.add_argument("--labels")
    p.add_argument("--mnist-images")
    p.add_argument("--mnist-labels")
    p.add_argument("--subset", type=int, default=None,
                   help="stratified subset size for large datasets")
    p.add_argument("--data-seed", type=int, default=0)
    _add_weight_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def _merge_config_file(parser, argv):
    """Use a JSON config file as flag defaults; explicit flags override."""
    ns, _ = parser.parse_known_args(argv)
    if not getattr(ns, "config", None):
        return argv
    path = ns.config
    if not os.path.isfile(path):
        raise ValidationError(f"config file not found: {path}")
    with open(path) as f:
        values = json.load(f)
    if not isinstance(values, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    extra = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            extra.append(flag)
        elif value is not False and value is not None:
            extra.extend([flag, str(value)])
    # insert defaults right after the subcommand so CLI flags win
    for i, tok in enumerate(argv):
        if tok in ("graph", "eigs", "segment", "bench"):
            return argv[: i + 1] + extra + argv[i + 1 :]
    return argv + extra


def main(argv=None):
    _cap_threads()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _merge_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
