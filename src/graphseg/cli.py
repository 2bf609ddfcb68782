"""Command-line front end: graph construction, eigendecomposition,
segmentation, and multi-seed benchmarks with cached intermediates.

Exit codes: 0 success, 2 invalid input (a ValueError, or an OSError: a file
that cannot be read or written), 3 numerical failure or non-convergence (a
FloatingPointError, or a solver stop at --max-iters; partial results are
still written). A flag that is not given takes the library's default, and a
flag the chosen path does not read is an error. A JSON config file may
replace flags, with explicit flags taking precedence.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from graphseg import data, evaluate, gl, graph, mbo, spectral

EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
# the BLAS reads its thread count from these when numpy is first imported
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_flags(args, read, unread=(), path=None):
    """Keyword arguments of the flags `read` that were given, so that the
    library's defaults stand for the others. The flags `unread` are not read
    on the chosen `path`: giving one on the command line is an error, and a
    config file's value for it is skipped."""
    for name in unread:
        if getattr(args, name) is not None and name not in args.configured:
            raise ValueError(f"--{name.replace('_', '-')} is not read {path}")
    return {name: getattr(args, name) for name in read if getattr(args, name) is not None}


def _weight_spec(args):
    read = {"gaussian": ["sigma"], "local_scaling": ["m_scale"]}.get(args.weight, [])
    kwargs = _read_flags(args, read, [n for n in ("sigma", "m_scale") if n not in read],
                         f"with --weight {args.weight}")
    return graph.WeightSpec(kind=args.weight, neighbors=args.neighbors, **kwargs)


def cmd_graph(args):
    spec = _weight_spec(args)
    features = data.load_features_csv(args.features)
    weights = graph.knn_graph(features, spec)
    graph.save_graph(weights, args.out)
    print(f"wrote {args.out}: {weights.n_vertices} vertices, {weights.n_edges} edges")
    return 0


def cmd_eigs(args):
    if args.nystrom:
        if args.sample is None:
            raise ValueError("--nystrom requires --sample")
        if args.weight not in ("gaussian", "cosine"):
            raise ValueError("--nystrom requires --weight gaussian or --weight cosine")
        gaussian = args.weight == "gaussian"
        kwargs = _read_flags(args, ["sigma"] if gaussian else [],
                             ["tol"] if gaussian else ["tol", "sigma"],
                             f"with --nystrom --weight {args.weight}")
        features = data.load_features_csv(args.input)
        # the Nystrom kernel is fully connected: no neighbor count
        spec = graph.WeightSpec(kind=args.weight, neighbors=1, **kwargs)
        basis = spectral.nystrom_eigenpairs(features, spec, args.sample, args.n_e,
                                            **_read_flags(args, ["seed"]))
    else:
        kwargs = _read_flags(args, ["tol"], ["weight", "sigma", "sample", "seed"],
                             "without --nystrom")
        laplacian = graph.normalized_laplacian(graph.load_graph(args.input))
        basis = spectral.smallest_eigenpairs(laplacian, args.n_e, **kwargs)
    spectral.save_basis(basis, args.out)
    print(f"wrote {args.out}: {basis.n_e} eigenpairs ({basis.method})")
    return 0


def _solver_config(args, n_e):
    shared = ["dt", "mu", "eta", "max_iters", "seed"]
    path = f"with --solver {args.solver}"
    if args.solver == "mbo":
        return mbo.MBOConfig(n_e=n_e, **_read_flags(args, shared + ["n_s"], ["epsilon"], path))
    return gl.GLConfig(n_e=n_e, **_read_flags(args, shared + ["epsilon"], ["n_s"], path))


def cmd_segment(args):
    basis = spectral.load_basis(args.eigs)
    labels = data.load_labels_csv(args.labels)
    if labels.size != basis.n_vertices:
        raise ValueError(
            f"label count {labels.size} does not match basis size {basis.n_vertices}"
        )
    dataset = data.LabeledDataset(np.zeros((labels.size, 1)), labels, int(labels.max()) + 1)
    cfg = _solver_config(args, basis.n_e)
    fidelity = data.sample_fidelity(dataset, args.fidelity_per_class, cfg.seed, cfg.mu)
    segment = gl.gl_segment if args.solver == "gl" else mbo.mbo_segment
    result = segment(basis, fidelity, cfg)

    data.save_labels_csv(result.labels, args.out)
    manifest = {
        "command": "segment",
        "solver": args.solver,
        "config": {k: v for k, v in vars(cfg).items()},
        "fidelity_per_class": args.fidelity_per_class,
        "seed": cfg.seed,
        "inputs": {
            "eigs": {"path": args.eigs, "sha256": _sha256(args.eigs)},
            "labels": {"path": args.labels, "sha256": _sha256(args.labels)},
        },
        "iterations": result.iterations,
        "converged": result.converged,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    if args.solver == "gl":
        manifest["final_energy"] = result.final_energy
    evaluate.write_json(args.out + ".manifest.json", manifest)
    evaluate.write_json(args.out + ".timings.json", {"solver": result.wall_time})
    if not result.converged:
        print("warning: solver did not converge within max iterations", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    print(f"wrote {args.out} ({result.iterations} iterations)")
    return 0


def _load_dataset(args):
    reads = {"moons": ("data_seed",), "csv": ("features", "labels"),
             "mnist": ("mnist_images", "mnist_labels", "subset", "data_seed")}
    own = reads[args.dataset]
    _read_flags(args, [], [n for names in reads.values() for n in names if n not in own],
                f"with --dataset {args.dataset}")
    if args.dataset == "mnist" and args.subset is None:
        _read_flags(args, [], ["data_seed"], "with --dataset mnist without --subset")
    data_seed = args.data_seed or 0
    if args.dataset == "moons":
        return data.generate_three_moons(data.MoonsSpec(seed=data_seed))
    if args.dataset == "csv":
        if not (args.features and args.labels):
            raise ValueError("--dataset csv requires --features and --labels")
        feats = data.load_features_csv(args.features)
        labels = data.load_labels_csv(args.labels)
        return data.LabeledDataset(feats, labels, int(labels.max()) + 1)
    # argparse's choices leave "mnist"
    if not (args.mnist_images and args.mnist_labels):
        raise ValueError("--dataset mnist requires --mnist-images and --mnist-labels")
    ds = data.load_mnist_idx(args.mnist_images, args.mnist_labels)
    if args.subset is not None:
        try:
            ds = data.stratified_subset(ds, args.subset, data_seed)
        except ValueError as exc:
            raise ValueError(f"--subset {args.subset}: {exc}") from None
    return ds


def cmd_bench(args):
    spec = _weight_spec(args)
    cfg = _solver_config(args, args.n_e)
    report = evaluate.run_benchmark(_load_dataset(args), spec, cfg,
                                    per_class=args.fidelity_per_class,
                                    **_read_flags(args, ["n_seeds"]))
    evaluate.write_report(report, args.out)
    print(
        f"mean accuracy over {len(report.seeds)} seeds: {100.0 * report.mean_accuracy:.2f}%"
    )
    if not all(report.converged):
        return EXIT_NONCONVERGENCE
    return 0


def _add_weight_flags(p):
    p.add_argument("--weight", choices=graph.WEIGHT_KINDS, default="local_scaling",
                   help="cosine weights rank neighbors by cosine distance, "
                        "the others by Euclidean distance")
    p.add_argument("--sigma", type=float, help="gaussian weights only")
    p.add_argument("--neighbors", type=int, default=10)
    p.add_argument("--m-scale", type=int, help="local scaling weights only")


def _add_solver_flags(p):
    p.add_argument("--fidelity-per-class", type=int, default=25)
    p.add_argument("--solver", choices=["gl", "mbo"], default="mbo")
    p.add_argument("--epsilon", type=float, help="GL only")
    p.add_argument("--dt", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--n-s", type=int, help="MBO only")
    # MBOConfig's own max_iters is 100; both solvers run to 500 here
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--seed", type=int)


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
    p.add_argument("--tol", type=float,
                   help="residual tolerance of the exact solver")
    p.add_argument("--nystrom", action="store_true")
    p.add_argument("--sample", type=int, help="Nystrom landmark count")
    p.add_argument("--seed", type=int, help="Nystrom landmark seed")
    p.add_argument("--weight", choices=graph.WEIGHT_KINDS,
                   help="Nystrom kernel: gaussian or cosine (required with --nystrom)")
    p.add_argument("--sigma", type=float,
                   help="width of the gaussian Nystrom kernel")
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("segment", help="segment from a cached spectral basis")
    p.add_argument("eigs", help="eigencache file")
    p.add_argument("labels", help="ground-truth labels CSV (fidelity source)")
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("bench", help="multi-seed end-to-end benchmark")
    p.add_argument("--dataset", choices=["moons", "csv", "mnist"], required=True)
    p.add_argument("--out", default="benchmark")
    p.add_argument("--seeds", type=int, dest="n_seeds")
    p.add_argument("--n-e", type=int, default=20)
    p.add_argument("--features")
    p.add_argument("--labels")
    p.add_argument("--mnist-images")
    p.add_argument("--mnist-labels")
    p.add_argument("--subset", type=int, default=None,
                   help="stratified subset size for large datasets")
    p.add_argument("--data-seed", type=int,
                   help="moons and the mnist --subset only (default 0)")
    _add_weight_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def _merge_config_file(parser, argv):
    """Use a JSON config file as flag defaults; explicit flags override.

    One config may serve every subcommand: the running one takes the keys it
    defines as flags and skips the keys only other subcommands define. A key
    that no subcommand defines is an error. Returns the new argv and the
    flag names whose value the config gives: those not also given on the
    command line (every flag that a path may not read defaults to None).
    """
    ns, _ = parser.parse_known_args(argv)
    if not getattr(ns, "config", None):
        return argv, set()
    path = ns.config
    with open(path) as f:
        values = json.load(f)
    if not isinstance(values, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    stages = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
    dests = {name: {flag: a.dest for a in p._actions for flag in a.option_strings
                    if flag.startswith("--") and flag != "--help"}
             for name, p in stages.items()}
    extra, taken = [], set()
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if not any(flag in own for own in dests.values()):
            raise ValueError(f"{path}: config key {key!r} is no subcommand's flag")
        dest = dests[ns.command].get(flag)
        if dest is None:
            continue
        if getattr(ns, dest) is None:
            taken.add(dest)
        if value is True:
            extra.append(flag)
        elif value is not False and value is not None:
            extra.extend([flag, str(value)])
    # insert defaults right after the subcommand so CLI flags win; before it
    # stand only --config and its value, which may have the subcommand's name
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return argv[: i + 1] + extra + argv[i + 1 :], taken


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv, configured = _merge_config_file(parser, argv)
        args = parser.parse_args(argv)
        args.configured = configured
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE if isinstance(exc, FloatingPointError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
