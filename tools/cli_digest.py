"""Print the exit code of a fixed list of CLI runs and the SHA-256 of every
file they write, so that two revisions can be compared byte for byte.

    python3 tools/cli_digest.py > digest.txt

Writes three moons (N = 1,500, data seed 1) as CSV files into a temporary
directory and runs `python3 -m graphseg.cli` there once per command, with
the graphseg of the checkout the tool sits in and one BLAS thread. The
commands name their files by relative paths, because manifests record input
paths as given. They build graph caches for the three weight kinds, exact
eigencaches on each route of `smallest_eigenpairs` (2I - L_s at n_e = 20,
the Chebyshev filter at n_e = 50, dense LAPACK on a graph of the first 60
feature rows), a Nystrom eigencache, GL and MBO labels and manifests for
fidelity seeds 0-3, GL labels at epsilon 2, one all-defaults `segment`
run, a `bench` report, the README's one-shot `bench --dataset moons` at
one seed and a graph from a config file named `graph`, like the
subcommand, then run cases that must fail; one of them reads a one-key
config file, one a labels file whose class 10 is written `1_0`, one passes
GL the constant c, which follows from --mu and --epsilon, and one asks
`bench` for no seeds. Files named *.timings.json hold wall times and are
skipped.
Run it in two checkouts and diff the outputs. Uses the standard library and
graphseg only.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

EXACT = ["--n-e", "20"]


def bench(labels, out, *flags):
    return ["bench", "--dataset", "csv", "--features", "features.csv", "--labels", labels,
            "--out", out, "--seeds", "2", *EXACT, "--m-scale", "17", "--solver", "gl", *flags]


COMMANDS = [
    ["graph", "features.csv", "--out", "local.npz", "--m-scale", "17"],
    ["graph", "features.csv", "--out", "gaussian.npz", "--weight", "gaussian", "--sigma", "2"],
    ["graph", "features.csv", "--out", "cosine.npz", "--weight", "cosine"],
    ["eigs", "local.npz", "--out", "exact.npz", *EXACT],
    ["eigs", "local.npz", "--out", "filtered.npz", "--n-e", "50"],
    ["graph", "head.csv", "--out", "head.npz"],
    ["eigs", "head.npz", "--out", "head-eigs.npz", *EXACT],
    ["eigs", "features.csv", "--out", "nystrom.npz", *EXACT, "--nystrom", "--sample", "200",
     "--weight", "gaussian", "--sigma", "2"],
    *[["segment", "exact.npz", "labels.csv", "--out", f"{solver}-{seed}.csv",
       "--solver", solver, "--seed", str(seed)]
      for solver in ("gl", "mbo") for seed in range(4)],
    ["segment", "nystrom.npz", "labels.csv", "--out", "defaults.csv"],
    ["segment", "exact.npz", "labels.csv", "--out", "gl-epsilon-2.csv", "--solver", "gl",
     "--epsilon", "2"],
    bench("labels.csv", "bench"),
    ["bench", "--dataset", "moons", "--solver", "mbo", "--n-e", "20", "--seeds", "1", "--out",
     "moons_bench"],
    ["--config", "graph", "graph", "features.csv", "--out", "config-named.npz"],
    # failures: none writes a file, except the stop at --max-iters
    ["segment", "exact.npz", "labels.csv", "--out", "stopped.csv", "--max-iters", "1"],
    ["eigs", "local.npz", "--out", "tiny-tol.npz", *EXACT, "--tol", "1e-300"],
    ["eigs", "repeated.csv", "--out", "singular.npz", "--n-e", "5", "--nystrom",
     "--sample", "40", "--weight", "gaussian", "--sigma", "3"],
    ["eigs", "local.npz", "--out", "no-n-e.npz", "--n-e", "0"],
    ["eigs", "local.npz", "--out", "seeded.npz", *EXACT, "--seed", "3"],
    ["graph", "features.csv", "--out", "dense.npz", "--neighbors", "1500"],
    ["graph", "missing.csv", "--out", "missing.npz"],
    ["segment", "exact.npz", "labels.csv", "--out", "bad.csv", "--solver", "gl",
     "--epsilon", "-1"],
    ["segment", "exact.npz", "underscore.csv", "--out", "underscore-labels.csv"],
    ["segment", "exact.npz", "labels.csv", "--out", "unread.csv", "--epsilon", "7"],
    ["segment", "exact.npz", "labels.csv", "--out", "convexity.csv", "--solver", "gl",
     "--convexity", "40"],
    ["--config", "epsilon.json", "segment", "exact.npz", "labels.csv", "--out",
     "config-unread.csv", "--solver", "mbo", "--epsilon", "7"],
    bench("labels.csv", "few", "--fidelity-per-class", "600"),
    bench("short.csv", "short"),
    bench("labels.csv", "data-seed", "--data-seed", "7"),
    ["bench", "--dataset", "moons", "--seeds", "0", "--out", "empty"],
    ["--config", "missing.json", "graph", "features.csv", "--out", "config.npz"],
    ["graph", "features.csv", "--out", "no-such-dir/g.npz"],
    ["graph", "features.csv", "--out", "."],
]


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    # BLAS pools are sized when numpy is first imported, here and in each run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    from graphseg.data import (MoonsSpec, generate_three_moons, save_features_csv,
                               save_labels_csv)

    moons = generate_three_moons(MoonsSpec(seed=1))
    with tempfile.TemporaryDirectory() as work:
        save_features_csv(moons.features, os.path.join(work, "features.csv"))
        save_labels_csv(moons.labels, os.path.join(work, "labels.csv"))
        save_features_csv(moons.features[:60], os.path.join(work, "head.csv"))
        save_labels_csv(moons.labels[:-1], os.path.join(work, "short.csv"))
        with open(os.path.join(work, "epsilon.json"), "w") as f:
            f.write('{"epsilon": 2}\n')
        with open(os.path.join(work, "graph"), "w") as f:
            f.write('{"neighbors": 5}\n')
        # labels i mod 11, every class nonempty; int() would read 1_0 as 10
        with open(os.path.join(work, "underscore.csv"), "w") as f:
            f.writelines(f"{'1_0' if i % 11 == 10 else i % 11}\n" for i in range(1500))
        # 10 distinct rows repeated 15 times: the landmark block has rank 10
        save_features_csv(moons.features[:10].repeat(15, axis=0),
                          os.path.join(work, "repeated.csv"))
        for argv in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "graphseg.cli", *argv], cwd=work,
                                  capture_output=True)
            print(f"exit {proc.returncode}  {' '.join(argv)}", flush=True)
        for name in sorted(os.listdir(work)):
            if not name.endswith(".timings.json"):
                print(f"{sha256(os.path.join(work, name))}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
