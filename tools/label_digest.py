"""Print one line per solve of the benchmark's two sweep presets, so that two
revisions, or two BLAS thread counts, can be compared at the level of labels.

    python3 tools/label_digest.py --threads 1 > labels-1.txt

Builds the graph and bases of `moons-sweep-6k` and `mixture-k10-sweep` (the
presets in bench/workloads.py, imported read-only) at data seeds 1 and 2,
then runs GL and MBO at each preset's fidelity seeds (0-15). Each line holds
the SHA-256 of the labels, the iterations, `converged` and the accuracy.
The BLAS thread variables are set from --threads before numpy loads. Uses
the graphseg of the checkout the tool sits in. Run it in two checkouts, or
at two thread counts, and diff the outputs.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_SEEDS = (1, 2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads (default 1)")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    # BLAS pools are sized when numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    from dataclasses import replace

    from graphseg import data, gl, graph, mbo, spectral
    from graphseg.evaluate import accuracy
    from workloads import SWEEPS

    for name, sweep in SWEEPS.items():
        solvers = (("gl", gl.gl_segment, sweep.gl_config),
                   ("mbo", mbo.mbo_segment, sweep.mbo_config))
        for data_seed in DATA_SEEDS:
            ds = sweep.make_data(data_seed)
            lap = graph.normalized_laplacian(graph.knn_graph(ds.features, sweep.weights))
            bases = {n_e: spectral.smallest_eigenpairs(lap, n_e, tol=sweep.eig_tol)
                     for n_e in sorted({cfg.n_e for _, _, cfg in solvers})}
            for solver, segment, cfg in solvers:
                for fid_seed in sweep.fidelity_seeds:
                    fidelity = data.sample_fidelity(ds, sweep.per_class, fid_seed, cfg.mu)
                    result = segment(bases[cfg.n_e], fidelity, replace(cfg, seed=fid_seed))
                    digest = hashlib.sha256(result.labels.tobytes()).hexdigest()
                    print(f"{digest}  {name} data {data_seed} {solver} seed {fid_seed}"
                          f"  iterations {result.iterations}  converged {result.converged}"
                          f"  accuracy {accuracy(result.labels, ds.labels):.6f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
