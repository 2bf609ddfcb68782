"""Print one line per eigensolve preset, so that the cost ratio at which
`smallest_eigenpairs` switches to its Chebyshev-filtered route can be
reproduced, and the work each eigensolve does can be read off.

    python3 tools/eigs_table.py > eigs.txt

Builds the benchmark's graphs (bench/workloads.py, imported read-only) at
data seed 1: three moons at N = 1,500, 6,000 and 15,000 with the moons
sweep's weights, each at n_e = 15, 20 and 50, and the K = 10 mixture at
n_e = 20, 30 and 50. Each line holds the cost ratio n * ncv / nnz(L_s),
the best of 3 `smallest_eigenpairs` times, lambda_{n_e}, the largest
residual, and the first 16 hex digits of the SHA-256 of the basis's
eigenvalues (`vals`) and, separately, of its eigenvectors (`vecs`), so
that two checkouts can be compared route by route in bytes. The filtered
route is taken from a ratio of 4 up.

One more, untimed call per preset runs with ARPACK's `eigsh` wrapped in
this process, and the line gives what that call passed and applied: the
route (`plain` on 2I - L_s, `filter` on the Chebyshev filter), `maxiter`
(ARPACK's restart cap), `ncv`, the operator applications, and the
products with L_s they cost. A filter application is _FILTER_DEGREE
products, and the filtered route's first Lanczos pass ncv more.

One BLAS thread; uses the graphseg of the checkout the tool sits in. Run
it in two checkouts and divide the times to get the crossover.
"""

import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_SEED = 1
REPEATS = 3
MOONS_SIZES = (500, 2000, 5000)  # points per class
MOONS_N_E = (15, 20, 50)
MIXTURE_N_E = (20, 30, 50)


def counted_eigsh(spectral, lap, n_e, tol):
    """Run smallest_eigenpairs with eigsh wrapped; return the route, the
    eigsh keyword arguments, the operator applications and the L_s
    products."""
    import scipy.sparse as sp

    spla = spectral.spla
    inner, seen = spla.eigsh, {}

    def eigsh(op, **kwargs):
        def apply(v):
            seen["applied"] += 1
            return op @ v

        seen.update(kwargs, applied=0, plain=sp.issparse(op))
        return inner(spla.LinearOperator(op.shape, matvec=apply, dtype=op.dtype), **kwargs)

    spla.eigsh = eigsh
    try:
        spectral.smallest_eigenpairs(lap, n_e, tol=tol)
    finally:
        spla.eigsh = inner
    applied, ncv = seen["applied"], seen["ncv"]
    if seen["plain"]:
        return "plain", seen, applied, applied
    return "filter", seen, applied, applied * spectral._FILTER_DEGREE + ncv


def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def main():
    # BLAS pools are sized when numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import numpy as np

    from graphseg import data, graph, spectral
    from workloads import SWEEPS

    moons, mixture = SWEEPS["moons-sweep-6k"], SWEEPS["mixture-k10-sweep"]
    presets = [(f"moons-{3 * per_class}",
                lambda p=per_class: data.generate_three_moons(
                    data.MoonsSpec(points_per_class=p, seed=DATA_SEED)),
                moons, MOONS_N_E) for per_class in MOONS_SIZES]
    presets.append(("mixture-k10", lambda: mixture.make_data(DATA_SEED), mixture,
                    MIXTURE_N_E))
    for name, make_data, sweep, n_es in presets:
        lap = graph.normalized_laplacian(graph.knn_graph(make_data().features, sweep.weights))
        ls = lap.matrix
        n = ls.shape[0]
        for n_e in n_es:
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                basis = spectral.smallest_eigenpairs(lap, n_e, tol=sweep.eig_tol)
                times.append(time.perf_counter() - start)
            vecs, vals = basis.eigenvectors, basis.eigenvalues
            residual = np.linalg.norm(ls @ vecs - vecs * vals, axis=0).max()
            route, kwargs, applied, products = counted_eigsh(spectral, lap, n_e, sweep.eig_tol)
            print(f"{name:<12} n_e {n_e:>2}  ratio {n * kwargs['ncv'] / ls.nnz:5.2f}"
                  f"  best {min(times):.4f} s  lambda {vals[-1]:.12f}"
                  f"  residual {residual:.2e}  {route:<6}  maxiter {kwargs['maxiter']:>3}"
                  f"  ncv {kwargs['ncv']:>3}  applied {applied:>4}  products {products:>5}"
                  f"  vals {digest(vals)}  vecs {digest(vecs)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
