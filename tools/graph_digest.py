"""Print one line per k-NN graph preset, so that two revisions of the k-NN
kernel can be compared byte for byte, with the tiles they screen and their
time.

    python3 tools/graph_digest.py > graphs.txt

Builds the benchmark's inputs (bench/workloads.py, imported read-only) at
data seed 1: three moons at N = 1,500, 6,000 and 15,000 with the moons
sweep's weights, and the K = 10 mixture with its sweep's weights. Then
normal features at n = 517 and 1,030 (D = 5, generator seeded with n) for
each weight kind, with the weights of
tests/test_graph.py::TestMatchesFullSortReference::test_normal_features.

Each line holds the row blocks and the tiles of the float32 screen, seen as
the float32 products that `knn_graph` asks np.matmul for in one untimed
call (blocks as count x rows, "+" between sizes), the best of 3 `knn_graph`
times, the edge count, and the SHA-256 of the rows, columns and weights.

One BLAS thread; uses the graphseg of the checkout the tool sits in. Run it
in two checkouts and diff the outputs, times aside.
"""

import hashlib
import itertools
import os
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_SEED = 1
REPEATS = 3
MOONS_SIZES = (500, 2000, 5000)  # points per class
NORMAL_SIZES = (517, 1030)
NORMAL_DIM = 5


def screened_tiles(graph, np, features, spec):
    """Build the graph once with np.matmul observed in graphseg.graph; return
    the (rows, cols) of each float32 product, in call order."""
    shapes = []

    def matmul(a, b, *args, **kwargs):
        if a.dtype == np.float32:
            shapes.append((a.shape[0], b.shape[1]))
        return np.matmul(a, b, *args, **kwargs)

    graph.np = types.SimpleNamespace(**{**vars(np), "matmul": matmul})
    try:
        graph.knn_graph(features, spec)
    finally:
        graph.np = np
    return shapes


def layout(shapes):
    """Blocks as run lengths of the seed tiles' rows, which come first, and
    the tile count: n blocks make n (n + 1) / 2 tiles."""
    n_blocks = next(b for b in itertools.count(1) if b * (b + 1) // 2 >= len(shapes))
    runs = [f"{len(list(group))}x{rows}"
            for rows, group in itertools.groupby(rows for rows, _ in shapes[:n_blocks])]
    return f"blocks {'+'.join(runs):<12} tiles {len(shapes):>3}"


def main():
    # BLAS pools are sized when numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import numpy as np

    from graphseg import data, graph
    from workloads import SWEEPS

    moons, mixture = SWEEPS["moons-sweep-6k"], SWEEPS["mixture-k10-sweep"]
    presets = [(f"moons-{3 * per_class}",
                lambda p=per_class: data.generate_three_moons(
                    data.MoonsSpec(points_per_class=p, seed=DATA_SEED)).features,
                moons.weights) for per_class in MOONS_SIZES]
    presets.append(("mixture-k10", lambda: mixture.make_data(DATA_SEED).features,
                    mixture.weights))
    normal_specs = {  # as in test_normal_features
        "gaussian": graph.WeightSpec(kind="gaussian", neighbors=7, sigma=1.3),
        "local_scaling": graph.WeightSpec(kind="local_scaling", neighbors=7, m_scale=12),
        "cosine": graph.WeightSpec(kind="cosine", neighbors=7),
    }
    presets += [(f"normal-{n}-{kind}",
                 lambda n=n: np.random.default_rng(n).normal(size=(n, NORMAL_DIM)), spec)
                for n in NORMAL_SIZES for kind, spec in normal_specs.items()]
    for name, make_features, spec in presets:
        features = make_features()
        shapes = screened_tiles(graph, np, features, spec)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            g = graph.knn_graph(features, spec)
            times.append(time.perf_counter() - start)
        digest = hashlib.sha256()
        for array in (g.rows, g.cols, g.weights):
            digest.update(array.tobytes())
        print(f"{name:<25} {layout(shapes)}  best {min(times):.4f} s"
              f"  edges {g.n_edges:>6}  {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
