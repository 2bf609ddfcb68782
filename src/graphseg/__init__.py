"""Semi-supervised multiclass segmentation on weighted graphs.

Two diffuse-interface solvers (Ginzburg-Landau convex splitting and graph
MBO threshold dynamics) operating in a truncated spectral basis of the
symmetric normalized graph Laplacian.
"""

from graphseg.graph import (
    SparseWeightGraph,
    WeightSpec,
    NormalizedLaplacian,
    knn_graph,
    normalized_laplacian,
)
from graphseg.spectral import SpectralBasis, smallest_eigenpairs, nystrom_eigenpairs
from graphseg.simplex import project_rows, nearest_vertices
from graphseg.fields import FidelitySet, random_label_field
from graphseg.gl import GLConfig, gl_segment, gl_step, multiclass_energy, well_derivative
from graphseg.mbo import MBOConfig, mbo_segment, mbo_diffusion_step
from graphseg.data import (
    LabeledDataset,
    MoonsSpec,
    generate_three_moons,
    load_features_csv,
    load_labels_csv,
    load_mnist_idx,
    sample_fidelity,
)
from graphseg.evaluate import accuracy, graph_tv, run_benchmark

__version__ = "0.1.0"
