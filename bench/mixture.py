"""MNIST-shaped synthetic stand-in: K = 10 classes, D = 784, N = 5000.

Samples an 8-dim latent Gaussian mixture (class means drawn from
N(0, 1.5^2), unit within-class covariance) and maps it into 784 dims with
one random cosine embedding shared by all classes, plus N(0, 0.05^2) noise.
Classes overlap in the latent space, and the shared embedding keeps the
k-NN graph in one connected component, as on the MNIST subset it stands in
for. Class embeddings drawn per class split the graph into ten components,
on which the sparse eigensolver stalls.
"""

import numpy as np

from graphseg.data import LabeledDataset

# class frequencies of the MNIST training set, digits 0-9
MNIST_CLASS_COUNTS = np.array(
    [5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949], dtype=float
)


def class_sizes(n_samples):
    """Split n_samples over the ten classes in MNIST proportions
    (largest-remainder rounding)."""
    quotas = MNIST_CLASS_COUNTS / MNIST_CLASS_COUNTS.sum() * n_samples
    sizes = np.floor(quotas).astype(np.int64)
    short = n_samples - int(sizes.sum())
    sizes[np.argsort(-(quotas - sizes), kind="stable")[:short]] += 1
    return sizes


def generate_mixture(seed, n_samples=5000, latent_dim=8, ambient_dim=784,
                     mean_sigma=1.5, noise_sigma=0.05):
    """Sample the mixture; labels are contiguous class blocks."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(MNIST_CLASS_COUNTS.size), class_sizes(n_samples))
    means = rng.normal(0.0, mean_sigma, size=(MNIST_CLASS_COUNTS.size, latent_dim))
    latent = means[labels] + rng.standard_normal((n_samples, latent_dim))
    # random Fourier features; frequencies scaled so each phase has unit
    # variance per unit of latent variance
    freqs = rng.standard_normal((latent_dim, ambient_dim)) / np.sqrt(latent_dim)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=ambient_dim)
    features = np.cos(latent @ freqs + phases)
    features += rng.normal(0.0, noise_sigma, size=features.shape)
    return LabeledDataset(features, labels, MNIST_CLASS_COUNTS.size)
