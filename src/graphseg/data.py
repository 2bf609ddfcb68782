"""Dataset generation, CSV/IDX loading, and fidelity sampling.

Includes the synthetic three-moons construction (three noisy half circles
embedded in R^100), headerless CSV feature/label I/O, the big-endian IDX
image format used by MNIST, and per-class fidelity sampling.
"""

import re
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from graphseg.fields import FidelitySet

__all__ = [
    "LabeledDataset",
    "MoonsSpec",
    "generate_three_moons",
    "load_features_csv",
    "save_features_csv",
    "load_labels_csv",
    "save_labels_csv",
    "load_mnist_idx",
    "sample_fidelity",
    "stratified_subset",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
# not int() alone: it also reads 1_0 and non-ASCII digits
_LABEL_PATTERN = re.compile(r"[+-]?[0-9]+")
_LABEL_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with ground-truth class labels in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.features.shape[0] != self.labels.size:
            raise ValueError("feature rows and label count differ")
        if self.labels.size:
            if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
                raise ValueError("labels out of range")
            if np.unique(self.labels).size != self.n_classes:
                raise ValueError("every class must be nonempty")


@dataclass(frozen=True)
class MoonsSpec:
    """Three-moons construction: two top unit half circles at (0,0) and
    (3,0), a bottom half circle of radius 1.5 at (1.5, 0.4), embedded in
    R^100 with i.i.d. Gaussian noise on every component."""

    points_per_class: int = 500
    ambient_dim: int = 100
    noise_sigma: float = 0.14
    seed: int = 0


def generate_three_moons(spec=MoonsSpec()):
    """Sample the three-moons dataset; labels are contiguous 3-class blocks."""
    rng = np.random.default_rng(spec.seed)
    n = spec.points_per_class
    circles = [
        ((0.0, 0.0), 1.0, (0.0, np.pi)),        # top-left, upper half
        ((3.0, 0.0), 1.0, (0.0, np.pi)),        # top-right, upper half
        ((1.5, 0.4), 1.5, (np.pi, 2.0 * np.pi)),  # bottom, lower half
    ]
    features = np.zeros((3 * n, spec.ambient_dim))
    for c, (center, radius, (lo, hi)) in enumerate(circles):
        angles = rng.uniform(lo, hi, size=n)
        features[c * n : (c + 1) * n, 0] = center[0] + radius * np.cos(angles)
        features[c * n : (c + 1) * n, 1] = center[1] + radius * np.sin(angles)
    features += rng.normal(0.0, spec.noise_sigma, size=features.shape)
    labels = np.repeat(np.arange(3), n)
    return LabeledDataset(features, labels, 3)


def load_features_csv(path):
    """Parse a headerless CSV of decimal floats, one sample per row."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data")
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
        except UserWarning:
            raise ValueError(f"{path}: empty feature file") from None
        except ValueError as exc:
            error = exc
    # loadtxt counts rows from 0 in one message and from 1 in another
    with open(path) as f:
        rows = ((n, line.split(",")) for n, line in enumerate(f, start=1) if line != "\n")
        width = None
        for lineno, cells in rows:
            try:
                # not float() alone: it also reads 1_0 and non-ASCII digits
                if not all(cell.isascii() and "_" not in cell for cell in cells):
                    raise ValueError
                [float(cell) for cell in cells]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from error
            width = width or len(cells)
            if len(cells) != width:
                raise ValueError(f"{path}:{lineno}: ragged row") from error
    raise ValueError(f"{path}: {error}") from error


def save_features_csv(features, path):
    with open(path, "w") as f:
        for row in np.asarray(features, dtype=float):
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def load_labels_csv(path):
    """Parse one 0-based class index per line: ASCII digits, optionally signed."""
    labels = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if not _LABEL_PATTERN.fullmatch(line):
                raise ValueError(f"{path}:{lineno}: non-integer label")
            labels.append(int(line))
            if not 0 <= labels[-1] <= _LABEL_MAX:
                raise ValueError(f"{path}:{lineno}: label out of range")
    if not labels:
        raise ValueError(f"{path}: empty label file")
    return np.asarray(labels, dtype=np.int64)


def save_labels_csv(labels, path):
    with open(path, "w") as f:
        for v in labels:
            f.write(f"{int(v)}\n")


def _read_idx_header(f, path, expected_magic, n_dims):
    head = f.read(4 * (1 + n_dims))
    if len(head) < 4 * (1 + n_dims):
        raise ValueError(f"{path}: truncated IDX header")
    values = struct.unpack(f">{1 + n_dims}i", head)
    if values[0] != expected_magic:
        raise ValueError(
            f"{path}: bad IDX magic 0x{values[0]:08x}, expected 0x{expected_magic:08x}"
        )
    return values[1:]


def load_mnist_idx(images_path, labels_path):
    """Load an IDX image/label file pair as a flattened [0,1]-scaled dataset."""
    with open(images_path, "rb") as f:
        n, h, w = _read_idx_header(f, images_path, IDX_IMAGE_MAGIC, 3)
        raw = f.read(n * h * w)
        if len(raw) < n * h * w:
            raise ValueError(f"{images_path}: truncated IDX payload")
        features = np.frombuffer(raw, dtype=np.uint8).reshape(n, h * w) / 255.0
    with open(labels_path, "rb") as f:
        (n_labels,) = _read_idx_header(f, labels_path, IDX_LABEL_MAGIC, 1)
        raw = f.read(n_labels)
        if len(raw) < n_labels:
            raise ValueError(f"{labels_path}: truncated IDX payload")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if n != n_labels:
        raise ValueError(
            f"image count {n} does not match label count {n_labels}"
        )
    return LabeledDataset(features, labels, int(labels.max()) + 1)


def _per_class_counts(dataset, per_class):
    """Resolve an integer per-class count or a fractional total per class.

    Fractions sample proportionally to class sizes with largest-remainder
    rounding of the total fraction."""
    class_sizes = np.bincount(dataset.labels, minlength=dataset.n_classes)
    if isinstance(per_class, (int, np.integer)):
        counts = np.full(dataset.n_classes, int(per_class))
    else:
        quotas = per_class * class_sizes.astype(float)
        counts = np.floor(quotas).astype(np.int64)
        short = int(round(quotas.sum())) - int(counts.sum())
        if short > 0:
            order = np.argsort(-(quotas - counts), kind="stable")
            counts[order[:short]] += 1
    if np.any(counts > class_sizes):
        small = int(np.argmax(counts > class_sizes))
        raise ValueError(
            f"class {small} has {class_sizes[small]} samples, fewer than the "
            f"requested {counts[small]}"
        )
    if np.any(counts < 1):
        raise ValueError("sampling needs at least one sample per class")
    return counts


def _pick_per_class(dataset, per_class, seed):
    """Indices drawn uniformly without replacement from each class in turn,
    `per_class` as _per_class_counts reads it."""
    rng = np.random.default_rng(seed)
    counts = _per_class_counts(dataset, per_class)
    return np.concatenate([
        rng.choice(np.flatnonzero(dataset.labels == c), size=counts[c], replace=False)
        for c in range(dataset.n_classes)
    ])


def sample_fidelity(dataset, per_class, seed, mu):
    """Uniform per-class sampling without replacement into a FidelitySet.

    per_class is either an integer count per class or a float fraction of
    the dataset sampled proportionally across classes.
    """
    indices = _pick_per_class(dataset, per_class, seed)
    return FidelitySet(indices, dataset.labels[indices], dataset.n_classes, mu)


def stratified_subset(dataset, n_samples, seed):
    """Class-proportional random subset of a dataset (largest-remainder
    rounding), preserving the original class set."""
    indices = np.sort(_pick_per_class(dataset, n_samples / dataset.labels.size, seed))
    return LabeledDataset(
        dataset.features[indices], dataset.labels[indices], dataset.n_classes
    )
