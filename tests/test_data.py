import numpy as np
import pytest

from graphseg.data import (
    LabeledDataset,
    MoonsSpec,
    generate_three_moons,
    load_features_csv,
    load_labels_csv,
    load_mnist_idx,
    sample_fidelity,
    save_features_csv,
    save_labels_csv,
    stratified_subset,
)
from graphseg.fields import FidelitySet
from oracles import write_idx_images, write_idx_labels


class TestThreeMoons:
    def test_shapes_and_label_blocks(self, moons):
        assert moons.features.shape == (1500, 100)
        assert moons.n_classes == 3
        assert np.array_equal(moons.labels, np.repeat([0, 1, 2], 500))

    def test_deterministic_per_seed(self):
        a = generate_three_moons(MoonsSpec(seed=4))
        b = generate_three_moons(MoonsSpec(seed=4))
        c = generate_three_moons(MoonsSpec(seed=5))
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_noiseless_geometry(self):
        ds = generate_three_moons(MoonsSpec(points_per_class=200, noise_sigma=1e-12))
        x, y = ds.features[:, 0], ds.features[:, 1]
        assert np.max(np.abs(ds.features[:, 2:])) <= 1e-9

        top_left = slice(0, 200)
        r = np.hypot(x[top_left], y[top_left])
        assert np.allclose(r, 1.0, atol=1e-9)
        assert np.all(y[top_left] >= -1e-9)

        top_right = slice(200, 400)
        r = np.hypot(x[top_right] - 3.0, y[top_right])
        assert np.allclose(r, 1.0, atol=1e-9)
        assert np.all(y[top_right] >= -1e-9)

        bottom = slice(400, 600)
        r = np.hypot(x[bottom] - 1.5, y[bottom] - 0.4)
        assert np.allclose(r, 1.5, atol=1e-9)
        assert np.all(y[bottom] <= 0.4 + 1e-9)

    def test_noise_on_every_component(self):
        ds = generate_three_moons(MoonsSpec(points_per_class=300, seed=1))
        stds = ds.features[:, 2:].std(axis=0)
        assert np.all(stds > 0.12)
        assert np.all(stds < 0.16)


class TestCsvIO:
    def test_features_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        feats = rng.normal(size=(12, 5))
        path = tmp_path / "f.csv"
        save_features_csv(feats, path)
        assert np.array_equal(load_features_csv(path), feats)

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([0, 2, 1, 1, 0])
        path = tmp_path / "l.csv"
        save_labels_csv(labels, path)
        assert np.array_equal(load_labels_csv(path), labels)

    def test_feature_errors_name_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,x\n")
        with pytest.raises(ValueError, match=":2"):
            load_features_csv(path)
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged"):
            load_features_csv(path)
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_features_csv(path)
        # float() reads all three, as 10, 3 and 1; np.loadtxt reads none
        for cell in ("1_0", "\u0663", "\uff11"):
            path.write_text(f"1.0,2.0\n3.0,{cell}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="bad.csv:2: non-numeric cell"):
                load_features_csv(path)
        # the bad cell on the last of many lines; the blank line is counted
        path.write_text("1.0,2.0\n" * 3000 + "\n" + "1.0,2.0\n" * 3000 + "3.0,x\n")
        with pytest.raises(ValueError, match="bad.csv:6002: non-numeric cell"):
            load_features_csv(path)

    def test_labels_skip_blank_lines(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("0\n\n 2\n\n1\n")
        assert np.array_equal(load_labels_csv(path), [0, 2, 1])

    def test_label_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0\nfoo\n")
        with pytest.raises(ValueError, match=":2"):
            load_labels_csv(path)
        for text in ("", "\n \n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="bad.csv: empty label file"):
                load_labels_csv(path)
        for line in ("-1", "99999999999999999999"):  # the second overflows int64
            path.write_text(f"0\n{line}\n")
            with pytest.raises(ValueError, match="bad.csv:2: label out of range"):
                load_labels_csv(path)
        # int() reads both as integers: 10, and the Arabic-Indic digit 3
        for line in ("1_0", "\u0663"):
            path.write_text(f"0\n{line}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="bad.csv:2: non-integer label"):
                load_labels_csv(path)


class TestIdxIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 3, size=7).astype(np.uint8)
        labels[:3] = [0, 1, 2]  # every class nonempty
        ip, lp = tmp_path / "imgs", tmp_path / "lbls"
        write_idx_images(images, ip)
        write_idx_labels(labels, lp)
        ds = load_mnist_idx(ip, lp)
        assert ds.features.shape == (7, 12)
        assert np.array_equal(ds.features, images.reshape(7, 12) / 255.0)
        assert np.array_equal(ds.labels, labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "imgs"
        path.write_bytes(b"\x00\x00\x08\x05" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            load_mnist_idx(path, path)

    def test_truncated_payload(self, tmp_path):
        import struct

        ip, lp = tmp_path / "imgs", tmp_path / "lbls"
        ip.write_bytes(struct.pack(">4i", 0x803, 2, 2, 2) + b"\x00" * 5)
        write_idx_labels(np.array([0, 1], dtype=np.uint8), lp)
        with pytest.raises(ValueError, match="imgs: truncated IDX payload"):
            load_mnist_idx(ip, lp)
        write_idx_images(np.zeros((2, 2, 2), dtype=np.uint8), ip)
        lp.write_bytes(struct.pack(">2i", 0x801, 2) + b"\x00")
        with pytest.raises(ValueError, match="lbls: truncated IDX payload"):
            load_mnist_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "imgs"
        path.write_bytes(b"\x00\x00\x08\x03" + b"\x00" * 11)
        with pytest.raises(ValueError, match="imgs: truncated IDX header"):
            load_mnist_idx(path, path)

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "imgs", tmp_path / "lbls"
        write_idx_images(np.zeros((3, 2, 2), dtype=np.uint8), ip)
        write_idx_labels(np.array([0, 1], dtype=np.uint8), lp)
        with pytest.raises(ValueError, match="does not match"):
            load_mnist_idx(ip, lp)


class TestFidelitySampling:
    def test_integer_counts(self, blobs):
        fid = sample_fidelity(blobs, 5, seed=0, mu=30.0)
        assert fid.indices.size == 15
        assert np.array_equal(np.bincount(fid.labels), [5, 5, 5])
        assert np.array_equal(blobs.labels[fid.indices], fid.labels)
        assert fid.mu == 30.0

    def test_deterministic_per_seed(self, blobs):
        a = sample_fidelity(blobs, 5, seed=3, mu=1.0)
        b = sample_fidelity(blobs, 5, seed=3, mu=1.0)
        c = sample_fidelity(blobs, 5, seed=4, mu=1.0)
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_fraction_uses_largest_remainder(self):
        # sizes 10, 15, 5 at 30% give quotas 3.0, 4.5, 1.5; floors sum to 8
        # of the rounded total 9, and the extra sample goes to the first of
        # the tied largest remainders (class 1 in stable order)
        features = np.arange(30, dtype=float)[:, None]
        labels = np.repeat([0, 1, 2], [10, 15, 5])
        ds = LabeledDataset(features, labels, 3)
        fid = sample_fidelity(ds, 0.3, seed=0, mu=1.0)
        assert np.array_equal(np.bincount(fid.labels, minlength=3), [3, 5, 1])

    def test_errors(self, blobs):
        with pytest.raises(ValueError, match="fewer"):
            sample_fidelity(blobs, 41, seed=0, mu=1.0)
        with pytest.raises(ValueError, match="at least one"):
            sample_fidelity(blobs, 0.001, seed=0, mu=1.0)


class TestStratifiedSubset:
    def test_proportions_and_membership(self, blobs):
        sub = stratified_subset(blobs, 60, seed=0)
        assert sub.labels.size == 60
        assert np.array_equal(np.bincount(sub.labels), [20, 20, 20])
        # every subset row exists in the original feature matrix
        for row in sub.features:
            assert np.any(np.all(blobs.features == row, axis=1))

    def test_deterministic(self, blobs):
        a = stratified_subset(blobs, 30, seed=5)
        b = stratified_subset(blobs, 30, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError, match="differ"):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 1)
    with pytest.raises(ValueError, match="range"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    with pytest.raises(ValueError, match="nonempty"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 0]), 2)


def test_fidelity_set_builds_one_hot_targets_from_labels():
    fid = FidelitySet([4, 0], [2, 0], 3, 30.0)
    assert np.array_equal(fid.targets, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert fid.targets.dtype == np.float64


@pytest.mark.parametrize("labels", [
    pytest.param([-1, 0], id="negative"),
    pytest.param([0, 3], id="n-classes"),
    pytest.param([0], id="fewer-than-indices"),
])
def test_fidelity_set_rejects_bad_labels(labels):
    with pytest.raises(ValueError, match=r"label in \[0, n_classes\)"):
        FidelitySet([0, 1], labels, 3, 30.0)


@pytest.mark.parametrize("indices, mu, message", [
    pytest.param([1, 1], 30.0, "fidelity indices must be distinct", id="duplicate"),
    pytest.param([-1, 0], 30.0, "fidelity indices must be nonnegative", id="negative"),
    pytest.param([0, 1], -1.0, "mu must be nonnegative", id="negative-mu"),
])
def test_fidelity_set_rejects_bad_indices_and_mu(indices, mu, message):
    with pytest.raises(ValueError, match=message):
        FidelitySet(indices, [0, 1], 3, mu)
