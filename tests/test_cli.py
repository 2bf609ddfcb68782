import json

import numpy as np
import pytest

from graphseg.cli import main
from graphseg.data import save_features_csv, save_labels_csv


@pytest.fixture()
def blob_files(blobs, tmp_path):
    features = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"
    save_features_csv(blobs.features, features)
    save_labels_csv(blobs.labels, labels)
    return features, labels


def run_pipeline(tmp_path, blob_files, segment_args=()):
    features, labels = blob_files
    graph = tmp_path / "graph.txt"
    eigs = tmp_path / "eigs.txt"
    out = tmp_path / "out.csv"
    assert main([
        "graph", str(features), "--out", str(graph),
        "--weight", "gaussian", "--neighbors", "8", "--sigma", "1.0",
    ]) == 0
    assert main(["eigs", str(graph), "--out", str(eigs), "--n-e", "10"]) == 0
    code = main([
        "segment", str(eigs), str(labels), "--out", str(out),
        "--fidelity-per-class", "4", "--dt", "1.0", *segment_args,
    ])
    return code, out


class TestPipeline:
    def test_end_to_end_mbo(self, tmp_path, blob_files, blobs, capsys):
        code, out = run_pipeline(tmp_path, blob_files)
        assert code == 0
        predicted = np.loadtxt(out, dtype=np.int64)
        assert float(np.mean(predicted == blobs.labels)) >= 0.9
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["solver"] == "mbo"
        assert manifest["converged"] is True
        assert "final_energy" not in manifest
        assert set(manifest["inputs"]) == {"eigs", "labels"}
        timings = json.loads(open(str(out) + ".timings.json").read())
        assert "solver" in timings
        assert "wrote" in capsys.readouterr().out

    def test_end_to_end_gl_manifest_has_energy(self, tmp_path, blob_files):
        code, out = run_pipeline(
            tmp_path, blob_files, segment_args=("--solver", "gl", "--dt", "0.1")
        )
        assert code == 0
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["solver"] == "gl"
        assert isinstance(manifest["final_energy"], float)

    def test_deterministic_outputs(self, tmp_path, blob_files, blobs):
        features, labels = blob_files
        graph = tmp_path / "graph.txt"
        eigs = tmp_path / "eigs.txt"
        main(["graph", str(features), "--out", str(graph),
              "--weight", "gaussian", "--neighbors", "8"])
        main(["eigs", str(graph), "--out", str(eigs), "--n-e", "10"])
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main([
                "segment", str(eigs), str(labels), "--out", str(out),
                "--fidelity-per-class", "4", "--dt", "1.0", "--seed", "3",
            ]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        m0 = open(str(outs[0]) + ".manifest.json", "rb").read()
        m1 = open(str(outs[1]) + ".manifest.json", "rb").read()
        assert m0 == m1

    def test_nonconvergence_exit_code(self, tmp_path, blob_files, capsys):
        code, out = run_pipeline(
            tmp_path,
            blob_files,
            segment_args=("--solver", "gl", "--dt", "0.1", "--max-iters", "1"),
        )
        assert code == 3
        assert out.exists()  # partial result still written
        assert "did not converge" in capsys.readouterr().err


class TestValidation:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "graph", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "g.txt"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_n_e(self, tmp_path, blob_files, capsys):
        features, _ = blob_files
        graph = tmp_path / "graph.txt"
        main(["graph", str(features), "--out", str(graph),
              "--weight", "gaussian", "--neighbors", "8"])
        code = main(["eigs", str(graph), "--out", str(tmp_path / "e.txt"),
                     "--n-e", "0"])
        assert code == 2
        assert "--n-e" in capsys.readouterr().err

    def test_foreign_cache_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.txt"
        bogus.write_text("junk\n")
        code = main(["eigs", str(bogus), "--out", str(tmp_path / "e.txt"),
                     "--n-e", "3"])
        assert code == 2
        assert "edge cache" in capsys.readouterr().err

    def test_bad_solver_parameters(self, tmp_path, blob_files, capsys):
        features, labels = blob_files
        graph = tmp_path / "graph.txt"
        eigs = tmp_path / "eigs.txt"
        main(["graph", str(features), "--out", str(graph),
              "--weight", "gaussian", "--neighbors", "8"])
        main(["eigs", str(graph), "--out", str(eigs), "--n-e", "10"])
        code = main([
            "segment", str(eigs), str(labels), "--out", str(tmp_path / "o.csv"),
            "--solver", "gl", "--epsilon", "-1.0",
        ])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_cosine_weights_choose_their_metric(self, tmp_path, blob_files, capsys):
        features, _ = blob_files
        args = ["graph", str(features), "--out", str(tmp_path / "g.txt"),
                "--weight", "cosine", "--neighbors", "2"]
        assert main(args) == 0
        assert main([*args, "--metric", "euclidean"]) == 2
        assert "cosine_distance metric" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(
        self, tmp_path, blob_files, blobs
    ):
        features, labels = blob_files
        graph = tmp_path / "graph.txt"
        eigs = tmp_path / "eigs.txt"
        main(["graph", str(features), "--out", str(graph),
              "--weight", "gaussian", "--neighbors", "8"])
        main(["eigs", str(graph), "--out", str(eigs), "--n-e", "10"])

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"solver": "gl", "dt": 0.05, "seed": 9}))
        out = tmp_path / "o.csv"
        assert main([
            "--config", str(config), "segment", str(eigs), str(labels),
            "--out", str(out), "--fidelity-per-class", "4", "--dt", "0.1",
        ]) == 0
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["solver"] == "gl"   # from the config file
        assert manifest["config"]["dt"] == 0.1  # CLI flag wins
        assert manifest["config"]["seed"] == 9

    def test_missing_config_file(self, tmp_path, capsys):
        code = main([
            "--config", str(tmp_path / "nope.json"), "bench", "--dataset", "moons",
        ])
        assert code == 2
        assert "config file" in capsys.readouterr().err

    def test_non_object_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code = main(["--config", str(config), "bench", "--dataset", "moons"])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err


class TestBench:
    def test_csv_dataset(self, tmp_path, blob_files, capsys):
        features, labels = blob_files
        out = tmp_path / "bench"
        code = main([
            "bench", "--dataset", "csv",
            "--features", str(features), "--labels", str(labels),
            "--out", str(out), "--seeds", "2", "--n-e", "10",
            "--fidelity-per-class", "4", "--dt", "1.0",
            "--weight", "gaussian", "--neighbors", "8", "--sigma", "1.0",
        ])
        assert code == 0
        assert "mean accuracy" in capsys.readouterr().out
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["seeds"] == [0, 1]
        assert "timings" not in report
        assert (tmp_path / "bench.timings.json").exists()
        assert (tmp_path / "bench.txt").exists()

    def test_unknown_dataset_flags(self, tmp_path, capsys):
        code = main(["bench", "--dataset", "csv", "--out", str(tmp_path / "b")])
        assert code == 2
        assert "requires" in capsys.readouterr().err
