import json

import numpy as np
import pytest

from graphseg.cli import main
from graphseg.data import save_features_csv, save_labels_csv
from graphseg.graph import SparseWeightGraph, WeightSpec, load_graph, save_graph
from graphseg.spectral import SpectralBasis, save_basis
from oracles import knn_graph_exact_reference, write_idx_images, write_idx_labels


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


def stage_argv(stage, tmp_path, blob_files):
    """Arguments that run `stage` on the blobs, and a file the run writes."""
    features, labels = blob_files
    out = tmp_path / "out"
    if stage == "graph":
        return ["graph", str(features), "--out", str(out)], out
    bench_flags = ["--out", str(out), "--seeds", "1", "--n-e", "10", "--fidelity-per-class",
                   "4", "--weight", "gaussian", "--neighbors", "8"]
    if stage == "bench":
        return ["bench", "--dataset", "csv", "--features", str(features),
                "--labels", str(labels), *bench_flags], tmp_path / "out.json"
    if stage == "bench-mnist":
        # 120 IDX images, 4 x 4, of three classes that light up different rows
        classes = np.repeat(np.arange(3), 40)
        images = np.random.default_rng(2).integers(0, 60, size=(120, 4, 4))
        images[np.arange(120), classes, :] += 180
        write_idx_images(images, tmp_path / "images.idx")
        write_idx_labels(classes, tmp_path / "labels.idx")
        return ["bench", "--dataset", "mnist", "--mnist-images", str(tmp_path / "images.idx"),
                "--mnist-labels", str(tmp_path / "labels.idx"), *bench_flags,
                "--sigma", "3"], tmp_path / "out.json"
    graph, eigs = tmp_path / "graph.txt", tmp_path / "eigs.txt"
    main(["graph", str(features), "--out", str(graph), "--weight", "gaussian", "--neighbors", "8"])
    main(["eigs", str(graph), "--out", str(eigs), "--n-e", "10"])
    return ["segment", str(eigs), str(labels), "--out", str(out),
            "--fidelity-per-class", "4"], out


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

    def test_manifest_records_the_blas_thread_variables(self, tmp_path, blob_files,
                                                       monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        code, out = run_pipeline(tmp_path, blob_files)
        assert code == 0
        threads = json.loads(open(str(out) + ".manifest.json").read())["blas_threads"]
        assert set(threads) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
        assert (threads["OPENBLAS_NUM_THREADS"], threads["MKL_NUM_THREADS"]) == ("3", None)

    def test_end_to_end_gl_manifest_has_energy(self, tmp_path, blob_files):
        code, out = run_pipeline(
            tmp_path, blob_files, segment_args=("--solver", "gl", "--dt", "0.1")
        )
        assert code == 0
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["solver"] == "gl"
        assert isinstance(manifest["final_energy"], float)
        # c = mu + 1/epsilon follows from the two recorded beside it
        assert set(manifest["config"]) == {"n_e", "epsilon", "dt", "mu", "eta", "max_iters",
                                           "seed"}

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

    def test_blow_up_exit_code(self, tmp_path, blob_files, capsys):
        # the fidelity forcing overflows in the first MBO diffusion sub-step
        with np.errstate(over="ignore", invalid="ignore"):
            code, _ = run_pipeline(tmp_path, blob_files, segment_args=(
                "--solver", "mbo", "--mu", "1e306", "--dt", "10"))
        assert code == 3
        assert "non-finite values in the spectral solve" in capsys.readouterr().err


class TestValidation:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "graph", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "g.txt"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [
        pytest.param("missing/g.npz", id="missing-directory"),
        pytest.param(".", id="directory"),
    ])
    def test_unwritable_out(self, tmp_path, blob_files, out, capsys):
        # the OSError exits 2 with its own message, not with a traceback
        out = tmp_path / out
        assert main(["graph", str(blob_files[0]), "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("source, flags, code, message", [
        pytest.param("graph", ["--n-e", "0"], 2, "n_e=0", id="n-e-zero"),
        pytest.param("graph", ["--n-e", "10", "--tol", "1e-300"], 3, "exceeds tol",
                     id="tiny-tol"),
        # the blobs have three components; at these sizes Lanczos returns two zeros
        *[pytest.param("graph", ["--n-e", n_e], 3, "zero eigenvalue of the graph's 3 connected",
                       id=f"missed-zero-n-e-{n_e}") for n_e in ("4", "5")],
        # 10 distinct rows repeated 12 times: the 40 landmarks span rank 10
        pytest.param("repeated", ["--nystrom", "--sample", "40", "--n-e", "5",
                                  "--weight", "gaussian", "--sigma", "3"], 2, "near-singular",
                     id="nystrom-near-singular"),
        # 15 normal rows: 3 cosine landmarks complete 2 degrees to at most 0
        pytest.param("normal", ["--nystrom", "--sample", "3", "--n-e", "1",
                                "--weight", "cosine"], 2, "2 nonpositive degrees",
                     id="nystrom-nonpositive-degrees"),
    ])
    def test_eigs_exit_codes(self, tmp_path, blob_files, source, flags, code, message, capsys):
        features, _ = blob_files
        path = tmp_path / "graph.txt"
        if source == "graph":
            main(["graph", str(features), "--out", str(path),
                  "--weight", "gaussian", "--neighbors", "8"])
        elif source == "repeated":
            path = tmp_path / "repeated.csv"
            rows = np.random.default_rng(0).standard_normal((10, 4))
            save_features_csv(np.repeat(rows, 12, axis=0), path)
        else:
            path = tmp_path / "normal.csv"
            save_features_csv(np.random.default_rng(8).normal(size=(15, 5)), path)
        capsys.readouterr()
        out = tmp_path / "e.txt"
        assert main(["eigs", str(path), "--out", str(out), *flags]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_label_count_must_match_the_basis(self, tmp_path, blob_files, blobs, capsys):
        argv, out = stage_argv("segment", tmp_path, blob_files)
        short = tmp_path / "short.csv"
        save_labels_csv(blobs.labels[:-1], short)
        argv[2] = str(short)
        capsys.readouterr()
        assert main(argv) == 2
        n = blobs.labels.size
        assert f"label count {n - 1} does not match basis size {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_foreign_cache_file(self, tmp_path, blob_files, capsys):
        bogus = tmp_path / "bogus.txt"
        bogus.write_text("junk\n")
        code = main(["eigs", str(bogus), "--out", str(tmp_path / "e.txt"),
                     "--n-e", "3"])
        assert code == 2
        assert "edge cache" in capsys.readouterr().err

        features, labels = blob_files
        graph, eigs = tmp_path / "graph.txt", tmp_path / "eigs.txt"
        main(["graph", str(features), "--out", str(graph),
              "--weight", "gaussian", "--neighbors", "8"])
        main(["eigs", str(graph), "--out", str(eigs), "--n-e", "10"])
        eigs.write_bytes(eigs.read_bytes()[:-200])  # truncated
        capsys.readouterr()
        code = main(["segment", str(eigs), str(labels), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "eigencache" in capsys.readouterr().err

    @pytest.mark.parametrize("cols, message", [
        pytest.param([5], "edge cache", id="out-of-range"),
        pytest.param([2], "vertex 0 is isolated", id="isolated-vertex"),
    ])
    def test_bad_graph_cache(self, tmp_path, cols, message, capsys):
        graph = tmp_path / "graph.txt"
        bad = SparseWeightGraph(3, np.array([1]), np.array(cols), np.array([0.5]))
        save_graph(bad, graph)
        code = main(["eigs", str(graph), "--out", str(tmp_path / "e.txt"), "--n-e", "2"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("stage, flags, message", [
        pytest.param("segment", ["--solver", "gl", "--epsilon", "-1.0"], "epsilon",
                     id="segment-epsilon"),
        pytest.param("graph", ["--neighbors", "120"], "must be < N_D", id="graph-neighbors"),
        pytest.param("bench", ["--fidelity-per-class", "41"], "fewer than the requested 41",
                     id="bench-fidelity-per-class"),
        # 120 images of three classes: subsets of 0 and 2 leave a class empty
        # and 121 asks for more images than there are
        *[pytest.param("bench-mnist", ["--subset", n, "--data-seed", "7"], f"--subset {n}:",
                       id=f"bench-mnist-subset-{n}") for n in ("0", "2", "121")],
    ])
    def test_bad_parameters(self, tmp_path, blob_files, stage, flags, message, capsys):
        argv, out = stage_argv(stage, tmp_path, blob_files)
        capsys.readouterr()
        assert main([*argv, *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage, flags, named", [
        pytest.param("graph", ["--sigma", "2"], "--sigma", id="graph-local-scaling-sigma"),
        pytest.param("graph", ["--weight", "cosine", "--sigma", "2"], "--sigma",
                     id="graph-cosine-sigma"),
        pytest.param("graph", ["--weight", "gaussian", "--m-scale", "3"], "--m-scale",
                     id="graph-gaussian-m-scale"),
        pytest.param("segment", ["--epsilon", "7"], "--epsilon", id="segment-mbo-epsilon"),
        pytest.param("segment", ["--solver", "gl", "--n-s", "4"], "--n-s", id="segment-gl-n-s"),
        pytest.param("bench", ["--m-scale", "3"], "--m-scale", id="bench-gaussian-m-scale"),
        pytest.param("bench", ["--epsilon", "2"], "--epsilon", id="bench-mbo-epsilon"),
        pytest.param("bench", ["--solver", "gl", "--n-s", "4"], "--n-s", id="bench-gl-n-s"),
        pytest.param("bench", ["--subset", "30"], "--subset", id="bench-csv-subset"),
        pytest.param("bench", ["--mnist-images", "x"], "--mnist-images",
                     id="bench-csv-mnist-images"),
        pytest.param("bench", ["--dataset", "moons"], "--features", id="bench-moons-features"),
        pytest.param("bench", ["--dataset", "mnist", "--mnist-images", "x", "--mnist-labels",
                               "y"], "--features", id="bench-mnist-features"),
        pytest.param("bench", ["--data-seed", "7"], "--data-seed", id="bench-csv-data-seed"),
        pytest.param("bench-mnist", ["--data-seed", "7"], "--data-seed",
                     id="bench-mnist-data-seed-without-subset"),
    ])
    def test_flags_the_path_does_not_read(self, tmp_path, blob_files, stage, flags, named,
                                          capsys):
        argv, out = stage_argv(stage, tmp_path, blob_files)
        capsys.readouterr()
        assert main([*argv, *flags]) == 2
        assert f"{named} is not read" in capsys.readouterr().err
        assert not out.exists()

    def test_mnist_reads_data_seed_with_subset_only(self, tmp_path, blob_files, capsys):
        argv, _ = stage_argv("bench-mnist", tmp_path, blob_files)
        assert main(argv) == 0
        assert main([*argv, "--subset", "60", "--data-seed", "7"]) == 0
        capsys.readouterr()
        assert main([*argv, "--data-seed", "7"]) == 2
        assert "with --dataset mnist without --subset" in capsys.readouterr().err

    def test_cosine_weights_choose_their_metric(self, tmp_path, blobs, blob_files):
        features, _ = blob_files
        graph = tmp_path / "g.txt"
        spec = WeightSpec(kind="cosine", neighbors=2)
        assert main(["graph", str(features), "--out", str(graph),
                     "--weight", "cosine", "--neighbors", "2"]) == 0
        got, expected = load_graph(graph), knn_graph_exact_reference(blobs.features, spec)
        for name in ("rows", "cols", "weights"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()

    @pytest.mark.parametrize("argv", [
        pytest.param(["graph", "f.csv", "--out", "g.txt", "--metric", "euclidean"],
                     id="graph-metric"),
        pytest.param(["eigs", "g.txt", "--out", "e.txt", "--n-e", "3", "--metric", "euclidean"],
                     id="eigs-metric"),
        pytest.param(["eigs", "g.txt", "--out", "e.txt", "--n-e", "3", "--neighbors", "7"],
                     id="eigs-neighbors"),
        pytest.param(["eigs", "g.txt", "--out", "e.txt", "--n-e", "3", "--m-scale", "9"],
                     id="eigs-m-scale"),
        pytest.param(["bench", "--dataset", "moons", "--metric", "cosine_distance"],
                     id="bench-metric"),
        # GL runs at c = mu + 1/epsilon, which is not a setting
        pytest.param(["segment", "e.txt", "l.csv", "--out", "s.csv", "--solver", "gl",
                      "--convexity", "40"], id="segment-convexity"),
        pytest.param(["bench", "--dataset", "moons", "--solver", "gl", "--convexity", "40"],
                     id="bench-convexity"),
    ])
    def test_removed_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        pytest.param(["--nystrom", "--weight", "gaussian"], "--nystrom requires --sample",
                     id="nystrom-no-sample"),
        pytest.param(["--nystrom", "--sample", "40"], "--weight gaussian", id="nystrom-default-weight"),
        pytest.param(["--nystrom", "--sample", "40", "--weight", "local_scaling"],
                     "--weight gaussian", id="nystrom-local-scaling"),
        pytest.param(["--nystrom", "--sample", "40", "--weight", "gaussian", "--sigma", "3",
                      "--tol", "1e-8"], "--tol", id="nystrom-tol"),
        pytest.param(["--nystrom", "--sample", "40", "--weight", "cosine", "--sigma", "3"],
                     "--sigma", id="nystrom-cosine-sigma"),
        pytest.param(["--weight", "gaussian"], "--weight", id="exact-weight"),
        pytest.param(["--sigma", "2"], "--sigma", id="exact-sigma"),
        pytest.param(["--sample", "40"], "--sample", id="exact-sample"),
        pytest.param(["--seed", "3"], "--seed", id="exact-seed"),
    ])
    def test_eigs_flags_the_path_does_not_read(self, tmp_path, blob_files, flags, named,
                                               capsys):
        features, _ = blob_files
        source = features
        if "--nystrom" not in flags:
            source = tmp_path / "graph.txt"
            main(["graph", str(features), "--out", str(source), "--weight", "gaussian"])
        out = tmp_path / "e.txt"
        code = main(["eigs", str(source), "--out", str(out), "--n-e", "5", *flags])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_nystrom_reads_its_flags(self, tmp_path, blob_files):
        # the default --sigma is 1.0; a shared config's --tol, which the
        # Nystrom path does not read, is skipped instead of rejected
        features, _ = blob_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tol": 1e-6}))
        common = ["eigs", str(features), "--nystrom", "--sample", "40", "--n-e", "5",
                  "--weight", "gaussian"]
        outs = [tmp_path / f"e{i}.txt" for i in range(4)]
        assert main([*common, "--out", str(outs[0])]) == 0
        assert main([*common, "--out", str(outs[1]), "--sigma", "1"]) == 0
        assert main(["--config", str(config), *common, "--out", str(outs[2])]) == 0
        assert main([*common, "--out", str(outs[3]), "--sigma", "0.5"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        assert outs[0].read_bytes() != outs[3].read_bytes()

    def test_non_finite_eigencache(self, tmp_path, blobs, blob_files, capsys):
        _, labels = blob_files
        eigs = tmp_path / "eigs.txt"
        save_basis(SpectralBasis(np.zeros(2), np.full((blobs.labels.size, 2), np.nan), "exact"),
                   eigs)
        code = main(["segment", str(eigs), str(labels), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "not a graphseg eigencache" in capsys.readouterr().err


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

    def test_config_shared_by_the_stages(self, tmp_path, blob_files, blobs):
        # each stage takes the keys it has a flag for and skips the others
        features, labels = blob_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"neighbors": 8, "weight": "gaussian", "solver": "gl"}))
        graph, flagged = tmp_path / "graph.txt", tmp_path / "flagged.txt"
        assert main(["--config", str(config), "graph", str(features), "--out", str(graph)]) == 0
        assert main(["graph", str(features), "--out", str(flagged),
                     "--neighbors", "8", "--weight", "gaussian"]) == 0
        assert graph.read_bytes() == flagged.read_bytes()
        eigs = tmp_path / "eigs.txt"
        assert main(["--config", str(config), "eigs", str(graph), "--out", str(eigs),
                     "--n-e", "10"]) == 0
        out = tmp_path / "o.csv"
        assert main(["--config", str(config), "segment", str(eigs), str(labels),
                     "--out", str(out), "--fidelity-per-class", "4"]) == 0
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["solver"] == "gl"

    @pytest.mark.parametrize("solver, read", [("gl", "epsilon"), ("mbo", "n_s")])
    def test_config_value_the_solver_does_not_read_is_skipped(self, tmp_path, blob_files,
                                                              solver, read):
        argv, out = stage_argv("segment", tmp_path, blob_files)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epsilon": 2, "n_s": 4}))
        assert main(["--config", str(config), *argv, "--solver", solver, "--dt", "1.0"]) == 0
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["config"][read] == {"epsilon": 2, "n_s": 4}[read]
        assert len({"epsilon", "n_s"} & set(manifest["config"])) == 1

    def test_explicit_flag_the_solver_does_not_read_is_rejected(self, tmp_path, blob_files,
                                                                capsys):
        # the config's value for the key does not excuse the command line's
        argv, out = stage_argv("segment", tmp_path, blob_files)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epsilon": 2}))
        capsys.readouterr()
        assert main(["--config", str(config), *argv, "--solver", "mbo", "--epsilon", "7"]) == 2
        assert "--epsilon is not read with --solver mbo" in capsys.readouterr().err
        assert not out.exists()

    def test_config_dataset_flag_the_path_does_not_read_is_skipped(self, tmp_path,
                                                                   blob_files):
        argv, out = stage_argv("bench", tmp_path, blob_files)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"subset": 30, "mnist_images": "x", "data_seed": 7}))
        assert main(["--config", str(config), *argv]) == 0
        assert out.exists()

    @pytest.mark.parametrize("config_args", [["--config", "graph"], ["--config=graph"]])
    def test_config_file_named_like_the_subcommand(self, tmp_path, blob_files, monkeypatch,
                                                   config_args):
        # the config's flags go after the subcommand, not after its own path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "graph").write_text(json.dumps({"neighbors": 5}))
        features, _ = blob_files
        assert main([*config_args, "graph", str(features), "--out", "g.npz"]) == 0
        assert main(["graph", str(features), "--out", "flagged.npz", "--neighbors", "5"]) == 0
        assert (tmp_path / "g.npz").read_bytes() == (tmp_path / "flagged.npz").read_bytes()

    def test_config_boolean_flag(self, tmp_path, blob_files):
        # true stands for the bare flag
        features, _ = blob_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nystrom": True}))
        common = ["eigs", str(features), "--sample", "40", "--n-e", "5", "--weight", "gaussian"]
        configured, flagged = tmp_path / "configured.txt", tmp_path / "flagged.txt"
        assert main(["--config", str(config), *common, "--out", str(configured)]) == 0
        assert main([*common, "--nystrom", "--out", str(flagged)]) == 0
        assert configured.read_bytes() == flagged.read_bytes()

    def test_config_key_of_no_subcommand_rejected(self, tmp_path, blob_files, capsys):
        features, _ = blob_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"neighbors": 8, "neighbours": 9}))
        code = main(["--config", str(config), "graph", str(features),
                     "--out", str(tmp_path / "g.txt")])
        assert code == 2
        assert "'neighbours'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main([
            "--config", str(tmp_path / "nope.json"), "bench", "--dataset", "moons",
        ])
        assert code == 2
        assert str(tmp_path / "nope.json") in capsys.readouterr().err

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

    def test_moons_dataset(self, tmp_path, capsys):
        # the README's one-shot benchmark, at one seed
        out = tmp_path / "moons_bench"
        assert main(["bench", "--dataset", "moons", "--solver", "mbo", "--n-e", "20",
                     "--seeds", "1", "--out", str(out)]) == 0
        assert "mean accuracy over 1 seeds" in capsys.readouterr().out
        report = json.loads((tmp_path / "moons_bench.json").read_text())
        assert (report["seeds"], report["converged"]) == ([0], [True])
        assert report["mean_accuracy"] >= 0.9

    @pytest.mark.parametrize("config, n_seeds", [({}, 10), ({"seeds": 3}, 3)],
                             ids=["library-default", "config-file"])
    def test_seed_count(self, tmp_path, blob_files, capsys, config, n_seeds):
        # without --seeds, run_benchmark's own default stands
        features, labels = blob_files
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([
            "--config", str(path), "bench", "--dataset", "csv",
            "--features", str(features), "--labels", str(labels),
            "--out", str(tmp_path / "bench"), "--n-e", "10", "--fidelity-per-class", "4",
            "--dt", "1.0", "--weight", "gaussian", "--neighbors", "8", "--sigma", "1.0",
        ]) == 0
        assert f"mean accuracy over {n_seeds} seeds" in capsys.readouterr().out
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["seeds"] == list(range(n_seeds))

    @pytest.mark.parametrize("dataset, inputs, message", [
        pytest.param("csv", "none", "--dataset csv requires --features and --labels",
                     id="no-inputs"),
        pytest.param("mnist", "none", "--dataset mnist requires --mnist-images and --mnist-labels",
                     id="no-mnist-inputs"),
        pytest.param("csv", "mismatched", "feature rows and label count differ",
                     id="mismatched-csvs"),
    ])
    def test_bad_dataset_inputs(self, tmp_path, blob_files, blobs, dataset, inputs, message,
                                capsys):
        argv = ["bench", "--dataset", dataset, "--out", str(tmp_path / "b")]
        if inputs == "mismatched":
            labels = tmp_path / "short.csv"
            save_labels_csv(blobs.labels[:-1], labels)
            argv += ["--features", str(blob_files[0]), "--labels", str(labels)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "b.json").exists()

    def test_unconverged_solve_exit_code(self, tmp_path, blob_files, capsys):
        # one MBO iteration cannot meet the stop test; the report is still written
        argv, out = stage_argv("bench", tmp_path, blob_files)
        assert main([*argv, "--max-iters", "1"]) == 3
        assert "mean accuracy over 1 seeds" in capsys.readouterr().out
        assert not any(json.loads(out.read_text())["converged"])

    def test_eigensolver_failure_exit_code(self, tmp_path, blob_files, capsys):
        # local scaling with N = 2, M = 1 cuts the blobs into five
        # components; on that spectrum the filtered Lanczos does not
        # converge within its 25 restarts at n_e = 10, and the message says
        # why. With N = 10 the blobs have three components, and converge.
        argv, out = stage_argv("bench", tmp_path, blob_files)
        assert main([*argv, "--weight", "local_scaling", "--neighbors", "2"]) == 3
        err = capsys.readouterr().err
        assert "eigensolver did not converge within 25 restarts of 21 Lanczos vectors" in err
        assert "the graph has 5 connected components" in err
        assert not out.exists()
