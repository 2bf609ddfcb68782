import json

import numpy as np
import pytest

from graphseg.evaluate import (
    BenchmarkReport,
    accuracy,
    graph_tv,
    run_benchmark,
    write_report,
)
from graphseg.graph import SparseWeightGraph, WeightSpec
from graphseg.mbo import MBOConfig
from oracles import all_subsets, brute_force_cut, confusion, random_connected_graph


class TestAccuracy:
    def test_examples(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
        assert accuracy([0, 1, 2], [0, 1, 1]) == pytest.approx(2 / 3)
        assert accuracy([1], [0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])


class TestConfusion:
    def test_example(self):
        mat = confusion([0, 0, 1, 2], [0, 1, 1, 2], 3)
        assert np.array_equal(mat, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_trace_is_match_count(self):
        rng = np.random.default_rng(50)
        pred = rng.integers(0, 4, size=200)
        truth = rng.integers(0, 4, size=200)
        mat = confusion(pred, truth, 4)
        assert np.trace(mat) == np.sum(pred == truth)
        assert np.array_equal(mat.sum(axis=0), np.bincount(truth, minlength=4))
        assert np.array_equal(mat.sum(axis=1), np.bincount(pred, minlength=4))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="predicted"):
            confusion([3], [0], 3)
        with pytest.raises(ValueError, match="truth"):
            confusion([0], [-1], 3)


class TestGraphTV:
    def test_constant_field_is_zero(self):
        g = random_connected_graph(np.random.default_rng(51), 10)
        assert graph_tv(g, np.full(10, 3.7)) == 0.0

    def test_two_vertex_value(self):
        g = SparseWeightGraph(2, np.array([0]), np.array([1]), np.array([0.8]))
        assert graph_tv(g, np.array([0.0, 2.5])) == pytest.approx(0.8 * 2.5)

    def test_indicator_equals_cut_by_enumeration(self):
        rng = np.random.default_rng(52)
        for n in (4, 6, 8):
            g = random_connected_graph(rng, n)
            for mask in all_subsets(n):
                tv = graph_tv(g, mask.astype(float))
                assert tv == pytest.approx(brute_force_cut(g, mask), rel=1e-12)

    def test_rejects_non_finite(self):
        g = SparseWeightGraph(2, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError):
            graph_tv(g, np.array([np.nan, 0.0]))


class TestBenchmark:
    spec = WeightSpec(kind="gaussian", neighbors=8, sigma=1.0)

    def test_single_seed_mbo(self, blobs):
        report = run_benchmark(
            blobs,
            self.spec,
            MBOConfig(n_e=10, dt=1.0, seed=1),
            per_class=4,
            n_seeds=1,
        )
        assert report.solver == "mbo"
        assert report.seeds == [1]
        assert len(report.accuracies) == 1
        assert report.mean_accuracy == report.accuracies[0]
        assert report.accuracies[0] >= 0.9
        assert set(report.timings) == {"graph", "eigenvectors", "solver"}

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_seed_count_below_one_rejected(self, blobs, monkeypatch, n_seeds):
        # the count is checked before the graph is built
        def no_graph(*args, **kwargs):
            raise AssertionError("knn_graph was called")

        monkeypatch.setattr("graphseg.evaluate.knn_graph", no_graph)
        with pytest.raises(ValueError, match=f"n_seeds must be >= 1, got {n_seeds}"):
            run_benchmark(blobs, self.spec, MBOConfig(n_e=10, dt=1.0), per_class=4,
                          n_seeds=n_seeds)

    def test_results_reproducible_excluding_timings(self, blobs, tmp_path):
        kwargs = dict(
            dataset=blobs,
            weight_spec=self.spec,
            config=MBOConfig(n_e=10, dt=1.0),
            per_class=4,
            n_seeds=3,
        )
        r1 = run_benchmark(**kwargs)
        r2 = run_benchmark(**kwargs)
        write_report(r1, tmp_path / "r1")
        write_report(r2, tmp_path / "r2")
        results = tmp_path / "r1.json"
        assert results.read_bytes() == (tmp_path / "r2.json").read_bytes()
        data = json.loads(results.read_text())
        assert "timings" not in data
        assert data["seeds"] == [0, 1, 2]
        timings = json.loads((tmp_path / "r1.timings.json").read_text())
        assert len(timings["solver"]) == 3

    def test_table_output(self, blobs, tmp_path):
        report = BenchmarkReport(
            solver="mbo",
            seeds=[0],
            accuracies=[0.975],
            iterations=[7],
            converged=[True],
            mean_accuracy=0.975,
            timings={"graph": 0.0, "eigenvectors": 0.0, "solver": [0.0]},
        )
        write_report(report, tmp_path / "r")
        text = (tmp_path / "r.txt").read_text()
        assert "97.50%" in text
        assert "mbo" in text
