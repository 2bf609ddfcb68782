"""The benchmark's tracer wraps graphseg functions at the (module, attribute)
names listed in its SPANS table; a name missing from a module crashes every
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_callable():
    for span, bindings in load_tracing().SPANS.items():
        for module_name, attr in bindings:
            target = getattr(importlib.import_module(module_name), attr, None)
            assert callable(target), f"span {span}: {module_name}.{attr} is missing"


def test_every_traced_binding_is_reached(tmp_path, blobs, monkeypatch):
    # a refactor that moves a call out of the module whose attribute the
    # tracer wraps leaves that span reading 0; mbo imports project_rows
    # for the tracer only, so nothing calls it there
    from graphseg import cli
    from graphseg.data import save_features_csv, save_labels_csv

    calls = {}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for bindings in load_tracing().SPANS.values():
        for module_name, attr in bindings:
            module = importlib.import_module(module_name)
            calls[module_name, attr] = 0
            monkeypatch.setattr(module, attr, counting((module_name, attr), getattr(module, attr)))
    features, labels = tmp_path / "features.csv", tmp_path / "labels.csv"
    save_features_csv(blobs.features, features)
    save_labels_csv(blobs.labels, labels)
    graph, eigs = tmp_path / "graph.npz", tmp_path / "eigs.npz"
    for argv in (["graph", str(features), "--out", str(graph), "--weight", "gaussian",
                  "--neighbors", "8", "--sigma", "1.0"],
                 ["eigs", str(graph), "--out", str(eigs), "--n-e", "10"],
                 *[["segment", str(eigs), str(labels), "--out", str(tmp_path / f"{solver}.csv"),
                    "--solver", solver, "--fidelity-per-class", "4", "--dt", "1.0"]
                   for solver in ("gl", "mbo")]):
        assert cli.main(argv) == 0
    assert [key for key, count in calls.items() if not count] == [
        ("graphseg.mbo", "project_rows")]
