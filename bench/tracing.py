"""Spans around graphseg's public functions, recorded from outside `src/`.

Each wrapper is installed at the name its caller looks up at call time:
module globals (`gl_segment` resolves `gl_step` and `project_rows` in
`graphseg.gl` on every iteration) and module attributes (`cli` imports
`knn_graph` and friends from their modules inside each command). A span
is [name, start, end, parent index, operation id, phase]; spans stay in
memory and are written once the run ends.
"""

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# span name -> the (module, attribute) bindings that reach it
SPANS = {
    "data.load_features": [("graphseg.data", "load_features_csv")],
    "data.load_labels": [("graphseg.data", "load_labels_csv")],
    "data.save_labels": [("graphseg.data", "save_labels_csv")],
    "data.sample_fidelity": [("graphseg.data", "sample_fidelity")],
    "graph.knn": [("graphseg.graph", "knn_graph")],
    "graph.laplacian": [("graphseg.graph", "normalized_laplacian")],
    "graph.save": [("graphseg.graph", "save_graph")],
    "graph.load": [("graphseg.graph", "load_graph")],
    "spectral.eigs": [("graphseg.spectral", "smallest_eigenpairs")],
    "spectral.save": [("graphseg.spectral", "save_basis")],
    "spectral.load": [("graphseg.spectral", "load_basis")],
    "gl.segment": [("graphseg.gl", "gl_segment")],
    "gl.step": [("graphseg.gl", "gl_step")],
    "gl.well_derivative": [("graphseg.gl", "well_derivative")],
    "gl.energy": [("graphseg.gl", "multiclass_energy")],
    "mbo.segment": [("graphseg.mbo", "mbo_segment")],
    "mbo.diffusion_step": [("graphseg.mbo", "mbo_diffusion_step")],
    "simplex.project_rows": [
        ("graphseg.gl", "project_rows"),
        ("graphseg.mbo", "project_rows"),
        ("graphseg.fields", "project_rows"),
    ],
    "simplex.nearest_vertices": [
        ("graphseg.gl", "nearest_vertices"),
        ("graphseg.mbo", "nearest_vertices"),
    ],
    "fields.stop_ratio": [("graphseg.gl", "stop_ratio"), ("graphseg.mbo", "stop_ratio")],
    "fields.random_label_field": [
        ("graphseg.gl", "random_label_field"),
        ("graphseg.mbo", "random_label_field"),
    ],
    "cli.main": [("graphseg.cli", "main")],
    "cli.graph": [("graphseg.cli", "cmd_graph")],
    "cli.eigs": [("graphseg.cli", "cmd_eigs")],
    "cli.segment": [("graphseg.cli", "cmd_segment")],
}

NAME, START, END, PARENT, OP, PHASE = range(6)


class Tracer:
    """Records nested spans while installed; `install` and `restore` pair up."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self.phase = "setup"
        self._stack = []
        self._originals = []
        self.paused = False

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.op_id, self.phase]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[END] = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def pause(self):
        """Record no spans inside the block (the benchmark's own checks)."""
        paused, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = paused

    def install(self):
        for name, bindings in SPANS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "phase"],
                       "spans": self.spans}, f)

    def _self_and_total(self):
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        total, own, n = defaultdict(float), defaultdict(float), defaultdict(int)
        for index, span in enumerate(self.spans):
            duration = span[END] - span[START]
            total[span[NAME]] += duration
            own[span[NAME]] += duration - child_time[index]
            n[span[NAME]] += 1
        return total, own, n

    def self_totals(self):
        """Self time summed over all spans of each name."""
        return dict(self._self_and_total()[1])

    def layer_metrics(self, count_ops):
        """Per span name: mean duration and mean self time per call, and calls.

        Self time is a span's duration minus its child spans. Calls are
        counted over the spans whose operation id is in `count_ops` (one
        setup and one pass over the workload's seed list), so they repeat
        exactly from run to run.
        """
        total, own, n = self._self_and_total()
        calls = defaultdict(int)
        for span in self.spans:
            if span[OP] in count_ops:
                calls[span[NAME]] += 1
        metrics = {}
        for name in SPANS:
            metrics[f"{name}_s"] = (total[name] / n[name] if n[name] else 0.0, "s")
            metrics[f"{name}.self_s"] = (own[name] / n[name] if n[name] else 0.0, "s")
            metrics[f"{name}.calls"] = (calls[name], "count")
        return metrics
