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
