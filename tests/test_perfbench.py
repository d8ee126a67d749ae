"""The benchmark's per-layer trace must keep seeing every traced function."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    # The tracer reports a name it cannot find as zero instead of failing,
    # so a rename or deletion would silently zero a per-layer metric.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, name in tracing.TRACED:
        module = importlib.import_module(f"glomkit.{layer}")
        assert callable(getattr(module, name, None)), f"glomkit.{layer}.{name}"
