"""The benchmark's tracer (bench/tracing.py) wraps program functions by
module and attribute name, and a missing name stops every traced run. This
checks the names without running anything."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [(module, attr) for module, attr, _span in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
