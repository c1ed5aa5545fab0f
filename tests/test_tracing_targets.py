"""The benchmark's tracer (bench/tracing.py) wraps program functions by
module and attribute name, and a missing name stops every traced run. Its
hooks also read attributes of the program's objects (``Block.length``,
``SiteBasis.dim``, ``TruncationRecord.kind``, ``FullHamiltonian.site_dim``).
The first test checks the names without running anything; the second runs a
small DMRG and ED solve under the tracer."""

import importlib
import importlib.util
import json
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = _tracing()
    assert tracing.TARGETS
    missing = [(module, attr) for module, attr, _span in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_tracer_hooks_run_on_a_small_dmrg_and_ed_solve():
    # the calls go through the package attributes the tracer replaces
    import oscdmrg
    from oscdmrg import ChainSpec, DmrgConfig

    tracing = _tracing()
    originals = [(module, attr, getattr(importlib.import_module(module), attr))
                 for module, attr, _span in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        result = oscdmrg.run_dmrg(ChainSpec(5, 1.0, 6),
                                  DmrgConfig(4, 2, n_targets=2, n_sweeps=2))
        oscdmrg.ed_lowest(ChainSpec(3, 1.0, 3), 2)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["dmrg.sweeps"] == result.sweep_energy_trace.size
    assert metrics["lanczos.matvec_cols"] == (metrics["dmrg.matvec_cols"]
                                              + metrics["ed.matvec_cols"])
    assert metrics["dmrg.matvec_cols"] > 0 and metrics["ed.matvec_cols"] > 0
    assert all(getattr(importlib.import_module(module), attr) is orig
               for module, attr, orig in originals)
    json.dumps(tracer.dump())
