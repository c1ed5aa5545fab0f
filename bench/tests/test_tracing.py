"""Spans, self times and the traced run's guards."""

import json
from pathlib import Path

import pytest

import run
import tracing
from tracing import END, NAME, START, Tracer, layer_metrics

oscdmrg = pytest.importorskip("oscdmrg")
import oscdmrg.cli  # noqa: E402,F401
import oscdmrg.dmrg  # noqa: E402


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs or {}]


def test_self_and_busy_times_from_spans():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("dmrg.run", 1.0, 9.0, 0, {"n_sites": 5, "sweeps": 2, "site_records": 4}),
        span("dmrg.solve", 2.0, 6.0, 1, {"full_chain": True}),
        span("lanczos.lowest_k", 2.5, 5.5, 2),
        span("dmrg.matvec", 3.0, 4.0, 3, {"cols": 2, "flops": 2e9}),
        span("fock.project", 6.0, 6.5, 1),
        span("fock.kron", 6.1, 6.2, 5),
    ]
    got = layer_metrics(spans)
    assert got["cli.self_s"] == pytest.approx(2.0)
    assert got["dmrg.self_s"] == pytest.approx(8.0 - 4.0 - 0.5)
    assert got["lanczos.self_s"] == pytest.approx(2.0)
    assert got["fock.busy_s"] == pytest.approx(0.5)
    assert got["dmrg.matvec_gflop_per_s"] == pytest.approx(2.0)
    assert got["dmrg.refine_solves_per_visit"] == pytest.approx(0.25)
    assert got["lanczos.matvec_cols_per_solve"] == pytest.approx(2.0)


def test_traced_dmrg_run_accounts_for_its_time():
    tracer = Tracer()
    spec = oscdmrg.ChainSpec(5, 1.0, 6)
    cfg = oscdmrg.DmrgConfig(kept_states=4, feed_size=2, n_targets=2, n_sweeps=2)
    with tracer.installed():
        res = oscdmrg.run_dmrg(spec, cfg)
    assert oscdmrg.dmrg.lowest_k is oscdmrg.lanczos.lowest_k  # restored
    got = layer_metrics(tracer.spans)
    assert got["dmrg.sweeps"] == len(res.sweep_energy_trace)
    assert got["dmrg.superblock_solves"] == got["lanczos.solves"] > 0
    assert got["dmrg.matvec_cols"] == got["lanczos.matvec_cols"] > 0
    assert got["lanczos.self_s"] + got["dmrg.matvec_s"] == pytest.approx(got["lanczos.busy_s"])
    assert got["dmrg.refine_solves_per_visit"] > 1.0
    run_span = next(s for s in tracer.spans if s[NAME] == "dmrg.run")
    assert got["dmrg.self_s"] < run_span[END] - run_span[START]
    assert json.dumps(tracer.dump())


def test_missing_target_is_loud_and_restores(monkeypatch):
    monkeypatch.delattr(oscdmrg.dmrg, "truncate_block")
    before = oscdmrg.dmrg.superblock_solve
    with pytest.raises(tracing.MissingTarget, match="truncate_block"):
        with Tracer().installed():
            pass
    assert oscdmrg.dmrg.superblock_solve is before


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(layer_metrics([])) | {"trace.overhead_pct"} == set(run.LAYER_UNITS)
