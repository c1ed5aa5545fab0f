import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscdmrg
from oscdmrg.cli import _build_parser, _resolve, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text, delimiter=","):
    lines = text.splitlines()
    assert lines[0].startswith("# config:")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:])), delimiter=delimiter))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


def test_analytic_basic(capsys):
    code, out, _ = run_cli(["analytic", "--N", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["quantity", "value"]
    values = {r["quantity"]: float(r["value"]) for r in rows}
    assert values["E_ground"] == pytest.approx(0.7071068, abs=1e-6)
    assert values["gap_12"] == pytest.approx(1.4142136, abs=1e-6)
    assert values["omega_1"] == pytest.approx(math.sqrt(2), abs=1e-6)


def test_analytic_two_sites(capsys):
    code, out, _ = run_cli(["analytic", "--N", "2"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    values = {r["quantity"]: float(r["value"]) for r in rows}
    assert values["E_ground"] == pytest.approx(1.3660254, abs=1e-6)


def test_invalid_size_exits_one(capsys):
    code, out, err = run_cli(["analytic", "--N", "0"], capsys)
    assert code == 1
    assert out == ""
    assert "n_sites" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(["analytic", "--bogus", "3"], capsys)
    assert code == 1
    assert err


def test_empty_feed_exits_one(capsys, monkeypatch):
    # bare mode is --basis-mode bare; --n1 0 is refused before any solve
    monkeypatch.setattr("oscdmrg.cli.run_dmrg", _no_solve)
    code, out, err = run_cli(["dmrg", "--n1", "0"], capsys)
    assert code == 1
    assert out == ""
    assert "feed_size" in err


def test_bad_list_flag_exits_one(capsys):
    code, out, err = run_cli(["scan-basis", "--n-list", "4,x"], capsys)
    assert code == 1
    assert out == ""
    assert "4,x" in err


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 2\nhbar = 1.0\n# comment line\nm = 6\n")
    code, out, _ = run_cli(["analytic", "--config", str(cfg)], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    values = {r["quantity"]: float(r["value"]) for r in rows}
    assert values["E_ground"] == pytest.approx(1.3660254, abs=1e-6)
    # flags take precedence over the file
    code, out, _ = run_cli(["analytic", "--config", str(cfg), "--N", "1"], capsys)
    _, rows = parse_csv(out)
    values = {r["quantity"]: float(r["value"]) for r in rows}
    assert values["E_ground"] == pytest.approx(0.7071068, abs=1e-6)


def test_config_file_unknown_key_exits_three(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("qqq = 3\n")
    code, _, err = run_cli(["analytic", "--config", str(cfg)], capsys)
    assert code == 3
    assert "unknown key" in err


def test_config_file_bad_value_exits_three(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("N = toast\n")
    code, _, err = run_cli(["analytic", "--config", str(cfg)], capsys)
    assert code == 3


def test_config_file_missing_exits_three(capsys):
    code, _, err = run_cli(["analytic", "--config", "/nonexistent/x.cfg"], capsys)
    assert code == 3


_LISTS = "n-list=4,6,8,10 N-list=10,20,30,40,50,60,70,80,90,100"


@pytest.mark.parametrize("command,echo", [
    ("analytic", f"N=50 hbar=1.0 m=14 n=8 n1=4 ntar=1 sweeps=6 basis-mode=both seed=0 "
                 f"{_LISTS} levels=10 delimiter=,"),
    ("ed", f"N=50 hbar=1.0 m=14 n=8 n1=4 ntar=1 sweeps=6 basis-mode=both seed=0 "
           f"{_LISTS} levels=2 delimiter=,"),
    ("dmrg", f"N=50 hbar=1.0 m=14 n=8 n1=4 ntar=1 sweeps=6 basis-mode=optimized seed=0 "
             f"{_LISTS} levels=10 delimiter=,"),
    ("scan-basis", f"N=50 hbar=1.0 m=14 n=8 n1=4 ntar=1 sweeps=6 basis-mode=both seed=0 "
                   f"{_LISTS} levels=10 delimiter=,"),
    ("scan-size", f"N=50 hbar=1.0 m=14 n=10 n1=4 ntar=2 sweeps=6 basis-mode=optimized "
                  f"seed=0 {_LISTS} levels=10 delimiter=,"),
    ("rdm-table", f"N=10 hbar=1.0 m=14 n=8 n1=4 ntar=1 sweeps=6 basis-mode=optimized "
                  f"seed=0 {_LISTS} levels=10 delimiter=,"),
    ("spectrum", f"N=50 hbar=1.0 m=14 n=8 n1=4 ntar=1 sweeps=6 basis-mode=both seed=0 "
                 f"{_LISTS} levels=10 delimiter=,"),
])
def test_config_echo_of_each_command_default(command, echo):
    cfg = _resolve(_build_parser().parse_args([command]))
    assert cfg.echo() == f"command={command} {echo}"


def test_config_echo_merges_file_and_flags(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("N = 12\nhbar = 0.5\nn-list = 6 4\ndelimiter = ;\n")
    args = _build_parser().parse_args(["scan-basis", "--config", str(path), "--basis-mode",
                                       "bare", "--N-list", "3,5", "--seed", "7", "--N", "9"])
    assert _resolve(args).echo() == (
        "command=scan-basis N=9 hbar=0.5 m=14 n=8 n1=4 ntar=1 sweeps=6 basis-mode=bare "
        "seed=7 n-list=6,4 N-list=3,5 levels=10 delimiter=;")


def test_ed_command(capsys):
    code, out, _ = run_cli(["ed", "--N", "2", "--m", "14", "--levels", "2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["level", "energy", "excitation"]
    assert float(rows[0]["energy"]) == pytest.approx(1.3660254, abs=1e-5)
    assert float(rows[1]["excitation"]) == pytest.approx(1.0, abs=1e-5)


def test_spectrum_command(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--N-list", "4,2", "--levels", "3"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "level_index", "excitation_energy"]
    # sorted by N, then level; level counts respected
    assert [(r["N"], r["level_index"]) for r in rows] == [
        ("2", "1"), ("2", "2"), ("2", "3"), ("4", "1"), ("4", "2"), ("4", "3"),
    ]
    by_n = {}
    for r in rows:
        by_n.setdefault(int(r["N"]), []).append(float(r["excitation_energy"]))
    assert by_n[2][0] == pytest.approx(1.0, abs=1e-8)
    # gap (level 1) decreases with N
    assert by_n[4][0] < by_n[2][0]


def test_dmrg_command_writes_file(tmp_path, capsys):
    out_path = tmp_path / "dmrg.csv"
    code, out, _ = run_cli(
        ["dmrg", "--N", "4", "--m", "6", "--n", "4", "--n1", "2", "--ntar", "2",
         "--out", str(out_path)],
        capsys,
    )
    assert code in (0, 2)  # 2 when the sweep loop hit n_sweeps first
    assert out == ""
    header, rows = parse_csv(out_path.read_text())
    values = {r["quantity"]: r["value"] for r in rows}
    assert "energy_0" in values and "gap_12" in values and "S_E" in values
    assert float(values["energy_0"]) == pytest.approx(2.6569, abs=1e-2)


def test_dmrg_non_convergence_names_the_tolerance(capsys):
    # two targets on a 5-site chain still move ~1e-7 per sweep after 6
    args = ["dmrg", "--N", "5", "--m", "8", "--n", "4", "--n1", "2", "--ntar", "2"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    _, rows = parse_csv(out)
    values = {r["quantity"]: r["value"] for r in rows}
    assert values["converged"] == "false"
    trace = oscdmrg.run_dmrg(
        oscdmrg.ChainSpec(5, 1.0, 8),
        oscdmrg.DmrgConfig(kept_states=4, feed_size=2, n_targets=2),
    ).sweep_energy_trace
    delta = abs(trace[-1] - trace[-2])
    assert delta > 1e-8
    assert f"|dE| {delta:.3g}" in err
    assert "energy_tol 1e-08" in err
    assert "solved to tolerance" not in err


def test_dmrg_non_convergence_names_a_loose_sweep_tolerance(capsys, monkeypatch):
    # |dE| meets energy_tol, but every sweep solved to 1e-6, above the 1e-7
    # (10 energy_tol) a sweep needs to declare convergence
    import oscdmrg.dmrg as dmrg_mod

    monkeypatch.setattr(dmrg_mod, "_sweep_tolerance", lambda trace: 1e-6)
    args = ["dmrg", "--N", "6", "--m", "8", "--n", "4", "--basis-mode", "bare"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    _, rows = parse_csv(out)
    assert {r["quantity"]: r["value"] for r in rows}["converged"] == "false"
    trace = oscdmrg.run_dmrg(
        oscdmrg.ChainSpec(6, 1.0, 8), oscdmrg.DmrgConfig(kept_states=4, optimized=False)
    ).sweep_energy_trace
    delta = abs(trace[-1] - trace[-2])
    assert delta < 1e-8
    assert f"|dE| {delta:.3g} met energy_tol" in err
    assert "solved to tolerance 1e-06, above the 1e-07" in err
    assert "energy_tol 1e-08" in err


def test_dmrg_non_convergence_names_a_perturbed_last_sweep(capsys):
    # sweep 3 meets energy_tol at a solve tolerance below 1e-7, but it still
    # perturbs its block truncations (alpha 1e-6), so it may not declare
    args = ["dmrg", "--N", "5", "--m", "8", "--n", "8", "--n1", "2", "--sweeps", "3"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    _, rows = parse_csv(out)
    assert {r["quantity"]: r["value"] for r in rows}["converged"] == "false"
    result = oscdmrg.run_dmrg(oscdmrg.ChainSpec(5, 1.0, 8),
                              oscdmrg.DmrgConfig(kept_states=8, feed_size=2, n_sweeps=3))
    trace = result.sweep_energy_trace
    delta = abs(trace[-1] - trace[-2])
    assert delta < 1e-8 and result.sweep_tolerances[-1] <= 1e-7
    assert f"|dE| {delta:.3g} met energy_tol" in err
    assert "perturbed its density matrices by alpha 1e-06" in err
    assert "solved to tolerance" not in err


def test_dmrg_non_convergence_names_the_tolerance_in_units_of_hbar(capsys):
    # the engine's energy_tol applies to the chain at hbar = 1, so the
    # reported sweep energies at hbar = 2 are held to 2 * 1e-8
    args = ["dmrg", "--N", "5", "--m", "8", "--n", "4", "--n1", "2", "--ntar", "2",
            "--hbar", "2", "--sweeps", "2"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    _, rows = parse_csv(out)
    assert {r["quantity"]: r["value"] for r in rows}["converged"] == "false"
    assert "energy_tol 2e-08" in err


def test_dmrg_non_convergence_names_the_engines_converging_tolerance(capsys, monkeypatch):
    # the exit-2 text comes from the rule the engine applied, so it names the
    # converging tolerance the engine used, not a copy of it
    import oscdmrg.dmrg as dmrg_mod

    monkeypatch.setattr(dmrg_mod, "CONVERGING_TOL", 1e-12)
    args = ["dmrg", "--N", "6", "--m", "8", "--n", "4", "--basis-mode", "bare"]
    code, _out, err = run_cli(args, capsys)
    assert code == 2
    assert "met energy_tol, but that sweep solved to tolerance 1e-10, above the 1e-12" in err


@pytest.mark.parametrize("args,loose", [
    (["--N", "5", "--m", "8", "--n", "4", "--n1", "2", "--ntar", "2"], False),
    (["--N", "6", "--m", "8", "--n", "4", "--basis-mode", "bare"], True),
    (["--N", "5", "--m", "8", "--n", "8", "--n1", "2", "--sweeps", "3"], False),
    (["--N", "5", "--m", "8", "--n", "4", "--n1", "2", "--ntar", "2", "--hbar", "2",
      "--sweeps", "2"], False),
])
def test_dmrg_non_convergence_prints_the_runs_stop_reason(args, loose, capsys, monkeypatch):
    import oscdmrg.dmrg as dmrg_mod

    if loose:
        monkeypatch.setattr(dmrg_mod, "_sweep_tolerance", lambda trace: 1e-6)
    results = []

    def recorded(*run_args, **kwargs):
        results.append(oscdmrg.run_dmrg(*run_args, **kwargs))
        return results[-1]

    monkeypatch.setattr("oscdmrg.cli.run_dmrg", recorded)
    code, _out, err = run_cli(["dmrg", *args], capsys)
    assert code == 2
    [result] = results
    assert not result.converged and result.stop_reason
    assert err == f"oscdmrg: {result.stop_reason}\n"


@pytest.mark.parametrize("command", [["analytic"], ["ed", "--N", "3", "--m", "4"],
                                     ["spectrum", "--N-list", "3", "--levels", "2"]])
def test_infinite_hbar_exits_one(command, capsys):
    code, out, err = run_cli([*command, "--hbar", "inf"], capsys)
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_scan_basis_schema_and_determinism(tmp_path, capsys):
    args = [
        "scan-basis", "--N", "4", "--m", "6", "--n-list", "3,4", "--ntar", "1",
        "--sweeps", "2",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(p1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(p2)], capsys)[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    header, rows = parse_csv(p1.read_text())
    assert header == ["n", "basis_mode", "E_dmrg", "E_exact", "rel_err", "S_E", "status"]
    assert [(r["n"], r["basis_mode"]) for r in rows] == [
        ("3", "bare"), ("3", "optimized"), ("4", "bare"), ("4", "optimized"),
    ]
    for r in rows:
        assert r["status"] in ("ok", "not-converged")
        assert float(r["rel_err"]) >= 0.0


def test_dmrg_failed_solve_exits_two(fail_dmrg_solve, capsys):
    # the sixth solve is sweep 1's second visit of site 5
    fail_dmrg_solve(6)
    code, out, err = run_cli(["dmrg", "--N", "6", "--m", "4", "--n", "3",
                              "--basis-mode", "bare"], capsys)
    assert code == 2
    assert out == ""
    assert "solver did not converge" in err
    assert "superblock solve failed at site 5" in err


def test_scan_basis_reports_a_failed_point_and_goes_on(fail_dmrg_solve, capsys):
    # the first solve is the warmup solve of the first point, n=2
    fail_dmrg_solve(1)
    code, out, _ = run_cli(["scan-basis", "--N", "6", "--m", "4", "--n-list", "2,3",
                            "--basis-mode", "bare", "--sweeps", "2"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["n"] for r in rows] == ["2", "3"]
    assert rows[0]["status"].startswith("error: warmup solve failed at site 2: ")
    assert rows[0]["E_dmrg"] == ""
    assert rows[1]["status"] in ("ok", "not-converged")
    assert float(rows[1]["E_dmrg"]) > 0


def test_scan_basis_single_mode(capsys):
    code, out, _ = run_cli(
        ["scan-basis", "--N", "4", "--m", "6", "--n-list", "4",
         "--basis-mode", "bare", "--ntar", "1", "--sweeps", "2"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0]["basis_mode"] == "bare"


def test_scan_size_schema(capsys):
    code, out, _ = run_cli(
        ["scan-size", "--N-list", "4,3", "--m", "6", "--n", "4", "--n1", "2",
         "--ntar", "2", "--sweeps", "2"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "rel_err_E0", "rel_err_gap", "status"]
    assert [r["N"] for r in rows] == ["3", "4"]


def test_scan_size_requires_two_targets(capsys):
    code, _, err = run_cli(["scan-size", "--ntar", "1"], capsys)
    assert code == 1
    assert "ntar" in err


def test_rdm_table_schema(capsys):
    code, out, _ = run_cli(
        ["rdm-table", "--N", "4", "--m", "6", "--n", "4", "--n1", "2",
         "--sweeps", "2"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "rank"
    assert header[1:] == [f"lambda_ntar{t}" for t in range(1, 6)]
    assert len(rows) == 20
    for t in range(1, 6):
        col = [float(r[f"lambda_ntar{t}"]) for r in rows]
        assert sum(col) == pytest.approx(1.0, abs=1e-8)
        assert all(b <= a + 1e-12 for a, b in zip(col, col[1:]))
    # at this tiny size the per-step trend can reshuffle; the endpoint
    # comparison is robust (the full trend is asserted in the acceptance
    # suite at its stated configuration)
    lam1 = [float(rows[0][f"lambda_ntar{t}"]) for t in range(1, 6)]
    assert lam1[4] < lam1[0]


def test_csv_delimiter_option(capsys):
    code, out, _ = run_cli(["analytic", "--N", "1", "--delimiter", ";"], capsys)
    assert code == 0
    header, rows = parse_csv(out, delimiter=";")
    assert header == ["quantity", "value"]
    assert len(rows) == 3


def _no_solve(*_args, **_kwargs):
    raise AssertionError("a bad option must be rejected before any solve")


# A line break passes as one character, but csv cannot read back the file.
@pytest.mark.parametrize("flag", [["--delimiter", "ab"], ["--delimiter="],
                                  ["--delimiter", "\n"], ["--delimiter", "\r"]])
def test_delimiter_must_be_one_character(flag, capsys, monkeypatch):
    monkeypatch.setattr("oscdmrg.cli.run_dmrg", _no_solve)
    code, out, err = run_cli(["scan-basis", "--N", "4", "--m", "6", *flag], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("oscdmrg: error: --delimiter must be one character")


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key,value,named", [
    ("n1", "0", "feed_size must be >= 1"),
    ("sweeps", "0", "n_sweeps must be >= 1"),
    ("seed", "-1", "seed must be >= 0"),
])
@pytest.mark.parametrize("command", [["scan-basis", "--N", "4", "--m", "4", "--n-list", "2"],
                                     ["scan-size", "--N-list", "4"]])
def test_scans_refuse_bad_run_settings_before_any_solve(command, key, value, named, source,
                                                        tmp_path, capsys, monkeypatch):
    # a scan used to write one error row per point and exit 0
    monkeypatch.setattr("oscdmrg.cli.run_dmrg", _no_solve)
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    given = [f"--{key}", value] if source == "flag" else ["--config", str(path)]
    code, out, err = run_cli([*command, *given], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("oscdmrg: error:")
    assert named in err


def test_ed_refuses_a_negative_seed(capsys, monkeypatch):
    monkeypatch.setattr("oscdmrg.cli.ed_lowest", _no_solve)
    code, out, err = run_cli(["ed", "--N", "3", "--m", "4", "--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert "seed must be >= 0" in err


def test_out_directory_must_exist(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("oscdmrg.cli.run_dmrg", _no_solve)
    target = tmp_path / "missing" / "scan.csv"
    code, out, err = run_cli(["scan-size", "--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("oscdmrg: error: --out directory")
    assert not target.parent.exists()


@pytest.mark.parametrize("command", [["analytic", "--N", "2"], ["scan-size", "--N-list", "4"]])
def test_out_must_not_be_a_directory(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("oscdmrg.cli.run_dmrg", _no_solve)
    code, out, err = run_cli([*command, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("oscdmrg: error: --out")
    assert "is a directory" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["flag", "file"])
def test_basis_mode_must_be_bare_or_optimized(source, tmp_path, capsys, monkeypatch):
    # a bad value from a config file must fail like the flag, not silently
    # run in bare mode
    monkeypatch.setattr("oscdmrg.cli.run_dmrg", _no_solve)
    path = tmp_path / "run.cfg"
    path.write_text("basis-mode = foo\n")
    given = ["--basis-mode", "foo"] if source == "flag" else ["--config", str(path)]
    code, out, err = run_cli(["scan-basis", "--N", "4", "--m", "6", "--n-list", "3",
                              "--sweeps", "2", *given], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("oscdmrg: error: basis-mode must be bare or optimized")
    assert "'foo'" in err


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command,key,value", [("scan-basis", "n-list", ","),
                                               ("scan-size", "N-list", ""),
                                               ("spectrum", "N-list", ",")])
def test_empty_scan_list_is_refused_before_any_solve(command, key, value, source, tmp_path,
                                                      capsys, monkeypatch):
    # else the command prints only its config line and header, and exits 0
    monkeypatch.setattr("oscdmrg.cli.run_dmrg", _no_solve)
    monkeypatch.setattr("oscdmrg.cli.spectrum", _no_solve)
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    given = [f"--{key}", value] if source == "flag" else ["--config", str(path)]
    code, out, err = run_cli([command, *given], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"oscdmrg: error: --{key} names no values")


def test_ed_rejects_zero_levels(capsys):
    code, out, err = run_cli(["ed", "--N", "2", "--m", "6", "--levels", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("oscdmrg: error:")


def test_nine_significant_digits(capsys):
    _, out, _ = run_cli(["analytic", "--N", "2"], capsys)
    _, rows = parse_csv(out)
    values = {r["quantity"]: r["value"] for r in rows}
    assert values["E_ground"] == f"{(1 + math.sqrt(3)) / 2:.9g}"


def test_output_independent_of_blas_threads():
    # the byte-identical promise must survive the BLAS thread count, which
    # changes floating-point summation order below the printed 9 digits
    src = str(Path(oscdmrg.__file__).resolve().parents[1])
    args = ["dmrg", "--N", "5", "--m", "8", "--n", "4", "--n1", "2", "--ntar", "2"]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs.append(subprocess.run(
            [sys.executable, "-m", "oscdmrg.cli", *args],
            env=env, capture_output=True, timeout=300,
        ))
    assert runs[0].returncode in (0, 2)
    assert runs[0].stdout.startswith(b"# config:")
    assert [r.returncode for r in runs[1:]] == [runs[0].returncode]
    assert runs[1].stdout == runs[0].stdout


@pytest.mark.parametrize("args,seed", [(["--N", "4", "--m", "3"], s) for s in range(4)]
                         + [(["--N", "5", "--m", "4", "--n1", "1"], s) for s in (0, 1, 3)])
def test_four_targets_on_an_eight_state_superblock(args, seed, capsys):
    # bare n=2 puts 2*2*2 states on the middle superblock, so its k=4 solve
    # splits Krylov blocks that lose rank, with kept directions near 1e-8 of
    # the largest; the run converges, and a level of its subspace lies above
    # the same level of the whole chain at the same cutoff
    code, out, err = run_cli(["dmrg", *args, "--n", "2", "--ntar", "4", "--basis-mode", "bare",
                              "--seed", str(seed)], capsys)
    assert code == 0, err
    _, rows = parse_csv(out)
    values = {r["quantity"]: r["value"] for r in rows}
    levels = [float(values[f"energy_{i}"]) for i in range(4)]
    exact, _states = oscdmrg.ed_lowest(oscdmrg.ChainSpec(int(args[1]), 1.0, int(args[3])), 4)
    assert all(level >= e * (1 - 1e-8) for level, e in zip(levels, exact))
