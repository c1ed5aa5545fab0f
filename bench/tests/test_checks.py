"""Each workload's check accepts its measured results and rejects perturbed ones."""

import dataclasses

import numpy as np
import pytest

import references as ref
import workloads
from workloads import Outcome, check

WL = workloads.WORKLOADS


def good_outcome(workload, n_sites):
    """An outcome at the accuracy the workload measures today."""
    tol = workload.tolerances
    e0 = ref.ground_energy(n_sites) * (1.0 + 0.2 * tol.e0_rel)
    gap = ref.first_gap(n_sites) * (1.0 + 0.2 * tol.gap_rel) if tol.gap_rel else None
    s_e = ref.gaussian_entanglement(n_sites) - 0.2 * tol.se_abs
    resid = (lambda: np.full(2, 0.1 * tol.residual)) if tol.residual else None
    return Outcome("t", n_sites, 1.0, e0, gap, s_e, residuals=resid)


CASES = [(WL["opt-two-target"], 10), (WL["opt-two-target"], 16),
         (WL["bare-scan"], 30), (WL["ed-matrix-free"], 7)]


@pytest.mark.parametrize("workload,n_sites", CASES)
def test_measured_accuracy_passes(workload, n_sites):
    assert check(good_outcome(workload, n_sites), workload.tolerances) == []


@pytest.mark.parametrize("workload,n_sites", CASES)
def test_e0_below_closed_form_is_rejected(workload, n_sites):
    out = good_outcome(workload, n_sites)
    out.e0 = ref.ground_energy(n_sites) - 1e-6
    assert any("below the closed form" in m for m in check(out, workload.tolerances))


@pytest.mark.parametrize("workload,n_sites", CASES)
def test_e0_too_high_is_rejected(workload, n_sites):
    out = good_outcome(workload, n_sites)
    out.e0 = ref.ground_energy(n_sites) * (1.0 + 2.0 * workload.tolerances.e0_rel)
    assert any("E0 relative error" in m for m in check(out, workload.tolerances))


@pytest.mark.parametrize("workload,n_sites", CASES)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_entanglement_off_is_rejected(workload, n_sites, sign):
    out = good_outcome(workload, n_sites)
    out.entanglement = ref.gaussian_entanglement(n_sites) + sign * 2.0 * workload.tolerances.se_abs
    assert any("S_E error" in m for m in check(out, workload.tolerances))


@pytest.mark.parametrize("workload,n_sites", [c for c in CASES if c[0].tolerances.gap_rel])
@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_wrong_gap_is_rejected(workload, n_sites, factor):
    out = good_outcome(workload, n_sites)
    out.gap = factor * ref.first_gap(n_sites)
    assert any("gap" in m for m in check(out, workload.tolerances))
    out.gap = None
    assert any("no gap" in m for m in check(out, workload.tolerances))


def test_large_ed_residual_is_rejected():
    wl = WL["ed-matrix-free"]
    out = good_outcome(wl, 7)
    out.residuals = lambda: np.array([1e-12, 1e-6])
    assert any("residuals" in m for m in check(out, wl.tolerances))


def test_printed_energy_rounding_is_allowed_only_for_cli_values():
    wl = WL["bare-scan"]
    e0 = ref.ground_energy(30) - 4e-8  # within half a unit of the 9th digit
    text = ("# config: x\nn,basis_mode,E_dmrg,E_exact,rel_err,S_E,status\n"
            f"8,bare,{e0!r},0,0,0.45,ok\n")
    (row,) = workloads.parse_scan_basis(text, (8,))
    parsed = workloads.scan_outcome(row, 30)
    assert check(parsed, wl.tolerances) == []
    unrounded = dataclasses.replace(parsed, e0_rounding=0.0)
    assert any("below the closed form" in m for m in check(unrounded, wl.tolerances))


def test_scan_rows_with_errors_fail_their_solve_only():
    text = ("# config: x\nn,basis_mode,E_dmrg,E_exact,rel_err,S_E,status\n"
            "8,bare,19.2358532,19.2309902,0.00025,0.442,not-converged\n"
            "12,bare,,19.2309902,,,error: boom\n")
    rows = workloads.parse_scan_basis(text, (8, 12))
    assert isinstance(rows[0], dict) and rows[0]["status"] == "not-converged"
    assert isinstance(rows[1], workloads.CliError)
    with pytest.raises(workloads.CliError):
        workloads.parse_scan_basis(text, (8, 12, 16))
