"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live). Heavy chain
runs are shared through module-scoped fixtures. Expect multi-minute
runtimes for the N=50 and size-scan fixtures.

Criteria 4 and the first clause of 7 are asserted at their stated
tolerances even though the measured variational floors of the
single-free-site algorithm sit above them; see "Known acceptance
failures" in the README for the analysis. Honest failures are preferred
over loosened assertions.

After the criteria, the fixtures are checked against the committed record
``acceptance_record.json`` and DMRG entropies and block spectra against an
exact Gaussian oracle. ``PYTHONPATH=src python tests/test_acceptance.py``
rewrites the record from the fixtures, after printing each recorded value's
old and new value and change, flagged PAST BAR where the record check would
fail on it, and per field how many values are past the bar and the largest
relative move.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from oscdmrg import (
    ChainSpec,
    DmrgConfig,
    ed_lowest,
    ground_energy_closed,
    run_dmrg,
    site_rdm,
    von_neumann,
)
from oscdmrg.chain import dispersion, first_gap, mode_spectrum

SLACK = 1e-9  # 10 * default eigensolver tolerance
RECORD = Path(__file__).with_name("acceptance_record.json")

_sandwich_checks: list[bool] = []


def _check_ground_bound(spec: ChainSpec, result) -> None:
    """Analytic leg of the variational sandwich, applied to every run."""
    ok = bool(result.energies[0] >= ground_energy_closed(spec) - SLACK)
    _sandwich_checks.append(ok)
    assert ok, "DMRG energy undercut the analytic ground energy"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")


def _fig2_runs():
    """N=50 basis scan: optimized n in {4,6,8,10} plus bare n in {8,10}."""
    spec = ChainSpec(50, 1.0, 14)
    runs = {}
    for n in (4, 6, 8, 10):
        runs[("optimized", n)] = run_dmrg(
            spec, DmrgConfig(kept_states=n, feed_size=4, n_targets=1, optimized=True)
        )
    for n in (8, 10):
        runs[("bare", n)] = run_dmrg(
            spec, DmrgConfig(kept_states=n, n_targets=1, optimized=False)
        )
    for result in runs.values():
        _check_ground_bound(spec, result)
    return spec, runs


def _size_runs():
    """Size scan at n=10, two targeted states."""
    runs = {}
    for n_sites in (10, 20, 40, 60, 100):
        spec = ChainSpec(n_sites, 1.0, 14)
        result = run_dmrg(
            spec, DmrgConfig(kept_states=10, feed_size=4, n_targets=2, optimized=True)
        )
        _check_ground_bound(spec, result)
        runs[n_sites] = (spec, result)
    return runs


def _table_runs():
    """Central-site spectra at n=8 optimized bases, 1..5 targeted states."""
    spec = ChainSpec(10, 1.0, 14)
    runs = {}
    for n_tar in range(1, 6):
        result = run_dmrg(
            spec,
            DmrgConfig(kept_states=8, feed_size=4, n_targets=n_tar, optimized=True),
        )
        _check_ground_bound(spec, result)
        runs[n_tar] = result
    return spec, runs


# Plain functions above, so that the record can be rewritten outside pytest.
fig2_runs = pytest.fixture(_fig2_runs, scope="module", name="fig2_runs")
size_runs = pytest.fixture(_size_runs, scope="module", name="size_runs")
table_runs = pytest.fixture(_table_runs, scope="module", name="table_runs")


def test_01_analytic_identity():
    worst = 0.0
    for n_sites in range(1, 201):
        for hbar in (0.1, 1.0, 5.0):
            spec = ChainSpec(n_sites, hbar_tilde=hbar)
            closed = ground_energy_closed(spec)
            direct = 0.5 * hbar * mode_spectrum(spec).sum()
            worst = max(worst, abs(closed - direct) / abs(closed))
    ok = worst <= 1e-12
    _report(1, "analytic closed form vs mode sum", ok, f"worst rel dev {worst:.2e}")
    assert ok


def test_02_ed_convergence_in_cutoff():
    exact = (1 + math.sqrt(3)) / 2
    energies = []
    for m in (4, 6, 8, 10, 12, 14):
        e, _ = ed_lowest(ChainSpec(2, 1.0, m), 1)
        energies.append(e[0])
    monotone = all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    err = abs(energies[-1] - exact)
    ok = monotone and err <= 1e-6
    _report(2, "ED cutoff convergence at N=2", ok, f"err(m=14) {err:.2e}")
    assert monotone
    assert err <= 1e-6


def test_03_gap_adjudication():
    energies, _ = ed_lowest(ChainSpec(2, 1.0, 14), 2)
    gap = energies[1] - energies[0]
    # one quantum of the softest mode carries the factor-2 dispersion reading
    ok = abs(gap - 1.0) <= 1e-5
    _report(3, "ED gap adjudicates the dispersion factor", ok, f"gap {gap:.9f}")
    assert ok
    assert first_gap(ChainSpec(2, 1.0, 14)) == pytest.approx(
        2 * math.sin(math.pi / 6), abs=1e-12
    )


def test_04_dmrg_ed_equivalence_without_site_truncation():
    spec = ChainSpec(4, 1.0, 6)
    e_ed, _ = ed_lowest(spec, 2)
    result = run_dmrg(spec, DmrgConfig(kept_states=6, n_targets=2, optimized=False))
    _check_ground_bound(spec, result)
    d0 = abs(result.energies[0] - e_ed[0])
    d1 = abs(result.energies[1] - e_ed[1])
    ok = d0 <= 1e-8 and d1 <= 1e-8
    _report(4, "DMRG-ED equivalence at n=m", ok, f"dE0 {d0:.2e} dE1 {d1:.2e}")
    assert d0 <= 1e-8
    assert d1 <= 1e-8


def test_05_basis_scan_ground_energy(fig2_runs):
    spec, runs = fig2_runs
    exact = ground_energy_closed(spec)
    errs = [
        abs(runs[("optimized", n)].energies[0] - exact) / exact for n in (4, 6, 8, 10)
    ]
    non_increasing = all(b <= a + 1e-10 for a, b in zip(errs, errs[1:]))
    ok = non_increasing and errs[-1] <= 1e-3
    _report(
        5,
        "ground-energy error vs basis count at N=50",
        ok,
        "errs " + " ".join(f"{e:.2e}" for e in errs),
    )
    assert non_increasing
    assert errs[-1] <= 1e-3


def test_06_optimized_vs_bare_efficiency(fig2_runs):
    spec, runs = fig2_runs
    exact = ground_energy_closed(spec)
    err_opt8 = abs(runs[("optimized", 8)].energies[0] - exact) / exact
    err_bare10 = abs(runs[("bare", 10)].energies[0] - exact) / exact
    ok = err_opt8 <= 3.0 * err_bare10
    _report(
        6,
        "8 optimized bases vs 10 bare bases",
        ok,
        f"opt8 {err_opt8:.2e} bare10 {err_bare10:.2e}",
    )
    assert ok


def test_07_entanglement_convergence(fig2_runs):
    spec, runs = fig2_runs
    se8 = runs[("optimized", 8)].entanglement_SE
    se10 = runs[("optimized", 10)].entanglement_SE
    rel_change = abs(se10 - se8) / se10

    # exact cross-check on a small chain (lossless configuration)
    spec3 = ChainSpec(3, 1.0, 6)
    _, states = ed_lowest(spec3, 1)
    se_ed = sum(von_neumann(site_rdm(states[0], i)) for i in (1, 2, 3)) / 3
    r3 = run_dmrg(spec3, DmrgConfig(kept_states=6, n_targets=1, optimized=False))
    _check_ground_bound(spec3, r3)
    ed_dev = abs(r3.entanglement_SE - se_ed)

    ok = rel_change <= 1e-2 and ed_dev <= 1e-6
    _report(
        7,
        "entanglement convergence and ED match",
        ok,
        f"rel change {rel_change:.2e}, ED dev {ed_dev:.2e}",
    )
    assert ed_dev <= 1e-6
    assert rel_change <= 1e-2


def test_08_size_scan_error_trends(size_runs):
    gap_errs = {}
    e0_errs = {}
    for n_sites, (spec, result) in size_runs.items():
        e0_errs[n_sites] = abs(result.energies[0] - ground_energy_closed(spec)) / (
            ground_energy_closed(spec)
        )
        gap_errs[n_sites] = abs(result.gap - first_gap(spec)) / first_gap(spec)
    sizes = sorted(size_runs)
    weakly_increasing = all(
        gap_errs[b] >= gap_errs[a] - 1e-10 for a, b in zip(sizes, sizes[1:])
    )
    gap_dominates = all(gap_errs[n] >= e0_errs[n] for n in sizes if n >= 20)
    breakdown = gap_errs[100] >= 0.2
    ok = weakly_increasing and gap_dominates and breakdown
    _report(
        8,
        "error growth with system size",
        ok,
        "gap errs " + " ".join(f"{n}:{gap_errs[n]:.2e}" for n in sizes),
    )
    assert weakly_increasing
    assert gap_dominates
    assert breakdown


def test_09_rdm_spectrum_structure(table_runs):
    _spec, runs = table_runs
    lam1 = {}
    for n_tar, result in runs.items():
        lam = result.central_block_lambdas
        padded = np.zeros(max(20, lam.size))
        padded[: lam.size] = lam
        # density-matrix trace, ordering, positivity
        assert lam.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.diff(padded[:20]) <= 1e-12)
        assert np.all(padded >= -1e-10)
        # rank cap: the environment holds n states per target
        rank_cap = 8 * n_tar
        if lam.size > rank_cap:
            assert np.all(np.abs(lam[rank_cap:]) <= 1e-12)
        lam1[n_tar] = lam[0]
    decreasing = all(lam1[t + 1] < lam1[t] for t in range(1, 5))
    in_bracket = 0.85 <= lam1[1] <= 0.99
    ok = decreasing and in_bracket
    _report(
        9,
        "density-matrix spectrum structure",
        ok,
        "lam1 " + " ".join(f"{lam1[t]:.4f}" for t in range(1, 6)),
    )
    assert decreasing
    assert in_bracket


def test_10_variational_sandwich(fig2_runs, size_runs, table_runs):
    # full three-member sandwich where exact diagonalization is feasible
    spec = ChainSpec(5, 1.0, 6)
    result = run_dmrg(
        spec, DmrgConfig(kept_states=5, feed_size=2, n_targets=1, optimized=True)
    )
    e_ed, _ = ed_lowest(spec, 1)
    analytic = ground_energy_closed(spec)
    full_chain = (
        result.energies[0] >= e_ed[0] - SLACK and e_ed[0] >= analytic - SLACK
    )
    every_run = len(_sandwich_checks) >= 12 and all(_sandwich_checks)
    ok = full_chain and every_run
    _report(
        10,
        "variational sandwich on all runs",
        ok,
        f"E_dmrg {result.energies[0]:.9f} >= E_ed {e_ed[0]:.9f} >= E_exact {analytic:.9f}",
    )
    assert full_chain
    assert every_run


def _summary(result, lambdas: bool = False) -> dict:
    """The recorded answers of one fixture run."""
    out = {"E0": float(result.energies[0]), "S_E": result.entanglement_SE,
           "converged": bool(result.converged), "sweeps": len(result.sweep_energy_trace)}
    if result.gap is not None:
        out["gap"] = result.gap
    if lambdas:
        out["lambdas"] = result.central_block_lambdas[:5].tolist()
    return out


def _record(fig2, size, table) -> dict:
    return {
        "fig2": {f"{mode} n={n}": _summary(r) for (mode, n), r in fig2[1].items()},
        "size": {f"N={n}": _summary(r) for n, (_spec, r) in size.items()},
        "table": {f"n_tar={t}": _summary(r, lambdas=True) for t, r in table[1].items()},
    }


# How far each recorded value may move, (relative, absolute), before the record check fails.
BARS = {"E0": (1e-10, 0.0), "S_E": (0.0, 1e-8), "gap": (1e-8, 0.0), "lambdas": (0.0, 1e-8)}


def _values(summary: dict) -> dict:
    """A point's recorded values by name, the lambdas one by one."""
    out = {k: v for k, v in summary.items() if k != "lambdas"}
    out.update({f"lambdas[{i}]": v for i, v in enumerate(summary.get("lambdas", []))})
    return out


def _changes(want: dict, got: dict) -> list[str]:
    """One line per recorded value of ``got``: old value, new value, change,
    and PAST BAR where the record check would fail on it; then one line per
    field: how many of its values are past the bar, and its largest move
    relative to the old value."""
    lines, fields = [], {}
    for group, points in got.items():
        for point, summary in points.items():
            before = _values(want.get(group, {}).get(point, {}))
            for name, new in _values(summary).items():
                field = name.split("[")[0]
                old, bar = before.get(name), BARS.get(field)
                change, past = "", old != new
                if old is not None and bar is not None:
                    change = f"{new - old:+.2e}" + (f" ({(new - old) / abs(old):+.1e} rel)" if old else "")
                    past = abs(new - old) > max(bar[0] * abs(old), bar[1])
                line = f"{group:5} {point:14} {name:10} {old!r:>22} -> {new!r:22} {change}"
                lines.append(line.rstrip() + ("  PAST BAR" if past else ""))
                rel = abs(new - old) / abs(old) if old else 0.0
                count, n_past, worst, at = fields.get(field, (0, 0, -1.0, ""))
                if rel > worst:
                    worst, at = rel, f"{group} {point}"
                fields[field] = (count + 1, n_past + past, worst, at)
    for field, (count, n_past, worst, at) in fields.items():
        lines.append(f"{field:10} {n_past} of {count} past the bar; "
                     f"largest relative move {worst:.1e} ({at})")
    return lines


def test_fixtures_match_committed_record(fig2_runs, size_runs, table_runs):
    # The record holds every fixture point's answers as the commit that wrote
    # it computed them; the runs are seeded, so a rerun repeats them up to
    # rounding. A change meant to move answers rewrites the record (run this
    # module as a script) and gives the old and new values in CHANGES.md.
    want = json.loads(RECORD.read_text(encoding="utf-8"))
    got = _record(fig2_runs, size_runs, table_runs)
    assert {g: list(pts) for g, pts in got.items()} == {g: list(pts) for g, pts in want.items()}
    for group, points in want.items():
        for point, ref in points.items():
            new = got[group][point]
            where = f"{group} {point}"
            assert new.keys() == ref.keys(), where
            assert new["converged"] == ref["converged"], where
            assert new["sweeps"] == ref["sweeps"], where
            for field in ("E0", "S_E", "gap"):
                if field in ref:
                    rel, tol = BARS[field]
                    assert new[field] == pytest.approx(ref[field], rel=rel, abs=tol), where
            if "lambdas" in ref:
                rel, tol = BARS["lambdas"]
                np.testing.assert_allclose(new["lambdas"], ref["lambdas"], rtol=rel, atol=tol,
                                           err_msg=where)


def test_record_report_flags_changes_past_the_bars():
    old = {"size": {"N=10": {"E0": 6.0, "S_E": 0.3, "converged": True, "sweeps": 6,
                             "gap": 0.2, "lambdas": [0.9, 0.1]}}}
    new = {"size": {"N=10": {"E0": 6.0 * (1 + 2e-10), "S_E": 0.3 + 5e-9, "converged": True,
                             "sweeps": 5, "gap": 0.2, "lambdas": [0.9, 0.1 + 2e-8]}}}
    lines = _changes(old, new)
    flagged = [line.split()[2] for line in lines if line.endswith("PAST BAR")]
    assert len(lines) == 7 + 6
    assert flagged == ["E0", "sweeps", "lambdas[1]"]
    assert "6.0 -> 6.0000000012" in lines[0] and "+2.0e-10 rel" in lines[0]
    assert lines[7:] == [
        "E0         1 of 1 past the bar; largest relative move 2.0e-10 (size N=10)",
        "S_E        0 of 1 past the bar; largest relative move 1.7e-08 (size N=10)",
        "converged  0 of 1 past the bar; largest relative move 0.0e+00 (size N=10)",
        "sweeps     1 of 1 past the bar; largest relative move 1.7e-01 (size N=10)",
        "gap        0 of 1 past the bar; largest relative move 0.0e+00 (size N=10)",
        "lambdas    1 of 2 past the bar; largest relative move 2.0e-07 (size N=10)",
    ]


# Exact Gaussian oracle, independent of the package. The chain is
# H = (p^T p + q^T K q) / 2 with K = 2 - adjacency; its ground state has
# <q q^T> = K^{-1/2}/2 and <p p^T> = K^{1/2}/2. Below K is replaced by
# A = K/2, which only rescales q against p and so changes no symplectic
# eigenvalue nu (Audenaert, Eisert, Plenio & Werner, PRA 66, 042327 (2002);
# Peschel, J. Phys. A 36, L205 (2003)).


def _gaussian_covariances(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    adjacency = np.eye(n_sites, k=1) + np.eye(n_sites, k=-1)
    w, u = np.linalg.eigh(np.eye(n_sites) - 0.5 * adjacency)
    return 0.5 * (u / np.sqrt(w)) @ u.T, 0.5 * (u * np.sqrt(w)) @ u.T


def _gaussian_site_entropies(n_sites: int) -> np.ndarray:
    """Each site's entanglement with the rest: S(nu) with
    nu_i = sqrt(<q_i^2><p_i^2>)."""
    q2, p2 = _gaussian_covariances(n_sites)
    nu = np.sqrt(np.diag(q2) * np.diag(p2))
    return (nu + 0.5) * np.log(nu + 0.5) - (nu - 0.5) * np.log(nu - 0.5)


def _gaussian_block_spectrum(n_sites: int, length: int, count: int) -> np.ndarray:
    """The ``count`` largest eigenvalues of the reduced density matrix of
    sites 1..length: products over the block's modes k of
    (1 - xi_k) xi_k^{n_k}, xi_k = (nu_k - 1/2) / (nu_k + 1/2)."""
    q2, p2 = _gaussian_covariances(n_sites)
    nu2 = np.linalg.eigvals(q2[:length, :length] @ p2[:length, :length]).real
    nu = np.sqrt(np.maximum(nu2, 0.25))
    lam = np.ones(1)
    for xi in (nu - 0.5) / (nu + 0.5):
        # Each factor is at most 1, so the largest products come from the
        # largest partial products.
        lam = np.sort(np.concatenate([lam * (1 - xi) * xi**j for j in range(count)]))
        lam = lam[::-1][:count]
    return lam


def test_dmrg_site_entropies_match_gaussian_oracle_without_truncation():
    # n = m at N=3: every truncation keeps the full Schmidt rank, so the only
    # error is the Fock cutoff (level 13 holds at most 4e-13 at N=3)
    exact = _gaussian_site_entropies(3)
    assert exact.mean() == pytest.approx(0.14871028467, abs=1e-10)
    spec = ChainSpec(3, 1.0, 14)
    for optimized in (True, False):
        result = run_dmrg(spec, DmrgConfig(kept_states=14, optimized=optimized))
        np.testing.assert_allclose(result.site_entropies, exact, rtol=0, atol=1e-9)


def test_central_block_spectrum_matches_gaussian_oracle(table_runs):
    # one target at N=10, n=8: the truncation density matrix of the enlarged
    # central block is the half chain's reduced density matrix of the DMRG
    # ground state (measured 1.0e-4 and 6.6e-4 relative off, and site
    # entropies 2.9e-4 off)
    spec, runs = table_runs
    result = runs[1]
    length = (spec.n_sites - 1) // 2 + 1
    exact = _gaussian_block_spectrum(spec.n_sites, length, 2)
    np.testing.assert_allclose(exact, [0.922845, 0.071023], rtol=0, atol=1e-6)
    lam = result.central_block_lambdas
    assert lam[0] == pytest.approx(exact[0], rel=5e-4)
    assert lam[1] == pytest.approx(exact[1], rel=2e-3)
    np.testing.assert_allclose(result.site_entropies, _gaussian_site_entropies(spec.n_sites),
                               rtol=0, atol=1e-3)


if __name__ == "__main__":
    record = _record(_fig2_runs(), _size_runs(), _table_runs())
    print("\n".join(_changes(json.loads(RECORD.read_text(encoding="utf-8")), record)))
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
