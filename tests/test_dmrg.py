import dataclasses
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdmrg import ChainSpec, DmrgConfig, ed_lowest, ground_energy_closed, run_dmrg
from oscdmrg.dmrg import (
    Block,
    enlarge_block,
    optimize_site_basis,
    superblock_solve,
    truncate_block,
)
from oscdmrg.ed import build_full_hamiltonian
from oscdmrg.fock import BOND_COEFFICIENT, bare_site_basis, onsite_term
from oscdmrg.lanczos import dense_sym_eig


def _pure_state(dim, seed):
    """A random normalized state as one column: the factor of its density
    matrix."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((dim, 1))
    return v / np.linalg.norm(v)


def assert_variational_sandwich(spec, result, slack=1e-9):
    """DMRG energy upper-bounds ED at the same cutoff, which upper-bounds
    the analytic value (nested variational spaces)."""
    analytic = ground_energy_closed(spec)
    assert result.energies[0] >= analytic - slack
    if spec.bare_dim**spec.n_sites <= 5000:
        e_ed, _ = ed_lowest(spec, 1)
        assert result.energies[0] >= e_ed[0] - slack
        assert e_ed[0] >= analytic - slack


def test_config_validation():
    DmrgConfig(kept_states=4)
    with pytest.raises(ValueError):
        DmrgConfig(kept_states=0)
    with pytest.raises(ValueError):
        DmrgConfig(kept_states=4, feed_size=-1)
    for name in ("kept_states", "feed_size", "n_targets", "n_sweeps"):
        with pytest.raises(ValueError, match=name):
            DmrgConfig(**{"kept_states": 4, name: 0})
    assert [f.name for f in dataclasses.fields(DmrgConfig)] == [
        "kept_states", "feed_size", "n_targets", "n_sweeps", "optimized", "seed"]


def test_enlarge_from_empty_is_projected_site():
    basis = bare_site_basis(6, 3)
    blk = enlarge_block(Block.empty(), basis)
    assert blk.length == 1 and blk.basis_dim == 3
    np.testing.assert_allclose(blk.hamiltonian, basis.h, atol=1e-14)
    np.testing.assert_allclose(blk.edge_x, basis.x, atol=1e-14)


def test_two_enlargements_match_hand_assembled_two_site():
    basis = bare_site_basis(2, 2)
    blk = enlarge_block(enlarge_block(Block.empty(), basis), basis)
    expected = build_full_hamiltonian(ChainSpec(2, 1.0, 2)).matvec_block(np.eye(4))
    np.testing.assert_allclose(blk.hamiltonian, expected, atol=1e-12)
    np.testing.assert_allclose(blk.hamiltonian, blk.hamiltonian.T, atol=1e-13)
    np.testing.assert_allclose(blk.edge_x, blk.edge_x.T, atol=1e-13)


def test_truncate_block_rotation_preserves_spectrum():
    basis = bare_site_basis(4, 4)
    one = enlarge_block(Block.empty(), basis)
    blk = enlarge_block(one, basis)
    state = _pure_state(16, seed=2)
    rotated, record = truncate_block(one, basis, state, 16, position=2)
    before = np.linalg.eigvalsh(blk.hamiltonian)
    after = np.linalg.eigvalsh(rotated.hamiltonian)
    np.testing.assert_allclose(after, before, atol=1e-10)
    assert record.discarded_weight == pytest.approx(0.0, abs=1e-12)


def test_truncate_block_pure_state_rank_one():
    basis = bare_site_basis(3, 3)
    one = enlarge_block(Block.empty(), basis)
    state = _pure_state(9, seed=7)
    truncated, record = truncate_block(one, basis, state, 1, position=2)
    assert truncated.basis_dim == 1
    assert record.discarded_weight <= 1e-10
    assert record.kept == 1
    # definition of the discarded weight
    assert record.discarded_weight == pytest.approx(
        1.0 - record.lambdas[:1].sum(), abs=1e-12
    )
    with pytest.raises(ValueError):
        truncate_block(one, basis, state, 10)


def test_truncation_record_invariants():
    basis = bare_site_basis(3, 3)
    one = enlarge_block(Block.empty(), basis)
    rng = np.random.default_rng(5)
    m = rng.standard_normal((9, 4))
    _, record = truncate_block(one, basis, m / np.sqrt(np.trace(m @ m.T)), 3, position=2)
    lam = record.lambdas
    assert np.all(np.diff(lam) <= 1e-12)
    assert np.all(lam >= -1e-10)
    assert lam.sum() == pytest.approx(1.0, abs=1e-8)
    assert -1e-8 <= record.discarded_weight <= 1.0


def test_superblock_single_site_reproduces_onsite_spectrum():
    basis = bare_site_basis(5, 5)
    cfg = DmrgConfig(kept_states=5, n_targets=3)
    res, psi = superblock_solve(Block.empty(), basis, Block.empty(), cfg)
    expected = np.diag(onsite_term(5))[:3]
    np.testing.assert_allclose(res.values, expected, atol=1e-10)
    assert psi.shape == (1, 5, 1, 3)


def test_superblock_matvec_linearity():
    basis = bare_site_basis(4, 3)
    state = _pure_state(4, seed=1)
    rho = 0.5 * state @ state.T + 0.5 * np.eye(4) / 4
    blk = truncate_block(Block.empty(), bare_site_basis(4, 4), np.linalg.cholesky(rho), 3)[0]
    from oscdmrg.dmrg import _superblock_matvec

    apply, (dl, ds, dr) = _superblock_matvec(blk, basis, blk)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((dl * ds * dr, 1))
    v = rng.standard_normal((dl * ds * dr, 1))
    left = apply(2.0 * u - 0.7 * v)
    right = 2.0 * apply(u) - 0.7 * apply(v)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_superblock_untruncated_matches_ed():
    # full blocks, full site: the superblock spans the whole chain exactly
    m = 6
    full = bare_site_basis(m, m)
    left = enlarge_block(Block.empty(), full)
    right = enlarge_block(enlarge_block(Block.empty(), full), full)
    cfg = DmrgConfig(kept_states=m, n_targets=1)
    res, _psi = superblock_solve(left, full, right, cfg)
    e_ed, _ = ed_lowest(ChainSpec(4, 1.0, m), 1)
    assert res.values[0] == pytest.approx(e_ed[0], abs=1e-9)


def test_run_dmrg_requires_three_sites():
    with pytest.raises(ValueError):
        run_dmrg(ChainSpec(2, 1.0, 4), DmrgConfig(kept_states=2))
    with pytest.raises(ValueError):
        run_dmrg(ChainSpec(4, 1.0, 4), DmrgConfig(kept_states=8))


def test_run_dmrg_lossless_three_site_matches_ed():
    # single-target: every truncated rank equals the exact Schmidt rank
    spec = ChainSpec(3, 1.0, 6)
    e_ed, _ = ed_lowest(spec, 1)
    result = run_dmrg(spec, DmrgConfig(kept_states=6, n_targets=1, optimized=False))
    assert result.energies[0] == pytest.approx(e_ed[0], abs=1e-9)
    assert_variational_sandwich(spec, result)


def test_run_dmrg_bare_four_site_near_ed():
    # a two-site block truncated 36 -> 6 bounds the reachable accuracy;
    # the measured variational floor for this configuration is ~9e-5
    spec = ChainSpec(4, 1.0, 6)
    e_ed, _ = ed_lowest(spec, 2)
    result = run_dmrg(spec, DmrgConfig(kept_states=6, n_targets=2, optimized=False))
    assert result.energies[0] == pytest.approx(e_ed[0], abs=2e-4)
    assert result.energies[1] == pytest.approx(e_ed[1], abs=2e-4)
    assert np.all(np.diff(result.energies) >= -1e-12)
    assert result.gap == pytest.approx(result.energies[1] - result.energies[0])
    assert_variational_sandwich(spec, result)


def test_run_dmrg_optimized_beats_bare():
    spec = ChainSpec(8, 1.0, 12)
    exact = ground_energy_closed(spec)
    bare = run_dmrg(spec, DmrgConfig(kept_states=5, n_targets=1, optimized=False))
    opt = run_dmrg(
        spec, DmrgConfig(kept_states=5, feed_size=3, n_targets=1, optimized=True)
    )
    err_bare = abs(bare.energies[0] - exact)
    err_opt = abs(opt.energies[0] - exact)
    assert err_opt <= err_bare
    assert_variational_sandwich(spec, opt)


def test_bare_mode_is_refinement_off():
    # bare runs: optimized off, the one switch; the feed size is then ignored,
    # and an empty feed is no second way to ask for them
    spec = ChainSpec(8, 1.0, 12)
    with pytest.raises(ValueError, match="feed_size"):
        DmrgConfig(kept_states=5, feed_size=0, n_targets=1, optimized=True)
    configs = [
        DmrgConfig(kept_states=5, n_targets=1, optimized=False),
        DmrgConfig(kept_states=5, feed_size=7, n_targets=1, optimized=False),
    ]
    ref, *others = [run_dmrg(spec, cfg) for cfg in configs]
    for res in others:
        assert np.array_equal(res.energies, ref.energies)
        assert np.array_equal(res.site_entropies, ref.site_entropies)
    for res in (ref, *others):
        assert res.truncation_records
        assert all(rec.kind == "block" for rec in res.truncation_records)


def test_reflection_symmetry_with_truncation():
    # the uniform chain is mirror symmetric; with truncated blocks the site
    # entropies keep that symmetry only if the refined bases at both chain
    # ends enter the blocks the sweeps solve against
    spec = ChainSpec(12, 1.0, 10)
    result = run_dmrg(spec, DmrgConfig(kept_states=6, feed_size=3, n_sweeps=10))
    s = result.site_entropies
    assert np.max(np.abs(s - s[::-1])) <= 1e-6


def test_wavefunction_prediction_is_a_pure_warm_start(monkeypatch):
    # the rotated previous state only seeds the eigensolver: dropping it
    # gives the same answers from more matvecs (superblocks of 8^3 = 512
    # states).
    import oscdmrg.dmrg as dmrg_mod

    spec = ChainSpec(10, 1.0, 10)
    cfg = DmrgConfig(kept_states=8, optimized=False)
    lowest_k = dmrg_mod.lowest_k

    def recording(calls, keep_v0):
        def recorded(*args, v0=None, **kwargs):
            res = lowest_k(*args, v0=v0 if keep_v0 else None, **kwargs)
            calls.append((v0, res))
            return res
        return recorded

    runs = {}
    for label in ("warm", "cold"):
        calls = []
        monkeypatch.setattr(dmrg_mod, "lowest_k", recording(calls, label == "warm"))
        runs[label] = (run_dmrg(spec, cfg), calls)
    (warm, warm_calls), (cold, cold_calls) = runs["warm"], runs["cold"]

    np.testing.assert_allclose(warm.energies, cold.energies, rtol=1e-10, atol=0)
    np.testing.assert_allclose(warm.site_entropies, cold.site_entropies, atol=1e-8)
    # four warmup solves on the growing chain, then the first full-chain
    # solve, which has no earlier state on that chain; all later solves
    # start from the previous site's state
    has_v0 = [v0 is not None for v0, _res in warm_calls]
    assert has_v0 == [False] * 5 + [True] * (len(has_v0) - 5)
    # the last sweep walks a converged state: each start vector of its last
    # N solves is already the solution
    for v0, res in warm_calls[-spec.n_sites:]:
        overlap = abs(v0[:, 0] @ res.vectors[:, 0]) / np.linalg.norm(v0[:, 0])
        assert overlap >= 1 - 1e-8
    matvecs = {label: sum(res.iterations for _v0, res in calls)
               for label, (_result, calls) in runs.items()}
    assert matvecs["warm"] <= 0.7 * matvecs["cold"]


@pytest.mark.parametrize("kept_states", [8, 6])
def test_optimized_visits_are_warm_started_by_their_carried_state(monkeypatch, kept_states):
    # each solve of an optimized visit starts from the state before it,
    # carried into the new site basis (within a visit) or stepped to the next
    # site: once converged, each start vector of the last sweep's 2N-1 solves
    # is already the solution. A wrong site-leg map would leave the answers
    # and cost only matvecs. m=10, feed 2: n + n1 >= m (n=8) and < m (n=6).
    import oscdmrg.dmrg as dmrg_mod

    spec = ChainSpec(10, 1.0, 10)
    lowest_k = dmrg_mod.lowest_k
    calls = []

    def recorded(*args, v0=None, **kwargs):
        res = lowest_k(*args, v0=v0, **kwargs)
        calls.append((v0, res))
        return res

    monkeypatch.setattr(dmrg_mod, "lowest_k", recorded)
    result = run_dmrg(spec, DmrgConfig(kept_states, 2, n_sweeps=30))
    assert result.converged
    for v0, res in calls[-(2 * spec.n_sites - 1):]:
        overlap = abs(v0[:, 0] @ res.vectors[:, 0]) / np.linalg.norm(v0[:, 0])
        assert overlap >= 1 - 1e-6


def test_run_dmrg_reports_its_last_sweep(monkeypatch):
    # the reported energies are those of the last sweep's last visit to the
    # central site, bit for bit (hbar = 1), and no visit or solve follows the
    # sweeps. At N=7 warmup grows the left block to sites 1..3; the first
    # sweep visits sites 4..7 and back to 1 (10 visits), later ones 1..7 and
    # back (13).
    import oscdmrg.dmrg as dmrg_mod

    calls = _counting_lowest_k(monkeypatch)
    refine = dmrg_mod.optimize_site_basis
    visits = []

    def recorded_visit(*args, **kwargs):
        out = refine(*args, **kwargs)
        visits.append((args[1].length + 1, out[2].values, calls[0]))
        return out

    monkeypatch.setattr(dmrg_mod, "optimize_site_basis", recorded_visit)
    spec = ChainSpec(7, 1.0, 8)
    result = run_dmrg(spec, DmrgConfig(kept_states=4, feed_size=2, n_targets=2))
    sweeps = result.sweep_energy_trace.size
    assert len(visits) == 10 + 13 * (sweeps - 1)
    assert visits[-1][0] == 1
    assert visits[-1][2] == calls[0]
    central = [values for position, values, _ in visits if position == 4][-1]
    assert np.array_equal(result.energies, central)
    assert result.gap == central[1] - central[0]


def test_run_dmrg_sweep_trace_monotone():
    # a bare single-target run lowers its energy at every sweep, at any seed
    # (each sweep by about 1e-9 or more here)
    spec = ChainSpec(6, 1.0, 8)
    for seed in range(4):
        cfg = DmrgConfig(kept_states=4, n_targets=1, optimized=False, seed=seed)
        trace = run_dmrg(spec, cfg).sweep_energy_trace
        assert len(trace) >= 2
        assert np.all(np.diff(trace) < 0), (seed, np.diff(trace))


def test_sweep_solves_follow_the_tolerance_schedule(monkeypatch):
    # warmup solves to EIG_TOL, each sweep to its own entry of
    # sweep_tolerances. Bare mode makes one solve per site visit: four warmup
    # solves grow the left block to sites 1..5, the first sweep visits sites
    # 6..10 and back to 1, later sweeps 1..10 and back; nothing follows.
    import oscdmrg.dmrg as dmrg_mod

    spec = ChainSpec(10, 1.0, 10)
    cfg = DmrgConfig(kept_states=8, optimized=False)
    lowest_k = dmrg_mod.lowest_k
    tols = []

    def recorded(*args, tol, **kwargs):
        tols.append(tol)
        return lowest_k(*args, tol=tol, **kwargs)

    monkeypatch.setattr(dmrg_mod, "lowest_k", recorded)
    result = run_dmrg(spec, cfg)
    sweep_tols = result.sweep_tolerances
    assert sweep_tols.shape == result.sweep_energy_trace.shape
    assert sweep_tols.size >= 3
    visits = [14] + [19] * (sweep_tols.size - 1)
    expected = [dmrg_mod.EIG_TOL] * 4
    for tol, count in zip(sweep_tols, visits):
        expected += [tol] * count
    assert tols == expected

    trace = result.sweep_energy_trace
    assert list(sweep_tols[:2]) == [1e-6, 1e-6]
    for s in range(2, sweep_tols.size):
        de = abs(trace[s - 1] - trace[s - 2])
        assert sweep_tols[s] == max(min(0.1 * de, 1e-6), dmrg_mod.EIG_TOL)
    assert np.all((sweep_tols >= dmrg_mod.EIG_TOL) & (sweep_tols <= 1e-6))
    assert sweep_tols[-1] < 1e-6  # the schedule did tighten
    # never tighter than EIG_TOL
    assert dmrg_mod._sweep_tolerance([1.0, 1.0]) == dmrg_mod.EIG_TOL == 1e-10


def test_a_loose_sweep_cannot_declare_convergence(monkeypatch):
    # with every sweep at 1e-6, above CONVERGING_TOL = 10 ENERGY_TOL, the
    # sweep-to-sweep |dE| falls below ENERGY_TOL but no sweep may declare
    import oscdmrg.dmrg as dmrg_mod

    spec = ChainSpec(6, 1.0, 8)
    cfg = DmrgConfig(kept_states=4, optimized=False)
    real = run_dmrg(spec, cfg)
    assert real.converged
    assert real.sweep_tolerances[-1] <= dmrg_mod.CONVERGING_TOL == 1e-7

    monkeypatch.setattr(dmrg_mod, "_sweep_tolerance", lambda trace: 1e-6)
    loose = run_dmrg(spec, cfg)
    assert not loose.converged
    trace = loose.sweep_energy_trace
    assert trace.size == cfg.n_sweeps
    assert abs(trace[-1] - trace[-2]) < dmrg_mod.ENERGY_TOL == 1e-8
    np.testing.assert_array_equal(loose.sweep_tolerances, np.full(cfg.n_sweeps, 1e-6))


def test_a_perturbed_sweep_cannot_declare_convergence(monkeypatch):
    # on this lossless single-target chain sweep 3 meets ENERGY_TOL at a
    # tolerance below CONVERGING_TOL, but it is perturbed; sweep 4 is not
    import oscdmrg.dmrg as dmrg_mod

    spec = ChainSpec(5, 1.0, 8)
    cfg = DmrgConfig(kept_states=8, feed_size=2)
    result = run_dmrg(spec, cfg)
    trace, tols = result.sweep_energy_trace, result.sweep_tolerances
    np.testing.assert_array_equal(result.sweep_perturbations, [1e-4, 1e-5, 1e-6, 0.0])
    assert result.converged
    assert abs(trace[2] - trace[1]) < dmrg_mod.ENERGY_TOL
    assert tols[2] <= dmrg_mod.CONVERGING_TOL

    # perturbed throughout, no sweep may declare
    monkeypatch.setattr(dmrg_mod, "_PERTURBATION", (1e-6,) * cfg.n_sweeps)
    always = run_dmrg(spec, cfg)
    assert not always.converged
    np.testing.assert_array_equal(always.sweep_perturbations, np.full(cfg.n_sweeps, 1e-6))
    trace = always.sweep_energy_trace
    assert abs(trace[-1] - trace[-2]) < dmrg_mod.ENERGY_TOL
    assert always.sweep_tolerances[-1] <= dmrg_mod.CONVERGING_TOL


def test_two_target_runs_are_never_perturbed(monkeypatch):
    # with two targets every block factor has more than n columns, so the
    # perturbation schedule changes nothing
    import oscdmrg.dmrg as dmrg_mod

    spec = ChainSpec(8, 1.0, 8)
    cfg = DmrgConfig(kept_states=4, feed_size=2, n_targets=2)
    scheduled = run_dmrg(spec, cfg)
    monkeypatch.setattr(dmrg_mod, "_PERTURBATION", ())
    plain = run_dmrg(spec, cfg)
    np.testing.assert_array_equal(scheduled.sweep_perturbations, 0.0)
    for name in ("energies", "sweep_energy_trace", "sweep_tolerances", "site_entropies"):
        assert np.array_equal(getattr(scheduled, name), getattr(plain, name))
    assert scheduled.converged == plain.converged


def test_perturbed_truncations_record_the_perturbed_spectrum(monkeypatch):
    # a single-target density matrix has rank <= n, so unperturbed block
    # truncations discard nothing; the perturbed ones of sweeps 1-3 record
    # the spectrum of rho', whose weight beyond n is > 0
    import oscdmrg.dmrg as dmrg_mod

    pending, tagged = [], []
    perturbed_factor, kept_states = dmrg_mod._perturbed_factor, dmrg_mod._kept_states

    def marking(*args):
        pending.append(True)
        return perturbed_factor(*args)

    def tagging(*args, **kwargs):
        v, rec = kept_states(*args, **kwargs)
        tagged.append((bool(pending and pending.pop()), rec))
        return v, rec

    # every block truncation, warmup's and the sweeps', selects its states here
    monkeypatch.setattr(dmrg_mod, "_perturbed_factor", marking)
    monkeypatch.setattr(dmrg_mod, "_kept_states", tagging)
    result = run_dmrg(ChainSpec(8, 1.0, 8), DmrgConfig(kept_states=4, optimized=False))
    assert [rec for _p, rec in tagged] == result.truncation_records
    perturbed = [rec for p, rec in tagged if p]
    plain = [rec for p, rec in tagged if not p]
    assert perturbed and plain
    for rec in perturbed:
        assert rec.discarded_weight > 1e-12
        assert rec.lambdas.sum() == pytest.approx(1.0, abs=1e-12)
    for rec in plain:
        assert abs(rec.discarded_weight) <= 1e-12


def test_bare_single_target_converges_within_default_sweeps():
    # the bare-scan n=12 point: the perturbation re-chooses the near-null
    # block states, so every seed converges to the same state in 6 sweeps
    spec = ChainSpec(30, 1.0, 14)
    e0 = []
    for seed in (1, 2, 3):
        result = run_dmrg(spec, DmrgConfig(kept_states=12, optimized=False, seed=seed))
        assert result.converged
        assert result.sweep_energy_trace.size <= 6
        e0.append(result.energies[0])
    assert max(e0) - min(e0) <= 1e-8
    assert max(e0) <= 19.23128015


def test_sweep_tolerance_schedule_keeps_converged_answers(monkeypatch):
    # the schedule against every sweep solve at EIG_TOL, on a configuration
    # that converges either way
    import oscdmrg.dmrg as dmrg_mod

    spec = ChainSpec(10, 1.0, 14)
    cfg = DmrgConfig(10, 4, n_sweeps=20)
    scheduled = run_dmrg(spec, cfg)
    monkeypatch.setattr(dmrg_mod, "_sweep_tolerance", lambda trace: dmrg_mod.EIG_TOL)
    tight = run_dmrg(spec, cfg)
    assert scheduled.converged and tight.converged
    assert scheduled.sweep_energy_trace.size == tight.sweep_energy_trace.size
    assert np.any(scheduled.sweep_tolerances > dmrg_mod.EIG_TOL)
    np.testing.assert_array_equal(tight.sweep_tolerances, dmrg_mod.EIG_TOL)
    np.testing.assert_allclose(scheduled.energies, tight.energies, rtol=1e-10, atol=0)
    assert abs(scheduled.entanglement_SE - tight.entanglement_SE) <= 1e-8


def test_run_dmrg_records_and_entropies():
    spec = ChainSpec(5, 1.0, 8)
    result = run_dmrg(
        spec, DmrgConfig(kept_states=8, feed_size=2, n_targets=1, optimized=True)
    )
    assert result.site_entropies.shape == (5,)
    assert np.all(result.site_entropies >= 0)
    # mirror symmetry of the converged ground state (lossless configuration;
    # with truncation the asymmetry grows to the truncation-error scale)
    np.testing.assert_allclose(
        result.site_entropies, result.site_entropies[::-1], atol=1e-7
    )
    assert result.entanglement_SE == pytest.approx(result.site_entropies.mean())
    kinds = {rec.kind for rec in result.truncation_records}
    assert kinds == {"site", "block"}
    for rec in result.truncation_records:
        assert np.all(np.diff(rec.lambdas) <= 1e-12)
        assert np.all(rec.lambdas >= -1e-10)
        assert rec.lambdas.sum() == pytest.approx(1.0, abs=1e-8)
        assert -1e-8 <= rec.discarded_weight <= 1.0
    # the central site's averaged spectrum, from its last visit
    lams = [rec.lambdas for rec in result.truncation_records
            if rec.kind == "site" and rec.position == 3][-1]
    assert lams[0] > 0.5
    assert lams.sum() == pytest.approx(1.0, abs=1e-8)


def test_run_dmrg_deterministic():
    spec = ChainSpec(4, 1.0, 6)
    cfg = DmrgConfig(kept_states=4, feed_size=2, n_targets=2, optimized=True, seed=5)
    r1 = run_dmrg(spec, cfg)
    r2 = run_dmrg(spec, cfg)
    assert np.array_equal(r1.energies, r2.energies)
    assert r1.entanglement_SE == r2.entanglement_SE


@pytest.mark.parametrize("spec,cfg", [
    (ChainSpec(20, 1.0, 14), DmrgConfig(kept_states=8, optimized=False, seed=1)),
    (ChainSpec(14, 1.0, 14), DmrgConfig(kept_states=6, feed_size=4, n_targets=2, seed=1)),
])
def test_seeded_run_does_not_depend_on_svd_signs(monkeypatch, spec, cfg):
    # every SVD that picks kept states, block and site, returns every other
    # singular pair negated; the sign-fixed kept states, and so the whole run,
    # must not move
    from oscdmrg import dmrg

    svd, kept_states = np.linalg.svd, dmrg._kept_states
    flips, built = [], []

    def flipped_svd(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        if sys._getframe(1).f_code is not kept_states.__code__:
            return out
        flips.append(a.shape)
        u, sig, vt = out
        flip = np.where(np.arange(max(u.shape[1], vt.shape[0])) % 2, 1.0, -1.0)
        return u * flip[:u.shape[1]], sig, vt * flip[:vt.shape[0], None]

    def recording(*args, **kwargs):
        v, rec = kept_states(*args, **kwargs)
        built.append(rec)
        return v, rec

    plain = run_dmrg(spec, cfg)
    monkeypatch.setattr(np.linalg, "svd", flipped_svd)
    monkeypatch.setattr(dmrg, "_kept_states", recording)
    flipped = run_dmrg(spec, cfg)
    assert np.array_equal(flipped.energies, plain.energies)
    assert flipped.entanglement_SE == plain.entanglement_SE
    assert flipped.gap == plain.gap
    # every recorded truncation, block or site, took its kept states from a
    # flipped SVD; a site visit reports only the last of its truncations
    assert len(flips) == len(built)
    assert len(flipped.truncation_records) == len(plain.truncation_records)
    assert {id(rec) for rec in flipped.truncation_records} <= {id(rec) for rec in built}
    kinds = {rec.kind for rec in plain.truncation_records}
    assert kinds == ({"block", "site"} if cfg.optimized else {"block"})


def test_run_dmrg_hbar_scaling():
    # H(hbar) = hbar * H(1): the run at hbar = 3 makes the solves of the run
    # at hbar = 1, and only its reported energies are scaled
    cfg = DmrgConfig(kept_states=5, feed_size=2, n_targets=2, optimized=True)
    r1 = run_dmrg(ChainSpec(4, 1.0, 6), cfg)
    r3 = run_dmrg(ChainSpec(4, 3.0, 6), cfg)
    assert np.array_equal(r3.energies, 3.0 * r1.energies)
    assert np.array_equal(r3.sweep_energy_trace, 3.0 * r1.sweep_energy_trace)
    for name in ("site_entropies", "central_block_lambdas", "sweep_tolerances",
                 "sweep_perturbations"):
        assert np.array_equal(getattr(r3, name), getattr(r1, name))
    assert r3.converged == r1.converged


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n_sites=st.integers(3, 6), m=st.integers(3, 6), data=st.data(),
       n1=st.integers(1, 3), n_targets=st.integers(1, 2), optimized=st.booleans(),
       hbar=st.floats(0.25, 4.0), seed=st.integers(0, 9))
def test_run_dmrg_energy_is_variational(n_sites, m, data, n1, n_targets, optimized,
                                        hbar, seed):
    # every DMRG state lies in the truncated Fock space, so E0 is at least
    # the untruncated chain's ground energy
    n = data.draw(st.integers(2, m))
    spec = ChainSpec(n_sites, hbar, m)
    result = run_dmrg(spec, DmrgConfig(kept_states=n, feed_size=n1, n_targets=n_targets,
                                       n_sweeps=2, optimized=optimized, seed=seed))
    assert result.energies[0] >= ground_energy_closed(spec) * (1 - 1e-12)


def test_optimize_site_basis_full_bare_space_is_rotation():
    # n = m: nothing to feed; the returned basis spans the full bare space
    m = 4
    full = bare_site_basis(m, m)
    left = enlarge_block(Block.empty(), full)
    right = enlarge_block(Block.empty(), full)
    cfg = DmrgConfig(kept_states=m, feed_size=2, n_targets=1)
    basis, record, _eig, _sol = optimize_site_basis(cfg, left, right, full)
    assert basis.dim == m
    # spans the full space: the transform is orthogonal (identity up to rotation)
    np.testing.assert_allclose(
        basis.transform @ basis.transform.T, np.eye(m), atol=1e-10
    )
    assert record.kind == "site"
    assert record.discarded_weight == pytest.approx(0.0, abs=1e-10)
    # energy equals the unoptimized superblock ground state
    res, _ = superblock_solve(left, full, right, cfg)
    e_ed = res.values[0]
    basis2, _rec, _eig, _sol = optimize_site_basis(cfg, left, right, full)
    res2, _ = superblock_solve(left, basis2, right, cfg)
    assert res2.values[0] == pytest.approx(e_ed, abs=1e-10)


def test_optimize_site_basis_returns_the_state_on_the_returned_basis():
    # the solution's site leg is on the returned basis, each target of unit
    # norm. Bare mode keeps the basis, records no site truncation and returns
    # the solved state itself; an optimized visit returns the last solve
    # projected onto the new basis, so its energy can only be higher.
    from oscdmrg.dmrg import _superblock_matvec

    m, n, k = 6, 4, 2
    start = bare_site_basis(m, n)
    left = enlarge_block(Block.empty(), start)
    for optimized in (False, True):
        cfg = DmrgConfig(kept_states=n, feed_size=2, n_targets=k, optimized=optimized)
        basis, record, eig, sol = optimize_site_basis(cfg, left, left, start)
        assert sol.shape == (n, n, n, k)
        v = sol.reshape(-1, k)
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0, atol=1e-12)
        apply, _dims = _superblock_matvec(left, basis, left)
        energy = (v[:, :1].T @ apply(v[:, :1])).item()
        if optimized:
            assert record.kind == "site" and basis.dim == n
            assert energy >= eig.values[0] - 1e-10
        else:
            assert record is None and basis is start
            assert energy == pytest.approx(eig.values[0], abs=1e-10)


def test_refinement_converges_to_unique_fixed_point(monkeypatch):
    # the feed loop at fixed blocks is a fixed-point iteration: per-cycle
    # discarded weights stabilize, and unrelated starting bases land on the
    # same kept subspace. (Monitored runs show the weight converges toward
    # its fixed point from either side, so only stabilization is asserted.)
    # The cycle cap is lowered to one, so each call is one feed cycle.
    import oscdmrg.dmrg as dmrg_mod
    from oscdmrg.fock import SiteBasis
    from oscdmrg.dmrg import _weighted_factor

    monkeypatch.setattr(dmrg_mod, "_MAX_REFINE_CYCLES", 1)

    cfg = DmrgConfig(kept_states=4, feed_size=2, n_targets=1)
    full = bare_site_basis(10, 4)
    left1 = enlarge_block(Block.empty(), full)
    _eig, psi = superblock_solve(left1, full, left1, cfg)
    factor = _weighted_factor(psi, (0, 1))
    left2, _ = truncate_block(left1, full, factor, 4)

    rng = np.random.default_rng(0)
    rand_cols = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    finals = {}
    for label, start in (("bare", full), ("random", SiteBasis(rand_cols))):
        basis, weights = bare_site_basis(10, 4) if label == "bare" else start, []
        for _cycle in range(10):
            basis, rec, _eig, _sol = optimize_site_basis(cfg, left2, left2, basis)
            weights.append(rec.discarded_weight)
        assert abs(weights[-1] - weights[-2]) <= 1e-12
        finals[label] = (basis, weights[-1])
    assert abs(finals["bare"][1] - finals["random"][1]) <= 1e-12
    b1 = finals["bare"][0].transform
    b2 = finals["random"][0].transform
    assert np.max(np.abs(b1 @ b1.T - b2 @ b2.T)) <= 1e-8


def _counting_lowest_k(monkeypatch):
    """Replace the solver dmrg calls with one that counts its calls."""
    import oscdmrg.dmrg as dmrg_mod

    calls = [0]
    lowest_k = dmrg_mod.lowest_k

    def counted(*args, **kwargs):
        calls[0] += 1
        return lowest_k(*args, **kwargs)

    monkeypatch.setattr(dmrg_mod, "lowest_k", counted)
    return calls


def test_refinement_stops_at_first_full_space_solve(monkeypatch):
    # n + feed_size >= m: the first group fed to a generic basis fills all m
    # bare states, so that one solve has an untruncated site and its n
    # dominant states are the refinement's exact fixed point. The oracle is
    # a separate solve in the bare m-state basis. Groups are 3,3,3,1.
    from oscdmrg.fock import SiteBasis
    from oscdmrg.dmrg import _weighted_factor

    m, n = 10, 7
    cfg = DmrgConfig(kept_states=n, feed_size=3, n_targets=1)
    start = bare_site_basis(m, n)
    left1 = enlarge_block(Block.empty(), start)
    _eig, psi = superblock_solve(left1, start, left1, cfg)
    factor = _weighted_factor(psi, (0, 1))
    left2, _ = truncate_block(left1, start, factor, n)

    rng = np.random.default_rng(3)
    rand_cols = np.linalg.qr(rng.standard_normal((m, n)))[0]
    calls = _counting_lowest_k(monkeypatch)
    basis, record, _eig, _sol = optimize_site_basis(cfg, left2, left2,
                                                    SiteBasis(rand_cols))
    assert calls[0] == 1

    _eig, psi_full = superblock_solve(left2, bare_site_basis(m, m), left2, cfg)
    rho_site = np.einsum("asb,atb->st", psi_full[..., 0], psi_full[..., 0])
    lam, vecs = np.linalg.eigh(rho_site)
    top = vecs[:, ::-1][:, :n]
    b = basis.transform
    assert np.max(np.abs(b @ b.T - top @ top.T)) <= 1e-8
    assert record.discarded_weight == pytest.approx(lam[: m - n].sum(), abs=1e-10)


def test_refinement_carries_each_solve_into_the_next_basis(monkeypatch):
    # n + n1 < m from a generic basis: a visit of several solves. On the m
    # bare states, each solve after the first starts from the solve before
    # it projected onto the new augmented basis, and the visit returns the
    # last solve projected onto the returned basis, normalized.
    import oscdmrg.dmrg as dmrg_mod
    from oscdmrg.fock import SiteBasis
    from oscdmrg.dmrg import _weighted_factor

    m, n = 10, 4
    cfg = DmrgConfig(kept_states=n, feed_size=2, n_targets=2)
    start = bare_site_basis(m, n)
    left1 = enlarge_block(Block.empty(), start)
    _eig, psi = superblock_solve(left1, start, left1, cfg)
    left2, _ = truncate_block(left1, start, _weighted_factor(psi, (0, 1)), n)
    dims = (left2.basis_dim, -1, left2.basis_dim, 2)

    bases, solves = [], []
    superblock, lowest_k = dmrg_mod.superblock_solve, dmrg_mod.lowest_k

    def recorded_superblock(left, site, *args, **kwargs):
        bases.append(site.transform)
        return superblock(left, site, *args, **kwargs)

    def recorded_solve(*args, v0=None, **kwargs):
        res = lowest_k(*args, v0=v0, **kwargs)
        solves.append((v0, res.vectors))
        return res

    monkeypatch.setattr(dmrg_mod, "superblock_solve", recorded_superblock)
    monkeypatch.setattr(dmrg_mod, "lowest_k", recorded_solve)
    rng = np.random.default_rng(4)
    rand_cols = np.linalg.qr(rng.standard_normal((m, n)))[0]
    basis, _rec, _eig, sol = optimize_site_basis(cfg, left2, left2, SiteBasis(rand_cols))
    assert len(solves) >= 3 and len(bases) == len(solves)

    def bare(vectors, b):
        return np.einsum("asbk,ms->ambk", vectors.reshape(dims), b)

    for (_v0, prev), b_prev, (v0, _vec), b in zip(solves, bases, solves[1:], bases[1:]):
        projected = np.einsum("ambk,mt->atbk", bare(prev, b_prev), b @ b.T)
        np.testing.assert_allclose(bare(v0, b), projected, rtol=0, atol=1e-12)
    last = np.einsum("ambk,mt->atbk", bare(solves[-1][1], bases[-1]),
                     basis.transform @ basis.transform.T)
    last /= np.linalg.norm(last.reshape(-1, 2), axis=0)
    np.testing.assert_allclose(bare(sol, basis.transform), last, rtol=0, atol=1e-12)


def test_bare_run_builds_one_site_basis_per_site(monkeypatch):
    # a site carries its projected h and x, so a bare run builds each site's
    # basis once: no solve or block growth builds or projects another
    from oscdmrg.fock import SiteBasis

    built = [0]
    post_init = SiteBasis.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(SiteBasis, "__post_init__", counted)
    run_dmrg(ChainSpec(12, 1.0, 10), DmrgConfig(kept_states=6, optimized=False))
    assert built[0] == 12


@pytest.mark.parametrize("fail_at,where", [
    (2, "warmup solve failed at site 3"),
    # sweep 1 visits sites 4, 5, 6 and then 5 again
    (6, "superblock solve failed at site 5"),
])
def test_failed_solve_names_its_site(fail_dmrg_solve, fail_at, where):
    from oscdmrg import ConvergenceError

    residuals = fail_dmrg_solve(fail_at)
    with pytest.raises(ConvergenceError, match=where) as info:
        run_dmrg(ChainSpec(6, 1.0, 4), DmrgConfig(kept_states=3, optimized=False))
    assert "no convergence after 2000 matvecs" in str(info.value)
    assert np.array_equal(info.value.residual_norms, residuals)


def _solves_per_visit(monkeypatch, spec, cfg):
    """lowest_k calls of each site visit of run_dmrg, in visit order, and
    the index of the first visit after the first sweep."""
    import oscdmrg.dmrg as dmrg_mod

    calls = _counting_lowest_k(monkeypatch)
    refine = dmrg_mod.optimize_site_basis
    visits = []

    def counted_visit(*args, **kwargs):
        before = calls[0]
        out = refine(*args, **kwargs)
        visits.append((args[1].length + 1, calls[0] - before))
        return out

    monkeypatch.setattr(dmrg_mod, "optimize_site_basis", counted_visit)
    run_dmrg(spec, cfg)
    # the first sweep ends at its leftward visit of site 1
    first_sweep_end = [pos for pos, _ in visits].index(1)
    return [count for _, count in visits], first_sweep_end + 1


def test_refinement_solves_per_visit_on_size_scan_shape(monkeypatch):
    # n + n1 >= m: the bare states the basis holds least of are fed first,
    # so every visit, those of the first sweep included, is one full-space
    # solve
    spec = ChainSpec(10, 1.0, 14)
    cfg = DmrgConfig(kept_states=10, feed_size=4, n_targets=2)
    counts, later = _solves_per_visit(monkeypatch, spec, cfg)
    assert len(counts) > later
    assert counts == [1] * len(counts)


def test_refinement_keeps_cycling_below_full_space(monkeypatch):
    # n + n1 < m never spans the whole site space: the feed loop still
    # runs several groups at every visit
    spec = ChainSpec(8, 1.0, 10)
    cfg = DmrgConfig(kept_states=5, feed_size=2)
    counts, _later = _solves_per_visit(monkeypatch, spec, cfg)
    assert min(counts) > 1


def test_weighted_factor_gram_matches_einsum_partial_trace():
    from oscdmrg.dmrg import _weighted_factor

    rng = np.random.default_rng(11)
    psi = rng.standard_normal((3, 4, 5, 2))
    psi /= np.linalg.norm(psi.reshape(-1, 2), axis=0)
    w = np.full(2, 0.5)  # the targets' equal weights
    expected = {
        (1,): np.einsum("j,asbj,atbj->st", w, psi, psi),
        (0, 1): np.einsum("j,asbj,ctbj->asct", w, psi, psi).reshape(12, 12),
        (2, 1): np.einsum("j,asbj,atcj->bsct", w, psi, psi).reshape(20, 20),
    }
    for axes, rho_ref in expected.items():
        factor = _weighted_factor(psi, axes)
        rho = factor @ factor.T
        np.testing.assert_allclose(rho, rho_ref, atol=1e-14)
        np.testing.assert_array_equal(rho, rho.T)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)


def test_multi_target_flattens_block_spectrum():
    # more targeted states push weight past the kept boundary of the
    # truncation density matrix
    spec = ChainSpec(6, 1.0, 10)
    kept = 6
    tails = {}
    lam1 = {}
    for ntar in (1, 3, 5):
        r = run_dmrg(
            spec,
            DmrgConfig(kept_states=kept, feed_size=3, n_targets=ntar, optimized=True),
        )
        lam = r.central_block_lambdas
        tails[ntar] = float(lam[kept:].sum())
        lam1[ntar] = lam[0]
    assert tails[1] <= tails[3] + 1e-12
    assert tails[3] <= tails[5] + 1e-12
    assert lam1[5] < lam1[1]


def _random_sym(rng, dim):
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


@st.composite
def _blocks(draw):
    """An empty block, or a block of random symmetric operators."""
    length = draw(st.integers(0, 3))
    if length == 0:
        return Block.empty()
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Block(length, dim, _random_sym(rng, dim), _random_sym(rng, dim))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(left=_blocks(), right=_blocks(), ds=st.integers(1, 6), nb=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_superblock_matvec_equals_kron_assembly(left, right, ds, nb, seed):
    # any block width, the identity, and the row-stored blocks lowest_k
    # passes as a transpose
    from oscdmrg.dmrg import _superblock_matvec

    rng = np.random.default_rng(seed)
    # a stand-in site: arbitrary symmetric h and x, not projected from a basis
    ops = SimpleNamespace(h=_random_sym(rng, ds), x=_random_sym(rng, ds), dim=ds)
    apply, dims = _superblock_matvec(left, ops, right)
    assert dims == (left.basis_dim, ds, right.basis_dim)
    hl, xl, hr, xr = left.hamiltonian, left.edge_x, right.hamiltonian, right.edge_x
    il, i_s, ir = np.eye(left.basis_dim), np.eye(ds), np.eye(right.basis_dim)

    def kron3(a, b, c):
        return np.kron(a, np.kron(b, c))

    ham = (kron3(hl, i_s, ir) + kron3(il, ops.h, ir) + kron3(il, i_s, hr)
           + BOND_COEFFICIENT * (kron3(xl, ops.x, ir) + kron3(il, ops.x, xr)))
    vblock = rng.standard_normal((ham.shape[0], nb))
    np.testing.assert_allclose(apply(vblock), ham @ vblock, rtol=0, atol=1e-12)
    np.testing.assert_allclose(apply(np.eye(ham.shape[0])), ham, rtol=0, atol=1e-12)
    # a strided column slice of a wider array reads like its contiguous copy
    strided = rng.standard_normal((ham.shape[0], nb + 2))[:, 1:-1]
    np.testing.assert_allclose(apply(strided), apply(np.ascontiguousarray(strided)),
                               rtol=0, atol=1e-12)
    rows = rng.standard_normal((nb + 2, ham.shape[0]))
    np.testing.assert_allclose(apply(rows[1:1 + nb].T), ham @ rows[1:1 + nb].T,
                               rtol=0, atol=1e-12)


@st.composite
def _truncations(draw):
    """A block of 1-12 states, a bare or randomly rotated site it absorbs, an
    equally weighted wavefunction factor of 1-3 targets on their (block,
    site) rows and a number of kept states. The rows may outnumber the
    factor's columns or not, and it may have fewer columns than kept states."""
    from oscdmrg.fock import SiteBasis

    n_tar = draw(st.integers(1, 3))
    db, dr, m = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(2, 6))
    ds = draw(st.integers(1, m))
    rotated = draw(st.booleans())
    axes = draw(st.sampled_from([(0, 1), (2, 1)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(((db, ds, dr) if axes == (0, 1) else (dr, ds, db)) + (n_tar,))
    psi /= np.linalg.norm(psi.reshape(-1, n_tar), axis=0)
    n = draw(st.integers(1, db * ds))
    block = Block(2, db, _random_sym(rng, db), _random_sym(rng, db))
    if rotated:
        site = SiteBasis(np.linalg.qr(rng.standard_normal((m, ds)))[0])
    else:
        site = bare_site_basis(m, ds)
    return block, site, psi, axes, n


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_truncations())
def test_truncate_block_from_factor_matches_eigh_of_rho(problem):
    # the left singular vectors of M are the eigenvectors of rho = M M^T,
    # here the einsum partial trace of the targets' equal-weight average
    from oscdmrg.dmrg import _weighted_factor

    block, site, psi, axes, n = problem
    factor = _weighted_factor(psi, axes)
    if axes == (0, 1):
        rho = np.einsum("asbj,ctbj->asct", psi, psi)
    else:
        rho = np.einsum("bsaj,btcj->asct", psi, psi)
    rho = rho.reshape(factor.shape[0], -1) / psi.shape[3]
    np.testing.assert_allclose(factor @ factor.T, rho, rtol=0, atol=1e-14)
    new, record = truncate_block(block, site, factor, n, position=3)
    enlarged = enlarge_block(block, site)

    lam, vecs = np.linalg.eigh(rho)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    np.testing.assert_allclose(record.lambdas, lam, rtol=0, atol=1e-12)
    assert record.discarded_weight == pytest.approx(lam[n:].sum(), abs=1e-12)
    v = new.rotation
    assert v.shape == (enlarged.basis_dim, n)
    np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-12)
    # sign-fixed: each kept state's largest-magnitude entry is positive
    assert np.all(v[np.abs(v).argmax(axis=0), np.arange(n)] > 0)
    np.testing.assert_allclose(new.hamiltonian, v.T @ enlarged.hamiltonian @ v,
                               rtol=0, atol=1e-12)
    if n == lam.size or lam[n - 1] - lam[n] > 1e-6:
        top = vecs[:, :n]
        np.testing.assert_allclose(v @ v.T, top @ top.T, rtol=0, atol=1e-8)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_truncations(), st.sampled_from([0.0, 1e-4, 1e-2]))
def test_truncate_block_matches_enlarge_then_project(problem, alpha):
    # the fused truncation against the two-step route: enlarge_block, then
    # the same SVD of the factor and V^T H' V, V^T edge' V; a perturbed
    # factor applies the enlarged edge operator 1 (x) x to the factor
    from oscdmrg.dmrg import _perturbed_factor, _weighted_factor

    block, site, psi, axes, n = problem
    factor = _weighted_factor(psi, axes)
    enlarged = enlarge_block(block, site)
    expected = factor
    if alpha:
        xm = enlarged.edge_x @ factor
        expected = np.hstack([factor, np.sqrt(alpha) * xm]) / np.sqrt(1 + alpha * np.sum(xm**2))
        factor = _perturbed_factor(factor, site.x, alpha)
        np.testing.assert_allclose(factor, expected, rtol=0, atol=1e-12)
    new, record = truncate_block(block, site, factor, n, position=3)

    # the same factor as truncate_block's, so that both SVDs pick the same
    # vectors; each is signed so that its largest-magnitude entry is positive
    u, sig, _vt = np.linalg.svd(factor, full_matrices=factor.shape[1] < n)
    v = u[:, :n] * np.sign(u[np.abs(u[:, :n]).argmax(axis=0), np.arange(n)])
    h, x = v.T @ enlarged.hamiltonian @ v, v.T @ enlarged.edge_x @ v
    assert (new.length, new.basis_dim) == (block.length + 1, n)
    np.testing.assert_allclose(new.rotation, v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(new.hamiltonian, 0.5 * (h + h.T), rtol=0, atol=1e-12)
    np.testing.assert_allclose(new.edge_x, 0.5 * (x + x.T), rtol=0, atol=1e-12)
    lam = np.pad(sig**2, (0, enlarged.basis_dim - sig.size))
    np.testing.assert_allclose(record.lambdas, lam, rtol=0, atol=1e-12)
    assert record.kept == n
