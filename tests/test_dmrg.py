import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdmrg import (
    Block,
    ChainSpec,
    DmrgConfig,
    SiteOperators,
    bare_site_basis,
    bond_coefficient,
    build_full_hamiltonian,
    dense_sym_eig,
    ed_lowest,
    enlarge_block,
    ground_energy_closed,
    onsite_term,
    optimize_site_basis,
    run_dmrg,
    site_operators,
    superblock_solve,
    truncate_block,
)


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
    blk = enlarge_block(Block.empty(), basis, 1.0)
    assert blk.length == 1 and blk.basis_dim == 3
    ops = site_operators(basis, 1.0)
    np.testing.assert_allclose(blk.hamiltonian, ops.h, atol=1e-14)
    np.testing.assert_allclose(blk.edge_x, ops.x, atol=1e-14)


def test_two_enlargements_match_hand_assembled_two_site():
    basis = bare_site_basis(2, 2)
    blk = enlarge_block(enlarge_block(Block.empty(), basis, 1.0), basis, 1.0)
    expected = build_full_hamiltonian(ChainSpec(2, 1.0, 2)).dense()
    np.testing.assert_allclose(blk.hamiltonian, expected, atol=1e-12)
    np.testing.assert_allclose(blk.hamiltonian, blk.hamiltonian.T, atol=1e-13)
    np.testing.assert_allclose(blk.edge_x, blk.edge_x.T, atol=1e-13)


def test_truncate_block_rotation_preserves_spectrum():
    basis = bare_site_basis(4, 4)
    blk = enlarge_block(enlarge_block(Block.empty(), basis, 1.0), basis, 1.0)
    state = _pure_state(16, seed=2)
    rotated, record = truncate_block(blk, state, 16, position=2)
    before = np.linalg.eigvalsh(blk.hamiltonian)
    after = np.linalg.eigvalsh(rotated.hamiltonian)
    np.testing.assert_allclose(after, before, atol=1e-10)
    assert record.discarded_weight == pytest.approx(0.0, abs=1e-12)


def test_truncate_block_pure_state_rank_one():
    basis = bare_site_basis(3, 3)
    blk = enlarge_block(enlarge_block(Block.empty(), basis, 1.0), basis, 1.0)
    state = _pure_state(9, seed=7)
    truncated, record = truncate_block(blk, state, 1, position=2)
    assert truncated.basis_dim == 1
    assert record.discarded_weight <= 1e-10
    assert record.kept == 1
    # definition of the discarded weight
    assert record.discarded_weight == pytest.approx(
        1.0 - record.lambdas[:1].sum(), abs=1e-12
    )
    with pytest.raises(ValueError):
        truncate_block(blk, state, 10)


def test_truncation_record_invariants():
    basis = bare_site_basis(3, 3)
    blk = enlarge_block(enlarge_block(Block.empty(), basis, 1.0), basis, 1.0)
    rng = np.random.default_rng(5)
    m = rng.standard_normal((9, 4))
    _, record = truncate_block(blk, m / np.sqrt(np.trace(m @ m.T)), 3, position=2)
    lam = record.lambdas
    assert np.all(np.diff(lam) <= 1e-12)
    assert np.all(lam >= -1e-10)
    assert lam.sum() == pytest.approx(1.0, abs=1e-8)
    assert -1e-8 <= record.discarded_weight <= 1.0


def test_superblock_single_site_reproduces_onsite_spectrum():
    basis = bare_site_basis(5, 5)
    ops = site_operators(basis, 1.0)
    cfg = DmrgConfig(kept_states=5, n_targets=3)
    res, psi = superblock_solve(Block.empty(), ops, Block.empty(), cfg)
    expected = np.diag(onsite_term(5, 1.0))[:3]
    np.testing.assert_allclose(res.values, expected, atol=1e-10)
    assert psi.shape == (1, 5, 1, 3)


def test_superblock_matvec_linearity():
    basis = bare_site_basis(4, 3)
    state = _pure_state(4, seed=1)
    rho = 0.5 * state @ state.T + 0.5 * np.eye(4) / 4
    blk = truncate_block(
        enlarge_block(Block.empty(), bare_site_basis(4, 4), 1.0),
        np.linalg.cholesky(rho),
        3,
    )[0]
    ops = site_operators(basis, 1.0)
    from oscdmrg.dmrg import _superblock_matvec

    apply, (dl, ds, dr) = _superblock_matvec(blk, ops, blk)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((dl * ds * dr, 1))
    v = rng.standard_normal((dl * ds * dr, 1))
    left = apply(2.0 * u - 0.7 * v)
    right = 2.0 * apply(u) - 0.7 * apply(v)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_superblock_untruncated_matches_ed():
    # full blocks, full site: the superblock spans the whole chain exactly
    hbar, m = 1.0, 6
    full = bare_site_basis(m, m)
    left = enlarge_block(Block.empty(), full, hbar)
    right = enlarge_block(enlarge_block(Block.empty(), full, hbar), full, hbar)
    ops = site_operators(full, hbar)
    cfg = DmrgConfig(kept_states=m, n_targets=1)
    res, _psi = superblock_solve(left, ops, right, cfg)
    e_ed, _ = ed_lowest(ChainSpec(4, hbar, m), 1)
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
    # gives the same answers from more matvecs. Superblocks of 8^3 = 512
    # states are above the solver's dense cutoff, so start vectors matter.
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
    # the measurement pass walks a converged state: each start vector is
    # already the solution
    for v0, res in warm_calls[-spec.n_sites:]:
        overlap = abs(v0[:, 0] @ res.vectors[:, 0]) / np.linalg.norm(v0[:, 0])
        assert overlap >= 1 - 1e-8
    matvecs = {label: sum(res.iterations for _v0, res in calls)
               for label, (_result, calls) in runs.items()}
    assert matvecs["warm"] <= 0.7 * matvecs["cold"]


def test_run_dmrg_sweep_trace_monotone():
    spec = ChainSpec(6, 1.0, 8)
    result = run_dmrg(spec, DmrgConfig(kept_states=4, n_targets=1, optimized=False))
    trace = result.sweep_energy_trace
    assert len(trace) >= 1
    assert np.all(np.diff(trace) <= 1e-9)


def test_sweep_solves_follow_the_tolerance_schedule(monkeypatch):
    # warmup and the measurement pass solve to EIG_TOL, each sweep to its own
    # entry of sweep_tolerances. Bare mode makes one solve per site visit:
    # four warmup solves grow the left block to sites 1..5, the first sweep visits
    # sites 6..10 and back to 1, later sweeps 1..10 and back, and the
    # measurement pass 1..10.
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
    expected += [dmrg_mod.EIG_TOL] * spec.n_sites
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
    lams = result.central_site_lambdas
    assert lams[0] > 0.5
    assert lams.sum() == pytest.approx(1.0, abs=1e-8)


def test_run_dmrg_deterministic():
    spec = ChainSpec(4, 1.0, 6)
    cfg = DmrgConfig(kept_states=4, feed_size=2, n_targets=2, optimized=True, seed=5)
    r1 = run_dmrg(spec, cfg)
    r2 = run_dmrg(spec, cfg)
    assert np.array_equal(r1.energies, r2.energies)
    assert r1.entanglement_SE == r2.entanglement_SE


def test_run_dmrg_hbar_scaling():
    # the wavefunction is hbar-independent, so energies scale exactly
    spec1 = ChainSpec(4, 1.0, 6)
    spec3 = ChainSpec(4, 3.0, 6)
    cfg = DmrgConfig(kept_states=5, feed_size=2, n_targets=2, optimized=True)
    r1 = run_dmrg(spec1, cfg)
    r3 = run_dmrg(spec3, cfg)
    np.testing.assert_allclose(r3.energies, 3.0 * r1.energies, rtol=1e-8)
    assert r3.entanglement_SE == pytest.approx(r1.entanglement_SE, abs=1e-8)


def test_optimize_site_basis_full_bare_space_is_rotation():
    # n = m: nothing to feed; the returned basis spans the full bare space
    hbar, m = 1.0, 4
    full = bare_site_basis(m, m)
    left = enlarge_block(Block.empty(), full, hbar)
    right = enlarge_block(Block.empty(), full, hbar)
    spec = ChainSpec(3, hbar, m)
    cfg = DmrgConfig(kept_states=m, feed_size=2, n_targets=1)
    basis, record = optimize_site_basis(spec, cfg, left, right, full, position=2)
    assert basis.kept_dim == m
    # spans the full space: the transform is orthogonal (identity up to rotation)
    np.testing.assert_allclose(
        basis.transform @ basis.transform.T, np.eye(m), atol=1e-10
    )
    assert record.kind == "site"
    assert record.discarded_weight == pytest.approx(0.0, abs=1e-10)
    # energy equals the unoptimized superblock ground state
    ops = site_operators(full, hbar)
    res, _ = superblock_solve(left, ops, right, cfg)
    e_ed = res.values[0]
    basis2, _rec = optimize_site_basis(spec, cfg, left, right, full, position=2)
    ops2 = site_operators(basis2, hbar)
    res2, _ = superblock_solve(left, ops2, right, cfg)
    assert res2.values[0] == pytest.approx(e_ed, abs=1e-10)


def test_refinement_converges_to_unique_fixed_point():
    # the feed loop at fixed blocks is a fixed-point iteration: per-cycle
    # discarded weights stabilize, and unrelated starting bases land on the
    # same kept subspace. (Monitored runs show the weight converges toward
    # its fixed point from either side, so only stabilization is asserted.)
    from oscdmrg import SiteBasis
    from oscdmrg.dmrg import _weighted_factor

    spec = ChainSpec(5, 1.0, 10)
    cfg = DmrgConfig(kept_states=4, feed_size=2, n_targets=1)
    full = bare_site_basis(10, 4)
    left1 = enlarge_block(Block.empty(), full, 1.0)
    ops = site_operators(full, 1.0)
    _eig, psi = superblock_solve(left1, ops, left1, cfg)
    factor = _weighted_factor(psi, (0, 1))
    left2, _ = truncate_block(enlarge_block(left1, full, 1.0), factor, 4)

    rng = np.random.default_rng(0)
    rand_cols = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    finals = {}
    for label, start in (("bare", full), ("random", SiteBasis(10, 4, rand_cols))):
        basis, weights = bare_site_basis(10, 4) if label == "bare" else start, []
        for _cycle in range(10):
            basis, rec = optimize_site_basis(
                spec, cfg, left2, left2, basis, position=3, max_cycles=1
            )
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
    from oscdmrg import SiteBasis
    from oscdmrg.dmrg import _weighted_factor

    m, n = 10, 7
    spec = ChainSpec(5, 1.0, m)
    cfg = DmrgConfig(kept_states=n, feed_size=3, n_targets=1)
    start = bare_site_basis(m, n)
    left1 = enlarge_block(Block.empty(), start, 1.0)
    _eig, psi = superblock_solve(left1, site_operators(start, 1.0), left1, cfg)
    factor = _weighted_factor(psi, (0, 1))
    left2, _ = truncate_block(enlarge_block(left1, start, 1.0), factor, n)

    rng = np.random.default_rng(3)
    rand_cols = np.linalg.qr(rng.standard_normal((m, n)))[0]
    calls = _counting_lowest_k(monkeypatch)
    basis, record = optimize_site_basis(
        spec, cfg, left2, left2, SiteBasis(m, n, rand_cols), position=3
    )
    assert calls[0] == 1

    _eig, psi_full = superblock_solve(
        left2, site_operators(bare_site_basis(m, m), 1.0), left2, cfg
    )
    rho_site = np.einsum("asb,atb->st", psi_full[..., 0], psi_full[..., 0])
    lam, vecs = np.linalg.eigh(rho_site)
    top = vecs[:, ::-1][:, :n]
    b = basis.transform
    assert np.max(np.abs(b @ b.T - top @ top.T)) <= 1e-8
    assert record.discarded_weight == pytest.approx(lam[: m - n].sum(), abs=1e-10)


def _solves_per_visit(monkeypatch, spec, cfg):
    """lowest_k calls of each site visit of run_dmrg, in visit order, and
    the index of the first visit after the first sweep."""
    import oscdmrg.dmrg as dmrg_mod

    calls = _counting_lowest_k(monkeypatch)
    refine = dmrg_mod._refine_site_basis
    visits = []

    def counted_visit(*args, **kwargs):
        before = calls[0]
        out = refine(*args, **kwargs)
        visits.append((kwargs["position"], calls[0] - before))
        return out

    monkeypatch.setattr(dmrg_mod, "_refine_site_basis", counted_visit)
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


def test_averaged_rdm_matches_einsum_partial_trace():
    from oscdmrg.dmrg import _averaged_rdm

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
        rho = _averaged_rdm(psi, axes)
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
       block_width=st.booleans(), coeff=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_superblock_matvec_equals_kron_assembly(left, right, ds, nb, block_width, coeff,
                                                seed):
    # blocks of the solve's width k and of other widths take different
    # right-block products; the identity is the dense path's input
    from oscdmrg.dmrg import _superblock_matvec

    rng = np.random.default_rng(seed)
    ops = SiteOperators(h=_random_sym(rng, ds), x=_random_sym(rng, ds), bond_coeff=coeff)
    apply, dims = _superblock_matvec(left, ops, right, k=nb if block_width else 1)
    assert dims == (left.basis_dim, ds, right.basis_dim)
    hl, xl, hr, xr = left.hamiltonian, left.edge_x, right.hamiltonian, right.edge_x
    il, i_s, ir = np.eye(left.basis_dim), np.eye(ds), np.eye(right.basis_dim)

    def kron3(a, b, c):
        return np.kron(a, np.kron(b, c))

    ham = (kron3(hl, i_s, ir) + kron3(il, ops.h, ir) + kron3(il, i_s, hr)
           + coeff * (kron3(xl, ops.x, ir) + kron3(il, ops.x, xr)))
    vblock = rng.standard_normal((ham.shape[0], nb))
    np.testing.assert_allclose(apply(vblock), ham @ vblock, rtol=0, atol=1e-12)
    np.testing.assert_allclose(apply(np.eye(ham.shape[0])), ham, rtol=0, atol=1e-12)
    # a strided column slice of a wider array reads like its contiguous copy
    strided = rng.standard_normal((ham.shape[0], nb + 2))[:, 1:-1]
    np.testing.assert_allclose(apply(strided), apply(np.ascontiguousarray(strided)),
                               rtol=0, atol=1e-12)


@st.composite
def _truncations(draw):
    """A block, an equally weighted wavefunction factor of 1-3 targets and a
    number of kept states. Its rows may outnumber its columns or not, and
    it may have fewer columns than kept states."""
    n_tar = draw(st.integers(1, 3))
    dl, ds, dr = (draw(st.integers(1, 6)) for _ in range(3))
    axes = draw(st.sampled_from([(0, 1), (2, 1)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((dl, ds, dr, n_tar))
    psi /= np.linalg.norm(psi.reshape(-1, n_tar), axis=0)
    dim = math.prod(psi.shape[a] for a in axes)
    n = draw(st.integers(1, dim))
    block = Block(2, dim, _random_sym(rng, dim), _random_sym(rng, dim))
    return block, psi, axes, n


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_truncations())
def test_truncate_block_from_factor_matches_eigh_of_rho(problem):
    # the left singular vectors of M are the eigenvectors of rho = M M^T
    from oscdmrg.dmrg import _averaged_rdm, _weighted_factor

    block, psi, axes, n = problem
    factor = _weighted_factor(psi, axes)
    rho = _averaged_rdm(psi, axes)
    np.testing.assert_allclose(factor @ factor.T, rho, rtol=0, atol=1e-14)
    new, record = truncate_block(block, factor, n, position=3)

    lam, vecs = np.linalg.eigh(rho)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    np.testing.assert_allclose(record.lambdas, lam, rtol=0, atol=1e-12)
    assert record.discarded_weight == pytest.approx(lam[n:].sum(), abs=1e-12)
    v = new.rotation
    assert v.shape == (block.basis_dim, n)
    np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(new.hamiltonian, v.T @ block.hamiltonian @ v,
                               rtol=0, atol=1e-12)
    if n == lam.size or lam[n - 1] - lam[n] > 1e-6:
        top = vecs[:, :n]
        np.testing.assert_allclose(v @ v.T, top @ top.T, rtol=0, atol=1e-8)
