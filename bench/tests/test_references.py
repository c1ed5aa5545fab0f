"""The benchmark's references agree with each other and with known values."""

import math

import numpy as np
import pytest

import references as ref


def dense_chain_hamiltonian(n_sites, m, hbar=1.0):
    ident = np.eye(m**n_sites)
    return ref.apply_chain_hamiltonian(ident, n_sites, m, hbar)


@pytest.mark.parametrize("n_sites", [1, 2, 5, 30])
@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
def test_ground_energy_is_half_sum_over_normal_modes(n_sites, hbar):
    # H = (sqrt(2) hbar / 2)(p.p + q^T A q) has zero-point energy
    # (sqrt(2) hbar / 2) * sum_j sqrt(a_j) over the eigenvalues a_j of A.
    a = np.linalg.eigvalsh(ref._coupling_matrix(n_sites))
    expected = math.sqrt(2.0) * hbar / 2.0 * np.sqrt(a).sum()
    assert ref.ground_energy(n_sites, hbar) == pytest.approx(expected, rel=1e-13)


def test_first_gap_is_softest_mode():
    for n_sites in (1, 3, 16):
        assert ref.first_gap(n_sites, 1.5) == pytest.approx(
            1.5 * ref.mode_frequencies(n_sites)[0], rel=1e-15)


def test_own_hamiltonian_reproduces_closed_forms_at_large_cutoff():
    h = dense_chain_hamiltonian(2, 14, hbar=0.7)
    assert np.allclose(h, h.T, atol=1e-13)
    levels = np.linalg.eigvalsh(h)
    assert levels[0] == pytest.approx(ref.ground_energy(2, 0.7), abs=1e-9)
    assert levels[1] - levels[0] == pytest.approx(ref.first_gap(2, 0.7), abs=1e-7)


def test_gaussian_entanglement_known_values():
    assert ref.gaussian_entanglement(3) == pytest.approx(0.148710285, abs=5e-10)
    assert ref.gaussian_entanglement(50) == pytest.approx(0.530445975, abs=5e-10)


def test_gaussian_entropies_match_ed_with_own_hamiltonian():
    n_sites, m = 3, 10
    _, vecs = np.linalg.eigh(dense_chain_hamiltonian(n_sites, m))
    psi = vecs[:, 0].reshape((m,) * n_sites)
    exact = ref.gaussian_site_entropies(n_sites)
    for i in range(n_sites):
        mat = np.moveaxis(psi, i, 0).reshape(m, -1)
        lam = np.linalg.eigvalsh(mat @ mat.T)
        lam = lam[lam > 1e-300]
        assert -(lam * np.log(lam)).sum() == pytest.approx(exact[i], abs=1e-6)
    # Reflection symmetry of the fixed-end chain.
    assert exact == pytest.approx(exact[::-1], abs=1e-12)


def test_ed_residuals_vanish_on_eigenpairs_only():
    n_sites, m = 3, 4
    vals, vecs = np.linalg.eigh(dense_chain_hamiltonian(n_sites, m))
    assert np.all(ref.ed_residuals(vecs[:, :2], vals[:2], n_sites, m) < 1e-12)
    shifted = ref.ed_residuals(vecs[:, :2], vals[:2] + 1e-3, n_sites, m)
    assert np.all(shifted == pytest.approx(1e-3, rel=1e-9))
    mixed = (vecs[:, 0] + 1e-3 * vecs[:, 1]) / math.hypot(1.0, 1e-3)
    assert ref.ed_residuals(mixed[:, None], vals[:1], n_sites, m)[0] > 1e-5


def test_own_hamiltonian_matches_program():
    oscdmrg = pytest.importorskip("oscdmrg")
    spec = oscdmrg.ChainSpec(4, 1.3, 4)
    ham = oscdmrg.FullHamiltonian(spec)
    v = np.random.default_rng(0).standard_normal((4**4, 3))
    assert np.allclose(ham.matvec_block(v), ref.apply_chain_hamiltonian(v, 4, 4, 1.3),
                       atol=1e-12)
