import math

import numpy as np
import pytest

from oscdmrg import ChainSpec, ResourceLimitError, ground_energy_closed
from oscdmrg.fock import (
    BOND_COEFFICIENT,
    SiteBasis,
    bare_site_basis,
    kron,
    ladder_ops,
    onsite_term,
    project,
)
from oscdmrg.fock import KRON_ENTRY_CAP


def _position_and_momentum(d):
    """x = 2^(-3/4) (a + a^dag) and the real antisymmetric M = 2^(-1/4)
    (a^dag - a), P = i M, of the chain at unit hbar."""
    a, ad = ladder_ops(d)
    return 2.0**-0.75 * (a + ad), 2.0**-0.25 * (ad - a)


def test_ladder_ops_small():
    a, ad = ladder_ops(2)
    np.testing.assert_array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(ad, a.T)
    a3, _ = ladder_ops(3)
    assert a3[1, 2] == pytest.approx(math.sqrt(2))
    with pytest.raises(ValueError):
        ladder_ops(1)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_ladder_commutator_truncation_artifact(d):
    a, ad = ladder_ops(d)
    comm = a @ ad - ad @ a
    expected = np.eye(d)
    expected[d - 1, d - 1] = -(d - 1)
    np.testing.assert_allclose(comm, expected, atol=1e-12)


def test_number_operator_diagonal():
    a, ad = ladder_ops(9)
    num = ad @ a
    # strictly diagonal by construction; sqrt(k)^2 rounds at machine epsilon
    np.testing.assert_array_equal(num - np.diag(np.diag(num)), np.zeros((9, 9)))
    np.testing.assert_allclose(np.diag(num), np.arange(9.0), atol=5e-15)


def test_momentum_commutator_and_kinetic():
    d = 10
    x, p_gen = _position_and_momentum(d)
    np.testing.assert_allclose(p_gen, -p_gen.T, atol=1e-14)
    comm = x @ p_gen - p_gen @ x
    # canonical away from the truncation corner
    np.testing.assert_allclose(comm[: d - 1, : d - 1], np.eye(d - 1), atol=1e-12)
    # -P^2/2 + x^2 reproduces the on-site term in the interior
    h_built = -0.5 * (p_gen @ p_gen) + x @ x
    h_ref = onsite_term(d)
    np.testing.assert_allclose(h_built[: d - 2, : d - 2], h_ref[: d - 2, : d - 2], atol=1e-12)


def test_onsite_term():
    h = onsite_term(2)
    np.testing.assert_allclose(
        h, np.diag([math.sqrt(2) / 2, 3 * math.sqrt(2) / 2]), atol=1e-12
    )
    d = 11
    assert np.trace(onsite_term(d)) == pytest.approx(math.sqrt(2) * d**2 / 2, rel=1e-12)
    # ground entry equals the single-site chain ground energy
    assert onsite_term(6)[0, 0] == pytest.approx(
        ground_energy_closed(ChainSpec(1)), abs=1e-12
    )


def test_bond_coefficient():
    assert BOND_COEFFICIENT == pytest.approx(-math.sqrt(2) / 4, abs=1e-15)
    # equals -c^2 with c the position-operator prefactor
    c = _position_and_momentum(2)[0][0, 1]
    assert c == pytest.approx(0.5946035575013605, abs=1e-15)
    assert BOND_COEFFICIENT == pytest.approx(-(c**2), abs=1e-15)


def test_kron_basics():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    np.testing.assert_array_equal(
        kron(np.diag([1.0, 2.0]), np.eye(2)), np.diag([1.0, 1.0, 2.0, 2.0])
    )
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((4, 4))
    assert np.trace(kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b), rel=1e-12)


def test_kron_entry_cap():
    # 4097^2 entries exceed KRON_ENTRY_CAP = 2^24; the guard fires before
    # anything is allocated.
    row = np.ones((1, 4097))
    with pytest.raises(ResourceLimitError, match=f"cap {KRON_ENTRY_CAP}"):
        kron(row, row)


def test_site_basis_validation():
    bare_site_basis(6, 4)
    with pytest.raises(ValueError):
        bare_site_basis(4, 5)
    with pytest.raises(ValueError, match="not orthonormal"):
        SiteBasis(np.ones((4, 2)))


def test_site_basis_carries_its_projected_operators():
    # dims read off the transform; h and x are the bare on-site term and
    # (a^dag + a) projected once, bit for bit
    rng = np.random.default_rng(7)
    m, n = 8, 5
    a, ad = ladder_ops(m)
    for t in (np.eye(m)[:, :n], np.linalg.qr(rng.standard_normal((m, n)))[0]):
        b = SiteBasis(t)
        assert (b.bare_dim, b.dim) == (m, n)
        assert np.array_equal(b.h, project(onsite_term(m), b))
        assert np.array_equal(b.x, project(a + ad, b))


def test_project_identity_and_diagonal_block():
    h = np.diag([1.0, 2.0, 3.0, 4.0])
    full = SiteBasis(np.eye(4))
    np.testing.assert_allclose(project(h, full), h, atol=1e-14)
    top = bare_site_basis(4, 2)
    np.testing.assert_allclose(project(h, top), np.diag([1.0, 2.0]), atol=1e-14)
    with pytest.raises(ValueError):
        project(np.eye(3), top)


def test_project_preserves_symmetry_and_interlacing():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m, n = 10, 4
        a = rng.standard_normal((m, m))
        sym = 0.5 * (a + a.T)
        q, _ = np.linalg.qr(rng.standard_normal((m, n)))
        basis = SiteBasis(q)
        proj = project(sym, basis)
        np.testing.assert_allclose(proj, proj.T, atol=1e-12)
        # variational bound: the projected minimum cannot undercut the true one
        assert np.linalg.eigvalsh(proj)[0] >= np.linalg.eigvalsh(sym)[0] - 1e-10


def test_single_site_hamiltonian_ground_energy():
    # for one site the full Hamiltonian is the on-site term alone
    for d in (2, 5, 9):
        h = onsite_term(d)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
