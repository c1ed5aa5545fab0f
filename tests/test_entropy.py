import math

import numpy as np
import pytest

from oscdmrg import ChainSpec, InvalidDensityError, ed_lowest, site_rdm, von_neumann
from oscdmrg.ed import FullState


def _state(n_sites, dims, amps):
    amps = np.asarray(amps, dtype=float)
    return FullState(n_sites, dims, amps / np.linalg.norm(amps))


def test_site_rdm_product_state():
    psi = np.zeros(4)
    psi[0] = 1.0  # |00>
    state = _state(2, (2, 2), psi)
    np.testing.assert_allclose(site_rdm(state, 1), [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(site_rdm(state, 2), [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_site_rdm_maximally_entangled_pair():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)  # (|01> + |10>)/sqrt(2)
    state = _state(2, (2, 2), psi)
    np.testing.assert_allclose(site_rdm(state, 1), 0.5 * np.eye(2), atol=1e-14)


def test_site_rdm_trace_and_bounds():
    rng = np.random.default_rng(3)
    state = _state(3, (3, 3, 3), rng.standard_normal(27))
    for site in (1, 2, 3):
        rho = site_rdm(state, site)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.T, atol=1e-12)
        s = von_neumann(rho)
        assert 0.0 <= s <= math.log(3) + 1e-12
    with pytest.raises(ValueError):
        site_rdm(state, 0)
    with pytest.raises(ValueError):
        site_rdm(state, 4)


def test_von_neumann_values():
    assert von_neumann(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann(0.5 * np.eye(2)) == pytest.approx(math.log(2), abs=1e-12)
    assert von_neumann(np.diag([0.75, 0.25])) == pytest.approx(
        0.5623351446188083, abs=1e-12
    )


def test_von_neumann_clamps_tiny_negatives():
    rho = np.diag([1.0 + 5e-11, -5e-11])
    assert von_neumann(rho) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(InvalidDensityError):
        von_neumann(np.diag([1.1, -0.1]))


def test_von_neumann_rotation_invariant():
    rng = np.random.default_rng(8)
    lam = np.array([0.6, 0.25, 0.1, 0.05])
    rho = np.diag(lam)
    s0 = von_neumann(rho)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert abs(von_neumann(q.T @ rho @ q) - s0) <= 1e-10


def test_ed_ground_state_entropies():
    # regression value frozen from the exact-diagonalization oracle
    spec = ChainSpec(3, 1.0, 4)
    _, states = ed_lowest(spec, 1)
    rhos = [site_rdm(states[0], i) for i in (1, 2, 3)]
    se = sum(von_neumann(r) for r in rhos) / len(rhos)
    assert se == pytest.approx(0.14612728535414862, abs=1e-10)
    assert se > 0


def test_reflection_symmetry_of_ground_state():
    spec = ChainSpec(4, 1.0, 4)
    _, states = ed_lowest(spec, 1)
    s = [von_neumann(site_rdm(states[0], i)) for i in (1, 2, 3, 4)]
    assert s[0] == pytest.approx(s[3], abs=1e-8)
    assert s[1] == pytest.approx(s[2], abs=1e-8)
