import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdmrg import ChainSpec, ResourceLimitError, ed_lowest, ground_energy_closed
from oscdmrg.ed import FullState, build_full_hamiltonian
from oscdmrg.fock import BOND_COEFFICIENT, kron, ladder_ops, onsite_term
from oscdmrg.lanczos import lowest_k
from oscdmrg import ed as ed_module
from oscdmrg.chain import parity_levels


def _dense_h(spec):
    """H as a sum of Kronecker products of on-site and bond terms, built
    apart from FullHamiltonian as a reference for it."""
    n, m, hbar = spec.n_sites, spec.bare_dim, spec.hbar_tilde
    a, ad = ladder_ops(m)
    gxx = hbar * BOND_COEFFICIENT * kron(a + ad, a + ad)
    h = np.zeros((m**n, m**n))
    for i in range(n):
        h += kron(kron(np.eye(m**i), hbar * onsite_term(m)), np.eye(m ** (n - i - 1)))
    for i in range(n - 1):
        h += kron(kron(np.eye(m**i), gxx), np.eye(m ** (n - i - 2)))
    return h


def test_full_state_validation():
    amps = np.zeros(8)
    amps[0] = 1.0
    FullState(3, (2, 2, 2), amps)
    with pytest.raises(ValueError):
        FullState(3, (2, 2, 2), np.ones(8))  # not normalized
    with pytest.raises(ValueError):
        FullState(2, (2, 2, 2), amps)
    with pytest.raises(ValueError):
        FullState(3, (2, 2, 2), amps[:4])


def test_single_site_is_onsite_term():
    spec = ChainSpec(1, 1.3, 7)
    ham = build_full_hamiltonian(spec)
    np.testing.assert_allclose(ham.matvec_block(np.eye(7)), 1.3 * onsite_term(7), atol=1e-14)


def test_two_site_hand_assembled():
    spec = ChainSpec(2, 1.0, 2)
    g = BOND_COEFFICIENT
    s2 = math.sqrt(2)
    expected = np.array(
        [
            [s2, 0.0, 0.0, g],
            [0.0, 2 * s2, g, 0.0],
            [0.0, g, 2 * s2, 0.0],
            [g, 0.0, 0.0, 3 * s2],
        ]
    )
    for h in (build_full_hamiltonian(spec).matvec_block(np.eye(4)), _dense_h(spec)):
        np.testing.assert_allclose(h, expected, atol=1e-14)
        assert h[1, 2] == pytest.approx(-math.sqrt(2) / 4, abs=1e-14)


def test_hamiltonian_symmetric_and_paths_agree():
    spec = ChainSpec(3, 0.8, 5)
    columns = build_full_hamiltonian(spec).matvec_block(np.eye(125))
    np.testing.assert_allclose(columns, columns.T, atol=1e-13)
    np.testing.assert_allclose(columns, _dense_h(spec), atol=1e-13)


@st.composite
def _matvec_problems(draw):
    """A chain of at most 1024 states and a block of 1-3 columns, so that
    bonds with r = m^(N-i-2) of at most 2 and above 2 both occur."""
    m = draw(st.integers(2, 5))
    n_sites = draw(st.integers(2, {2: 6, 3: 6, 4: 5, 5: 4}[m]))
    hbar = draw(st.floats(0.5, 2.0))
    nb = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return ChainSpec(n_sites, hbar, m), nb, seed


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_matvec_problems())
def test_matrix_free_matvec_equals_dense_assembly(problem):
    spec, nb, seed = problem
    ham = build_full_hamiltonian(spec)
    h = _dense_h(spec)
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((ham.dim, nb + 2))
    rows = rng.standard_normal((nb + 2, ham.dim))
    # A strided column slice, as of a column-stored Krylov basis, and a
    # block of stored rows (F-ordered), as lowest_k hands over.
    col_block, row_block = q[:, 1:1 + nb], rows[1:1 + nb].T
    for block in (col_block, row_block):
        out = ham.matvec_block(block)
        assert out.shape == block.shape
        np.testing.assert_allclose(out, h @ block, rtol=0, atol=1e-11)
    np.testing.assert_array_equal(ham.matvec_block(col_block),
                                  ham.matvec_block(col_block.copy()))
    np.testing.assert_allclose(ham.matvec_block(row_block),
                               ham.matvec_block(np.ascontiguousarray(row_block)),
                               rtol=0, atol=1e-14)


def test_ed_solve_peak_memory():
    # The matrix-free solve at 78125 states is one k=1 solve per parity
    # sector of about 39k states. Each holds a 16-row Krylov basis (4.8 MiB)
    # and scatters every product into a full-space row and gathers it back
    # (0.6 MiB each), beside the sector labels and the on-site diagonal. A
    # smaller matrix-free solve runs first, so that one-time allocations do
    # not count.
    ed_lowest(ChainSpec(6, 1.0, 5), 2, seed=721)
    tracemalloc.start()
    try:
        ed_lowest(ChainSpec(7, 1.0, 5), 2, seed=721)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 9.7, f"ED solve peak {peak:.2f} MiB exceeds 9.7 MiB"


@pytest.mark.parametrize("n_sites,m,k", [(6, 4, 2), (12, 2, 6)])
def test_ed_peak_memory_at_4096_states(n_sites, m, k):
    # The operator never forms the 4096 x 4096 matrix (128 MiB). What is
    # left are Krylov bases on 2048-state sectors: 16 rows (0.25 MiB) per
    # k=1 sector solve at (6, 4, 2), up to 46 rows (0.7 MiB) for the k=6
    # re-solves at (12, 2, 6). Measured peaks: 0.5 and 1.8 MiB.
    ed_lowest(ChainSpec(3, 1.0, m), 1)
    tracemalloc.start()
    try:
        ed_lowest(ChainSpec(n_sites, 1.0, m), k)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 4.0, f"ED solve peak {peak:.2f} MiB exceeds 4 MiB"


def test_resource_guards():
    with pytest.raises(ResourceLimitError):
        build_full_hamiltonian(ChainSpec(13, 1.0, 3))  # 3^13 > 2^20


def test_ed_single_site_exact():
    for m in (2, 5, 10):
        energies, states = ed_lowest(ChainSpec(1, 1.0, m), 1)
        assert energies[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-10)
        assert abs(np.linalg.norm(states[0].amplitudes) - 1.0) < 1e-10


def test_ed_m_convergence_and_variational():
    # monotone decrease toward the analytic value as the cutoff grows
    for n_sites in (2, 3):
        exact = ground_energy_closed(ChainSpec(n_sites))
        prev = None
        for m in (4, 6, 8, 10, 12, 14):
            e, _ = ed_lowest(ChainSpec(n_sites, 1.0, m), 1)
            assert e[0] >= exact - 1e-9
            if prev is not None:
                assert e[0] <= prev + 1e-12
            prev = e[0]
        assert prev - exact < 1e-6


def test_ed_two_site_gap_adjudication():
    # converged gap equals one quantum of the softest mode, 2*sin(pi/6) = 1
    energies, _ = ed_lowest(ChainSpec(2, 1.0, 14), 2)
    assert energies[1] - energies[0] == pytest.approx(1.0, abs=1e-5)


def test_ed_energies_scale_linearly_in_hbar():
    e1, _ = ed_lowest(ChainSpec(3, 1.0, 5), 2)
    e2, _ = ed_lowest(ChainSpec(3, 2.0, 5), 2)
    np.testing.assert_allclose(e2, 2.0 * e1, rtol=1e-9)


def test_ed_sector_solves_match_one_full_space_solve():
    spec = ChainSpec(6, 1.0, 3)
    energies, _ = ed_lowest(spec, 2)
    ham = build_full_hamiltonian(spec)
    res = lowest_k(ham.matvec_block, ham.dim, 2)
    np.testing.assert_allclose(res.values, energies, atol=1e-9)


def _parity(state):
    """<P> of a state, P = (-1)^(sum_i n_i)."""
    quanta = np.indices(state.site_dims).sum(axis=0).ravel()
    return float(np.sum((1 - 2 * (quanta % 2)) * state.amplitudes**2))


@pytest.mark.parametrize("n_sites,m", [(4, 6), (5, 5)])
def test_ed_lowest_levels_have_definite_parity(n_sites, m):
    # measured before the sector solves: +, -, -, +, - at both sizes
    _, states = ed_lowest(ChainSpec(n_sites, 1.0, m), 5)
    np.testing.assert_allclose([_parity(s) for s in states], [1, -1, -1, 1, -1],
                               rtol=0, atol=1e-12)


@st.composite
def _ed_problems(draw):
    """A chain of at most 1296 states, so that a dense eigvalsh is cheap,
    and k from 1 to 6."""
    m = draw(st.integers(2, 6))
    n_sites = draw(st.integers(1, {2: 10, 3: 6, 4: 5, 5: 4, 6: 4}[m]))
    hbar = draw(st.floats(0.5, 2.0))
    k = draw(st.integers(1, min(6, m**n_sites)))
    return ChainSpec(n_sites, hbar, m), k


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_ed_problems())
def test_ed_lowest_equals_dense_eigvalsh(problem):
    spec, k = problem
    energies, states = ed_lowest(spec, k)
    h = _dense_h(spec)
    np.testing.assert_allclose(energies, np.linalg.eigvalsh(h)[:k], rtol=0, atol=1e-9)
    for e, state in zip(energies, states):
        assert abs(abs(_parity(state)) - 1.0) <= 1e-12
        resid = np.linalg.norm(h @ state.amplitudes - e * state.amplitudes)
        assert resid <= 1e-9 * max(1.0, abs(e))


@pytest.mark.parametrize("n_sites,m,k,closed,ed,calls", [
    # The cutoff lifts the second even level above the third odd one, so
    # the closed-form counts (2, 2) leave the fourth energy to the second
    # even state; both sectors' next closed-form levels lie below it, so
    # each is solved again for three states.
    (6, 3, 4, [1, -1, -1, 1], [1, -1, -1, -1], [(365, 2), (364, 2), (365, 3), (364, 3)]),
    # At m=2 the cutoff lifts every level far above the closed form: more
    # than six closed-form levels of each sector lie below the sixth energy
    # found, so each sector is solved again once, for k states, which
    # always suffice.
    (10, 2, 6, [1, -1, -1, 1, -1, 1], [1, -1, -1, -1, -1, -1],
     [(512, 3), (512, 3), (512, 6), (512, 6)]),
])
def test_ed_certificate_solves_sectors_again(monkeypatch, n_sites, m, k, closed, ed, calls):
    spec = ChainSpec(n_sites, 1.0, m)
    assert [s for _, s in itertools.islice(parity_levels(spec), k)] == closed
    made = []

    def counting(apply, dim, k, **kwargs):
        made.append((dim, k))
        return lowest_k(apply, dim, k, **kwargs)

    monkeypatch.setattr(ed_module, "lowest_k", counting)
    energies, states = ed_lowest(spec, k)
    assert made == calls
    h = _dense_h(spec)
    np.testing.assert_allclose(energies, np.linalg.eigvalsh(h)[:k], rtol=0, atol=1e-9)
    np.testing.assert_allclose([_parity(s) for s in states], ed, rtol=0, atol=1e-12)


def test_ed_lowest_rejects_k_outside_the_space():
    for k in (0, 9):
        with pytest.raises(ValueError, match="outside 1..8"):
            ed_lowest(ChainSpec(3, 1.0, 2), k)
