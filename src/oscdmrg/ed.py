"""Exact diagonalization of the full chain on the truncated Fock space.

Applies H = sum_i h_i + g * sum_{i<N} x_i x_{i+1} on the m^N product space
as a matrix-free tensor contraction, at every size, and solves each parity
sector for its lowest eigenpairs. This is the second, non-analytic oracle
used to validate the DMRG engine state by state.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, ground_energy_closed, parity_levels
from .errors import ResourceLimitError
from .fock import BOND_COEFFICIENT, kron, ladder_ops, onsite_term
from .lanczos import lowest_k

__all__ = ["FULL_DIM_GUARD", "FullState", "FullHamiltonian", "build_full_hamiltonian",
           "ed_lowest"]

FULL_DIM_GUARD = 2**20


@dataclass(frozen=True)
class FullState:
    """Normalized many-body state on the m^N product basis (site 1 is the
    slowest-varying index)."""

    n_sites: int
    site_dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float).ravel()
        if len(self.site_dims) != self.n_sites:
            raise ValueError("site_dims length does not match n_sites")
        dim = 1
        for d in self.site_dims:
            dim *= d
        if amps.size != dim:
            raise ValueError(f"amplitude length {amps.size} != product dim {dim}")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "amplitudes", amps)


class FullHamiltonian:
    """Symmetric linear map for the full chain Hamiltonian.

    Each matvec applies the on-site diagonal and then every bond term as
    one GEMM on a reshaped view of the state, never materializing a
    many-body Kronecker product. Both are built at hbar = 1 and scaled by
    ``spec.hbar_tilde`` here, once.
    """

    def __init__(self, spec: ChainSpec):
        n, m = spec.n_sites, spec.bare_dim
        dim = m**n
        if dim > FULL_DIM_GUARD:
            raise ResourceLimitError(
                f"full Hilbert space of dimension {dim} exceeds guard {FULL_DIM_GUARD}"
            )
        self.dim = dim
        self.n_sites = n
        self.site_dim = m
        a, ad = ladder_ops(m)
        # One bond term g x_i x_{i+1} on a pair of sites.
        self._gxx = spec.hbar_tilde * BOND_COEFFICIENT * kron(a + ad, a + ad)

        d1 = spec.hbar_tilde * np.diag(onsite_term(m))
        self._diag = functools.reduce(np.add.outer, [d1] * n).ravel()

    def matvec_block(self, vblock: np.ndarray) -> np.ndarray:
        """H @ vblock for a (dim, k) block, as a (dim, k) array.

        It computes on rows, one state per row, and returns the transpose
        of its C-contiguous (k, dim) result (an F-ordered array). So a block
        of stored rows, ``rows.T``, goes in and out without a copy; a
        column-stored block is copied once.
        """
        vblock = np.asarray(vblock, dtype=float)
        if vblock.ndim != 2 or vblock.shape[0] != self.dim:
            raise ValueError(f"expected shape ({self.dim}, k), got {vblock.shape}")
        n, m = self.n_sites, self.site_dim
        # Every bond below is a reshape view, which needs contiguous rows.
        rows = np.ascontiguousarray(vblock.T)
        out = rows * self._diag
        for i in range(n - 1):
            # Bond (i, i+1) acts on the middle axis of (k left, pair, r).
            r = m ** (n - i - 2)
            left = rows.shape[0] * m**i
            if r > 2:
                out.reshape(left, m * m, r)[...] += np.matmul(
                    self._gxx, rows.reshape(left, m * m, r))
            else:
                # Here the batch's tiny GEMMs cost more than the r-fold
                # flops of one GEMM by gxx (x) 1_r (measured, m = 2..14).
                out.reshape(left, -1)[...] += (
                    rows.reshape(left, -1) @ np.kron(self._gxx.T, np.eye(r)))
        return out.T


def build_full_hamiltonian(spec: ChainSpec) -> FullHamiltonian:
    """The full many-body Hamiltonian on the m^N truncated Fock space."""
    return FullHamiltonian(spec)


def _sector_matvec(ham: FullHamiltonian, idx: np.ndarray):
    """H on the product states ``idx``, through the full matvec."""
    def apply(block: np.ndarray) -> np.ndarray:
        rows = np.zeros((block.shape[1], ham.dim))
        rows[:, idx] = block.T
        return ham.matvec_block(rows.T).T[:, idx].T
    return apply


def ed_lowest(spec: ChainSpec, k: int, seed: int = 0) -> tuple[np.ndarray, list[FullState]]:
    """The k lowest exact eigenpairs, to the solver's default tolerance
    1e-10: (ascending energies, states on the full m^N space).

    H conserves P = (-1)^(sum_i n_i); each sector is solved on its own for
    as many states as the closed form puts in it. H_m compresses the
    untruncated H onto a cutoff that commutes with P, so by Cauchy
    interlacing a sector's next level is at least its next closed-form
    level. Where that bound does not clear the k-th energy found (ties
    included), the sector is solved again for its closed-form levels up to
    that energy, at most k.
    """
    ham = build_full_hamiltonian(spec)
    if not 1 <= k <= ham.dim:
        raise ValueError(f"k={k} outside 1..{ham.dim}")
    quanta = functools.reduce(np.add.outer, [np.arange(spec.bare_dim)] * spec.n_sites)
    sectors = {s: np.flatnonzero(1 - 2 * (quanta.ravel() % 2) == s) for s in (1, -1)}
    first = [s for _, s in itertools.islice(parity_levels(spec), k)]
    caps = {s: min(idx.size, k) for s, idx in sectors.items()}
    counts = {s: min(first.count(s), caps[s]) for s in sectors}
    e0, solved, rise = ground_energy_closed(spec), {}, True
    while rise:
        for s, idx in sectors.items():
            if counts[s] > (solved[s].values.size if s in solved else 0):
                solved[s] = lowest_k(_sector_matvec(ham, idx), idx.size, counts[s], seed=seed)
        found = sorted((e, s, j) for s, res in solved.items() for j, e in enumerate(res.values))
        e_k = found[k - 1][0] if len(found) >= k else np.inf
        below = dict.fromkeys(sectors, 0)  # closed-form levels <= e_k, up to the cap
        for energy, s in parity_levels(spec):
            if e0 + energy > e_k or all(below[t] >= caps[t] for t in below):
                break
            below[s] += 1
        rise = {s: min(below[s], caps[s]) for s in sectors if counts[s] < min(below[s], caps[s])}
        counts.update(rise)
    vecs = np.zeros((k, ham.dim))
    for vec, (_, s, j) in zip(vecs, found):
        vec[sectors[s]] = solved[s].vectors[:, j]
    states = [FullState(spec.n_sites, quanta.shape, v / np.linalg.norm(v)) for v in vecs]
    return np.array([e for e, _, _ in found[:k]]), states
