"""Exact diagonalization of the full chain on the truncated Fock space.

Builds H = sum_i h_i + g * sum_{i<N} x_i x_{i+1} on the m^N product space,
materialized dense for small dimensions and as a matrix-free tensor
contraction otherwise, then solves for the lowest eigenpairs. This is the
second, non-analytic oracle used to validate the DMRG engine state by
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .errors import ResourceLimitError
from .fock import bond_coefficient, kron, ladder_ops, onsite_term
from .lanczos import lowest_k

__all__ = ["DENSE_DIM_MAX", "FULL_DIM_GUARD", "FullState", "FullHamiltonian",
           "build_full_hamiltonian", "ed_lowest"]

DENSE_DIM_MAX = 4096
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

    Dense when the dimension allows it; otherwise each matvec applies the
    on-site diagonal and then every bond term as one GEMM on a reshaped
    view of the state, never materializing a many-body Kronecker product.
    """

    def __init__(self, spec: ChainSpec, force_matrix_free: bool = False):
        n, m = spec.n_sites, spec.bare_dim
        dim = m**n
        if dim > FULL_DIM_GUARD:
            raise ResourceLimitError(
                f"full Hilbert space of dimension {dim} exceeds guard {FULL_DIM_GUARD}"
            )
        self.spec = spec
        self.dim = dim
        self.n_sites = n
        self.site_dim = m
        a, ad = ladder_ops(m)
        # One bond term g x_i x_{i+1} on a pair of sites.
        self._gxx = bond_coefficient(spec.hbar_tilde) * kron(a + ad, a + ad)

        d1 = np.diag(onsite_term(m, spec.hbar_tilde))
        diag_nd = np.zeros((m,) * n)
        for i in range(n):
            shape = [1] * n
            shape[i] = m
            diag_nd = diag_nd + d1.reshape(shape)
        self._diag = diag_nd.ravel()

        self._dense: np.ndarray | None = None
        if dim <= DENSE_DIM_MAX and not force_matrix_free:
            self._dense = self._assemble_dense()

    def _assemble_dense(self) -> np.ndarray:
        n, m = self.n_sites, self.site_dim
        h = np.diag(self._diag.copy())
        for i in range(n - 1):
            term = self._gxx
            if i > 0:
                term = kron(np.eye(m**i), term)
            if i < n - 2:
                term = kron(term, np.eye(m ** (n - i - 2)))
            h += term
        return h

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.dim:
            raise ValueError(f"vector length {v.size} != dimension {self.dim}")
        return self.matvec_block(v[:, None]).ravel()

    def matvec_block(self, vblock: np.ndarray) -> np.ndarray:
        """H @ vblock for a (dim, k) block, as a (dim, k) array.

        The matrix-free path computes on rows, one state per row, and
        returns the transpose of its C-contiguous (k, dim) result (an
        F-ordered array). So a block of stored rows, ``rows.T``, goes in and
        out without a copy; a column-stored block is copied once.
        """
        vblock = np.asarray(vblock, dtype=float)
        if vblock.ndim != 2 or vblock.shape[0] != self.dim:
            raise ValueError(f"expected shape ({self.dim}, k), got {vblock.shape}")
        if self._dense is not None:
            return self._dense @ vblock
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

    def dense(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        if self.dim > DENSE_DIM_MAX:
            raise ResourceLimitError(
                f"refusing to materialize a {self.dim}x{self.dim} matrix"
            )
        self._dense = self._assemble_dense()
        return self._dense


def build_full_hamiltonian(spec: ChainSpec, force_matrix_free: bool = False) -> FullHamiltonian:
    """The full many-body Hamiltonian on the m^N truncated Fock space."""
    return FullHamiltonian(spec, force_matrix_free=force_matrix_free)


def ed_lowest(spec: ChainSpec, k: int, seed: int = 0) -> tuple[np.ndarray, list[FullState]]:
    """The k lowest exact eigenpairs, to the solver's default tolerance
    1e-10: (ascending energies, states)."""
    ham = build_full_hamiltonian(spec)
    res = lowest_k(ham.matvec_block, ham.dim, k, seed=seed)
    dims = (spec.bare_dim,) * spec.n_sites
    states = []
    for j in range(res.values.size):
        vec = res.vectors[:, j]
        states.append(FullState(spec.n_sites, dims, vec / np.linalg.norm(vec)))
    return res.values.copy(), states
