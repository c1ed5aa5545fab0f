"""Independent references for the benchmark's checks.

Nothing here imports the ``oscdmrg`` package: every reference is derived
again from the model, so a fault in the package cannot hide in its own
oracle.

The model is H = sqrt(2)*hbar * sum_i (n_i + 1/2)
                 - (sqrt(2)*hbar/4) * sum_i x_i x_{i+1},   x = a + a^dag,
on N sites with fixed ends. With q = x/sqrt(2) it reads
H = (sqrt(2)*hbar/2) * (p.p + q^T A q), A = 1 - adjacency/2, so the ground
state is Gaussian and its single-site entropies follow from the
covariances <qq^T> = A^{-1/2}/2 and <pp^T> = A^{1/2}/2.
"""

from __future__ import annotations

import math

import numpy as np


def mode_frequencies(n_sites: int) -> np.ndarray:
    """w_j = 2 sin(j pi / (2(N+1))), j = 1..N, ascending."""
    j = np.arange(1, n_sites + 1)
    return 2.0 * np.sin(j * np.pi / (2.0 * (n_sites + 1)))


def ground_energy(n_sites: int, hbar: float = 1.0) -> float:
    """E0 = (1/2) hbar sum_j w_j."""
    return 0.5 * hbar * float(mode_frequencies(n_sites).sum())


def first_gap(n_sites: int, hbar: float = 1.0) -> float:
    """One quantum of the softest mode: hbar w_1."""
    return hbar * 2.0 * math.sin(math.pi / (2.0 * (n_sites + 1)))


def _coupling_matrix(n_sites: int) -> np.ndarray:
    a = np.eye(n_sites)
    i = np.arange(n_sites - 1)
    a[i, i + 1] = a[i + 1, i] = -0.5
    return a


def gaussian_site_entropies(n_sites: int) -> np.ndarray:
    """Exact ground-state entropy (nats) of each site with the rest.

    nu_i = sqrt(<q_i^2><p_i^2>) is the site's symplectic eigenvalue and
    S = (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2). The result does
    not depend on hbar.
    """
    w, v = np.linalg.eigh(_coupling_matrix(n_sites))
    qq = 0.5 * (v * w**-0.5) @ v.T
    pp = 0.5 * (v * w**0.5) @ v.T
    nu = np.sqrt(np.diag(qq) * np.diag(pp))
    return _xlogx(nu + 0.5) - _xlogx(nu - 0.5)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x with 0 ln 0 = 0 (nu = 1/2 for a site with no partner)."""
    x = np.maximum(x, 0.0)
    return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)


def gaussian_entanglement(n_sites: int) -> float:
    """Exact average single-site entanglement S_E of the ground state."""
    return float(gaussian_site_entropies(n_sites).mean())


def apply_chain_hamiltonian(psi: np.ndarray, n_sites: int, m: int,
                            hbar: float = 1.0) -> np.ndarray:
    """H psi on the m^N truncated Fock space, for a vector or for columns.

    ``psi`` has m**N rows (site 1 slowest-varying) and any number of
    columns. Every term is applied by an einsum along its own site axes.
    """
    cols = psi.reshape(m**n_sites, -1)
    t = cols.reshape((m,) * n_sites + (cols.shape[1],))
    onsite = math.sqrt(2.0) * hbar * (np.arange(m) + 0.5)
    x = np.diag(np.sqrt(np.arange(1.0, m)), 1)
    x = x + x.T
    g = -math.sqrt(2.0) * hbar / 4.0
    letters = "abcdefghijklmnopqrstuvwxyz"[: n_sites + 1]
    out = np.zeros_like(t)
    for i in range(n_sites):
        shape = [1] * (n_sites + 1)
        shape[i] = m
        out += onsite.reshape(shape) * t
    for i in range(n_sites - 1):
        src = letters
        dst = src.replace(src[i], "Y").replace(src[i + 1], "Z")
        out += g * np.einsum(f"Y{src[i]},Z{src[i + 1]},{src}->{dst}", x, x, t)
    return out.reshape(psi.shape)


def ed_residuals(vectors: np.ndarray, energies: np.ndarray, n_sites: int,
                 m: int, hbar: float = 1.0) -> np.ndarray:
    """||H psi_k - E_k psi_k|| for each column psi_k."""
    h_psi = apply_chain_hamiltonian(vectors, n_sites, m, hbar)
    return np.linalg.norm(h_psi - vectors * np.asarray(energies), axis=0)
