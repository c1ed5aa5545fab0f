"""Truncated ladder operators and the second-quantized Hamiltonian terms.

All local operators are dense real ndarrays. Local dimensions stay in the
tens, so dense storage is simpler and faster than any sparse format;
sparsity is only exploited at the superblock matvec level.

The dimensionless Hamiltonian is linear in the reduced Planck constant, so
every term here is built with it set to 1 and each engine scales by it once.
The single-site term is sqrt(2)*(n + 1/2) (kinetic energy plus the on-site
part of both neighboring springs) and each bond contributes
-(sqrt(2)/4) * (a^dag + a)_i (a^dag + a)_{i+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "KRON_ENTRY_CAP",
    "SiteBasis",
    "BOND_COEFFICIENT",
    "ladder_ops",
    "onsite_term",
    "kron",
    "project",
    "bare_site_basis",
]

# Guards against accidentally materializing a full many-body Hilbert space.
KRON_ENTRY_CAP = 2**24

# Scalar multiplying (a^dag + a)_i (a^dag + a)_{i+1} on each bond.
BOND_COEFFICIENT = -math.sqrt(2.0) / 4.0


def ladder_ops(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices on the d lowest number states.

    annihilate[i, i+1] = sqrt(i+1); create is its transpose. On the
    truncated space [a, a^dag] equals the identity except for the entry
    -(d-1) in the last diagonal position.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    a = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    return a, a.T.copy()


def onsite_term(d: int) -> np.ndarray:
    """Single-site energy sqrt(2)*(a^dag a + 1/2); diagonal."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    k = np.arange(d, dtype=float)
    return np.diag(math.sqrt(2.0) * (k + 0.5))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with a guard on the output entry count."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size * b.size > KRON_ENTRY_CAP:
        raise ResourceLimitError(
            f"kron output would hold {a.size * b.size} entries (cap {KRON_ENTRY_CAP})"
        )
    return np.kron(a, b)


@dataclass(frozen=True)
class SiteBasis:
    """Orthonormal columns mapping a kept basis into the bare number basis."""

    bare_dim: int
    kept_dim: int
    transform: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transform, dtype=float)
        if t.shape != (self.bare_dim, self.kept_dim):
            raise ValueError(
                f"transform shape {t.shape} != ({self.bare_dim}, {self.kept_dim})"
            )
        gram = t.T @ t
        defect = np.max(np.abs(gram - np.eye(self.kept_dim)))
        if defect > 1e-10:
            raise ValueError(f"basis columns not orthonormal (defect {defect:.2e})")
        object.__setattr__(self, "transform", t)


def bare_site_basis(m: int, n: int) -> SiteBasis:
    """The lowest n number states of an m-dimensional site."""
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    return SiteBasis(m, n, np.eye(m)[:, :n])


def project(op: np.ndarray, basis: SiteBasis) -> np.ndarray:
    """Rotate an operator into the kept basis: T^t op T."""
    op = np.asarray(op, dtype=float)
    if op.shape != (basis.bare_dim, basis.bare_dim):
        raise ValueError(f"operator shape {op.shape} != bare dim {basis.bare_dim}")
    t = basis.transform
    return t.T @ op @ t
