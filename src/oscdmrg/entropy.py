"""Single-site reduced density matrices and von Neumann entropies.

Entropies are in nats (natural logarithm) throughout; a base change would
only rescale the averaged entanglement uniformly.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .ed import FullState
from .errors import InvalidDensityError

__all__ = ["site_rdm", "von_neumann"]


def site_rdm(state: FullState, site: int) -> np.ndarray:
    """Reduced density matrix of one site (1-based index) of a pure state,
    obtained by tracing out every other site."""
    n = state.n_sites
    if not 1 <= site <= n:
        raise ValueError(f"site {site} outside 1..{n}")
    dims = state.site_dims
    dl = prod(dims[: site - 1])
    ds = dims[site - 1]
    dr = prod(dims[site:])
    psi = state.amplitudes.reshape(dl, ds, dr)
    return np.einsum("asb,atb->st", psi, psi)


def von_neumann(rho: np.ndarray) -> float:
    """S = -sum lambda ln lambda over the spectrum of rho, with 0 ln 0 = 0.

    Eigenvalues in [-1e-8, 0) count as zero; anything below -1e-8 is
    rejected as an invalid density matrix.
    """
    rho = np.asarray(rho, dtype=float)
    lam = np.linalg.eigvalsh(0.5 * (rho + rho.T))
    if lam.size and lam.min() < -1e-8:
        raise InvalidDensityError(f"negative eigenvalue {lam.min():.3e}")
    lam = lam[lam > 0.0]
    if lam.size == 0:
        return 0.0
    return float(-(lam * np.log(lam)).sum())
