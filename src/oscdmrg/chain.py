"""Chain parameters and closed-form reference quantities.

The fixed-end chain of N identical particles coupled by unit springs has
normal-mode frequencies w_j = 2 sin(j*pi/(2(N+1))), j = 1..N, and every
spectral quantity below follows from summing quanta over those modes.
These functions are the primary oracle that the numerical solvers are
checked against.

All energies are dimensionless (the spring energy scale), all frequencies
lie in (0, 2).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainSpec",
    "dispersion",
    "mode_spectrum",
    "ground_energy_closed",
    "first_gap",
    "spectrum",
    "parity_levels",
]


@dataclass(frozen=True)
class ChainSpec:
    """Model parameters: particle count, dimensionless hbar, Fock cutoff.

    The lattice constant, particle mass and spring constant are scaled out
    and have no runtime representation; ``hbar_tilde`` is the only coupling
    left. ``bare_dim`` is the number of oscillator number states kept per
    site in any Fock-space computation.
    """

    n_sites: int
    hbar_tilde: float = 1.0
    bare_dim: int = 14

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if not 0 < self.hbar_tilde < math.inf:
            raise ValueError(f"hbar_tilde must be finite and > 0, got {self.hbar_tilde}")
        if self.bare_dim < 2:
            raise ValueError(f"bare_dim must be >= 2, got {self.bare_dim}")


def mode_spectrum(spec: ChainSpec) -> np.ndarray:
    """All N mode frequencies w_j = 2 sin(j pi / (2(N+1))), strictly
    ascending (modes j = 1..N)."""
    j = np.arange(1, spec.n_sites + 1)
    return 2.0 * np.sin(j * np.pi / (2.0 * (spec.n_sites + 1)))


def dispersion(spec: ChainSpec, j: int) -> float:
    """Frequency w_j of mode j (1-based), from :func:`mode_spectrum`."""
    if not 1 <= j <= spec.n_sites:
        raise ValueError(f"mode index {j} outside 1..{spec.n_sites}")
    return float(mode_spectrum(spec)[j - 1])


def ground_energy_closed(spec: ChainSpec) -> float:
    """Ground energy (1/2) sum_j hbar w_j, evaluated in closed form.

    Equals (sqrt(2)/2) * hbar * sin(N x) / sin(x) with x = pi/(4(N+1)),
    which telescopes the half-sum of the dispersion frequencies.
    """
    n = spec.n_sites
    x = math.pi / (4.0 * (n + 1))
    return (math.sqrt(2.0) / 2.0) * spec.hbar_tilde * math.sin(n * x) / math.sin(x)


def first_gap(spec: ChainSpec) -> float:
    """Energy of one quantum of the softest mode: hbar * w_1."""
    return spec.hbar_tilde * dispersion(spec, 1)


def parity_levels(spec: ChainSpec):
    """Eigenstates of the untruncated chain best-first from the ground
    state, degenerate ones repeated, as (excitation energy, parity) pairs.

    Occupation vectors are walked on sum_j n_j hbar w_j, ties broken
    lexicographically. A state's parity under P = (-1)^(sum_i n_i) is
    (-1)^(total quanta), since every mode coordinate is odd under P."""
    # Python floats: at a huge finite hbar, energies past the largest float
    # become inf without a warning, and levels below it stay exact.
    freqs = [spec.hbar_tilde * w for w in mode_spectrum(spec).tolist()]
    # Heap entries: (energy, occupation, lowest mode index allowed to grow).
    # Restricting increments to indices >= the last one incremented makes
    # every occupation vector reachable exactly once.
    heap = [(0.0, (0,) * len(freqs), 0)]
    while heap:
        energy, occ, last = heapq.heappop(heap)
        yield energy, 1 - 2 * (sum(occ) % 2)
        for j in range(last, len(freqs)):
            nxt = occ[:j] + (occ[j] + 1,) + occ[j + 1:]
            heapq.heappush(heap, (energy + freqs[j], nxt, j))


def spectrum(spec: ChainSpec, count: int) -> np.ndarray:
    """Lowest ``count`` excitation energies above the ground state, ascending;
    levels of :func:`parity_levels` within 1e-12 relative of each other are
    one, at any scale of hbar."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    levels: list[float] = []
    for energy, _ in itertools.islice(parity_levels(spec), 1, None):
        if not levels or energy - levels[-1] > 1e-12 * energy:
            levels.append(energy)
            if len(levels) == count:
                break
    return np.array(levels)
