"""DMRG with optimized local bases for a harmonic oscillator chain,
validated against the chain's closed-form solutions and an exact-
diagonalization oracle."""

from .chain import ChainSpec, ground_energy_closed
from .dmrg import DmrgConfig, DmrgResult, run_dmrg
from .ed import FullHamiltonian, ed_lowest
from .entropy import site_rdm, von_neumann
from .errors import ConvergenceError, InvalidDensityError, ResourceLimitError

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChainSpec", "ground_energy_closed",
    "DmrgConfig", "DmrgResult", "run_dmrg",
    "FullHamiltonian", "ed_lowest",
    "site_rdm", "von_neumann",
    "ConvergenceError", "InvalidDensityError", "ResourceLimitError",
]
