"""DMRG with optimized local bases for a harmonic oscillator chain,
validated against the chain's closed-form solutions and an exact-
diagonalization oracle."""

from .chain import (
    ChainSpec,
    ModeSpectrum,
    dispersion,
    first_gap,
    ground_energy_closed,
    mode_spectrum,
    spectrum,
)
from .dmrg import (
    Block,
    DmrgConfig,
    DmrgResult,
    SiteOperators,
    TruncationRecord,
    enlarge_block,
    optimize_site_basis,
    run_dmrg,
    site_operators,
    superblock_solve,
    truncate_block,
)
from .ed import FullHamiltonian, FullState, build_full_hamiltonian, ed_lowest
from .entropy import site_rdm, von_neumann
from .errors import ConvergenceError, InvalidDensityError, ResourceLimitError
from .fock import (
    SiteBasis,
    bare_site_basis,
    bond_coefficient,
    kron,
    ladder_ops,
    momentum_op,
    onsite_term,
    position_op,
    project,
)
from .lanczos import EigResult, dense_sym_eig, lowest_k

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChainSpec", "ModeSpectrum", "dispersion", "mode_spectrum",
    "ground_energy_closed", "first_gap", "spectrum",
    "SiteBasis", "bare_site_basis", "ladder_ops", "position_op", "momentum_op",
    "onsite_term", "bond_coefficient", "kron", "project",
    "EigResult", "dense_sym_eig", "lowest_k",
    "FullState", "FullHamiltonian", "build_full_hamiltonian", "ed_lowest",
    "site_rdm", "von_neumann",
    "DmrgConfig", "DmrgResult", "Block", "TruncationRecord", "SiteOperators",
    "site_operators", "enlarge_block", "truncate_block", "superblock_solve",
    "optimize_site_basis", "run_dmrg",
    "ConvergenceError", "InvalidDensityError", "ResourceLimitError",
]
