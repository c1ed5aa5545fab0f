"""DMRG with optimized local bases for a harmonic oscillator chain,
validated against the chain's closed-form solutions and an exact-
diagonalization oracle."""

from .chain import (
    ChainSpec,
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
    BOND_COEFFICIENT,
    SiteBasis,
    bare_site_basis,
    kron,
    ladder_ops,
    onsite_term,
    project,
)
from .lanczos import EigResult, dense_sym_eig, lowest_k

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChainSpec", "dispersion", "mode_spectrum",
    "ground_energy_closed", "first_gap", "spectrum",
    "SiteBasis", "bare_site_basis", "ladder_ops",
    "onsite_term", "BOND_COEFFICIENT", "kron", "project",
    "EigResult", "dense_sym_eig", "lowest_k",
    "FullState", "FullHamiltonian", "build_full_hamiltonian", "ed_lowest",
    "site_rdm", "von_neumann",
    "DmrgConfig", "DmrgResult", "Block", "TruncationRecord", "SiteOperators",
    "site_operators", "enlarge_block", "truncate_block", "superblock_solve",
    "optimize_site_basis", "run_dmrg",
    "ConvergenceError", "InvalidDensityError", "ResourceLimitError",
]
