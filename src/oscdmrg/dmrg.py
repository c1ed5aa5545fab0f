"""One-site DMRG with optimized local bases for the oscillator chain.

The superblock is L-site-R with a single free site. Blocks keep at most n
states selected from the target-averaged reduced density matrix. In
optimized mode the free site's basis is refined in place: groups of bare
number states are fed alongside the current kept states, the superblock is
re-solved, and the n dominant eigenvectors of the site's averaged density
matrix become the new basis. In bare mode the site basis stays frozen to
the lowest n number states, which reproduces the unoptimized algorithm for
comparison runs.

Block growth absorbs the free site with the block index major, i.e.
enlarged indices are (block, site); right blocks are stored mirrored (edge
site last), which the reflection symmetry of the uniform chain makes
identical to left blocks during warmup.

Sweep solves are warm-started by White's wavefunction transformation (PRL
77, 3633 (1996)): the state solved at one site is rotated through the two
block bases between it and the next site, and the result seeds that site's
first superblock solve. Only warmup and the first full-chain solve that
ends it start from random vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .entropy import von_neumann
from .errors import ConvergenceError
from .fock import (
    SiteBasis,
    bare_site_basis,
    bond_coefficient,
    kron,
    ladder_ops,
    onsite_term,
    project,
)
from .lanczos import EigResult, dense_sym_eig, lowest_k

__all__ = [
    "DmrgConfig",
    "Block",
    "TruncationRecord",
    "SiteOperators",
    "DmrgResult",
    "site_operators",
    "enlarge_block",
    "truncate_block",
    "superblock_solve",
    "optimize_site_basis",
    "run_dmrg",
]

_DEGENERACY_TOL = 1e-10
_MAX_REFINE_CYCLES = 25
_BASIS_DRIFT_TOL = 1e-12
# Solve tolerance of warmup and of the measurement pass, and the floor of
# sweep solves.
EIG_TOL = 1e-10
# Sweep-to-sweep change of the best ground energy that ends the sweeps.
ENERGY_TOL = 1e-8
# Loosest solve tolerance of a sweep that may declare convergence: its energy
# error, (tol |E|)^2 over the gap, is then far below ENERGY_TOL.
CONVERGING_TOL = 1e-7
# Ground-energy change over a feed cycle that ends a refinement visit.
_BASIS_TOL = 1e-9
# Sweep solve tolerance: factor * |dE| of the last two sweeps, at most the cap.
_SWEEP_TOL_FACTOR = 0.1
_SWEEP_TOL_CAP = 1e-6


@dataclass(frozen=True)
class DmrgConfig:
    """Run controls.

    kept_states is the block and site basis size n; feed_size is the number
    of bare states fed per refinement step of an optimized basis; every
    density matrix averages the n_targets lowest states with equal weights.
    ``optimized=False`` keeps every site in the bare basis (the lowest n
    number states). ``seed`` seeds the solver's random start vectors.
    """

    kept_states: int
    feed_size: int = 4
    n_targets: int = 1
    n_sweeps: int = 6
    optimized: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("kept_states", "feed_size", "n_targets", "n_sweeps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class Block:
    """Renormalized block: effective Hamiltonian and the (a^dag + a)
    operator of the edge site adjacent to the free site.

    ``rotation`` is the isometry of the latest truncation, mapping the
    enlarged (block, site) basis onto the kept states; None when the block
    was not truncated."""

    length: int
    basis_dim: int
    hamiltonian: np.ndarray
    edge_x: np.ndarray
    rotation: np.ndarray | None = None

    @staticmethod
    def empty() -> "Block":
        z = np.zeros((1, 1))
        return Block(0, 1, z, z.copy())


@dataclass(frozen=True)
class TruncationRecord:
    """Spectrum of one truncation event.

    ``position`` is the 1-based site index at which the event happened;
    ``kind`` is "block" (block-basis truncation) or "site" (optimized-basis
    refinement). ``boundary_degenerate`` flags an eigenvalue tie across the
    kept/discarded boundary, where the kept set is rotation-arbitrary.
    """

    position: int
    lambdas: np.ndarray
    kept: int
    discarded_weight: float
    kind: str = "block"
    boundary_degenerate: bool = False


@dataclass(frozen=True)
class SiteOperators:
    """Free-site operators projected into its current basis."""

    h: np.ndarray
    x: np.ndarray
    bond_coeff: float

    @property
    def dim(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class DmrgResult:
    """Outputs of a DMRG run.

    ``energies`` holds the n_tar lowest superblock energies from the final
    central-site solve; ``gap`` is energies[1]-energies[0] when at least two
    states were targeted. ``site_entropies[i]`` is the ground-state
    entanglement of site i+1 with the rest of the chain, and
    ``entanglement_SE`` their average. ``central_site_lambdas`` is the
    target-averaged central-site density-matrix spectrum and
    ``central_block_lambdas`` the target-averaged spectrum of the enlarged
    central block (the truncation density matrix, whose rank is capped by
    n times the number of targets), both descending.
    ``sweep_energy_trace`` records the best ground energy seen in each
    sweep, and ``sweep_tolerances`` the solve tolerance that sweep ran at.
    """

    energies: np.ndarray
    gap: float | None
    entanglement_SE: float
    site_entropies: np.ndarray
    truncation_records: list
    sweep_energy_trace: np.ndarray
    converged: bool
    central_site_lambdas: np.ndarray
    central_block_lambdas: np.ndarray
    sweep_tolerances: np.ndarray


def site_operators(site: SiteBasis, hbar_tilde: float) -> SiteOperators:
    """Bare on-site term and (a^dag + a) projected into the site basis."""
    m = site.bare_dim
    a, ad = ladder_ops(m)
    return SiteOperators(
        h=project(onsite_term(m, hbar_tilde), site),
        x=project(a + ad, site),
        bond_coeff=bond_coefficient(hbar_tilde),
    )


def enlarge_block(block: Block, site: SiteBasis, hbar_tilde: float) -> Block:
    """Absorb one site into the block (block index major):
    H' = H (x) 1 + 1 (x) h_site + g * edge_x (x) x_site, edge' = 1 (x) x_site.
    """
    ops = site_operators(site, hbar_tilde)
    i_block = np.eye(block.basis_dim)
    i_site = np.eye(ops.dim)
    h = (
        kron(block.hamiltonian, i_site)
        + kron(i_block, ops.h)
        + ops.bond_coeff * kron(block.edge_x, ops.x)
    )
    edge = kron(i_block, ops.x)
    return Block(
        length=block.length + 1,
        basis_dim=block.basis_dim * ops.dim,
        hamiltonian=h,
        edge_x=edge,
    )


def _dominant_states(
    lam: np.ndarray, vecs: np.ndarray, n: int, position: int, kind: str
) -> tuple[np.ndarray, TruncationRecord]:
    """The n leading columns of vecs and the record of keeping them, given
    the full density-matrix spectrum lam and its vectors, both descending."""
    tie = bool(n < lam.size and lam[n - 1] - lam[n] <= _DEGENERACY_TOL)
    record = TruncationRecord(
        position=position,
        lambdas=lam,
        kept=n,
        discarded_weight=float(1.0 - lam[:n].sum()),
        kind=kind,
        boundary_degenerate=tie,
    )
    return vecs[:, :n].copy(), record


def truncate_block(
    block: Block, factor: np.ndarray, n: int, position: int = 0
) -> tuple[Block, TruncationRecord]:
    """Rotate the block into the n dominant eigenvectors of its averaged
    reduced density matrix, given as a factor (rho = factor @ factor.T):
    the factor's leading left singular vectors; the spectrum is its squared
    singular values. ``n == basis_dim`` is a pure rotation."""
    factor = np.asarray(factor, dtype=float)
    dim = block.basis_dim
    if factor.ndim != 2 or factor.shape[0] != dim:
        raise ValueError(f"factor shape {factor.shape} does not have {dim} rows")
    if not np.all(np.isfinite(factor)):
        raise ValueError("factor has non-finite entries")
    if n > dim:
        raise ValueError(f"cannot keep {n} states of a {dim}-dimensional block")
    # With fewer columns than kept states, the full U completes the kept set
    # from the null space of rho.
    u, sig, _vt = np.linalg.svd(factor, full_matrices=factor.shape[1] < n)
    lam = np.pad(sig**2, (0, dim - sig.size))
    v, record = _dominant_states(lam, u, n, position, "block")
    h = v.T @ block.hamiltonian @ v
    x = v.T @ block.edge_x @ v
    new = Block(
        length=block.length,
        basis_dim=n,
        hamiltonian=0.5 * (h + h.T),
        edge_x=0.5 * (x + x.T),
        rotation=v,
    )
    return new, record


def _superblock_matvec(left: Block, ops: SiteOperators, right: Block, k: int = 1):
    """H @ block for the L-site-R superblock, and (dim_L, dim_site, dim_R).

    One GEMM per side applies its stacked (H, x) pair (an empty block is
    1x1 zeros); one site GEMM applies h and g*x to both bond pieces. The
    right GEMM on k columns uses kron(R^T, 1_k) and needs no transposed
    copy; on other widths (the dense path's identity) it is batched over
    (left, site), as the kron would cost nb times the flops."""
    dl, ds, dr = left.basis_dim, ops.dim, right.basis_dim
    lhx = np.vstack([left.hamiltonian, left.edge_x])
    rhx = np.vstack([right.hamiltonian, right.edge_x])
    rhx_kron = np.kron(rhx.T, np.eye(k))
    shx = np.hstack([ops.h, ops.bond_coeff * ops.x])

    def apply(vblock: np.ndarray) -> np.ndarray:
        nb = vblock.shape[1]
        psi = vblock.reshape(dl, ds, dr * nb)
        lft = (lhx @ psi.reshape(dl, -1)).reshape(2, dl, ds, dr * nb)
        if nb == k:
            rgt = psi.reshape(dl * ds, -1) @ rhx_kron
        else:
            rgt = rhx @ psi.reshape(dl * ds, dr, nb)
        rgt = rgt.reshape(dl, ds, 2, dr * nb)
        stacked = np.empty((dl, 2 * ds, dr * nb))
        stacked[:, :ds] = psi
        np.add(lft[1], rgt[:, :, 1], out=stacked[:, ds:])
        out = shx @ stacked
        out += lft[0]
        out += rgt[:, :, 0]
        return out.reshape(-1, nb)

    return apply, (dl, ds, dr)


def superblock_solve(
    left: Block,
    site_ops: SiteOperators,
    right: Block,
    config: DmrgConfig,
    tol: float = EIG_TOL,
    v0: np.ndarray | None = None,
) -> tuple[EigResult, np.ndarray]:
    """Lowest eigenpairs of the L-site-R Hamiltonian, matrix-free, to ``tol``.

    Returns the EigResult and the wavefunction tensor of shape
    (dim_L, dim_site, dim_R, k), k the configured number of targeted
    states clamped to the superblock dimension.
    """
    dim = left.basis_dim * site_ops.dim * right.basis_dim
    k = min(config.n_targets, dim)
    apply, (dl, ds, dr) = _superblock_matvec(left, site_ops, right, k)
    res = lowest_k(apply, dim, k, tol=tol, seed=config.seed, v0=v0)
    psi = res.vectors.reshape(dl, ds, dr, k)
    return res, psi


def _weighted_factor(psi: np.ndarray, axes: tuple) -> np.ndarray:
    """M with M @ M.T the target-averaged reduced density matrix of the
    superblock legs ``axes`` of psi (shape (dim_L, dim_site, dim_R, k)),
    joined in that index order: the equally weighted targets side by side,
    with the other legs in the columns."""
    rest = tuple(a for a in range(3) if a not in axes)
    dim = math.prod(psi.shape[a] for a in axes)
    weight = np.sqrt(1.0 / psi.shape[3])
    return (psi * weight).transpose(axes + rest + (3,)).reshape(dim, -1)


def _averaged_rdm(psi: np.ndarray, axes: tuple) -> np.ndarray:
    """Target-averaged reduced density matrix of the superblock legs
    ``axes`` of psi; the other legs are traced out."""
    m = _weighted_factor(psi, axes)
    return m @ m.T


def _feed_columns(basis: np.ndarray, group: list[int], m: int) -> np.ndarray:
    """Bare unit vectors of ``group`` orthonormalized against the current
    basis columns (two passes); directions already spanned are skipped."""
    cols = []
    for idx in group:
        v = np.zeros(m)
        v[idx] = 1.0
        for _ in range(2):
            v -= basis @ (basis.T @ v)
            for u in cols:
                v -= u * (u @ v)
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            cols.append(v / nrm)
    if not cols:
        return np.empty((m, 0))
    return np.column_stack(cols)


def _refine_site_basis(
    spec: ChainSpec,
    config: DmrgConfig,
    left: Block,
    right: Block,
    basis: SiteBasis,
    position: int,
    tol: float = EIG_TOL,
    max_cycles: int | None = None,
    guess: np.ndarray | None = None,
):
    """Optimized-basis refinement at one site (the feed loop).

    Cycles groups of ``feed_size`` bare states through the site basis, in
    index order, or the states the basis holds least of first when one
    group can complete the site space (n + feed_size >= m). Each group is
    orthogonalized against the current basis and appended, the superblock
    is solved for the targeted states, and the n dominant eigenvectors of
    the averaged site density matrix become the new basis.
    Stops when the ground energy changes by less than 1e-9 over a full
    cycle, or when a cycle leaves the kept subspace unchanged. A solve
    whose augmented basis spans all m bare states (n + feed_size >= m) ends
    the visit: its site is untruncated, so its n dominant states are exactly
    the fixed point; later groups would re-solve it or a strict subspace. In
    bare mode (``optimized`` off) the loop runs one empty group: a single
    solve in the given basis, which is kept as it is. Every solve runs to
    ``tol``. ``guess`` (dim_L, kept_dim, dim_R, k), a wavefunction in the
    given basis, warm-starts the first solve; later solves start from the
    previous one.

    Returns (basis, last record, last EigResult, last psi tensor, last
    site-truncation matrix mapping the augmented basis onto the kept one).
    """
    m = basis.bare_dim
    n = basis.kept_dim
    n1 = config.feed_size if config.optimized else 0

    b_cur = basis.transform.copy()
    order = np.arange(m)
    if n + n1 >= m:
        # With n + n1 < m the fixed point depends on the feed order.
        order = np.argsort(np.sum(b_cur**2, axis=1), kind="stable")
    groups = [order[s:s + n1] for s in range(0, m, n1)] if n1 else [[]]
    if max_cycles is None:
        max_cycles = _MAX_REFINE_CYCLES
    elif max_cycles < 1:
        raise ValueError("max_cycles must be >= 1")

    eig = None
    prev_energy = None
    prev_psi_bare = None
    if guess is not None:
        prev_psi_bare = np.tensordot(guess, b_cur, axes=(1, 1)).transpose(0, 3, 1, 2)
    for _cycle in range(max_cycles):
        fed_any = False
        cycle_start = b_cur
        for group in groups:
            extra = _feed_columns(b_cur, group, m)
            if extra.shape[1] == 0 and eig is not None:
                continue
            fed_any = fed_any or extra.shape[1] > 0
            b_aug = np.hstack([b_cur, extra])
            aug = SiteBasis(m, b_aug.shape[1], b_aug)
            ops = site_operators(aug, spec.hbar_tilde)
            v0 = None
            if prev_psi_bare is not None:
                # Transport the previous solutions into the new site basis;
                # pure iteration warm start, deterministic.
                guess = np.tensordot(prev_psi_bare, b_aug, axes=(1, 0))
                v0 = guess.transpose(0, 3, 1, 2).reshape(-1, guess.shape[2])
            try:
                eig, psi = superblock_solve(left, ops, right, config, tol, v0)
            except ConvergenceError as err:
                raise ConvergenceError(
                    f"superblock solve failed at site {position}: {err}",
                    residual_norms=err.residual_norms,
                ) from err
            site_eig = dense_sym_eig(_averaged_rdm(psi, (1,)))
            v_dom, record = _dominant_states(
                site_eig.values[::-1], site_eig.vectors[:, ::-1], n, position, "site"
            )
            v_keep = v_dom if n1 else np.eye(n)
            b_cur = b_aug @ v_keep
            prev_psi_bare = np.tensordot(psi, b_aug, axes=(1, 1)).transpose(0, 3, 1, 2)
            full_space = b_aug.shape[1] == m
            if full_space:
                break
        energy = eig.values[0]
        if not fed_any or full_space:
            break
        if prev_energy is not None and abs(energy - prev_energy) < _BASIS_TOL:
            break
        drift = n - np.linalg.norm(cycle_start.T @ b_cur) ** 2
        if drift < _BASIS_DRIFT_TOL:
            break
        prev_energy = energy
    return SiteBasis(m, n, b_cur), record, eig, psi, v_keep


def optimize_site_basis(
    spec: ChainSpec,
    config: DmrgConfig,
    left: Block,
    right: Block,
    current: SiteBasis,
    position: int = 1,
    max_cycles: int | None = None,
) -> tuple[SiteBasis, TruncationRecord]:
    """Refine the free site's basis between the given blocks.

    Returns the final basis and the truncation record of the last
    refinement step (full averaged-density-matrix spectrum, descending).
    ``max_cycles`` caps the number of feed cycles (mainly for inspecting
    per-cycle behavior; the default runs to the feed loop's own stop rules).
    """
    new_basis, record, _eig, _psi, _vk = _refine_site_basis(
        spec, config, left, right, current, position, max_cycles=max_cycles
    )
    return new_basis, record


def _sweep_tolerance(trace: list[float]) -> float:
    """Solve tolerance of the next sweep, given the sweep energies so far."""
    de = abs(trace[-1] - trace[-2]) if len(trace) >= 2 else math.inf
    return max(min(_SWEEP_TOL_FACTOR * de, _SWEEP_TOL_CAP), EIG_TOL)


def run_dmrg(spec: ChainSpec, config: DmrgConfig) -> DmrgResult:
    """Warmup, finite-system sweeps, and a final measurement pass.

    Warmup grows the left block one site at a time against its mirror
    image until the superblock spans the chain. Sweeps run right then left
    until the per-sweep best ground energy changes by less than
    ``ENERGY_TOL`` or ``n_sweeps`` is exhausted (``converged`` records
    which); a final left-to-right pass collects per-site entropies, the
    central-site spectrum, and the reported energies at the central site.
    Warmup and that pass solve to ``EIG_TOL``; sweeps 1 and 2 to 1e-6, later
    ones to 0.1 |dE| of the two sweeps before, clipped to [EIG_TOL, 1e-6].
    Only a sweep at ``CONVERGING_TOL`` or tighter may declare convergence.
    """
    n_sites = spec.n_sites
    if n_sites < 3:
        raise ValueError("run_dmrg requires N >= 3; use the exact oracle below that")
    m = spec.bare_dim
    n = config.kept_states
    if n > m:
        raise ValueError(f"kept_states {n} exceeds bare_dim {m}")
    hbar = spec.hbar_tilde

    bases = [bare_site_basis(m, n) for _ in range(n_sites)]
    records: list[TruncationRecord] = []
    left: dict[int, Block] = {0: Block.empty()}
    right: dict[int, Block] = {0: Block.empty()}
    guess = None

    def move(p: int, psi_fin: np.ndarray, rightward: bool) -> None:
        """Absorb site p into the block on its left (rightward) or right,
        truncating to n states of the averaged density matrix, from its
        factor."""
        if rightward:
            blocks, j, axes = left, p, (0, 1)
        else:
            blocks, j, axes = right, n_sites - p - 1, (2, 1)
        enlarged = enlarge_block(blocks[j], bases[p], hbar)
        if enlarged.basis_dim > n:
            factor = _weighted_factor(psi_fin, axes)
            enlarged, rec = truncate_block(enlarged, factor, n, position=p + 1)
            records.append(rec)
        blocks[j + 1] = enlarged

    def step(p: int, psi_fin: np.ndarray, rightward: bool) -> np.ndarray:
        """move(p, psi_fin, rightward), then psi_fin rotated into the
        superblock at site p+1 (rightward) or p-1: White's wavefunction
        transformation. The block that absorbed site p maps its (block,
        site) legs through its new rotation; the block across the next
        site is expanded through its stored rotation into (rest, site).
        Right blocks are stored mirrored, so the leftward step is the
        rightward one on the mirrored tensor."""
        move(p, psi_fin, rightward)
        if rightward:
            psi, grown, split = psi_fin, left[p + 1], right[n_sites - p - 1]
        else:
            psi, grown, split = psi_fin.transpose(2, 1, 0, 3), right[n_sites - p], left[p]
        dl, ds, dr, k = psi.shape
        t = psi.reshape(dl * ds, dr * k)
        if grown.rotation is not None:
            t = grown.rotation.T @ t
        w = np.eye(dr) if split.rotation is None else split.rotation
        moved = np.tensordot(t.reshape(-1, dr, k), w.reshape(-1, n, dr), axes=(1, 2))
        return moved.transpose(0, 3, 2, 1) if rightward else moved.transpose(2, 3, 0, 1)

    def visit(sites: list[int], tol: float, then: int | None = 0):
        """Solve (and refine, in optimized mode) at each free site of
        ``sites`` (0-based) in turn to ``tol``, warm-started from ``guess``.

        Yields (p, eig, psi in the augmented site basis, psi_fin in the
        final n-dim one with normalized columns, averaged site spectrum
        descending). After each visit the state becomes the next ``guess``:
        stepped toward the next site, or as it is when the next visit is the
        same site. ``then`` is the first site of the pass after this one
        (every pass after the first sweep starts at p = 0), or None when no
        pass follows."""
        nonlocal guess
        for p, nxt in zip(sites, [*sites[1:], then]):
            bases[p], rec, eig, psi, v_keep = _refine_site_basis(
                spec, config, left[p], right[n_sites - p - 1], bases[p],
                position=p + 1, tol=tol, guess=guess,
            )
            if config.optimized:
                records.append(rec)
            psi_fin = np.tensordot(psi, v_keep, axes=(1, 0)).transpose(0, 3, 1, 2)
            for j in range(psi_fin.shape[3]):
                nrm = np.linalg.norm(psi_fin[..., j])
                if nrm > 0:
                    psi_fin[..., j] /= nrm
            yield p, eig, psi, psi_fin, rec.lambdas
            if nxt == p:
                guess = psi_fin
            elif nxt is not None:
                guess = step(p, psi_fin, rightward=nxt > p)

    # Warmup: grow against the mirror environment (bases are still uniform).
    left[1] = right[1] = enlarge_block(left[0], bases[0], hbar)
    length = 1
    while n_sites - length - 1 > length:
        ops = site_operators(bases[length], hbar)
        try:
            _eig, psi = superblock_solve(left[length], ops, right[length], config)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"warmup solve failed at site {length + 1}: {err}",
                residual_norms=err.residual_norms,
            ) from err
        move(length, psi, rightward=True)
        right[length + 1] = left[length + 1]
        length += 1

    # Finite-system sweeps: rightward from where warmup stopped, then back
    # to site 1; later sweeps start at site 1.
    sweep_trace: list[float] = []
    sweep_tols: list[float] = []
    prev_best = math.inf
    converged = False
    back = list(range(n_sites - 2, -1, -1))
    sites = list(range(length, n_sites)) + back
    for _sweep in range(config.n_sweeps):
        tol = _sweep_tolerance(sweep_trace)
        sweep_tols.append(tol)
        best = min(eig.values[0] for _p, eig, *_rest in visit(sites, tol))
        sweep_trace.append(best)
        if abs(prev_best - best) < ENERGY_TOL and tol <= CONVERGING_TOL:
            converged = True
            break
        prev_best = best
        sites = list(range(n_sites)) + back

    # Measurement pass: entropies per site, energies at the central site.
    site_entropies = np.zeros(n_sites)
    central = (n_sites - 1) // 2
    for p, eig, psi, psi_fin, site_lams in visit(list(range(n_sites)), EIG_TOL, None):
        site_entropies[p] = von_neumann(_averaged_rdm(psi[..., :1], (1,)))
        if p == central:
            energies = eig.values.copy()
            central_lams = np.asarray(site_lams, dtype=float)
            factor = _weighted_factor(psi_fin, (0, 1))
            sig = np.linalg.svd(factor, compute_uv=False)
            central_block_lams = np.pad(sig**2, (0, factor.shape[0] - sig.size))

    gap = float(energies[1] - energies[0]) if energies.size >= 2 else None
    return DmrgResult(
        energies=energies,
        gap=gap,
        entanglement_SE=float(site_entropies.mean()),
        site_entropies=site_entropies,
        truncation_records=records,
        sweep_energy_trace=np.array(sweep_trace),
        converged=converged,
        central_site_lambdas=central_lams,
        central_block_lambdas=central_block_lams,
        sweep_tolerances=np.array(sweep_tols),
    )
