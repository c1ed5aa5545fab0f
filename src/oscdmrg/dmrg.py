"""One-site DMRG with optimized local bases for the oscillator chain.

The superblock is L-site-R with a single free site. Blocks keep at most n
states selected from the target-averaged reduced density matrix. In
optimized mode the free site's basis is refined in place: groups of bare
number states are fed alongside the current kept states, the superblock is
re-solved, and the n dominant states of the site's averaged density matrix
become the new basis. Blocks and sites keep the leading left singular
vectors of a factor M of rho = M M^T, each signed so that its largest entry
is positive. In bare mode the site basis stays frozen to the lowest n number
states, which reproduces the unoptimized algorithm for comparison runs.

Block growth absorbs the free site with the block index major, i.e.
enlarged indices are (block, site); right blocks are stored mirrored (edge
site last), which the reflection symmetry of the uniform chain makes
identical to left blocks during warmup.

Sweep solves are warm-started by White's wavefunction transformation (PRL
77, 3633 (1996)): a visit's last state, on its site's new basis, is rotated
through the two block bases between it and the next site, and seeds that
site's first superblock solve; within a visit each solve seeds the next.
Only warmup and the first full-chain solve that ends it start cold.

Since H(hbar) = hbar * H(1), the engine solves the chain at hbar = 1 and
``run_dmrg`` scales its reported energies by hbar once. Every tolerance below
is thus in units of hbar: a run at any hbar makes exactly the solves, sweeps
and convergence decision of the run at hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .entropy import von_neumann
from .errors import ConvergenceError
# project and dense_sym_eig are unused here, but bench/tracing.py hooks them by
# this module's name.
from .fock import BOND_COEFFICIENT, SiteBasis, bare_site_basis, kron, project
from .lanczos import EigResult, dense_sym_eig, lowest_k

__all__ = [
    "DmrgConfig",
    "Block",
    "TruncationRecord",
    "DmrgResult",
    "enlarge_block",
    "truncate_block",
    "superblock_solve",
    "optimize_site_basis",
    "run_dmrg",
]

_MAX_REFINE_CYCLES = 25
# Solve tolerance of warmup, and the floor of sweep solves.
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
# White's density-matrix perturbation alpha of sweeps 1, 2, 3, ...; later
# sweeps and warmup run unperturbed.
_PERTURBATION = (1e-4, 1e-5, 1e-6)


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Block:
    """Renormalized block: effective Hamiltonian and the (a^dag + a)
    operator of the edge site adjacent to the free site.

    ``rotation`` maps the enlarged (block, site) basis onto the block's
    states: the kept states of the latest truncation, or the identity when
    every state was kept; None only for a block not grown from another."""

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
    """Spectrum of one truncation event, as ``_kept_states`` chose it.

    ``position`` is the 1-based site index at which the event happened;
    ``kind`` is "block" (block-basis truncation) or "site" (optimized-basis
    refinement). ``lambdas`` is the full spectrum of rho, descending: the
    factor's squared singular values, padded with zeros. A perturbed block
    truncation records the spectrum of the perturbed density matrix, so its
    ``discarded_weight`` is the weight of the perturbation left out, > 0
    even where rho itself has rank <= n.
    """

    position: int
    lambdas: np.ndarray
    kept: int
    discarded_weight: float
    kind: str = "block"


@dataclass(frozen=True)
class DmrgResult:
    """Outputs of a DMRG run.

    The last sweep reports, each site at its last visit. ``energies`` holds
    the n_tar lowest superblock energies at the central site; ``gap`` is
    energies[1]-energies[0] when at least two states were targeted.
    ``site_entropies[i]`` is the ground-state entanglement of site i+1 with
    the rest of the chain, and ``entanglement_SE`` their average.
    ``central_block_lambdas`` is the target-averaged spectrum of the enlarged
    central block (the truncation density matrix, whose rank is capped by n
    times the number of targets), descending. ``sweep_energy_trace`` records
    the best ground energy seen in each sweep, ``sweep_tolerances`` the solve
    tolerance that sweep ran at, and ``sweep_perturbations`` the alpha its
    block truncations were perturbed by (0 where none was). ``stop_reason``
    says why the last sweep could not end the run ('' when it converged).
    """

    energies: np.ndarray
    gap: float | None
    entanglement_SE: float
    site_entropies: np.ndarray
    truncation_records: list
    sweep_energy_trace: np.ndarray
    converged: bool
    central_block_lambdas: np.ndarray
    sweep_tolerances: np.ndarray
    sweep_perturbations: np.ndarray
    stop_reason: str


def enlarge_block(block: Block, site: SiteBasis) -> Block:
    """Absorb one site into the block (block index major):
    H' = H (x) 1 + 1 (x) h_site + g * edge_x (x) x_site, edge' = 1 (x) x_site.
    Every state is kept, so the rotation is the identity."""
    i_block = np.eye(block.basis_dim)
    i_site = np.eye(site.dim)
    h = (
        kron(block.hamiltonian, i_site)
        + kron(i_block, site.h)
        + BOND_COEFFICIENT * kron(block.edge_x, site.x)
    )
    dim = block.basis_dim * site.dim
    return Block(block.length + 1, dim, h, kron(i_block, site.x), np.eye(dim))


def _kept_states(factor, dim: int, n: int, position: int,
                 kind: str = "block") -> tuple[np.ndarray, TruncationRecord]:
    """The n leading left singular vectors of a density-matrix factor on ``dim`` rows
    (rho = factor @ factor.T) and their record of ``kind`` "block" or "site"; the
    spectrum is the squared singular values. Blocks and sites both truncate here.

    Each kept vector is signed so that its largest-magnitude entry (the first, on
    a tie) is positive (Bro, Acar & Kolda, J. Chemometrics 22, 135 (2008)), so the
    kept states do not depend on the signs LAPACK returns. The rule fixes signs
    only: it cannot pin a basis inside a degenerate or null singular subspace."""
    factor = np.asarray(factor, dtype=float)
    if factor.ndim != 2 or factor.shape[0] != dim:
        raise ValueError(f"factor shape {factor.shape} does not have {dim} rows")
    if not np.all(np.isfinite(factor)):
        raise ValueError("factor has non-finite entries")
    if n > dim:
        raise ValueError(f"cannot keep {n} states of a {dim}-dimensional block")
    # With fewer columns than kept states, the full U completes the kept set
    # from the null space of rho.
    u, sig, _vt = np.linalg.svd(factor, full_matrices=factor.shape[1] < n)
    u = u[:, :n] * np.sign(u[np.abs(u[:, :n]).argmax(axis=0), np.arange(n)])
    lam = np.concatenate([sig**2, np.zeros(dim - sig.size)])
    return u, TruncationRecord(position, lam, n, float(1.0 - lam[:n].sum()), kind)


def truncate_block(
    block: Block, site: SiteBasis, factor: np.ndarray, n: int, position: int = 0
) -> tuple[Block, TruncationRecord]:
    """Absorb ``site`` into ``block``, keeping the n states V of ``_kept_states``
    of a factor on (block, site) rows. Each term of ``enlarge_block``'s H' and
    edge' is projected through V as (block, site, n), by one GEMM for the
    block pair and one site GEMM batched over the block leg, never formed."""
    db, ds = block.basis_dim, site.dim
    dim = db * ds
    v, record = _kept_states(factor, dim, n, position)
    he = (np.vstack([block.hamiltonian, block.edge_x]) @ v.reshape(db, -1)).reshape(2, db, ds, n)
    # Site rows [h, g x; x, 0] on [V; edge_x V]: the site and bond terms of H'V; edge'V.
    site_hx = np.vstack([np.hstack([site.h, BOND_COEFFICIENT * site.x]),
                         np.hstack([site.x, np.zeros((ds, ds))])])
    hx = site_hx @ np.concatenate([v.reshape(db, ds, n), he[1]], axis=1)
    hx[:, :ds] += he[0]
    h, x = v.T @ hx[:, :ds].reshape(dim, n), v.T @ hx[:, ds:].reshape(dim, n)
    return Block(block.length + 1, n, 0.5 * (h + h.T), 0.5 * (x + x.T), v), record


def _superblock_matvec(left: Block, site: SiteBasis, right: Block):
    """H @ block for the L-site-R superblock, and (dim_L, dim_site, dim_R).

    It works on the block's rows, one state per row, as ``FullHamiltonian``
    does (free for the ``rows.T`` that ``lowest_k`` passes). Each side
    applies its stacked (H, x) pair (an empty block is 1x1 zeros), the left
    one batched over the rows and the right one as a (2, dim_R, dim_R) stack
    on all rows at once, so that each returns its H and x terms as
    contiguous halves. The bond pieces are laid out beside the rows as
    (row, dim_L, 2, dim_site * dim_R), so filling them is contiguous, and one
    site GEMM applies h and g*x to both."""
    dl, ds, dr = left.basis_dim, site.dim, right.basis_dim
    lhx = np.vstack([left.hamiltonian, left.edge_x])
    rhx = np.stack([right.hamiltonian.T, right.edge_x.T])
    shx = np.hstack([site.h, BOND_COEFFICIENT * site.x])

    def apply(vblock: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(vblock.T)
        nb = rows.shape[0]
        lft = np.matmul(lhx, rows.reshape(nb, dl, -1)).reshape(nb, 2, dl, ds * dr)
        rgt = np.matmul(rows.reshape(-1, dr), rhx).reshape(2, nb, dl, ds * dr)
        stacked = np.empty((nb, dl, 2, ds * dr))
        stacked[:, :, 0] = rows.reshape(nb, dl, -1)
        np.add(lft[:, 1], rgt[1], out=stacked[:, :, 1])
        out = (shx @ stacked.reshape(nb, dl, 2 * ds, dr)).reshape(nb, dl, -1)
        out += lft[:, 0]
        out += rgt[0]
        return out.reshape(nb, -1).T

    return apply, (dl, ds, dr)


def superblock_solve(
    left: Block,
    site: SiteBasis,
    right: Block,
    config: DmrgConfig,
    tol: float = EIG_TOL,
    v0: np.ndarray | None = None,
    label: str = "superblock",
) -> tuple[EigResult, np.ndarray]:
    """Lowest eigenpairs of the L-site-R Hamiltonian, matrix-free, to ``tol``.

    Returns the EigResult and the wavefunction tensor of shape
    (dim_L, dim_site, dim_R, k), k the configured number of targeted
    states clamped to the superblock dimension. A failed solve raises
    ConvergenceError("{label} solve failed at site ...: ...").
    """
    dim = left.basis_dim * site.dim * right.basis_dim
    k = min(config.n_targets, dim)
    apply, (dl, ds, dr) = _superblock_matvec(left, site, right)
    try:
        res = lowest_k(apply, dim, k, tol=tol, seed=config.seed, v0=v0)
    except ConvergenceError as err:
        raise ConvergenceError(f"{label} solve failed at site {left.length + 1}: {err}",
                               residual_norms=err.residual_norms) from err
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


def _perturbed_factor(factor: np.ndarray, x: np.ndarray, alpha: float) -> np.ndarray:
    """Factor of White's perturbed density matrix (rho + alpha X rho X^T) / tr
    (PRB 72, 180403 (2005)), X = 1 (x) x the site's x, given that of rho = M M^T
    on (block, site) rows, tr rho = 1: [M, sqrt(alpha) X M] / sqrt(1 + alpha ||X M||_F^2)."""
    xm = (x @ factor.reshape(-1, x.shape[0], factor.shape[1])).reshape(factor.shape)
    return np.hstack([factor, math.sqrt(alpha) * xm]) / math.sqrt(1.0 + alpha * np.sum(xm**2))


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


def optimize_site_basis(
    config: DmrgConfig,
    left: Block,
    right: Block,
    basis: SiteBasis,
    tol: float = EIG_TOL,
    guess: np.ndarray | None = None,
) -> tuple[SiteBasis, TruncationRecord | None, EigResult, np.ndarray]:
    """Solve the superblock at free site ``left.length + 1``; in optimized
    mode, refine its basis (the feed loop).

    Cycles groups of ``feed_size`` bare states through the site basis, in
    index order, or the states the basis holds least of first when one
    group can complete the site space (n + feed_size >= m). Each group is
    orthogonalized against the current basis and appended, the superblock
    is solved for the targeted states, and the n states ``_kept_states``
    picks from the factor of the averaged site density matrix (sign-fixed,
    as a block's are) become the new basis.
    Stops when the ground energy changes by less than 1e-9 over a full
    cycle, or after ``_MAX_REFINE_CYCLES`` cycles. A solve whose augmented
    basis spans all m bare states (n + feed_size >= m) ends the visit: its
    site is untruncated, so its n dominant states are exactly the fixed
    point; later groups would re-solve it or a strict subspace. In bare mode
    (``optimized`` off) nothing is fed: one solve in the given basis, which
    is kept. Every solve runs to ``tol``. ``guess`` (dim_L, basis.dim, dim_R,
    k), a wavefunction in the given basis, warm-starts the first solve;
    later solves start from the previous one, carried from its basis.

    Returns (basis, last site record or None in bare mode, last EigResult,
    last solution on the returned basis, each target normalized).
    """
    m = basis.bare_dim
    n = basis.dim
    n1 = config.feed_size if config.optimized else 0

    b_cur = basis.transform
    order = np.arange(m)
    if n + n1 >= m:
        # With n + n1 < m the fixed point depends on the feed order.
        order = np.argsort(np.sum(b_cur**2, axis=1), kind="stable")
    groups = [order[s:s + n1] for s in range(0, m, n1)] if n1 else [[]]

    eig = record = None
    prev_energy = math.inf
    # The latest state, with its site leg on the columns of b_psi.
    psi, b_psi = guess, b_cur
    for _cycle in range(_MAX_REFINE_CYCLES):
        for group in groups:
            extra = _feed_columns(b_cur, group, m)
            if extra.shape[1] == 0 and eig is not None:
                continue
            # Only the first solve can feed nothing: it solves in the given basis.
            site = basis if extra.shape[1] == 0 else SiteBasis(np.hstack([b_cur, extra]))
            b_aug = site.transform
            v0 = None
            if psi is not None:
                # A pure warm start: the last state, its site leg carried into b_aug.
                v0 = np.einsum("asbk,st->atbk", psi, b_psi.T @ b_aug).reshape(-1, psi.shape[3])
            eig, psi = superblock_solve(left, site, right, config, tol, v0)
            b_psi = b_aug
            if not n1:
                break
            factor = _weighted_factor(psi, (1,))
            v_dom, record = _kept_states(factor, b_aug.shape[1], n, left.length + 1, "site")
            b_cur = b_aug @ v_dom
            if b_aug.shape[1] == m:
                break
        # Bare mode solves once; nothing is left after a full-space solve.
        if not n1 or b_psi.shape[1] == m or abs(eig.values[0] - prev_energy) < _BASIS_TOL:
            break
        prev_energy = eig.values[0]
    if n1:
        basis, psi = SiteBasis(b_cur), np.einsum("asbk,st->atbk", psi, v_dom)
    nrm = np.linalg.norm(psi.reshape(-1, psi.shape[3]), axis=0)
    return basis, record, eig, psi / np.where(nrm > 0, nrm, 1.0)


def _sweep_tolerance(trace: list[float]) -> float:
    """Solve tolerance of the next sweep, given the sweep energies so far."""
    de = abs(trace[-1] - trace[-2]) if len(trace) >= 2 else math.inf
    return max(min(_SWEEP_TOL_FACTOR * de, _SWEEP_TOL_CAP), EIG_TOL)


def _stop_reason(trace: list[float], tol: float, alpha: float, hbar: float) -> str:
    """'' if the last sweep of ``trace`` (at hbar = 1), run at ``tol`` and ``alpha``, may
    end the run (|dE| < ENERGY_TOL, tol <= CONVERGING_TOL, alpha 0); else why not."""
    de = abs(trace[-1] - trace[-2]) if len(trace) >= 2 else math.inf
    refusals = []
    if tol > CONVERGING_TOL:
        refusals.append(f"solved to tolerance {tol:.3g}, "
                        f"above the {CONVERGING_TOL:.3g} a converging sweep needs")
    if alpha:
        refusals.append(f"perturbed its density matrices by alpha {alpha:.3g}, "
                        "which a converging sweep may not")
    if de < ENERGY_TOL and not refusals:
        return ""
    missed = (f"last sweep-to-sweep |dE| {hbar * de:.3g}" if len(trace) >= 2
              else "no sweep-to-sweep |dE| after one sweep")
    if de < ENERGY_TOL:
        missed += " met energy_tol, but that sweep " + " and ".join(refusals)
    sweeps = "1 sweep" if len(trace) == 1 else f"{len(trace)} sweeps"
    return (f"not converged after {sweeps}: {missed}, "
            f"energy_tol {hbar * ENERGY_TOL:.3g}")


def run_dmrg(spec: ChainSpec, config: DmrgConfig) -> DmrgResult:
    """Warmup, then finite-system sweeps; the last sweep reports.

    Warmup grows the left block one site at a time against its mirror
    image until the superblock spans the chain. Sweeps run right then left
    until a sweep may end the run (``_stop_reason``) or ``n_sweeps`` is
    exhausted (``converged`` and ``stop_reason`` record
    which). The last sweep's final visit to each site gives its entropy, and
    that to the central site (N-1)//2 + 1 the reported energies and the
    central block's spectrum (White, PRB 48, 10345 (1993)); no solve follows
    the sweeps. Warmup solves to ``EIG_TOL``; sweeps 1 and 2 to 1e-6, later
    ones to 0.1 |dE| of the two sweeps before, clipped to [EIG_TOL, 1e-6].
    Only a sweep at ``CONVERGING_TOL`` or tighter may declare convergence.

    Sweeps 1-3 perturb each block truncation that would otherwise discard
    nothing (a factor of at most n columns: every one with one target, none
    with two) by White's alpha = 1e-4, 1e-5, 1e-6. A block can then re-choose
    its weakest kept states, and how many it keeps of each parity, from the
    states the bond couples to; unperturbed single-site sweeps keep both. A
    sweep that perturbed a truncation may not declare convergence either.
    """
    n_sites = spec.n_sites
    if n_sites < 3:
        raise ValueError("run_dmrg requires N >= 3; use the exact oracle below that")
    m = spec.bare_dim
    n = config.kept_states
    if n > m:
        raise ValueError(f"kept_states {n} exceeds bare_dim {m}")

    bases = [bare_site_basis(m, n) for _ in range(n_sites)]
    records: list[TruncationRecord] = []
    left: dict[int, Block] = {0: Block.empty()}
    right: dict[int, Block] = {0: Block.empty()}
    guess = None
    alpha, perturbed = 0.0, False

    def move(p: int, psi_fin: np.ndarray, rightward: bool) -> None:
        """Absorb site p into the block on its left (rightward) or right,
        truncating to n states of the averaged density matrix, from its
        factor; perturbed by ``alpha`` where the factor has at most n
        columns."""
        nonlocal perturbed
        if rightward:
            blocks, j, axes = left, p, (0, 1)
        else:
            blocks, j, axes = right, n_sites - p - 1, (2, 1)
        block, site = blocks[j], bases[p]
        if block.basis_dim * site.dim <= n:
            blocks[j + 1] = enlarge_block(block, site)
            return
        factor = _weighted_factor(psi_fin, axes)
        if alpha and factor.shape[1] <= n:
            factor = _perturbed_factor(factor, site.x, alpha)
            perturbed = True
        blocks[j + 1], rec = truncate_block(block, site, factor, n, position=p + 1)
        records.append(rec)

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
        t = grown.rotation.T @ psi.reshape(dl * ds, dr * k)
        moved = np.tensordot(t.reshape(-1, dr, k), split.rotation.reshape(-1, n, dr), axes=(1, 2))
        return moved.transpose(0, 3, 2, 1) if rightward else moved.transpose(2, 3, 0, 1)

    # Warmup: grow against the mirror environment (bases are still uniform).
    left[1] = right[1] = enlarge_block(left[0], bases[0])
    length = 1
    while n_sites - length - 1 > length:
        _eig, psi = superblock_solve(left[length], bases[length], right[length], config,
                                     label="warmup")
        move(length, psi, rightward=True)
        right[length + 1] = left[length + 1]
        length += 1

    # Finite-system sweeps: rightward from where warmup stopped, then back
    # to site 1; later sweeps start at site 1. A visit's state, stepped toward
    # the next site, warm-starts that site's solve. Each visit overwrites its
    # site's ground state, and the central site's energies and state.
    sweep_trace: list[float] = []
    sweep_tols: list[float] = []
    sweep_alphas: list[float] = []
    ground: list[np.ndarray] = [None] * n_sites
    central = (n_sites - 1) // 2
    back = list(range(n_sites - 2, -1, -1))
    sites = list(range(length, n_sites)) + back
    for sweep in range(config.n_sweeps):
        tol = _sweep_tolerance(sweep_trace)
        sweep_tols.append(tol)
        alpha = _PERTURBATION[sweep] if sweep < len(_PERTURBATION) else 0.0
        perturbed = False
        best = math.inf
        for p, nxt in zip(sites, [*sites[1:], 0]):
            bases[p], rec, eig, psi_fin = optimize_site_basis(
                config, left[p], right[n_sites - p - 1], bases[p], tol=tol, guess=guess,
            )
            if rec is not None:
                records.append(rec)
            best = min(best, eig.values[0])
            # The solved state: any site basis gives the same site spectrum.
            ground[p] = eig.vectors[:, :1].reshape(psi_fin.shape[0], -1, psi_fin.shape[2], 1)
            if p == central:
                energies, central_psi = eig.values, psi_fin
            guess = psi_fin if nxt == p else step(p, psi_fin, rightward=nxt > p)
        sweep_trace.append(best)
        sweep_alphas.append(alpha if perturbed else 0.0)
        stop_reason = _stop_reason(sweep_trace, tol, sweep_alphas[-1], spec.hbar_tilde)
        if not stop_reason:
            break
        sites = list(range(n_sites)) + back

    factors = [_weighted_factor(g, (1,)) for g in ground]
    site_entropies = np.array([von_neumann(f @ f.T) for f in factors])
    factor = _weighted_factor(central_psi, (0, 1))
    sig = np.linalg.svd(factor, compute_uv=False)
    central_block_lams = np.pad(sig**2, (0, factor.shape[0] - sig.size))

    # The one place hbar enters: the solves above are those at hbar = 1.
    energies, trace = spec.hbar_tilde * energies, spec.hbar_tilde * np.array(sweep_trace)
    gap = float(energies[1] - energies[0]) if energies.size >= 2 else None
    return DmrgResult(
        energies=energies,
        gap=gap,
        entanglement_SE=float(site_entropies.mean()),
        site_entropies=site_entropies,
        truncation_records=records,
        sweep_energy_trace=trace,
        converged=not stop_reason,
        central_block_lambdas=central_block_lams,
        sweep_tolerances=np.array(sweep_tols),
        sweep_perturbations=np.array(sweep_alphas),
        stop_reason=stop_reason,
    )
