"""Symmetric eigensolvers.

``dense_sym_eig`` wraps the LAPACK full decomposition, used for density
matrices and small Hamiltonians. ``lowest_k`` needs only the operator's
action on a block of vectors, for superblock and exact diagonalizations
where the operator is never materialized. Above ``_DENSE_CUTOFF`` it is a
thick-restart block Lanczos on a basis stored one vector per row. A step
applies the operator to the newest block (as ``rows.T``), projects the
result first on the rows it can reach (the previous block and itself;
after a thick restart, every kept Ritz vector) and then once on the whole
basis, adds both projections into the projected matrix, and splits off the
next block by an SVD (a norm, for one row). Full reorthogonalization keeps
ghost eigenvalues out of the density-matrix spectra downstream. Every few
steps the Ritz residuals are read off the projected matrix; once they
pass, the operator is applied to the Ritz vectors, so the returned
residuals are the true ``||H v - lambda v||``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError

__all__ = ["EigResult", "dense_sym_eig", "lowest_k"]

# Below this dimension the Krylov basis is saturated in one batched
# application instead of iterating toward it (on superblock operators the
# warm-started iterative solve is faster from about 128 states up).
_DENSE_CUTOFF = 128
# Lanczos steps between Rayleigh-Ritz convergence checks (a restart also
# checks, and so does the first step, for warm starts).
_CHECK_EVERY = 5
# Basis columns a thick restart rotates at a time, bounding its temporary.
_RESTART_COLS = 4096


@dataclass(frozen=True)
class EigResult:
    """Lowest eigenpairs: ascending values, orthonormal columns in vectors.

    ``residual_norms[i] = ||H v_i - lambda_i v_i||``; ``iterations`` counts
    matrix-vector products (0 for the dense path).
    """

    values: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray
    iterations: int


def dense_sym_eig(mat: np.ndarray) -> EigResult:
    """Full spectrum of a symmetric matrix, ascending.

    The input must be symmetric within 1e-10 entrywise; it is symmetrized
    by averaging with its transpose before decomposing.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > 1e-10:
        raise ValueError(f"matrix asymmetry {asym:.2e} exceeds 1e-10")
    sym = 0.5 * (mat + mat.T)
    values, vectors = np.linalg.eigh(sym)
    resid = np.linalg.norm(sym @ vectors - vectors * values, axis=0)
    return EigResult(values=values, vectors=vectors, residual_norms=resid, iterations=0)


def lowest_k(
    apply: Callable[[np.ndarray], np.ndarray],
    dim: int,
    k: int,
    tol: float = 1e-10,
    max_iter: int = 2000,
    seed: int = 0,
    v0: np.ndarray | None = None,
) -> EigResult:
    """The k algebraically smallest eigenpairs of a symmetric linear map.

    ``apply`` is the one operator: it maps a ``(dim, j)`` block to
    H @ block, every column at once, and must be symmetric (the caller's
    contract). Convergence requires every residual to satisfy
    ``||H v - lambda v|| <= tol * max(1, |lambda|)``. ``max_iter`` caps the
    number of matrix-vector products; exceeding it raises
    :class:`ConvergenceError` carrying the current residual norms.

    Deterministic for a fixed seed: the starting block is drawn from a
    seeded generator and every reduction has a fixed order. ``v0`` may
    supply starting vectors (shape ``(dim,)`` or ``(dim, j)``); the first k
    are used and missing ones come from the same generator.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 1 <= k <= dim:
        raise ValueError(f"k={k} outside 1..{dim}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    rng = np.random.default_rng(seed)

    if dim <= _DENSE_CUTOFF and max_iter >= dim:
        # Saturate the Krylov space outright: with full reorthogonalization
        # the basis would reach the whole space anyway at this size, and one
        # batched application is far cheaper than iterating toward it.
        t_mat = apply(np.eye(dim))
        t_mat = 0.5 * (t_mat + t_mat.T)
        vals, vecs = np.linalg.eigh(t_mat)
        lam = vals[:k].copy()
        x_vecs = vecs[:, :k]
        rnorm = np.linalg.norm(t_mat @ x_vecs - x_vecs * lam, axis=0)
        if np.all(rnorm <= tol * np.maximum(1.0, np.abs(lam))):
            return EigResult(values=lam, vectors=x_vecs, residual_norms=rnorm,
                             iterations=dim)
        raise ConvergenceError(
            f"residuals stalled at machine level {rnorm.max():.3e} with the "
            f"full space spanned (tol {tol:.1e} unreachable)",
            residual_norms=rnorm,
        )

    # Thick-restart block Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl.
    # 22, 602 (2000)) with block size k. Every applied block is projected on
    # the whole basis, so t_mat is exactly Q^T H Q, also across restarts.
    # Q is stored one vector per row, so every block of it is contiguous.
    width = min(dim, max(6 * k + 10, 24))
    keep = min(width - k, max(2 * k, width // 2))
    q_rows = np.empty((width, dim))
    t_mat = np.zeros((width, width))
    q_rows[:k] = rng.standard_normal((dim, k)).T
    if v0 is not None:
        v0 = np.asarray(v0, dtype=float).reshape(dim, -1)[:, :k]
        q_rows[: v0.shape[1]] = v0.T
    q_rows[:k] = np.linalg.qr(q_rows[:k].T)[0].T
    wlo, lo, p = 0, 0, k
    matvecs = steps = 0
    checked = 1 - _CHECK_EVERY
    while True:
        # rows.T reaches a row-major matvec without a copy; w is H q as rows.
        w = np.ascontiguousarray(apply(q_rows[p - k:p].T).T)
        matvecs += k
        steps += 1
        basis = q_rows[:p]
        near = q_rows[wlo:p]
        near_coef = near @ w.T
        w -= near_coef.T @ near
        coef = basis @ w.T
        w -= coef.T @ basis
        coef[wlo:] += near_coef
        t_mat[:p, lo:p] = coef
        t_mat[lo:p, :p] = coef.T
        # An SVD rather than a QR, because it shows when w loses rank.
        # w = beta^T @ block couples the next block to this one. The SVD of
        # a single row is its norm.
        if k == 1:
            sig = np.linalg.norm(w, axis=1)
            block, beta = w / (sig[0] or 1.0), sig[:, None]
        else:
            block, sig, vt = np.linalg.svd(w.T, full_matrices=False)
            block, beta = block.T, sig[:, None] * vt
        del w  # so that it is not held through the next product
        full = p + k > width
        if full or matvecs >= max_iter or steps - checked >= _CHECK_EVERY:
            checked = steps
            vals, s_mat = np.linalg.eigh(t_mat[:p, :p])
            lam = vals[:k]
            bound = tol * np.maximum(1.0, np.abs(lam))
            # ||H x - lam x|| of the Ritz pairs, read off the projection.
            rnorm = np.linalg.norm(beta @ s_mat[lo:p, :k], axis=0)
            if np.all(rnorm <= bound):
                x_vecs = (s_mat[:, :k].T @ basis).T
                resid = apply(x_vecs)
                resid -= x_vecs * lam
                rnorm = np.linalg.norm(resid, axis=0)
                matvecs += k
                if np.all(rnorm <= bound):
                    return EigResult(values=lam.copy(), vectors=x_vecs,
                                     residual_norms=rnorm, iterations=matvecs)
            if matvecs >= max_iter:
                raise ConvergenceError(
                    f"no convergence after {matvecs} matvecs "
                    f"(worst residual {rnorm.max():.3e})",
                    residual_norms=rnorm,
                )
            if full:
                # Thick restart: the leading Ritz vectors, on which the
                # projected operator is diagonal, then the residual block.
                for cols in range(0, dim, _RESTART_COLS):
                    chunk = q_rows[:, cols:cols + _RESTART_COLS]
                    chunk[:keep] = s_mat[:, :keep].T @ chunk[:p]
                t_mat[:keep, :keep] = np.diag(vals[:keep])
                p, lo = keep, 0
        # Directions this far below the largest are mostly rounding and not
        # orthogonal to the basis (an almost invariant subspace): replace
        # them with random ones.
        lost = sig <= 1e-8 * sig[0]
        if lost.any():
            fresh = rng.standard_normal((dim, int(lost.sum())))
            spanned = np.vstack([q_rows[:p], block[~lost]])
            for _ in range(2):
                fresh -= spanned.T @ (spanned @ fresh)
            block[lost] = np.linalg.qr(fresh)[0].T
        q_rows[p:p + k] = block
        # The next product reaches back to row wlo: the previous block, or
        # after a restart (lo = 0) the whole basis. A replaced, fresh
        # direction needs no more: the basis holds H of every older row.
        wlo, lo, p = lo, p, p + k
