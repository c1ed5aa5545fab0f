"""Symmetric eigensolvers.

``dense_sym_eig`` wraps the LAPACK full decomposition, the tests' dense
reference; the engine decomposes no density matrix with it. ``lowest_k`` needs
only the operator's action on a block of vectors, for superblock and exact
diagonalizations where the operator is never materialized. At every size it is
a thick-restart block Lanczos on a basis stored one vector per row, from a QR'd
start block (one start vector is only normalized); once the dimension is at
most its width, the basis spans the whole space. A step applies the operator to
the newest block (as ``rows.T``), projects the result first on the rows it can
reach (the previous block and itself; after a thick restart, every kept Ritz
vector) and then once on the whole basis, adds both projections into the
projected matrix, and splits off the next block through its Gram matrix, or by
an SVD if that is ill conditioned (``_split``; one row is normalized in place).
Full reorthogonalization keeps ghost eigenvalues out of the density-matrix
spectra downstream. Every few steps the Ritz residuals are read off the
projected matrix; once they pass, the operator is applied to the Ritz vectors,
so the returned residuals are the true ``||H v - lambda v||``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError

__all__ = ["EigResult", "dense_sym_eig", "lowest_k"]

# Lanczos steps between Rayleigh-Ritz convergence checks (a restart also
# checks, and so does the first step, for warm starts).
_CHECK_EVERY = 5
# Basis columns a thick restart rotates at a time, bounding its temporary.
_RESTART_COLS = 4096
# Matrix-vector products after which an unconverged solve gives up.
_MAX_MATVECS = 2000
# Least Gram eigenvalue ratio of a Gram split: kappa <= 10, rows orthonormal to ~eps kappa^2.
_GRAM_RATIO = 1e-2


@dataclass(frozen=True)
class EigResult:
    """Lowest eigenpairs: ascending values, orthonormal columns in vectors.

    ``residual_norms[i] = ||H v_i - lambda_i v_i||``; ``iterations`` counts
    matrix-vector products (0 for the dense reference ``dense_sym_eig``).
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
    seed: int = 0,
    v0: np.ndarray | None = None,
) -> EigResult:
    """The k algebraically smallest eigenpairs of a symmetric linear map.

    ``apply`` is the one operator: it maps a ``(dim, j)`` block to
    H @ block, every column at once, and must be symmetric (the caller's
    contract). Convergence requires every residual to satisfy
    ``||H v - lambda v|| <= tol * max(1, |lambda|)``. After
    ``_MAX_MATVECS`` matrix-vector products it raises
    :class:`ConvergenceError` carrying the current residual norms.

    Deterministic for a fixed seed: the starting block is drawn from a
    seeded generator and every reduction has a fixed order. ``v0`` may
    supply starting vectors (shape ``(dim,)`` or ``(dim, j)``); the first k
    are used, and missing or zero ones come from the same generator.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 1 <= k <= dim:
        raise ValueError(f"k={k} outside 1..{dim}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    rng = None

    # Thick-restart block Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl.
    # 22, 602 (2000)) with block size k. Every applied block is projected on
    # the whole basis, so t_mat is exactly Q^T H Q, also across restarts.
    # Q is stored one vector per row, so every block of it is contiguous.
    width = min(dim, 6 * k + 10)
    keep = min(width - k, max(2 * k, width // 2))
    q_rows = np.empty((width, dim))
    t_mat = np.zeros((width, width))
    start = np.reshape(np.zeros(0) if v0 is None else np.asarray(v0, dtype=float), (dim, -1)).T[:k]
    start = start[[row @ row > 0 for row in start]]
    if len(start) < k:
        rng = np.random.default_rng(seed)
        q_rows[:k] = rng.standard_normal((dim, k)).T
    q_rows[:len(start)] = start
    q_rows[:k] = (q_rows[:1] / math.sqrt(q_rows[0] @ q_rows[0]) if k == 1
                  else np.linalg.qr(q_rows[:k].T)[0].T)
    wlo, p = 0, k
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
        t_mat[p - k:p, :p] = coef.T  # its lower triangle, which is all eigh reads
        if k == 1:
            sig = beta = math.sqrt(w[0] @ w[0])
            block = np.divide(w, sig or 1.0, out=w)
        else:
            block, sig, beta = _split(w)
        del w  # so that it is not held through the next product
        if steps == 1 and k < dim and not np.any(sig):
            # An invariant start passes with zero residuals whatever the
            # spectrum holds below it: start again from a random block.
            rng = rng or np.random.default_rng(seed)
            q_rows[:k] = np.linalg.qr(rng.standard_normal((dim, k)))[0].T
            continue
        full = p + k > width
        if full or matvecs >= _MAX_MATVECS or steps - checked >= _CHECK_EVERY:
            checked = steps
            vals, s_mat = np.linalg.eigh(t_mat[:p, :p])
            lam = vals[:k]
            bound = tol * np.maximum(1.0, np.abs(lam))
            # ||H x - lam x|| of the Ritz pairs, read off the projection.
            rnorm = (abs(beta * s_mat[p - k, 0]) if k == 1
                     else np.linalg.norm(beta @ s_mat[p - k:p, :k], axis=0))
            if np.all(rnorm <= bound):
                x_vecs = (s_mat[:, :k].T @ basis).T
                resid = apply(x_vecs)
                resid -= x_vecs * lam
                rnorm = np.linalg.norm(resid, axis=0)
                matvecs += k
                if np.all(rnorm <= bound):
                    return EigResult(values=lam.copy(), vectors=x_vecs,
                                     residual_norms=rnorm, iterations=matvecs)
            if matvecs >= _MAX_MATVECS:
                raise ConvergenceError(
                    f"no convergence after {matvecs} matvecs "
                    f"(worst residual {np.max(rnorm):.3e})",
                    residual_norms=np.atleast_1d(rnorm),
                )
            if full:
                # Thick restart: the leading Ritz vectors, on which the
                # projected operator is diagonal, then the residual block.
                for cols in range(0, dim, _RESTART_COLS):
                    chunk = q_rows[:, cols:cols + _RESTART_COLS]
                    chunk[:keep] = s_mat[:, :keep].T @ chunk[:p]
                t_mat[:keep, :keep] = np.diag(vals[:keep])
                p = keep
        # SVD rows at most 1e-4 of the largest are not orthogonal to the basis:
        # they, or random rows for those at most 1e-8 (mostly rounding), are
        # projected twice on the rest, then orthonormalized, in order, signed.
        if (sig == 0.0) if k == 1 else sig[-1] <= 1e-4 * sig[0]:
            redo, lost = (np.atleast_1d(sig) <= c * np.max(sig) for c in (1e-4, 1e-8))
            rng = rng or np.random.default_rng(seed)
            fresh = block[redo].T
            fresh[:, lost[redo]] = rng.standard_normal((dim, int(lost.sum())))
            spanned = np.vstack([q_rows[:p], block[~redo]])
            for _ in range(2):
                fresh -= spanned.T @ (spanned @ fresh)
            fresh, r_mat = np.linalg.qr(fresh)
            block[redo] = (fresh * np.copysign(1.0, np.diag(r_mat))).T
        q_rows[p:p + k] = block
        # The next product reaches back to row wlo: the previous block, or
        # after a thick restart the whole basis. A replaced, fresh direction
        # needs no more: the basis holds H of every older row.
        wlo, p = (0 if full else p - k), p + k


def _split(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w = beta^T @ block, block's rows orthonormal, sig the singular values of w,
    descending: from the eigenpairs of w w^T (SVQB: Stathopoulos & Wu, SIAM J.
    Sci. Comput. 23, 2165 (2002)), or an SVD, which shows lost rank."""
    theta, u = np.linalg.eigh(w @ w.T)
    if theta[0] > _GRAM_RATIO * theta[-1]:
        sig, ut = np.sqrt(theta[::-1]), u.T[::-1]
        return (ut / sig[:, None]) @ w, sig, sig[:, None] * ut
    block, sig, vt = np.linalg.svd(w.T, full_matrices=False)
    return block.T, sig, sig[:, None] * vt
