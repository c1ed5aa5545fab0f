import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdmrg import ChainSpec, ConvergenceError, DmrgConfig, run_dmrg
from oscdmrg.lanczos import _split, dense_sym_eig, lowest_k


def _random_symmetric(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def test_dense_identity_and_permutation():
    res = dense_sym_eig(np.eye(4))
    np.testing.assert_allclose(res.values, np.ones(4), atol=1e-14)
    res = dense_sym_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(res.values, [1.0, 2.0, 3.0], atol=1e-14)
    # eigenvectors are basis permutations for a diagonal matrix
    np.testing.assert_allclose(np.abs(res.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_dense_reconstruction():
    mat = _random_symmetric(30, seed=5)
    res = dense_sym_eig(mat)
    rebuilt = res.vectors @ np.diag(res.values) @ res.vectors.T
    assert np.max(np.abs(rebuilt - mat)) <= 1e-9
    np.testing.assert_allclose(res.vectors.T @ res.vectors, np.eye(30), atol=1e-10)


def test_dense_rejects_bad_input():
    with pytest.raises(ValueError):
        dense_sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        dense_sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        dense_sym_eig(np.ones((2, 3)))


def test_lowest_k_diagonal():
    mat = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    res = lowest_k(lambda v: mat @ v, 5, 2)
    np.testing.assert_allclose(res.values, [1.0, 2.0], atol=1e-10)


def test_lowest_k_full_spectrum_tiny():
    # dim = k: the basis is the whole space at once, and a thick restart
    # would keep no rows
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = lowest_k(lambda v: mat @ v, 2, 2)
    np.testing.assert_allclose(res.values, [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(lowest_k(lambda v: 3.0 * v, 1, 1).values, [3.0], rtol=0, atol=1e-15)


def test_lowest_k_matches_dense_60():
    mat = _random_symmetric(60, seed=11)
    res = lowest_k(lambda v: mat @ v, 60, 5)
    dense = dense_sym_eig(mat)
    np.testing.assert_allclose(res.values, dense.values[:5], atol=1e-9)


@pytest.mark.parametrize("dim,k,seed", [(80, 1, 0), (150, 3, 1), (200, 5, 2), (200, 2, 3)])
def test_lowest_k_matches_dense_randomized(dim, k, seed):
    mat = _random_symmetric(dim, seed=seed)
    res = lowest_k(lambda v: mat @ v, dim, k, tol=1e-10, seed=seed)
    dense = np.linalg.eigvalsh(mat)
    np.testing.assert_allclose(res.values, dense[:k], atol=1e-8)
    # result invariants: ordering, orthonormality, residual bound
    assert np.all(np.diff(res.values) >= -1e-12)
    gram = res.vectors.T @ res.vectors
    np.testing.assert_allclose(gram, np.eye(k), atol=1e-8)
    for i in range(k):
        r = mat @ res.vectors[:, i] - res.values[i] * res.vectors[:, i]
        assert np.linalg.norm(r) <= 1e-10 * max(1.0, abs(res.values[i])) * 1.001


def test_lowest_k_deterministic():
    mat = _random_symmetric(120, seed=9)
    r1 = lowest_k(lambda v: mat @ v, 120, 3, seed=17)
    r2 = lowest_k(lambda v: mat @ v, 120, 3, seed=17)
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.vectors, r2.vectors)


def test_lowest_k_degenerate_pair():
    # exact double degeneracy of the lowest eigenvalue
    mat = np.diag([1.0, 1.0, 2.0, 3.0] + list(np.linspace(4, 20, 396)))
    res = lowest_k(lambda v: mat @ v, 400, 3, seed=4)
    np.testing.assert_allclose(res.values, [1.0, 1.0, 2.0], atol=1e-8)


def test_lowest_k_argument_errors():
    mat = np.eye(4)
    with pytest.raises(ValueError):
        lowest_k(lambda v: mat @ v, 4, 5)
    with pytest.raises(ValueError):
        lowest_k(lambda v: mat @ v, 4, 0)
    with pytest.raises(ValueError):
        lowest_k(lambda v: mat @ v, 4, 2, tol=0.0)


def test_lowest_k_convergence_error_carries_residuals(monkeypatch):
    import oscdmrg.lanczos as lanczos_mod

    monkeypatch.setattr(lanczos_mod, "_MAX_MATVECS", 8)
    mat = _random_symmetric(500, seed=3)
    with pytest.raises(ConvergenceError) as info:
        lowest_k(lambda v: mat @ v, 500, 2, tol=1e-12, seed=0)
    assert info.value.residual_norms is not None
    assert info.value.residual_norms.shape == (2,)
    assert np.all(info.value.residual_norms > 0)


def test_lowest_k_warm_start():
    mat = _random_symmetric(500, seed=21)
    dense = np.linalg.eigvalsh(mat)[:2]
    cold = lowest_k(lambda v: mat @ v, 500, 2, seed=1)
    warm = lowest_k(lambda v: mat @ v, 500, 2, seed=1, v0=cold.vectors)
    np.testing.assert_allclose(warm.values, dense, atol=1e-8)
    assert warm.iterations <= cold.iterations


@pytest.mark.parametrize("diagonal,columns",
                         [(True, [0, 0]), (False, [0, 0]), (False, [1, 1, 0]), (True, [0]),
                          (True, [2]), (True, [9]), (True, [2, 9])])
def test_lowest_k_start_block_without_full_rank(diagonal, columns):
    # a start block that repeats an exact eigenvector: the Krylov block
    # loses rank after one step and must continue in fresh directions. A
    # single exact eigenvector of a diagonal matrix leaves an exactly zero
    # remainder, which the one-column split must not divide by. Exact
    # eigenvectors of a diagonal matrix span an invariant subspace, whose
    # Ritz pairs have zero residuals: accepting them would return e.g. the
    # third value for the lowest.
    rng = np.random.default_rng(5)
    dim = 500
    vals = np.sort(rng.uniform(-10.0, 10.0, dim))
    vecs = np.eye(dim) if diagonal else np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    mat = (vecs * vals) @ vecs.T
    k = len(columns)
    with np.errstate(divide="raise", invalid="raise"):
        res = lowest_k(lambda v: mat @ v, dim, k, v0=vecs[:, columns])
    np.testing.assert_allclose(res.values, vals[:k], rtol=0, atol=1e-8)
    np.testing.assert_allclose(res.vectors.T @ res.vectors, np.eye(k), rtol=0, atol=1e-10)
    resid = np.linalg.norm(mat @ res.vectors - res.vectors * res.values, axis=0)
    assert np.all(resid <= 1e-10 * np.maximum(1.0, np.abs(res.values)) * 1.001)


@pytest.mark.parametrize("k", [1, 2])
def test_lowest_k_zero_start_column_is_drawn(k):
    # a zero column of v0 counts as missing and comes from the generator;
    # normalizing it instead would divide by zero
    mat = np.diag(np.linspace(-3.0, 5.0, 300))
    with np.errstate(all="raise"):
        res = lowest_k(lambda v: mat @ v, 300, k, v0=np.zeros(300))
    np.testing.assert_allclose(res.values, np.diag(mat)[:k], rtol=0, atol=1e-8)


@pytest.mark.parametrize("case,k", [("random", 1), ("random", 2), ("random", 4),
                                    ("degenerate", 3), ("eigenvector", 2)])
def test_lowest_k_windowed_projection(case, k):
    # Each product is projected first on the columns it can reach, then once
    # on the whole basis. At dim 600 and tol 1e-12 the solve goes through
    # several thick restarts (the basis holds at most 34 columns), after
    # which the product reaches every kept Ritz vector. A start column that
    # is an exact eigenvector of a diagonal matrix loses its direction at
    # the first step, and the random replacement reaches the whole basis.
    dim, tol = 600, 1e-12
    rng = np.random.default_rng(7)
    vals = np.sort(rng.uniform(-10.0, 10.0, dim))
    if case == "degenerate":
        vals[1] = vals[0]
    diagonal = case == "eigenvector"
    vecs = np.eye(dim) if diagonal else np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    mat = (vecs * vals) @ vecs.T
    v0 = np.column_stack([vecs[:, 0], rng.standard_normal(dim)]) if diagonal else None
    res = lowest_k(lambda v: mat @ v, dim, k, tol=tol, seed=3, v0=v0)
    assert res.iterations > 100
    np.testing.assert_allclose(res.values, np.linalg.eigvalsh(mat)[:k], rtol=0, atol=1e-9)
    np.testing.assert_allclose(res.vectors.T @ res.vectors, np.eye(k), rtol=0, atol=1e-12)
    resid = np.linalg.norm(mat @ res.vectors - res.vectors * res.values, axis=0)
    assert np.all(resid <= tol * np.maximum(1.0, np.abs(res.values)))


@pytest.mark.parametrize("k", [2, 3])
def test_lowest_k_restart_window_on_shifted_spectrum(k):
    # A shift of 1e6 makes every vector almost an eigenvector: each product
    # is 1e6 times the block it came from plus a remainder of order 10. So
    # the residual block a thick restart keeps must be in the first
    # projection after the restart, with the kept Ritz vectors; a single
    # pass would leave rounding of order 1e-16 * 1e6 / 10 in the next block
    # and the basis would lose orthogonality at about 1e-11.
    dim, tol = 400, 1e-12
    rng = np.random.default_rng(3)
    vals = np.sort(rng.uniform(-10.0, 10.0, dim)) + 1e6
    vecs = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    mat = (vecs * vals) @ vecs.T
    res = lowest_k(lambda v: mat @ v, dim, k, tol=tol, seed=3)
    assert res.iterations > 100  # several thick restarts (width 22 or 28)
    np.testing.assert_allclose(res.values, vals[:k], rtol=0, atol=1e-7)
    np.testing.assert_allclose(res.vectors.T @ res.vectors, np.eye(k), rtol=0, atol=1e-13)
    resid = np.linalg.norm(mat @ res.vectors - res.vectors * res.values, axis=0)
    assert np.all(resid <= tol * np.abs(res.values))


@st.composite
def _eigenproblems(draw):
    """A symmetric matrix with known spectrum, a k and an optional start.

    Small dimensions (2..128; from 2 to 6k + 10 the basis spans the whole
    space) and larger ones (129..600, which take thick restarts). The lowest
    pair may be exactly degenerate, a diagonal matrix makes exact
    eigenvectors span an exactly invariant subspace, and a start block may
    repeat a column, so that it has lost rank."""
    large = draw(st.booleans())
    dim = draw(st.integers(129, 600) if large else st.integers(2, 128))
    k = draw(st.integers(1, min(4, dim)))
    seed = draw(st.integers(0, 2**32 - 1))
    degenerate = draw(st.booleans())
    diagonal = draw(st.booleans())
    start_noise = draw(st.sampled_from([None, 0.0, 1e-6, 1e-2, 1.0]))
    repeat_column = draw(st.booleans())
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.uniform(-10.0, 10.0, dim))
    if degenerate:
        vals[1] = vals[0]
    vecs = np.eye(dim) if diagonal else np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    mat = (vecs * vals) @ vecs.T
    mat = 0.5 * (mat + mat.T)
    v0 = None
    if start_noise is not None:
        v0 = vecs[:, :k] + start_noise * rng.standard_normal((dim, k))
        if repeat_column:
            v0[:, -1] = v0[:, 0]
    return mat, k, seed, v0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_eigenproblems())
def test_lowest_k_agrees_with_eigh(problem):
    mat, k, seed, v0 = problem
    dim = mat.shape[0]
    tol = 1e-10
    res = lowest_k(lambda v: mat @ v, dim, k, tol=tol, seed=seed, v0=v0)
    np.testing.assert_allclose(res.values, np.linalg.eigvalsh(mat)[:k], rtol=0, atol=1e-8)
    np.testing.assert_allclose(res.vectors.T @ res.vectors, np.eye(k), rtol=0, atol=1e-10)
    resid = np.linalg.norm(mat @ res.vectors - res.vectors * res.values, axis=0)
    bound = tol * np.maximum(1.0, np.abs(res.values))
    assert np.all(np.abs(res.residual_norms - resid) <= 1e-3 * bound)
    assert np.all(resid <= bound * 1.001)


@st.composite
def _krylov_remainders(draw):
    """A k x dim remainder w = U diag(s) V^T, k from 2 to 5, whose singular
    values fall on both sides of the Gram split's guard: ratios to the
    largest from 1 down to 1e-12, or exactly 0."""
    k = draw(st.integers(2, 5))
    dim = draw(st.integers(k, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    ratio = st.one_of(st.just(0.0), st.just(1.0), st.floats(-12.0, 0.0).map(lambda e: 10.0**e))
    ratios = draw(st.lists(ratio, min_size=k - 1, max_size=k - 1))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((k, k)))[0]
    right = np.linalg.qr(rng.standard_normal((dim, k)))[0]
    return (left * (scale * np.array([1.0, *ratios]))) @ right.T


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_krylov_remainders())
def test_split_of_a_krylov_remainder(w):
    # Well-conditioned blocks go through the Gram matrix, the others through
    # the SVD; either way the rows are orthonormal, they rebuild w, and the
    # singular values above the lost-direction floor are the SVD's
    block, sig, beta = _split(w)
    ref = np.linalg.svd(w, compute_uv=False)
    np.testing.assert_allclose(block @ block.T, np.eye(w.shape[0]), rtol=0, atol=1e-13)
    np.testing.assert_allclose(beta.T @ block, w, rtol=0, atol=1e-12 * ref[0])
    kept = ref > 1e-8 * ref[0]
    np.testing.assert_allclose(sig[kept], ref[kept], rtol=1e-12, atol=1e-12 * ref[0])


def test_size_scan_shape_splits_through_the_gram_matrix(monkeypatch):
    # Every Krylov block of the two-target size scan is well conditioned, so
    # no Lanczos step of it falls back to an SVD
    svd, calls = np.linalg.svd, []

    def counting(*args, **kwargs):
        calls.append(sys._getframe(1).f_globals["__name__"])
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    run_dmrg(ChainSpec(10, 1.0, 14), DmrgConfig(10, 4, n_targets=2, seed=1))
    assert calls and "oscdmrg.lanczos" not in calls
