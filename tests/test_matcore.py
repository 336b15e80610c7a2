"""Kernel-level numerics: SVD wrapper, rank, orthonormal spans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corneralg.matcore import (
    DEFAULT_TOL,
    ShapeMismatchError,
    Tolerance,
    as_matrix,
    frob,
    haar_unitary,
    numerical_rank,
    numerical_ranks,
    orthonormal_span,
    random_similarity,
    rank_tol,
    svd_factor,
)


def test_as_matrix_coerces_and_rejects():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128 and m.shape == (2, 2)
    with pytest.raises(ShapeMismatchError):
        as_matrix([1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        as_matrix(np.zeros((0, 3)))


def test_tolerance_validation():
    for bad in (0.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Tolerance(rel_eps=bad)
        with pytest.raises(ValueError):
            Tolerance(rank_eps_factor=bad)


def test_svd_factor_reconstructs():
    rng = np.random.default_rng(0)
    for shape in [(5, 5), (3, 6), (6, 2)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u, s, v = svd_factor(x)
        assert np.allclose(u @ np.diag(s) @ v.conj().T, x, atol=1e-12)
        assert np.all(np.diff(s) <= 0)


def test_rank_tol_exact_cases():
    assert rank_tol(np.zeros((4, 4))) == 0
    assert rank_tol(np.eye(5)) == 5
    e = np.zeros((4, 4))
    e[0, 1] = 3.0
    assert rank_tol(e) == 1
    # rank 2 with a wide spread of singular values still counts both
    assert rank_tol(np.diag([1.0, 1e-6, 0.0, 0.0])) == 2


def test_rank_tol_relative_cutoff():
    # 1e-12 relative to 1.0 sits below the default 1e-9 factor
    assert rank_tol(np.diag([1.0, 1e-12])) == 1
    # 1e-2 relative to 1e6 is 1e-8, above the factor
    assert rank_tol(np.diag([1e6, 1e-2])) == 2
    assert rank_tol(np.diag([1e6, 1e-4])) == 1


def test_numerical_rank_policy():
    assert numerical_rank(np.zeros(0), DEFAULT_TOL) == 0
    assert numerical_rank(np.zeros(3), DEFAULT_TOL) == 0
    # relative cutoff: rank_eps_factor * sigma_max
    assert numerical_rank(np.array([1e6, 2e-3, 1e-4]), DEFAULT_TOL) == 2
    assert numerical_rank(np.array([1.0, 0.5]), Tolerance(rank_eps_factor=0.6)) == 1
    # absolute floor: a roundoff-only spectrum, such as the commutators of a
    # commutative algebra, has rank 0 whatever the relative cutoff says
    assert numerical_rank(np.array([2e-14, 1.4e-14]), DEFAULT_TOL) == 0
    assert numerical_rank(np.array([1e-3, 2e-13, 5e-14]), Tolerance(rank_eps_factor=1e-12)) == 2


def test_numerical_ranks_is_numerical_rank_row_by_row():
    rows = np.array([[0.0, 0.0, 0.0], [1e6, 2e-3, 1e-4], [2e-14, 1.4e-14, 0.0],
                     [1e-3, 2e-13, 5e-14], [1.0, 0.5, 0.5]])
    for tol in (DEFAULT_TOL, Tolerance(rank_eps_factor=1e-12), Tolerance(rank_eps_factor=0.6)):
        assert numerical_ranks(rows, tol).tolist() == [numerical_rank(s, tol) for s in rows]
    assert numerical_ranks(np.zeros((2, 0)), DEFAULT_TOL).tolist() == [0, 0]


def test_orthonormal_span_drops_dependent_directions():
    a = np.eye(3)
    mats = [a, 2.0 * a, np.zeros((3, 3))]
    basis = orthonormal_span(mats)
    assert len(basis) == 1
    assert abs(frob(basis[0]) - 1.0) < 1e-12
    # the surviving direction is a multiple of the identity
    assert np.allclose(basis[0], basis[0][0, 0] * np.eye(3), atol=1e-12)


def test_orthonormal_span_is_orthonormal_and_spans():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(6)]
    basis = orthonormal_span(mats)
    assert len(basis) == 6
    stack = basis.reshape(len(basis), -1)
    assert np.allclose(stack @ stack.conj().T, np.eye(6), atol=1e-10)
    # each input is recovered by its Frobenius expansion <m, b> = Tr(b* m)
    for m in mats:
        recon = sum(np.vdot(b, m) * b for b in basis)
        assert frob(recon - m) < 1e-10 * frob(m)


def test_orthonormal_span_empty_and_shape_checks():
    assert orthonormal_span([]).shape == (0, 0, 0)
    assert orthonormal_span([], shape=(3, 3)).shape == (0, 3, 3)
    with pytest.raises(ShapeMismatchError):
        orthonormal_span([np.eye(2), np.eye(3)])
    with pytest.raises(ShapeMismatchError):
        orthonormal_span([np.eye(2)], shape=(3, 3))
    with pytest.raises(ShapeMismatchError):
        orthonormal_span(np.eye(3))  # a 2-d input is not a stack of matrices


def test_orthonormal_span_deterministic():
    rng = np.random.default_rng(11)
    mats = [rng.standard_normal((3, 3)) for _ in range(4)]
    b1 = orthonormal_span(mats)
    b2 = orthonormal_span([m.copy() for m in mats])
    for x, y in zip(b1, b2):
        assert np.array_equal(x, y)


def _phase_fix_reference(rows):
    """The row loop orthonormal_span used before it returned one stack."""
    out = rows.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        a = out[i, j]
        if abs(a) > 0:
            out[i] *= abs(a) / a
    return out


def _orthonormal_span_reference(mats, tol=DEFAULT_TOL):
    """The list-returning orthonormal_span it replaced, kept as the reference."""
    mats = [as_matrix(m) for m in mats]
    if not mats:
        return []
    r, c = mats[0].shape
    stack = np.array([m.reshape(-1) for m in mats])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    basis = _phase_fix_reference(vh[:numerical_rank(s, tol)])
    return [row.reshape(r, c) for row in basis]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orthonormal_span_stack_equals_the_list_reference_bitwise(n):
    rng = np.random.default_rng([41, n])
    for kind in ("real", "complex", "deficient"):
        for m in (1, n, n * n + 2):
            x = rng.standard_normal((m, n, n))
            if kind != "real":
                x = x + 1j * rng.standard_normal((m, n, n))
            if kind == "deficient":
                x = np.einsum("ij,jab->iab", rng.standard_normal((m, max(1, m // 2))),
                              x[:max(1, m // 2)])
            want = np.array(_orthonormal_span_reference(list(x)))
            for given in (list(x), x):
                got = orthonormal_span(given)
                assert got.shape == want.shape and np.array_equal(got, want), (kind, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
def test_haar_unitary_is_unitary(n, seed):
    u = haar_unitary(n, np.random.default_rng(seed))
    assert np.allclose(u.conj().T @ u, np.eye(n), atol=1e-12)


def test_haar_unitary_deterministic_per_seed():
    u1 = haar_unitary(4, np.random.default_rng(99))
    u2 = haar_unitary(4, np.random.default_rng(99))
    assert np.array_equal(u1, u2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_similarity_condition_bound(n, seed):
    s = random_similarity(n, np.random.default_rng(seed))
    assert np.linalg.cond(s) <= 50.0 * (1 + 1e-9)
