"""Subspace membership, closure checking, generation, and transport maps."""

import numpy as np
import pytest

from corneralg.matcore import NumericalFailureError, ShapeMismatchError
from corneralg.subalgebra import (
    MatrixSubspace,
    algebra_from_span,
    closure_defect,
    compress,
    conjugate,
    generated_algebra,
    membership_residuals,
    subspace_from,
    transpose_variant,
    unitize,
)


def eij(n, i, j):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def test_subspace_membership():
    s = subspace_from([np.eye(3), eij(3, 0, 1)])
    assert s.dim == 2
    ok, r = s.contains(2.0 * np.eye(3) + 5j * eij(3, 0, 1))
    assert ok and r < 1e-10
    ok, r = s.contains(eij(3, 1, 0))
    assert not ok and r > 0.9


def test_subspace_from_a_list_equals_it_from_a_stack_bitwise():
    rng = np.random.default_rng(17)
    for n, m in ((2, 3), (4, 10), (5, 30)):
        stack = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        a, b = subspace_from(list(stack)), subspace_from(stack)
        assert a.basis.shape == b.basis.shape and np.array_equal(a.basis, b.basis)


def test_basis_is_one_read_only_stack():
    s = subspace_from([np.eye(3), eij(3, 0, 1)])
    assert s.basis.shape == (2, 3, 3) and s.basis.dtype == np.complex128
    assert s.vecs.shape == (2, 9) and np.shares_memory(s.vecs, s.basis)
    with pytest.raises(ValueError):
        s.basis[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        s.vecs[0, 0] = 2.0
    assert subspace_from([], n=3).basis.shape == (0, 3, 3)
    assert subspace_from([np.zeros((3, 3))]).basis.shape == (0, 3, 3)


def test_matrix_subspace_accepts_a_tuple_a_list_or_a_stack():
    stack = subspace_from([np.eye(3), eij(3, 0, 1)]).basis
    for given in (tuple(stack), list(stack), stack):
        s = MatrixSubspace(n=3, basis=given)
        assert np.array_equal(s.basis, stack) and not s.basis.flags.writeable
    # the subspace keeps its own array: the caller's stays writeable and apart
    mine = stack.copy()
    s = MatrixSubspace(n=3, basis=mine)
    assert mine.flags.writeable and not np.shares_memory(mine, s.basis)
    assert MatrixSubspace(n=3, basis=()).basis.shape == (0, 3, 3)
    for bad in ([np.eye(2)], [np.eye(3), np.eye(2)], np.eye(3), np.zeros((0, 2, 2))):
        with pytest.raises(ShapeMismatchError):
            MatrixSubspace(n=3, basis=bad)


def test_projection_is_idempotent_and_orthogonal():
    rng = np.random.default_rng(2)
    s = subspace_from([rng.standard_normal((4, 4)) for _ in range(5)])
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = s.project(x)
    assert np.allclose(s.project(p), p, atol=1e-12)
    # residual is Frobenius-orthogonal to the subspace
    for b in s.basis:
        assert abs(np.vdot(b, x - p)) < 1e-10


def test_membership_residuals_batched_matches_scalar():
    rng = np.random.default_rng(8)
    s = subspace_from([rng.standard_normal((3, 3)) for _ in range(3)])
    stack = rng.standard_normal((7, 3, 3)) + 1j * rng.standard_normal((7, 3, 3))
    batched = membership_residuals(s, stack)
    for k in range(7):
        assert abs(batched[k] - s.residual(stack[k])) < 1e-12


def test_algebra_from_span_accepts_triangular_rejects_swap():
    t2 = algebra_from_span([np.eye(2), eij(2, 0, 0), eij(2, 0, 1)])
    assert t2.dim == 3 and t2.unital
    # span{I, E12, E21} is not closed: E12 E21 = E11 falls outside
    with pytest.raises(ValueError, match="not multiplicatively closed"):
        algebra_from_span([np.eye(2), eij(2, 0, 1), eij(2, 1, 0)])


def test_closure_defect_zero_on_full_matrix_algebra():
    basis = [eij(2, i, j) for i in range(2) for j in range(2)]
    s = subspace_from(basis)
    assert closure_defect(s) < 1e-14


def test_generated_algebra_swap_generators_give_m2():
    alg = generated_algebra([eij(2, 0, 1), eij(2, 1, 0)], include_identity=False)
    assert alg.dim == 4
    assert alg.unital  # E11 + E22 = I shows up in the closure


def test_generated_algebra_nilpotent_jordan():
    n = np.zeros((3, 3), dtype=np.complex128)
    n[0, 1] = n[1, 2] = 1.0
    # without the identity: span{N, N^2}
    assert generated_algebra([n], include_identity=False).dim == 2
    # with it: span{I, N, N^2}
    alg = generated_algebra([n], include_identity=True)
    assert alg.dim == 3 and alg.unital


def test_generated_algebra_single_diagonal():
    d = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
    alg = generated_algebra([d], include_identity=True)
    # distinct eigenvalues: the full diagonal algebra
    assert alg.dim == 3
    assert alg.space.contains(np.diag([1.0, 0.0, 0.0]))[0]


def test_generated_algebra_random_is_closed():
    rng = np.random.default_rng(31)
    for _ in range(5):
        gens = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))]
        alg = generated_algebra(gens)
        assert closure_defect(alg.space) < 1e-10
        assert alg.dim == 4  # a generic single generator has 4 distinct eigenvalues


def test_unitize_adds_one_dimension():
    # Q1 M Q2 with Q1 = diag(1,1,0,0), Q2 = diag(0,0,1,1): products vanish
    basis = [eij(4, i, j) for i in range(2) for j in range(2, 4)]
    alg = algebra_from_span(basis)
    assert alg.dim == 4 and not alg.unital
    u = unitize(alg)
    assert u.dim == 5 and u.unital
    assert unitize(u) is u


def test_compress_corner_and_idempotent_check():
    t2 = algebra_from_span([np.eye(2), eij(2, 0, 0), eij(2, 0, 1)])
    corner = compress(t2, eij(2, 0, 0))
    assert corner.dim == 1
    with pytest.raises(ValueError, match="not idempotent"):
        compress(t2, np.array([[1.0, 1.0], [0.0, 2.0]]))
    # non-orthogonal idempotent is accepted
    e = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert compress(t2, e).dim >= 1


def test_conjugate_round_trip_and_singular_rejection():
    rng = np.random.default_rng(4)
    alg = algebra_from_span([np.eye(3), eij(3, 0, 0), eij(3, 0, 1), eij(3, 1, 1)])
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    moved = conjugate(alg, s)
    assert moved.dim == alg.dim
    back = conjugate(moved, np.linalg.inv(s))
    assert back.space.equals(alg.space)
    with pytest.raises(NumericalFailureError):
        conjugate(alg, np.zeros((3, 3)))


def test_transpose_variants():
    upper = algebra_from_span([np.eye(3), eij(3, 0, 1), eij(3, 0, 2), eij(3, 1, 2)])
    flipped = transpose_variant(upper, "transpose")
    assert flipped.space.contains(eij(3, 1, 0))[0]
    assert not flipped.space.contains(eij(3, 0, 1))[0]
    # the anti-transpose fixes upper-triangularity: E13 -> E13, E12 -> E23
    anti = transpose_variant(upper, "anti")
    assert anti.space.equals(upper.space)
    with pytest.raises(ValueError):
        transpose_variant(upper, "hermitian")


def test_anti_transpose_is_antimultiplicative():
    rng = np.random.default_rng(12)
    j = np.fliplr(np.eye(4))
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    ta = j @ a.T @ j
    tb = j @ b.T @ j
    assert np.allclose(j @ (a @ b).T @ j, tb @ ta, atol=1e-12)
