"""Reduced triangular form, radical, linkage, unhinging."""

import numpy as np
import pytest

from corneralg.matcore import NumericalFailureError, haar_unitary, random_similarity
from corneralg.subalgebra import (
    MatrixAlgebra,
    algebra_from_span,
    conjugate,
    generated_algebra,
    subspace_from,
)
from corneralg.structure import (
    _riesz_projection,
    bd_algebra,
    bd_part,
    radical,
    reduced_algebra,
    support_columns,
    triangularize,
    unhinge,
    wedderburn,
)


def eij(n, i, j):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def upper_triangular_2():
    return algebra_from_span([np.eye(2), eij(2, 0, 0), eij(2, 0, 1)])


def full_matrix_algebra(n):
    return algebra_from_span([eij(n, i, j) for i in range(n) for j in range(n)])


def diagonal_algebra(n):
    return algebra_from_span([eij(n, i, i) for i in range(n)])


def block_rep(n_copies, inner=2, twist=None):
    """{A (+) A (+) ... : A in M_inner}, optionally conjugated."""
    mats = []
    n = n_copies * inner
    for i in range(inner):
        for j in range(inner):
            m = np.zeros((n, n), dtype=np.complex128)
            for c in range(n_copies):
                m[c * inner + i, c * inner + j] = 1.0
            mats.append(m)
    alg = algebra_from_span(mats)
    if twist is not None:
        alg = conjugate(alg, twist)
    return alg


def signature(struct):
    """Multiset of (block size, class multiplicity) pairs."""
    return sorted((struct.sizes[cls[0]], len(cls)) for cls in struct.classes)


# ---------------------------------------------------------------- radical


def test_radical_of_triangular_2():
    rad = radical(upper_triangular_2())
    assert rad.dim == 1
    assert rad.contains(eij(2, 0, 1))[0]


def test_radical_of_semisimple_is_zero():
    assert radical(full_matrix_algebra(3)).dim == 0
    assert radical(diagonal_algebra(4)).dim == 0


def test_radical_requires_unital():
    alg = MatrixAlgebra(space=subspace_from([eij(2, 0, 1)]), unital=False)
    with pytest.raises(ValueError):
        radical(alg)


def test_radical_of_corner_module_algebra():
    # C(Q1+Q2) + Q1 M Q2 + (Q1+Q2) M Q3 + C Q3 with ranks (1, 1, 2):
    # the radical is the whole strictly upper part, dimension 1 + 4
    n = 4
    mats = [np.eye(n), eij(n, 0, 1)]
    mats += [eij(n, i, j) for i in range(2) for j in (2, 3)]
    mats += [eij(n, 2, 2) + eij(n, 3, 3)]
    alg = algebra_from_span(mats)
    assert alg.dim == 7
    rad = radical(alg)
    assert rad.dim == 5
    assert rad.contains(eij(n, 0, 1))[0]
    assert rad.contains(eij(n, 1, 3))[0]
    assert not rad.contains(np.eye(n))[0]


def test_radical_invariant_under_unitary_disguise():
    rng = np.random.default_rng(17)
    u = haar_unitary(4, rng)
    n = 4
    mats = [np.eye(n), eij(n, 0, 1), eij(n, 0, 2), eij(n, 1, 2)]
    alg = algebra_from_span(mats)
    moved = conjugate(alg, u)
    assert radical(moved).dim == radical(alg).dim == 3


# ---------------------------------------------------------------- triangularize


def test_triangularize_full_algebra_is_single_block():
    struct = triangularize(full_matrix_algebra(3))
    assert struct.sizes == (3,)
    assert struct.classes == ((0,),)


def test_triangularize_diagonal_unlinked():
    struct = triangularize(diagonal_algebra(3))
    assert struct.sizes == (1, 1, 1)
    assert len(struct.classes) == 3


def test_triangularize_scalars_fully_linked():
    alg = algebra_from_span([np.eye(4)])
    struct = triangularize(alg)
    assert struct.sizes == (1, 1, 1, 1)
    assert struct.classes == ((0, 1, 2, 3),)


def test_triangularize_jordan_cell_linked_pair():
    alg = generated_algebra([eij(2, 0, 1)], include_identity=True)
    struct = triangularize(alg)
    assert struct.sizes == (1, 1)
    assert struct.classes == ((0, 1),)


def test_triangularize_copies_of_m2_linked():
    struct = triangularize(block_rep(2))
    assert struct.sizes == (2, 2)
    assert struct.classes == ((0, 1),)


def test_triangularize_direct_sum_m2_m2_unlinked():
    mats = [eij(4, i, j) for i in range(2) for j in range(2)]
    mats += [eij(4, i, j) for i in range(2, 4) for j in range(2, 4)]
    struct = triangularize(algebra_from_span(mats))
    assert struct.sizes == (2, 2)
    assert len(struct.classes) == 2


def test_triangularize_produces_reduced_form():
    rng = np.random.default_rng(5)
    alg = conjugate(block_rep(2), haar_unitary(4, rng))
    struct = triangularize(alg)
    assert signature(struct) == [(2, 2)]
    red = reduced_algebra(alg, struct)
    for b in red.basis:
        assert struct.strict_lower_norm(b) < 1e-8
    assert np.allclose(struct.u @ struct.u.conj().T, np.eye(4), atol=1e-10)


def test_triangularize_flag_handles_nilpotent_hinge():
    # C I + C E13 in M_3: all diagonal entries equal, so one class of three
    alg = algebra_from_span([np.eye(3), eij(3, 0, 2)])
    struct = triangularize(alg)
    assert struct.sizes == (1, 1, 1)
    assert struct.classes == ((0, 1, 2),)
    red = reduced_algebra(alg, struct)
    for b in red.basis:
        assert struct.strict_lower_norm(b) < 1e-9


def test_triangularize_requires_unital():
    alg = MatrixAlgebra(space=subspace_from([eij(3, 0, 1)]), unital=False)
    with pytest.raises(ValueError):
        triangularize(alg)


def test_signature_stable_under_unitary_disguise():
    rng = np.random.default_rng(23)
    base = upper_triangular_2()
    for k in range(5):
        moved = conjugate(base, haar_unitary(2, rng))
        struct = triangularize(moved, seed=k)
        assert signature(struct) == [(1, 1), (1, 1)]


# ---------------------------------------------------------------- bd and unhinge


def test_bd_algebra_of_triangular():
    alg = upper_triangular_2()
    struct = triangularize(alg)
    red = reduced_algebra(alg, struct)
    bd = bd_algebra(red, struct)
    assert bd.dim == 2
    assert radical(red).dim == 1


def test_bd_part_masks_off_blocks():
    alg = algebra_from_span([np.eye(3), eij(3, 0, 2)])
    struct = triangularize(alg)
    x = np.arange(9, dtype=np.complex128).reshape(3, 3)
    masked = bd_part(x, struct)
    assert np.allclose(np.diag(masked), np.diag(x))
    assert abs(masked[0, 2]) == 0.0
    # the masked copy equals a block-by-block copy bit for bit, real input included
    for y in (x, x.real, np.random.default_rng(0).standard_normal((3, 3))):
        ref = np.zeros((3, 3), dtype=np.complex128)
        for i in range(struct.num_blocks):
            s = struct.block_slice(i)
            ref[s, s] = y[s, s]
        got = bd_part(y, struct)
        assert got.dtype == np.complex128 and got.tobytes() == ref.tobytes()


def test_unhinge_fast_path_identity():
    alg = upper_triangular_2()
    struct = triangularize(alg)
    red = reduced_algebra(alg, struct)
    bd = bd_algebra(red, struct)
    s = unhinge(red, struct, bd)
    assert np.allclose(s, np.eye(2))


def test_unhinge_single_hinged_idempotent():
    # span{I, [[1,1],[0,0]]}: semisimple but not block-diagonal
    e = np.array([[1.0, 1.0], [0.0, 0.0]])
    alg = algebra_from_span([np.eye(2), e])
    wd = wedderburn(alg)
    assert wd.bd.dim == 2 and wd.rad.dim == 0
    # the unhinged algebra contains both diagonal idempotents
    got, _ = wd.unhinged.space.contains(np.diag([1.0, 0.0]))
    assert got


def test_unhinge_postconditions_on_hinged_block_rep():
    # conjugate {A (+) A} by a unit-diagonal block-upper coupling
    s0 = np.eye(4, dtype=np.complex128)
    s0[0, 2] = 1.0
    s0[1, 3] = -0.5
    alg = conjugate(block_rep(2), s0)
    wd = wedderburn(alg, seed=1)
    assert signature(wd.block) == [(2, 2)]
    assert wd.bd.dim == 4 and wd.rad.dim == 0
    # s_unhinge is unit-diagonal block upper triangular in reduced coordinates
    s = wd.s_unhinge
    assert np.allclose(bd_part(s, wd.block), np.eye(4), atol=1e-6)
    assert wd.block.strict_lower_norm(s) < 1e-8
    for g in wd.bd.basis:
        ok, r = wd.unhinged.space.contains(g)
        assert ok, f"missing block-diagonal element, residual {r:.2e}"


def test_wedderburn_dimension_split_random_generated():
    rng = np.random.default_rng(41)
    for k in range(6):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = np.zeros((4, 4), dtype=np.complex128)
        h[0, 1] = 1.0
        alg = generated_algebra([g] if k % 2 == 0 else [h, np.diag(rng.standard_normal(4))])
        wd = wedderburn(alg, seed=k)
        assert wd.bd.dim + wd.rad.dim == alg.dim
        # the radical of the unhinged algebra is strictly upper triangular
        for r in wd.rad.basis:
            assert np.linalg.norm(bd_part(r, wd.block)) < 1e-7


def test_wedderburn_on_coupled_scalar_family():
    # elements a(Q1 + E12) + b(Q2 - E12) + cQ3 + corner: hinged when a != b
    n = 4
    q1 = eij(n, 0, 0)
    q2 = eij(n, 1, 1)
    q3 = eij(n, 2, 2) + eij(n, 3, 3)
    t = 2.0
    mats = [q1 + t * eij(n, 0, 1), q2 - t * eij(n, 0, 1), q3]
    mats += [eij(n, i, j) for i in range(2) for j in (2, 3)]
    alg = algebra_from_span(mats)
    assert alg.dim == 7
    wd = wedderburn(alg, seed=3)
    assert wd.bd.dim == 3 and wd.rad.dim == 4
    for g in wd.bd.basis:
        assert wd.unhinged.space.contains(g)[0]


def test_linkage_signature_invariant_under_unit_diag_conjugation():
    base = block_rep(2)
    struct0 = triangularize(base)
    rng = np.random.default_rng(9)
    for k in range(5):
        s = np.eye(4, dtype=np.complex128)
        s[:2, 2:] = rng.standard_normal((2, 2))
        moved = conjugate(base, s)
        assert signature(triangularize(moved, seed=k)) == signature(struct0)


# ---------------------------------------------------------------- support


def test_support_columns_col_and_row():
    mats = [eij(4, 0, 1)[:2, :], eij(4, 0, 2)[:2, :]]  # 2x4 with row 0 support
    col = support_columns(mats, "col")
    assert col.shape == (2, 1)
    row = support_columns(mats, "row")
    assert row.shape == (4, 2)
    with pytest.raises(ValueError):
        support_columns(mats, "diag")


def test_support_columns_of_a_stack_equals_it_of_the_list():
    rng = np.random.default_rng(23)
    stack = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
    for side in ("col", "row"):
        assert np.array_equal(support_columns(stack, side), support_columns(list(stack), side))
    for empty in ([], np.zeros((0, 3, 4))):
        with pytest.raises(ValueError, match="empty family"):
            support_columns(empty, "col")


# ---------------------------------------------------------------- Riesz projection


def _schur_sylvester_projection(a, labels, width):
    """Reference: sorted complex Schur form, then one Sylvester solve."""
    sla = pytest.importorskip("scipy.linalg")
    n = a.shape[0]
    t, z, k = sla.schur(
        a, output="complex", sort=lambda lam: bool(np.min(np.abs(lam - labels)) < width)
    )
    if k == n:
        return np.eye(n, dtype=np.complex128)
    p = np.zeros((n, n), dtype=np.complex128)
    p[:k, :k] = np.eye(k)
    p[:k, k:] = sla.solve_sylvester(t[:k, :k], -t[k:, k:], t[:k, k:])
    return z @ p @ z.conj().T


def _rel_diff(p, q):
    return np.linalg.norm(p - q) / np.linalg.norm(q)


def _clustered_block_upper(rng):
    """Block upper triangular, scalar diagonal blocks of sizes 1-3 on the unit circle."""
    n = int(rng.integers(4, 7))
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, 4)), n - sum(sizes)))
    centers = np.exp(2j * np.pi * np.arange(len(sizes)) / len(sizes))
    d = np.repeat(centers, sizes)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.diag(d) + np.triu(noise, 1) * (d[:, None] != d[None, :]), centers


def test_riesz_projection_matches_schur_sylvester_under_similarity():
    # measured over these 60 inputs: relative difference 2.0e-12 in the median
    # and 1.7e-10 at most, where ||P||_2 = 5.6e2; against the transported exact
    # projection the contour is no further off than the reference
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        t, centers = _clustered_block_upper(rng)
        s = random_similarity(t.shape[0], rng, max_cond=1e3)
        a = s @ t @ np.linalg.inv(s)
        labels = centers[int(rng.integers(len(centers))):][:1]
        p = _riesz_projection(a, labels, 1e-6 / 3.0)
        worst = max(worst, _rel_diff(p, _schur_sylvester_projection(a, labels, 1e-6 / 3.0)))
    assert worst < 1e-8, worst


def test_riesz_projection_of_a_defective_cluster():
    # a 2x2 Jordan cell at 0 beside simple eigenvalues 1 and 2: measured, the
    # contour is within 5.1e-15 of the reference, while the eigenvector
    # shortcut V[:, in] inv(V)[in, :] is off by 2.4e-9 or more
    rng = np.random.default_rng(7)
    labels = np.array([0j])
    for _ in range(10):
        t = np.diag([0.0, 0.0, 1.0, 2.0]).astype(np.complex128)
        t[0, 1] = 1.0
        t[0, 2], t[1, 3] = rng.standard_normal(2)
        s = random_similarity(4, rng, max_cond=10.0)
        a = s @ t @ np.linalg.inv(s)
        ref = _schur_sylvester_projection(a, labels, 1e-6)
        assert _rel_diff(_riesz_projection(a, labels, 1e-6), ref) < 1e-12
        vals, v = np.linalg.eig(a)
        inside = np.abs(vals) < 1e-6
        shortcut = v[:, inside] @ np.linalg.inv(v)[inside, :]
        assert _rel_diff(shortcut, ref) > 1e-10


def test_riesz_projection_raises_and_returns_identity():
    a = np.diag([0.0, 1.0, 2.0, 3.0]).astype(np.complex128)
    with pytest.raises(NumericalFailureError, match="empty Riesz cluster"):
        _riesz_projection(a, np.array([5.0]), 1e-3)
    # every eigenvalue in the cluster: the projection is I
    full = _riesz_projection(a, np.array([0.0, 1.0, 2.0, 3.0]), 1e-3)
    assert np.array_equal(full, np.eye(4))
    assert np.allclose(_schur_sylvester_projection(a, np.array([0.0, 1.0, 2.0, 3.0]), 1e-3), full)
    # cluster {0, 1} around 0.5 has radius 0.5 > (distance 1.5 to 2) / 4
    with pytest.raises(NumericalFailureError, match="not separated"):
        _riesz_projection(a, np.array([0.0, 1.0]), 1e-3)
    # the well-separated cluster {0} is computed
    p = _riesz_projection(a, np.array([0.0]), 1e-3)
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-13)
