"""Matrix subspaces and multiplicatively closed subspaces of M_n.

A MatrixSubspace stores its Frobenius-orthonormal basis as one read-only
(d, n, n) stack; membership and closure questions reduce to least-squares
residuals against its (d, n*n) row view, and every map of a basis is one
stacked product, which keeps the hot paths inside BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    NumericalFailureError,
    ShapeMismatchError,
    Tolerance,
    as_matrix,
    frob,
    orthonormal_span,
)

__all__ = [
    "MatrixSubspace",
    "MatrixAlgebra",
    "subspace_from",
    "algebra_from_span",
    "generated_algebra",
    "unitize",
    "compress",
    "conjugate",
    "transpose_variant",
    "closure_defect",
    "membership_residuals",
]


@dataclass(frozen=True, eq=False)
class MatrixSubspace:
    """A linear subspace of M_n with an orthonormal basis.

    basis is given as a sequence of n x n matrices or a (d, n, n) stack and
    kept as the subspace's own read-only complex (d, n, n) array.
    """

    n: int
    basis: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL)

    def __post_init__(self) -> None:
        try:
            basis = np.array(self.basis, dtype=np.complex128)
        except ValueError as exc:
            raise ShapeMismatchError(f"mixed shapes in an M_{self.n} basis: {exc}") from exc
        if basis.shape == (0,):
            basis = basis.reshape(0, self.n, self.n)
        if basis.ndim != 3 or basis.shape[1:] != (self.n, self.n):
            raise ShapeMismatchError(f"basis of shape {basis.shape} in M_{self.n} subspace")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def vecs(self) -> np.ndarray:
        """(dim, n*n) view of the basis, one vectorized element a row (orthonormal rows)."""
        return self.basis.reshape(self.dim, self.n * self.n)

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of x onto the subspace."""
        m = as_matrix(x)
        coeffs = self.vecs @ m.reshape(-1).conj()
        return np.asarray((coeffs.conj() @ self.vecs).reshape(self.n, self.n))

    def residual(self, x) -> float:
        m = as_matrix(x)
        return frob(m - self.project(m))

    def contains(self, x) -> tuple[bool, float]:
        """Membership up to rel_eps * max(1, |x|_F)."""
        m = as_matrix(x)
        r = self.residual(m)
        return (r <= self.tol.rel_eps * max(1.0, frob(m)), r)

    def equals(self, other: "MatrixSubspace") -> bool:
        if self.n != other.n or self.dim != other.dim:
            return False
        return all(other.contains(b)[0] for b in self.basis) and all(
            self.contains(b)[0] for b in other.basis
        )


@dataclass(frozen=True, eq=False)
class MatrixAlgebra:
    """A multiplicatively closed MatrixSubspace; unital means the identity is a member."""

    space: MatrixSubspace
    unital: bool

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> np.ndarray:
        return self.space.basis

    @property
    def tol(self) -> Tolerance:
        return self.space.tol


def subspace_from(
    mats: Sequence | np.ndarray, n: int | None = None, tol: Tolerance = DEFAULT_TOL
) -> MatrixSubspace:
    """The span of a sequence of n x n matrices or of an (m, n, n) stack."""
    if n is None:
        if len(mats) == 0:
            raise ShapeMismatchError("cannot infer n from an empty generating set")
        n = as_matrix(mats[0]).shape[0]
    return MatrixSubspace(n=n, basis=orthonormal_span(mats, tol=tol, shape=(n, n)), tol=tol)


def membership_residuals(space: MatrixSubspace, stack: np.ndarray) -> np.ndarray:
    """Residual norms of a (m, n, n) stack against the subspace, in one gemm."""
    m = stack.reshape(stack.shape[0], -1)
    coeffs = m @ space.vecs.conj().T
    resid = m - coeffs @ space.vecs
    return np.linalg.norm(resid, axis=1)


def closure_defect(space: MatrixSubspace) -> float:
    """Largest relative residual of a pairwise basis product outside the span."""
    if space.dim == 0:
        return 0.0
    b = space.basis
    prods = np.einsum("iab,jbc->ijac", b, b).reshape(-1, space.n, space.n)
    resid = membership_residuals(space, prods)
    norms = np.maximum(1.0, np.linalg.norm(prods.reshape(len(prods), -1), axis=1))
    return float(np.max(resid / norms))


def _check_closed(space: MatrixSubspace) -> None:
    defect = closure_defect(space)
    if defect > space.tol.rel_eps:
        raise ValueError(f"span is not multiplicatively closed (defect {defect:.3e})")


def _contains_identity(space: MatrixSubspace) -> bool:
    return space.contains(np.eye(space.n))[0]


def algebra_from_span(
    mats: Sequence, n: int | None = None, tol: Tolerance = DEFAULT_TOL
) -> MatrixAlgebra:
    """Build an algebra from a spanning set, verifying multiplicative closure."""
    space = subspace_from(mats, n=n, tol=tol)
    _check_closed(space)
    return MatrixAlgebra(space=space, unital=_contains_identity(space))


def generated_algebra(
    gens: Sequence,
    include_identity: bool = True,
    n: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> MatrixAlgebra:
    """Smallest subalgebra containing the generators (optionally forced unital).

    Iterates span -> span + pairwise products until the dimension stabilizes;
    the dimension is bounded by n^2 so this terminates.
    """
    mats = [as_matrix(g) for g in gens]
    if n is None:
        if not mats:
            raise ShapeMismatchError("cannot infer n from an empty generating set")
        n = mats[0].shape[0]
    if include_identity:
        mats = [np.eye(n, dtype=np.complex128)] + mats
    space = subspace_from(mats, n=n, tol=tol)
    for _ in range(n * n + 1):
        if space.dim == 0:
            break
        b = space.basis
        prods = np.einsum("iab,jbc->ijac", b, b).reshape(-1, n, n)
        grown = subspace_from(np.concatenate([b, prods]), n=n, tol=tol)
        if grown.dim == space.dim:
            break
        space = grown
    _check_closed(space)
    return MatrixAlgebra(space=space, unital=_contains_identity(space))


def unitize(alg: MatrixAlgebra) -> MatrixAlgebra:
    """Adjoin the identity (no-op when already unital)."""
    if alg.unital:
        return alg
    space = subspace_from(np.concatenate([np.eye(alg.n)[None], alg.basis]), n=alg.n, tol=alg.tol)
    _check_closed(space)
    return MatrixAlgebra(space=space, unital=True)


def compress(alg: MatrixAlgebra, e) -> MatrixSubspace:
    """The corner {E a E : a in the algebra} as a subspace (closure not implied)."""
    e = as_matrix(e)
    if e.shape != (alg.n, alg.n):
        raise ShapeMismatchError("corner element has wrong shape")
    if frob(e @ e - e) > alg.tol.rel_eps * max(1.0, frob(e) ** 2):
        raise ValueError("corner element is not idempotent")
    return subspace_from(e @ alg.basis @ e, n=alg.n, tol=alg.tol)


def conjugate(alg: MatrixAlgebra, s) -> MatrixAlgebra:
    """Similarity transport S^{-1} A S."""
    s = as_matrix(s)
    if s.shape != (alg.n, alg.n):
        raise ShapeMismatchError("similarity has wrong shape")
    cond = np.linalg.cond(s)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalFailureError(f"similarity is numerically singular (cond {cond:.3e})")
    s_inv = np.linalg.inv(s)
    space = subspace_from(s_inv @ alg.basis @ s, n=alg.n, tol=alg.tol)
    if space.dim != alg.dim:
        raise NumericalFailureError("similarity transport changed the dimension")
    return MatrixAlgebra(space=space, unital=alg.unital)


def transpose_variant(alg: MatrixAlgebra, kind: str) -> MatrixAlgebra:
    """Image under the transpose or the anti-transpose (flip about the anti-diagonal).

    Both maps are linear anti-automorphisms of M_n, so the image of an algebra
    is an algebra of the same dimension.
    """
    if kind not in ("transpose", "anti"):
        raise ValueError(f"unknown transpose kind {kind!r}")
    mats = alg.basis.transpose(0, 2, 1)
    if kind == "anti":
        j = np.fliplr(np.eye(alg.n))
        mats = j @ mats @ j
    space = subspace_from(mats, n=alg.n, tol=alg.tol)
    return MatrixAlgebra(space=space, unital=alg.unital)
