"""Dense complex-matrix kernel: SVD wrappers, numerical rank, Frobenius-orthonormal spans.

Everything downstream holds a matrix subspace as one (d, n, n) stack of
matrices that are orthonormal with respect to the Frobenius inner product
<X, Y> = Tr(Y* X).
This module owns the tolerance conventions used to make that numerically
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "NumericalFailureError",
    "ShapeMismatchError",
    "as_matrix",
    "frob",
    "svd_factor",
    "numerical_rank",
    "numerical_ranks",
    "full_rank_shifts",
    "rank_tol",
    "orthonormal_span",
    "haar_unitary",
    "random_similarity",
]

# Absolute floor for rank thresholds. Below it a singular value is roundoff
# whatever sigma_max is: commutators inside a commutative algebra come out at
# about 1.4e-14, and a floor of 1e-14 would count them as rank.
_RANK_FLOOR = 1e-13


class NumericalFailureError(RuntimeError):
    """A numerical routine failed to converge or a verification failed."""


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes."""


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerances shared across the package.

    rel_eps governs membership and closure decisions; rank_eps_factor scales
    sigma_max to a rank cutoff.
    """

    rel_eps: float = 1e-8
    rank_eps_factor: float = 1e-9

    def __post_init__(self) -> None:
        # a NaN compares False against everything, so test what is allowed
        if not all(0 < x < np.inf for x in (self.rel_eps, self.rank_eps_factor)):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = Tolerance()


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-d complex128 array (copy only when needed)."""
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d array, got shape {m.shape}")
    if m.size == 0:
        raise ShapeMismatchError("empty matrix")
    return m


def frob(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


class SVD(NamedTuple):
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray  # x ~ u @ diag(s) @ v.conj().T


def svd_factor(x) -> SVD:
    """Compact SVD; singular values descending.

    Non-convergence of the underlying iteration is reported as
    NumericalFailureError rather than leaking the LAPACK exception.
    """
    m = as_matrix(x)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    return SVD(u, s, vh.conj().T)


def numerical_rank(s: np.ndarray, tol: Tolerance) -> int:
    """Count of the descending singular values s above max(rank_eps_factor*s[0], floor).

    The package's rank policy: every rank cut by rank_eps_factor goes through
    it or through numerical_ranks, its row-wise form.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0
    thr = max(tol.rank_eps_factor * float(s[0]), _RANK_FLOOR)
    return int(np.count_nonzero(s > thr))


def numerical_ranks(s: np.ndarray, tol: Tolerance) -> np.ndarray:
    """numerical_rank of each row of a (B, k) stack of descending singular values."""
    return (s > np.maximum(tol.rank_eps_factor * s[:, :1], _RANK_FLOOR)).sum(axis=1)


def full_rank_shifts(trace: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Shift t of each Gram matrix G = X X* (or X* X) of trace `trace` such that
    G - t I positive definite certifies numerical_rank(X) = min(X.shape).

    t = max(delta tr G, (2 floor)^2) with delta = max(1e-6, (1e3 rank_eps_factor)^2).
    A positive definite G - t I gives sigma_min^2 > delta tr G >= delta sigma_max^2,
    so sigma_min / sigma_max > max(1e-3, 1e3 rank_eps_factor), three orders of
    magnitude above the relative cutoff, and sigma_min > 2 floor. A
    Cholesky factorization that completes is backward stable to about
    p^2 eps tr G for p x p matrices (Higham 2002, ch. 10), far inside both
    margins, so an SVD of X ranks X full as well.
    """
    delta = max(1e-6, (1e3 * tol.rank_eps_factor) ** 2)
    return np.maximum(delta * trace, (2 * _RANK_FLOOR) ** 2)


def rank_tol(x, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank of a matrix under numerical_rank's policy."""
    return numerical_rank(svd_factor(x).s, tol)


def orthonormal_span(
    mats: Sequence[np.ndarray] | np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    shape: tuple[int, int] | None = None,
) -> np.ndarray:
    """Frobenius-orthonormal basis of span(mats) as a (rank, r, c) stack,
    deterministic given input order.

    mats is a sequence of equal-shape r x c matrices or an (m, r, c) stack.
    The matrices are flattened into the rows of one matrix and run through
    one SVD; directions with singular value at or below the rank threshold
    are dropped, and each kept row is rotated so that its largest-modulus
    entry is real positive. Empty input gives shape (0, *shape).
    """
    try:
        stack = np.asarray(mats, dtype=np.complex128)
    except ValueError as exc:
        raise ShapeMismatchError(f"mixed shapes in span input: {exc}") from exc
    if stack.shape[:1] == (0,):
        return np.zeros((0, *(shape or (0, 0))), dtype=np.complex128)
    if stack.ndim != 3 or stack.size == 0:
        raise ShapeMismatchError(f"expected a stack of 2-d matrices, got shape {stack.shape}")
    m, r, c = stack.shape
    if shape is not None and (r, c) != shape:
        raise ShapeMismatchError(f"expected shape {shape}, got {(r, c)}")
    _, s, vh = np.linalg.svd(stack.reshape(m, r * c), full_matrices=False)
    rows = vh[:numerical_rank(s, tol)]
    top = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    # scalar division: numpy's array division can differ in the last bit
    phase = np.array([abs(a) / a if abs(a) > 0 else 1.0 for a in top], dtype=np.complex128)
    return (rows * phase[:, None]).reshape(-1, r, c)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the R-diagonal phase fix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_similarity(n: int, rng: np.random.Generator, max_cond: float = 50.0) -> np.ndarray:
    """Random invertible matrix with condition number <= max_cond (exact by construction)."""
    u1 = haar_unitary(n, rng)
    u2 = haar_unitary(n, rng)
    cond = float(rng.uniform(1.0, max_cond))
    sing = np.geomspace(1.0, cond, n)
    return (u1 * sing) @ u2
