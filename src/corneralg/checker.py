"""Randomized compressibility checking through corner closure tests.

A corner test takes an idempotent E and measures how far the compressed
space {E a E} is from being multiplicatively closed. Compressible algebras
pass every corner test; a single confirmed violation refutes compressibility.
The checker combines a catalog of fixed low-rank projections (embedded
through coordinate and random frames) with seeded random trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .matcore import (
    NumericalFailureError,
    ShapeMismatchError,
    Tolerance,
    as_matrix,
    haar_unitary,
    numerical_ranks,
)
from .subalgebra import MatrixAlgebra, closure_defect, subspace_from

__all__ = [
    "Violation",
    "CheckReport",
    "FoldReport",
    "witness_catalog",
    "corner_residual",
    "check_compressible",
    "fold_corner",
]

# residual at or below PASS is a clean pass; above VIOLATION is a refutation;
# the band in between is counted as indeterminate and decides nothing
PASS_RESIDUAL = 1e-8
VIOLATION_RESIDUAL = 1e-6
# Haar frames per catalog size, after the coordinate and flag frames
_HAAR_FRAMES = 6


@dataclass(frozen=True, eq=False)
class Violation:
    kind: str
    index: int
    witness: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class CheckReport:
    mode: str
    seed: int
    requested_trials: int
    trials_run: int
    catalog_corners: int
    indeterminate: int
    violations: tuple

    @property
    def consistent(self) -> bool:
        return len(self.violations) == 0

    def first_violation(self):
        return self.violations[0] if self.violations else None


@dataclass(frozen=True, eq=False)
class FoldReport:
    closed: bool
    defect: float
    dim: int


def _entry(num, den):
    return np.array(num, dtype=np.complex128) / den


@lru_cache(maxsize=8)
def _witness_catalog(n: int) -> tuple:
    """The catalog of size n as (name, p, q), built and checked once: every p is
    an orthogonal projection, q an orthonormal basis of its range, so p = q q*.
    The matrices are read-only."""
    entries = []
    if n == 4:
        entries.append(
            ("rank3-outer-pair",
             _entry([[1, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]], 2))
        )
        for k in (1, 2, 3):
            kk = k * k
            entries.append(
                (f"rank3-skew-k{k}",
                 _entry([[kk + 1, 0, 0, 0], [0, kk, 0, -k], [0, 0, kk + 1, 0],
                         [0, -k, 0, 1]], kk + 1))
            )
        entries.append(
            ("rank3-inner-pair",
             _entry([[2, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 0], [0, 1, 0, 1]], 2))
        )
        entries.append(
            ("rank3-outer-diff",
             _entry([[1, 0, 0, -1], [0, 2, 0, 0], [0, 0, 2, 0], [-1, 0, 0, 1]], 2))
        )
        entries.append(
            ("rank3-pair-13",
             _entry([[1, 0, 1, 0], [0, 2, 0, 0], [1, 0, 1, 0], [0, 0, 0, 2]], 2))
        )
        entries.append(
            ("rank3-simplex",
             _entry([[2, 0, -1, -1], [0, 3, 0, 0], [-1, 0, 2, -1], [-1, 0, -1, 2]], 3))
        )
        entries.append(
            ("rank2-fold",
             _entry([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], 2))
        )
    if n == 3:
        entries.append(
            ("rank2-pair-13", _entry([[1, 0, 1], [0, 2, 0], [1, 0, 1]], 2))
        )
    out = []
    for name, p in entries:
        if np.linalg.norm(p @ p - p) > 1e-12 or np.linalg.norm(p - p.conj().T) > 1e-12:
            raise AssertionError(f"catalog entry {name} is not an orthogonal projection")
        w, v = np.linalg.eigh(p)
        q = v[:, w > 0.5]
        p.flags.writeable = q.flags.writeable = False
        out.append((name, p, q))
    return tuple(out)


def witness_catalog(n: int):
    """Fixed witness projections of size n, pairwise distinct, as (name, matrix) pairs.

    A new list each call; the matrices are shared and read-only.
    """
    return [(name, p) for name, p, _ in _witness_catalog(n)]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norms of the rows of a complex (B, rows, cols) stack."""
    f = x.view(np.float64)
    return np.sqrt(np.einsum("bij,bij->bi", f, f))


def _corner_residual_batch(basis: np.ndarray, es: np.ndarray, tol: Tolerance, svd=None):
    """Worst relative closure residual of each corner E_b A E_b.

    basis: (d, n, n) orthonormal algebra basis; es: (B, n, n) idempotents;
    svd: their factors (u, s, vh), E = U S V* with orthonormal columns in U
    and V and s descending, of which the first rank E are read: the trial
    blocks' np.linalg.svd(es), or a catalog corner's closed form (x, 1, x*).
    Computed here when not given, as for single corners. Returns (max
    relative residual, corner dimension) per idempotent.

    Each corner is tested in its own k x k frame, k = rank E. With the
    compact SVD E = U S V*, E a E = U C_a V* for C_a = S V* a U S, and
    M -> U M V* is a Frobenius isometry, so the span, its rank and every
    relative residual are those of the C_a. A corner whose span has rank
    k^2 is all of M_k, an algebra: residual 0 with no products formed. For
    the others, as E is idempotent, the product (E a E)(E b E) = E a E b E
    maps to D_a C_b with D_a = S V* a U, the d^2 products of one corner are
    one (dk x k)(k x dk) GEMM, and a product's distance from the span is the
    norm of its coordinates on the right singular vectors of the C_a stack
    past the span's rank. The ranks of E and of the corner span are
    matcore.numerical_ranks.
    """
    bsz, n, _ = es.shape
    d = basis.shape[0]
    u, s, vh = np.linalg.svd(es) if svd is None else svd
    ranks = numerical_ranks(s, tol)
    rel = np.zeros(bsz)
    dims = np.zeros(bsz, dtype=np.intp)
    # bt[p, (a, q)] = a[p, q]: then S V* a U for every a is two plain GEMMs
    bt = basis.transpose(1, 0, 2).reshape(n, d * n)
    groups = set(ranks.tolist())
    for k in groups - {0}:
        kk = k * k
        # a catalog batch or a single corner has one rank: no gather needed
        sel = slice(None) if len(groups) == 1 else ranks == k
        sk = s[sel, :k]
        svab = (sk[:, :, None] * vh[sel, :k]) @ bt
        m = svab.shape[0]
        # dlay[:, (i, a), l] = D_a[i, l]; clay[:, i, a, j] = C_a[i, j]
        dlay = svab.reshape(m, k * d, n) @ u[sel, :, :k]
        clay = dlay.reshape(m, k, d, k) * sk[:, None, None, :]
        # the complement of the span needs all k^2 right singular vectors
        _, cs, cvh = np.linalg.svd(clay.transpose(0, 2, 1, 3).reshape(m, d, kk),
                                   full_matrices=d < kk)
        r = numerical_ranks(cs, tol)
        dims[sel] = r
        if d >= kk:
            # d matrices span all of M_k only if d >= k^2
            full = np.count_nonzero(r == kk)
            if full == m:
                continue
            if full:
                keep = r < kk
                sel = np.arange(bsz)[sel][keep]
                dlay, clay, cvh, r = dlay[keep], clay[keep], cvh[keep], r[keep]
                m = len(r)
        # rows lo..k^2 of cvh, with those in a corner's own span zeroed
        lo = r.min()
        comp = cvh[:, lo:]
        if r.max() > lo:
            comp = comp * (np.arange(lo, kk) >= r[:, None])[:, :, None]
        # prods[:, (i, a), (b, j)] = (D_a C_b)[i, j], one GEMM per corner
        prods = dlay @ clay.reshape(m, k, d * k)
        pvec = prods.reshape(m, k, d, d, k).transpose(0, 2, 3, 1, 4).reshape(m, d * d, kk)
        scale = np.maximum(1.0, _row_norms(pvec))
        resid = _row_norms(pvec @ comp.conj().transpose(0, 2, 1))
        rel[sel] = (resid / scale).max(axis=1)
    return rel, dims


def _basis_stack(alg: MatrixAlgebra) -> np.ndarray:
    """(d, n, n) view of the algebra's cached basis rows; equal to np.array(alg.basis)."""
    return alg.space.vecs.reshape(alg.dim, alg.n, alg.n)


def corner_residual(alg: MatrixAlgebra, e) -> float:
    """Relative closure residual of the single corner {E a E}; E is an n x n idempotent."""
    e = as_matrix(e)
    n = alg.n
    if e.shape != (n, n):
        raise ShapeMismatchError(f"corner of M_{n} needs an {n} x {n} idempotent, got {e.shape}")
    rel, _ = _corner_residual_batch(_basis_stack(alg), e[None], alg.tol)
    return float(rel[0])


def _frames(m: np.ndarray, size: int) -> list:
    """The size-column subsets of m's columns, in combinations order."""
    return [m[:, list(idx)] for idx in combinations(range(m.shape[0]), size)]


def _catalog_pass(alg: MatrixAlgebra, u, seed: int, violations: list, stop_on_violation: bool):
    """Test every catalog entry through coordinate, flag (u) and Haar frames,
    one kernel batch per entry in that order; returns the corners tested.

    The corner F p F* of an entry p = q q* through a frame F has the compact
    SVD (F q)(F q)*, so the kernel gets its factors without factoring.
    """
    basis = _basis_stack(alg)
    n = alg.n
    if u is not None and np.allclose(np.abs(u), np.eye(n), atol=1e-9):
        u = None
    rng = np.random.default_rng([seed, 999])
    corners = 0
    for size in (3, 4):
        catalog = _witness_catalog(size)
        if size > n or not catalog:
            continue
        frames = _frames(np.eye(n, dtype=np.complex128), size)
        if u is not None:
            frames += _frames(u, size)
        frames += [haar_unitary(n, rng)[:, :size] for _ in range(_HAAR_FRAMES)]
        f = np.array(frames)
        fh = f.conj().transpose(0, 2, 1)
        for name, p, q in catalog:
            es = f @ p @ fh
            x = f @ q
            svd = (x, np.ones((len(x), q.shape[1])), x.conj().transpose(0, 2, 1))
            rel, _ = _corner_residual_batch(basis, es, alg.tol, svd)
            corners += len(es)
            for k in np.nonzero(rel > VIOLATION_RESIDUAL)[0]:
                # a copy: the witness keeps no batch alive
                violations.append(Violation(kind=f"catalog:{name}", index=int(k),
                                            witness=es[k].copy(), residual=float(rel[k])))
                if stop_on_violation:
                    return corners
    return corners


def _twisted(mode: str, t0: int, bsz: int) -> np.ndarray:
    """Which of trials t0..t0+bsz-1 draw a similarity-twisted idempotent."""
    return (np.arange(t0, t0 + bsz) % 2 == 1) & (mode != "projection")


def _draw_trials(n: int, mode: str, seed: int, t0: int, bsz: int) -> np.ndarray:
    """Idempotents for trials t0..t0+bsz-1, one rng substream per trial.

    A trial draws its Gaussians in one call: the real and imaginary parts of
    one complex n x n matrix for a projection, of three for an idempotent,
    which then draws its condition number. The QR factorizations of the
    matrices in use and the inversions are stacked over the batch.
    """
    ts = np.arange(t0, t0 + bsz)
    idem = _twisted(mode, t0, bsz)
    gauss = np.empty((bsz, 6, n, n))
    conds = []
    for k, (t, twisted) in enumerate(zip(ts.tolist(), idem.tolist())):
        rng = np.random.default_rng([seed, t])
        rng.standard_normal(out=gauss[k, : 6 if twisted else 2])
        if twisted:
            conds.append(rng.uniform(1.0, 50.0))
    twist = gauss[idem, 2:]
    gin = np.concatenate([gauss[:, 0] + 1j * gauss[:, 1],
                          (twist[:, 0::2] + 1j * twist[:, 1::2]).reshape(-1, n, n)])
    q, r = np.linalg.qr(gin)
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    v = q[:bsz] * (np.arange(n) < 1 + ts[:, None, None] % (n - 1))
    es = v @ v.conj().transpose(0, 2, 1)
    if conds:
        qt = q[bsz:].reshape(-1, 2, n, n)
        sing = np.geomspace(1.0, np.array(conds), n, axis=-1)
        s = (qt[:, 0] * sing[:, None, :]) @ qt[:, 1]
        es[idem] = s @ es[idem] @ np.linalg.inv(s)
    return es


def _block_trials(n: int) -> int:
    """Corners in one block of an n x n stream: 64 KB of idempotents, one above n = 64."""
    return max(1, 65536 // (16 * n * n))


def _factored(es: np.ndarray) -> tuple:
    """A stack of corners and its SVD factors (es, u, s, vh), all read-only."""
    out = (es, *np.linalg.svd(es))
    for x in out:
        x.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _block(n: int, mode: str, seed: int, j: int) -> tuple:
    """Block j of the (n, mode, seed) trial stream with its factors, drawn
    once: (es, u, s, vh) of trials j * _block_trials(n) onward."""
    bs = _block_trials(n)
    return _factored(_draw_trials(n, mode, seed, j * bs, bs))


def _sample_batch(n: int, mode: str, seed: int, t0: int, bsz: int):
    """Idempotents, their factors (u, s, vh) and kinds for trials t0..t0+bsz-1,
    read from the cached blocks.

    A window inside one block is a read-only view shared with every later check.
    """
    bs = _block_trials(n)
    first, lo = divmod(t0, bs)
    blocks = [_block(n, mode, seed, j) for j in range(first, (t0 + bsz - 1) // bs + 1)]
    if len(blocks) > 1:
        blocks = [tuple(np.concatenate(x) for x in zip(*blocks))]
    es, *svd = (x[lo : lo + bsz] for x in blocks[0])
    kinds = ["idempotent" if i else "projection" for i in _twisted(mode, t0, bsz).tolist()]
    return es, tuple(svd), kinds


def check_compressible(
    alg: MatrixAlgebra,
    mode: str = "idempotent",
    trials: int = 500,
    seed: int = 0,
    use_catalog: bool = True,
    stop_on_violation: bool = True,
    struct=None,
) -> CheckReport:
    """Randomized corner-closure test with a deterministic catalog pass.

    mode 'projection' samples Haar range projections; mode 'idempotent'
    alternates projections with similarity-twisted idempotents of bounded
    condition number. Ranks sweep 1..n-1 round robin. Every trial draws from
    its own substream, so reports are reproducible given the seed.

    The trials do not depend on the algebra. Each (n, mode, seed) trial
    stream is cut into blocks of max(1, 65536 // (16 n^2)) trials (256 at
    n = 4, 113 at n = 6), drawn and factored by np.linalg.svd once: 64 KB
    of idempotents plus their factors, at most 208 KB a block. The 256 most
    recently used blocks are kept, read-only, at most 54.5 MB for n <= 64;
    above n = 64 a block holds one trial. Trial residuals are bit-identical
    to drawing and factoring afresh. The catalog's corners are built on
    every check, with the closed-form factors of _catalog_pass; their
    residuals agree with factoring them by np.linalg.svd to about 1e-14. A
    report's witnesses are copies, never views of a block or a batch.
    """
    if mode not in ("projection", "idempotent"):
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    n = alg.n
    if n < 2:
        return CheckReport(mode=mode, seed=seed, requested_trials=trials, trials_run=0,
                           catalog_corners=0, indeterminate=0, violations=())
    basis = _basis_stack(alg)
    violations = []
    catalog_corners = 0
    if use_catalog:
        u = None
        if struct is not None:
            u = struct.u
        elif alg.unital:
            try:
                from .structure import triangularize

                u = triangularize(alg, seed=seed).u
            except NumericalFailureError:
                u = None
        catalog_corners = _catalog_pass(alg, u, seed, violations, stop_on_violation)
        if violations and stop_on_violation:
            return CheckReport(mode=mode, seed=seed, requested_trials=trials,
                               trials_run=0, catalog_corners=catalog_corners,
                               indeterminate=0, violations=tuple(violations))

    indeterminate = 0
    trials_run = 0
    d = basis.shape[0]
    chunk = max(4, min(256, int(4e6 / (d * d * n * n + 1))))
    trial = 0
    while trial < trials:
        bsz = min(chunk, trials - trial)
        es, svd, kinds = _sample_batch(n, mode, seed, trial, bsz)
        rel, _ = _corner_residual_batch(basis, es, alg.tol, svd)
        trials_run += bsz
        indeterminate += int(np.count_nonzero((rel > PASS_RESIDUAL) & (rel <= VIOLATION_RESIDUAL)))
        bad = np.nonzero(rel > VIOLATION_RESIDUAL)[0]
        for k in bad:
            # a copy: the cached blocks are shared by every later check
            violations.append(Violation(kind=kinds[k], index=trial + int(k),
                                        witness=es[k].copy(), residual=float(rel[k])))
        if violations and stop_on_violation:
            break
        trial += bsz
    return CheckReport(
        mode=mode,
        seed=seed,
        requested_trials=trials,
        trials_run=trials_run,
        catalog_corners=catalog_corners,
        indeterminate=indeterminate,
        violations=tuple(violations),
    )


def _aligned_fold(n: int):
    h = n // 2
    q1 = np.zeros((n, n), dtype=np.complex128)
    for i in range(h):
        q1[i, i] = 1.0
    e = np.zeros((n, n), dtype=np.complex128)
    for i in range(h):
        e[h + i, i] = 1.0
    return q1, e


def fold_corner(alg: MatrixAlgebra, q1=None, e=None) -> FoldReport:
    """Fold the four half-corners of the algebra into one and test its closure.

    With R = Q1 + E the folded space is {R* a R}. E must be a partial isometry
    with E*E = Q1 and EE* = I - Q1; rank(Q1) = n/2. For a compressible algebra
    the folded space is multiplicatively closed for every admissible (Q1, E).
    """
    n = alg.n
    if n % 2 != 0:
        raise ValueError("fold_corner needs even n")
    if q1 is None or e is None:
        if not (q1 is None and e is None):
            raise ValueError("give both q1 and e, or neither")
        q1, e = _aligned_fold(n)
    q1 = np.asarray(q1, dtype=np.complex128)
    e = np.asarray(e, dtype=np.complex128)
    for name, m in (("q1", q1), ("e", e)):
        if m.shape != (n, n):
            raise ShapeMismatchError(f"fold of M_{n} needs an {n} x {n} {name}, got {m.shape}")
    if np.linalg.norm(q1 @ q1 - q1) > 1e-10 or np.linalg.norm(q1 - q1.conj().T) > 1e-10:
        raise ValueError("q1 is not an orthogonal projection")
    if abs(np.trace(q1).real - n / 2) > 1e-8:
        raise ValueError("q1 must have rank n/2")
    if (np.linalg.norm(e.conj().T @ e - q1) > 1e-10
            or np.linalg.norm(e @ e.conj().T - (np.eye(n) - q1)) > 1e-10):
        raise ValueError("e is not a partial isometry from ran(q1) onto its complement")
    r = q1 + e
    folded = [r.conj().T @ b @ r for b in alg.basis]
    space = subspace_from(folded, n=n, tol=alg.tol)
    defect = closure_defect(space)
    return FoldReport(closed=defect <= VIOLATION_RESIDUAL, defect=defect, dim=space.dim)
