"""Randomized compressibility checking through corner closure tests.

A corner test takes an idempotent E and measures how far the compressed
space {E a E} is from being multiplicatively closed. Compressible algebras
pass every corner test; a single confirmed violation refutes compressibility.
The checker combines a catalog of fixed low-rank projections (embedded
through coordinate and flag frames) with seeded random trials.
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
    full_rank_shifts,
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


@dataclass(frozen=True, eq=False)
class Violation:
    """A corner with residual above VIOLATION_RESIDUAL. For kind 'projection' or
    'idempotent', index is the trial's number in the (n, mode, seed) stream;
    for kind 'catalog:<name>', the corner's place in that entry's frame batch:
    coordinate frames in combinations order, then flag frames."""

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


def _positive_definite(g: np.ndarray) -> np.ndarray:
    """Whether the Cholesky factorization of each Hermitian matrix of a
    (m, p, p) stack completes; its lower triangle is read.

    numpy's Cholesky gufunc writes NaN over a matrix it cannot factor, where
    np.linalg.cholesky raises for the whole stack. An empty matrix passes.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore", under="ignore"):
        low = np.linalg._umath_linalg.cholesky_lo(g)
    return ~np.isnan(low.reshape(len(low), -1)).any(axis=1)


def _residuals_by_products(dlay: np.ndarray, clay: np.ndarray, comp: np.ndarray):
    """Distance of every product D_a C_b from the span, and its scale.

    dlay[:, (i, a), l] = D_a[i, l]; clay[:, i, a, j] = C_a[i, j]; comp: (m, t, k^2)
    orthonormal rows spanning each corner's complement in M_k, or zero rows.
    Returns the (m, d^2) norms of each product's coordinates on comp, and
    max(1, |D_a C_b|_F), with pairs (a, b) in row-major order.
    """
    m, k, d, _ = clay.shape
    # prods[:, (i, a), (b, j)] = (D_a C_b)[i, j], one GEMM per corner
    prods = dlay @ clay.reshape(m, k, d * k)
    pvec = prods.reshape(m, k, d, d, k).transpose(0, 2, 3, 1, 4).reshape(m, d * d, k * k)
    del prods
    scale = np.maximum(1.0, _row_norms(pvec))
    return _row_norms(pvec @ comp.conj().transpose(0, 2, 1)), scale


def _residuals_by_contraction(dlay: np.ndarray, clay: np.ndarray, comp: np.ndarray):
    """_residuals_by_products without forming the products.

    A complement row W gives <D_a C_b, W> = sum_{i,l} D_a[i, l] (C_b W*)[l, i]:
    one GEMM forms every C_b W*, a second contracts it with the D_a. The norm
    is |D_a C_b|_F^2 = tr(D_a* D_a C_b C_b*), the Frobenius inner product of
    the two Hermitian k x k Gram matrices. The kernel takes this path when
    2 t < d: a corner's C_b W* then hold d t k^2 entries, against the d^2 k^2
    of its products.
    """
    m, k, d, _ = clay.shape
    t, kk = comp.shape[1], k * k
    # wh[:, j, (w, i)] = conj W_w[i, j]; cw[:, (l, b), (w, i)] = (C_b W_w*)[l, i]
    wh = comp.conj().reshape(m, t, k, k).transpose(0, 3, 1, 2).reshape(m, k, t * k)
    cw = clay.reshape(m, k * d, k) @ wh
    cw = cw.reshape(m, k, d, t, k).transpose(0, 4, 1, 2, 3).reshape(m, kk, d * t)
    # da[:, a, i, l] = D_a[i, l]; ca[:, b, l, j] = C_b[l, j]
    da = dlay.reshape(m, k, d, k).transpose(0, 2, 1, 3)
    ca = clay.transpose(0, 2, 1, 3)
    coords = da.reshape(m, d, kk) @ cw
    resid = _row_norms(coords.reshape(m, d * d, t))
    dgram = (da.conj().transpose(0, 1, 3, 2) @ da).reshape(m, d, kk)
    cgram = (ca @ ca.conj().transpose(0, 1, 3, 2)).reshape(m, d, kk)
    sq = (dgram @ cgram.conj().transpose(0, 2, 1)).real
    return resid, np.sqrt(np.maximum(1.0, sq)).reshape(m, d * d)


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
    relative residual are those of the C_a. As E is idempotent, the product
    (E a E)(E b E) = E a E b E maps to D_a C_b with D_a = S V* a U.

    The span's rank is certified before anything is factored: for the (d, k^2)
    matrix C of the vec C_a, the smaller Gram matrix G (C C* when d < k^2,
    else C* C) less matcore.full_rank_shifts times I is tested for positive
    definiteness by Cholesky. A certified corner has rank min(d, k^2), as
    matcore.numerical_ranks would find. With d >= k^2 it spans all of M_k, an
    algebra: residual 0, no factorization and no products. With d < k^2 the
    last k^2 - d columns of the complete QR of C* span the complement. Every
    other corner is ranked by the SVD of C, whose right singular vectors past
    the rank span the complement. A product's distance from the span is the
    norm of its coordinates on the complement: through the contraction when
    the complement is narrow (2 t < d for width t), else through the d^2
    products, one (dk x k)(k x dk) GEMM per corner.
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
        c = clay.transpose(0, 2, 1, 3).reshape(m, d, kk)
        ch = c.conj().transpose(0, 2, 1)
        g = c @ ch if d < kk else ch @ c
        diag = np.arange(g.shape[1])
        g[:, diag, diag] -= full_rank_shifts(g[:, diag, diag].real.sum(axis=1), tol)[:, None]
        sure = _positive_definite(g)
        r = np.full(m, min(d, kk))
        # rows of cvh past a corner's rank span the complement of its span
        cvh = np.zeros((m, kk, kk), dtype=np.complex128)
        if d < kk and sure.any():
            q, _ = np.linalg.qr(ch[sure], mode="complete")
            cvh[sure, d:] = q[:, :, d:].conj().transpose(0, 2, 1)
        if not sure.all():
            _, cs, cvh[~sure] = np.linalg.svd(c[~sure], full_matrices=d < kk)
            r[~sure] = numerical_ranks(cs, tol)
        dims[sel] = r
        # a span of rank k^2 is all of M_k, closed
        keep = r < kk
        if not keep.any():
            continue
        if not keep.all():
            sel = np.arange(bsz)[sel][keep]
            dlay, clay, cvh, r = dlay[keep], clay[keep], cvh[keep], r[keep]
        # rows lo..k^2 of cvh, with those in a corner's own span zeroed
        lo = r.min()
        comp = cvh[:, lo:]
        if r.max() > lo:
            comp = comp * (np.arange(lo, kk) >= r[:, None])[:, :, None]
        narrow = 2 * (kk - lo) < d
        resid, scale = (_residuals_by_contraction if narrow else _residuals_by_products)(
            dlay, clay, comp)
        rel[sel] = (resid / scale).max(axis=1)
    return rel, dims


def corner_residual(alg: MatrixAlgebra, e) -> float:
    """Relative closure residual of the single corner {E a E}; E is an n x n idempotent."""
    e = as_matrix(e)
    n = alg.n
    if e.shape != (n, n):
        raise ShapeMismatchError(f"corner of M_{n} needs an {n} x {n} idempotent, got {e.shape}")
    rel, _ = _corner_residual_batch(alg.basis, e[None], alg.tol)
    return float(rel[0])


def _frames(m: np.ndarray, size: int) -> list:
    """The size-column subsets of m's columns, in combinations order."""
    return [m[:, list(idx)] for idx in combinations(range(m.shape[0]), size)]


def _catalog_pass(alg: MatrixAlgebra, u, violations: list, stop_on_violation: bool):
    """Test every catalog entry through coordinate and then flag (u) frames,
    one kernel batch per entry; returns the corners tested.

    The corner F p F* of an entry p = q q* through a frame F has the compact
    SVD (F q)(F q)*, so the kernel gets its factors without factoring.
    """
    n = alg.n
    if u is not None and np.allclose(np.abs(u), np.eye(n), atol=1e-9):
        u = None
    corners = 0
    for size in (3, 4):
        catalog = _witness_catalog(size)
        if size > n or not catalog:
            continue
        frames = _frames(np.eye(n, dtype=np.complex128), size)
        if u is not None:
            frames += _frames(u, size)
        f = np.array(frames)
        fh = f.conj().transpose(0, 2, 1)
        for name, p, q in catalog:
            es = f @ p @ fh
            x = f @ q
            svd = (x, np.ones((len(x), q.shape[1])), x.conj().transpose(0, 2, 1))
            rel, _ = _corner_residual_batch(alg.basis, es, alg.tol, svd)
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
    to drawing and factoring afresh. The catalog draws nothing: its corners
    depend on the algebra and the flag unitary alone, and are built on every
    check with the closed-form factors of _catalog_pass; their residuals
    agree with factoring them by np.linalg.svd to about 1e-14. The kernel
    certifies a corner span's full rank by Cholesky of its Gram matrix before
    factoring it: a certified corner that spans M_k is closed with no SVD,
    and a thin one takes its complement from a QR factorization. Residuals
    of corners whose complement is narrow are contracted, not formed from
    the d^2 products; see _corner_residual_batch. A report's witnesses are
    copies, never views of a block or a batch.
    """
    if mode not in ("projection", "idempotent"):
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    n = alg.n
    if n < 2:
        return CheckReport(mode=mode, seed=seed, requested_trials=trials, trials_run=0,
                           catalog_corners=0, indeterminate=0, violations=())
    violations = []
    catalog_corners = 0
    if use_catalog:
        u = None
        if struct is not None:
            u = struct.u
        elif alg.unital:
            try:
                from .structure import triangularize

                # at its default seed: the check's seed reaches the trials only
                u = triangularize(alg).u
            except NumericalFailureError:
                u = None
        catalog_corners = _catalog_pass(alg, u, violations, stop_on_violation)

    indeterminate = trials_run = trial = 0
    d = alg.dim
    chunk = max(4, min(256, int(4e6 / (d * d * n * n + 1))))
    # with stop_on_violation the first violation, the catalog's too, ends the check
    while trial < trials and not (violations and stop_on_violation):
        bsz = min(chunk, trials - trial)
        es, svd, kinds = _sample_batch(n, mode, seed, trial, bsz)
        rel, _ = _corner_residual_batch(alg.basis, es, alg.tol, svd)
        trials_run += bsz
        indeterminate += int(np.count_nonzero((rel > PASS_RESIDUAL) & (rel <= VIOLATION_RESIDUAL)))
        bad = np.nonzero(rel > VIOLATION_RESIDUAL)[0]
        for k in bad:
            # a copy: the cached blocks are shared by every later check
            violations.append(Violation(kind=kinds[k], index=trial + int(k),
                                        witness=es[k].copy(), residual=float(rel[k])))
        trial += bsz
    return CheckReport(mode=mode, seed=seed, requested_trials=trials, trials_run=trials_run,
                       catalog_corners=catalog_corners, indeterminate=indeterminate,
                       violations=tuple(violations))


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
    space = subspace_from(r.conj().T @ alg.basis @ r, n=n, tol=alg.tol)
    defect = closure_defect(space)
    return FoldReport(closed=defect <= VIOLATION_RESIDUAL, defect=defect, dim=space.dim)
