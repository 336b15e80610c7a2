"""Plain-numpy reference checks for the benchmark's decisions.

Nothing here imports corneralg. Every check rebuilds what it needs from the
raw matrices: the input span, the canonical family member a verdict names,
corner residuals one idempotent at a time, and the single-generator
criterion. A decision counts as correct only when these checks agree with it.
"""

from __future__ import annotations

import json

import numpy as np

PASS_RESIDUAL = 1e-8  # a corner of a compressible algebra stays below this
VIOLATION_RESIDUAL = 1e-6  # a witness corner must exceed this
# Span comparison of a certificate against the input. The input span is
# rebuilt here from the raw disguised matrices, so two roundings of
# similarities with condition numbers up to 1e4 separate the two sides.
SPAN_TOL = 1e-7
IDEMPOTENT_TOL = 1e-8


# ------------------------------------------------------------ spans


def span_rows(mats) -> np.ndarray:
    """Orthonormal rows spanning the vectorized matrices (SVD rank cutoff)."""
    stack = np.array([np.asarray(m, dtype=np.complex128).reshape(-1) for m in mats])
    if stack.size == 0:
        return stack.reshape(0, 0)
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s[0] == 0.0:
        return vh[:0]
    rank = int(np.count_nonzero(s > max(1e-9 * s[0], 1e-14)))
    return vh[:rank]


def _outside(rows: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Norm of each vector's component outside the span of orthonormal rows."""
    coeffs = vecs @ rows.conj().T
    return np.linalg.norm(vecs - coeffs @ rows, axis=1)


def same_span(mats_a, mats_b, tol: float = SPAN_TOL) -> bool:
    a, b = span_rows(mats_a), span_rows(mats_b)
    if a.shape != b.shape:
        return False
    return bool(np.max(_outside(b, a)) <= tol and np.max(_outside(a, b)) <= tol)


def algebra_basis(mats) -> np.ndarray:
    """(d, n, n) orthonormal basis of the span of mats."""
    n = np.asarray(mats[0]).shape[0]
    rows = span_rows(mats)
    return rows.reshape(-1, n, n)


def transport(mats, s) -> list:
    """S^{-1} M S for every matrix."""
    s = np.asarray(s, dtype=np.complex128)
    s_inv = np.linalg.inv(s)
    return [s_inv @ m @ s for m in mats]


def generated_mats(t) -> list:
    """Powers I, T, ..., T^(n-1): they span the unital algebra generated by T."""
    t = np.asarray(t, dtype=np.complex128)
    n = t.shape[0]
    out = [np.eye(n, dtype=np.complex128)]
    for _ in range(n - 1):
        out.append(out[-1] @ t)
    return out


# ------------------------------------------------------------ canonical members


def _unit(n, i, j):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def _proj(n, idx):
    m = np.zeros((n, n), dtype=np.complex128)
    for i in idx:
        m[i, i] = 1.0
    return m


def _units(n, rows, cols):
    return [_unit(n, i, j) for i in rows for j in cols]


def _groups(ranks):
    r1, r2, _ = ranks
    n = sum(ranks)
    return list(range(r1)), list(range(r1, r1 + r2)), list(range(r1 + r2, n))


def canonical_member(family: str, n: int, params: dict | None = None, variant: str = "id"):
    """Spanning matrices of the named canonical family member."""
    params = params or {}
    eye = np.eye(n, dtype=np.complex128)
    ranks = tuple(params.get("ranks") or ())
    if family == "SCALAR":
        mats = [eye]
    elif family == "DIAGONAL":
        mats = [_unit(n, i, i) for i in range(n)]
    elif family == "FULL":
        mats = _units(n, range(n), range(n))
    elif family == "LR_UNITAL":
        p, q = ranks
        o = int(params.get("overlap", 0))
        mats = _units(n, range(p), range(p - o, p - o + q)) + [eye]
    elif family in ("EX1", "EX2", "EX3", "AT"):
        if not ranks:
            ranks = (1, 1, n - 2)
        g1, g2, g3 = _groups(ranks)
        if family == "EX1":
            mats = _units(n, g1 + g2, g2 + g3) + [eye]
            if g1:
                mats.append(_proj(n, g1))
            if g3:
                mats.append(_proj(n, g3))
        elif family == "EX2":
            mats = [_proj(n, g1), _proj(n, g2), _proj(n, g3)] + _units(n, g1 + g2, g3)
        elif family == "EX3":
            mats = [_proj(n, g1 + g2), _proj(n, g3)] + _units(n, g1, g2) + _units(n, g1 + g2, g3)
        else:
            t = complex(params.get("t", 0.0) or 0.0)
            i1, i2 = g1[0], g2[0]
            hinge = _unit(n, i1, i2)
            mats = [_proj(n, g1) + t * hinge, _proj(n, g2) - t * hinge, _proj(n, g3)]
            mats += _units(n, [i1, i2], g3)
    else:
        raise ValueError(f"no reference member for family {family!r}")
    if variant == "anti":
        j = np.fliplr(eye)
        mats = [j @ m.T @ j for m in mats]
    return mats


# ------------------------------------------------------------ corners


def corner_residual(basis: np.ndarray, e) -> float:
    """Relative closure residual of the corner {E a E}, for one idempotent E."""
    e = np.asarray(e, dtype=np.complex128)
    d, n, _ = basis.shape
    corners = np.array([e @ b @ e for b in basis])
    rows = span_rows(corners)
    prods = np.einsum("iab,jbc->ijac", corners, corners).reshape(d * d, n * n)
    if rows.shape[0] == 0:
        resid = np.linalg.norm(prods, axis=1)
    else:
        resid = _outside(rows, prods)
    scale = np.maximum(1.0, np.linalg.norm(prods, axis=1))
    return float(np.max(resid / scale))


def is_idempotent(e) -> bool:
    e = np.asarray(e, dtype=np.complex128)
    if e.ndim != 2 or e.shape[0] != e.shape[1] or not np.all(np.isfinite(e)):
        return False
    return bool(np.linalg.norm(e @ e - e) <= IDEMPOTENT_TOL * max(1.0, np.linalg.norm(e) ** 2))


def _haar(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sampled_corner_residual(mats, rng: np.random.Generator, per_rank: int = 2) -> float:
    """Worst corner residual over projections and idempotents of every rank 1..n-1."""
    basis = algebra_basis(mats)
    n = basis.shape[1]
    worst = 0.0
    for rank in range(1, n):
        for k in range(2 * per_rank):
            v = _haar(n, rng)[:, :rank]
            e = v @ v.conj().T
            if k % 2:
                s = (_haar(n, rng) * np.geomspace(1.0, rng.uniform(1.0, 50.0), n)) @ _haar(n, rng)
                e = s @ e @ np.linalg.inv(s)
            worst = max(worst, corner_residual(basis, e))
    return worst


def fold_defect(mats) -> float:
    """Closure defect of the aligned half-fold {R* a R}, R = Q1 + E, for even n."""
    basis = algebra_basis(mats)
    n = basis.shape[1]
    h = n // 2
    r = np.zeros((n, n), dtype=np.complex128)
    for i in range(h):
        r[i, i] = 1.0
        r[h + i, i] = 1.0
    folded = np.array([r.conj().T @ b @ r for b in basis])
    rows = span_rows(folded)
    d = folded.shape[0]
    prods = np.einsum("iab,jbc->ijac", folded, folded).reshape(d * d, n * n)
    scale = np.maximum(1.0, np.linalg.norm(prods, axis=1))
    return float(np.max(_outside(rows, prods) / scale))


# ------------------------------------------------------------ expected verdicts


def generator_compressible(t) -> bool:
    """Unital algebra generated by T is compressible iff some eigenvalue alpha
    has multiplicity >= n-1 and rank(T - alpha I) <= 1."""
    t = np.asarray(t, dtype=np.complex128)
    n = t.shape[0]
    vals = np.linalg.eigvals(t)
    tol = 1e-7 * max(1.0, float(np.max(np.abs(vals))))
    for v in vals:
        near = vals[np.abs(vals - v) <= tol]
        if len(near) >= n - 1:
            s = np.linalg.svd(t - near.mean() * np.eye(n), compute_uv=False)
            if int(np.count_nonzero(s > max(1e-9 * s[0], 1e-12))) <= 1:
                return True
    return False


# ------------------------------------------------------------ verdict checks


def certificate_replays(input_mats, family, params, variant, similarity) -> bool:
    """S^{-1} M S spans the input, with M the canonical member the verdict names."""
    if family is None or similarity is None:
        return False
    s = np.asarray(similarity, dtype=np.complex128)
    n = np.asarray(input_mats[0]).shape[0]
    if s.shape != (n, n) or not np.all(np.isfinite(s)):
        return False
    if np.linalg.cond(s) > 1e12:
        return False
    try:
        member = canonical_member(family, n, params, variant)
    except (ValueError, TypeError, IndexError):
        return False
    return same_span(transport(member, s), input_mats)


def witness_replays(input_mats, witness) -> bool:
    """The witness is idempotent and its corner is not closed."""
    if witness is None:
        return False
    w = np.asarray(witness, dtype=np.complex128)
    if not is_idempotent(w):
        return False
    return corner_residual(algebra_basis(input_mats), w) > VIOLATION_RESIDUAL


def verdict_replays(input_mats, expected: bool, compressible: bool, family=None,
                    params=None, variant="id", similarity=None, witness=None) -> str | None:
    """None when the verdict matches the construction and replays, else the reason."""
    if compressible != expected:
        return f"verdict compressible={compressible}, construction says {expected}"
    if compressible:
        if not certificate_replays(input_mats, family, params, variant, similarity):
            return f"certificate for {family} ({variant}) does not replay"
    elif not witness_replays(input_mats, witness):
        return "witness does not replay"
    return None


# ------------------------------------------------------------ files and the CLI


def pairs(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def read_file_mats(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [pairs(m) for m in doc["basis"]]


def cli_reply_replays(input_mats, expected: bool, exit_code: int, stdout: str,
                      trials: int | None = None) -> str | None:
    """Check one `classify --format json` reply: exit code, verdict, replay, and
    (given trials) a consistent cross-validation of that many trials."""
    want_code = 0 if expected else 1
    if exit_code != want_code:
        return f"exit code {exit_code}, expected {want_code}"
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return f"reply is not JSON: {exc}"
    if expected and trials is not None:
        chk = doc.get("check") or {}
        if not (chk.get("consistent") is True and chk.get("trials_run") == trials):
            return f"cross-validation missing or failed: {chk}"
    sim = doc.get("similarity")
    wit = doc.get("witness")
    params = dict(doc.get("params") or {})
    if params.get("t") is not None:
        params["t"] = complex(*params["t"])
    return verdict_replays(
        input_mats, expected, bool(doc.get("compressible")), family=doc.get("family"),
        params=params, variant=doc.get("variant", "id"),
        similarity=None if sim is None else pairs(sim),
        witness=None if wit is None else pairs(wit),
    )
