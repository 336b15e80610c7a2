"""Decision procedure for projection and idempotent compressibility.

For a unital subalgebra of M_n (n >= 4) the two notions coincide and hold
exactly when the algebra is similar to the unitization of a full corner
module, or transpose-similar to one of three explicit coordinate families.
The classifier reads the reduced triangular data and counts the scalar runs
of whole diagonal blocks from the start (a coordinates) and from the end
(b). The middle [a, n - b) picks the case: empty is a split, one block is
the unique big block or special position between scalar outer groups, and
anything else is `nonunique-k`. A route only proposes:
from ranks and supports it names candidate certificates (canonical family,
variant, parameters, frame) and the refutation path of its case. `certify`
is the one span decision, at rel_eps in the input's own coordinates; the
first candidate that replays is the verdict. When none replays, the verdict
is an orthogonal projection with an unclosed corner, found by the checker's
projection search, under the case's `*-defect` path.

Every verdict is cross-validated: certificates are replayed by span equality,
refutations by the witness corner residual, and compressible verdicts are
additionally stress-tested with randomized corner trials. Any disagreement
raises ClassifierInconsistencyError instead of silently picking a side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .checker import VIOLATION_RESIDUAL, CheckReport, Violation, check_compressible, corner_residual
from .families import make_family
from .matcore import NumericalFailureError, as_matrix, rank_tol
from .structure import WedderburnData, _cluster_values, support_columns, wedderburn
from .subalgebra import MatrixAlgebra, conjugate, generated_algebra, transpose_variant

__all__ = [
    "Verdict",
    "GeneratedVerdict",
    "ClassifierInconsistencyError",
    "classify",
    "certify",
    "classify_generated",
]


class ClassifierInconsistencyError(RuntimeError):
    """The structural verdict and the randomized evidence disagree."""


@dataclass(frozen=True, eq=False)
class Verdict:
    compressible: bool
    n: int
    dim: int
    family: str | None
    variant: str
    params: dict
    type_path: str
    t: complex | None
    similarity: np.ndarray | None
    witness: np.ndarray | None
    check: CheckReport | None
    seed: int
    witness_source: str | None = None  # the Violation.kind that found the witness


@dataclass(frozen=True, eq=False)
class GeneratedVerdict:
    n: int
    unital_compressible: bool
    nonunital_compressible: bool
    alpha: complex | None
    zero_simple: bool
    unital_check: CheckReport | None
    nonunital_check: CheckReport | None
    structural: Verdict | None
    seed: int


# ---------------------------------------------------------------- helpers


def _span_rank(flat: np.ndarray, atol: float = 1e-7) -> int:
    """Span dimension with an absolute cutoff.

    The rows come from orthonormal algebra bases, so structural content is
    O(1); a relative cutoff would promote numerically-zero corners whose own
    largest entry is roundoff junk.
    """
    if flat.size == 0:
        return 0
    s = np.linalg.svd(flat, compute_uv=False)
    return int(np.count_nonzero(s > atol))


def _corner_dim(stack: np.ndarray, rows, cols) -> int:
    if len(rows) == 0 or len(cols) == 0 or stack.shape[0] == 0:
        return 0
    sub = stack[np.ix_(range(stack.shape[0]), rows, cols)]
    return _span_rank(sub.reshape(stack.shape[0], -1))


def _corner_scalar(stack: np.ndarray, coords) -> bool:
    """True when the compression to the coordinate set is C times the identity."""
    m = len(coords)
    sub = stack[np.ix_(range(stack.shape[0]), coords, coords)]
    flat = sub.reshape(stack.shape[0], -1)
    if _span_rank(flat) != 1:
        return False
    _, _, vh = np.linalg.svd(flat, full_matrices=False)
    g = vh[0].reshape(m, m)
    c = np.trace(g) / m
    return bool(np.linalg.norm(g - c * np.eye(m)) <= 1e-7)


def _frame_from_coords(n: int, coords) -> np.ndarray:
    f = np.zeros((n, len(coords)), dtype=np.complex128)
    for j, c in enumerate(coords):
        f[c, j] = 1.0
    return f


def _complete_frame(n: int, partial: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary (deterministic)."""
    k = partial.shape[1]
    if k == n:
        return partial
    u, s, _ = np.linalg.svd(
        np.eye(n, dtype=np.complex128) - partial @ partial.conj().T
    )
    comp = u[:, : n - k]
    return np.hstack([partial, comp])


@dataclass
class _Route:
    """A candidate certificate, proposed from ranks and supports alone."""

    family: str
    type_path: str
    variant: str = "id"
    params: dict | None = None
    t: complex | None = None
    layout: np.ndarray | None = None  # unitary Z with unhinged = Z F Z*


# ---------------------------------------------------------------- witnesses


def _find_witness(alg: MatrixAlgebra, wd: WedderburnData | None, seed: int) -> Violation | None:
    """First violation of a projection search in the input's own coordinates, or None.

    Projection and idempotent compressibility agree for unital algebras, so an
    orthogonal projection P with an unclosed corner refutes both, and with
    ||P||_2 = 1 its residual sits at the roundoff floor. The search is the
    checker's: the witness catalog through coordinate and flag frames, then
    1536 range-projection trials, each stage in batched corner tests.
    """
    return check_compressible(alg, mode="projection", trials=1536, seed=seed,
                              struct=None if wd is None else wd.block).first_violation()


# ---------------------------------------------------------------- decision tree


def _hinge_fit(reduced_stack: np.ndarray, p1: int, p2: int) -> complex | None:
    h = reduced_stack[:, p1, p2]
    delta = reduced_stack[:, p1, p1] - reduced_stack[:, p2, p2]
    denom = float(np.sum(np.abs(delta) ** 2))
    if denom < 1e-16:
        return None
    return complex(np.sum(h * delta.conj()) / denom)


def _scalar_run(ustack: np.ndarray, blocks) -> int:
    """Coordinates in the longest run of whole blocks, taken in the given
    order, on which the algebra compresses to scalars."""
    run = []
    for block in blocks:
        coords = sorted(run + block)
        if not _corner_scalar(ustack, coords):
            break
        run = coords
    return len(run)


def _corner_module_route(alg, rstack, groups, r12: int, r23: int, type_path: str) -> _Route:
    """Corner-module candidate for outer groups g1, g3 around the middle g2,
    the outer groups linked or one of them empty.

    Proposes span(I, P M Q), P over g1's radical column support plus g2, Q
    over g2 plus g3's row support. Each support is read from the radical's
    block against g2 alone, so roundoff in g2's own rows and columns stays out.
    """
    n = alg.n
    g1, g2, g3 = groups
    d = len(g2)
    idx = range(rstack.shape[0])
    c1 = (support_columns(rstack[np.ix_(idx, g1, g2)], "col", alg.tol) if r12
          else np.zeros((len(g1), 0)))
    c3 = (support_columns(rstack[np.ix_(idx, g2, g3)], "row", alg.tol) if r23
          else np.zeros((len(g3), 0)))
    c1_full = np.zeros((n, c1.shape[1]), dtype=np.complex128)
    c1_full[g1, :] = c1
    c3_full = np.zeros((n, c3.shape[1]), dtype=np.complex128)
    c3_full[g3, :] = c3
    layout = _complete_frame(n, np.hstack([c1_full, _frame_from_coords(n, g2), c3_full]))
    return _Route(family="LR_UNITAL",
                  params={"ranks": (c1.shape[1] + d, d + c3.shape[1]), "overlap": d},
                  type_path=type_path, layout=layout)


def _case_three_groups(alg, wd, a: int, e: int):
    """Scalar outer groups [0, a) and [e, n) around the one middle block [a, e).

    The middle is the unique big block (paths `unique-k-*`) or the unique
    special position of an all-1x1 pattern (paths `three-groups-*`).
    """
    struct = wd.block
    n = alg.n
    g1, g2, g3 = list(range(a)), list(range(a, e)), list(range(e, n))
    n1, d, n3 = len(g1), len(g2), len(g3)
    prefix = "unique-k" if d >= 2 else "three-groups"
    defect = f"{prefix}-defect"
    rstack = wd.rad.basis
    # projection dimensions; gradedness itself is settled by the certificate
    r12 = _corner_dim(rstack, g1, g2)
    r13 = _corner_dim(rstack, g1, g3)
    r23 = _corner_dim(rstack, g2, g3)
    if not g1 or not g3:
        # extreme block: automatic corner-module form
        return [_corner_module_route(alg, rstack, (g1, g2, g3), r12, r23,
                                     "unique-k-extreme")], defect
    cls1 = struct.class_of(0)
    cls2 = struct.class_of(struct.offsets.index(a))
    cls3 = struct.class_of(len(struct.sizes) - 1)

    if cls1 != cls2 and cls2 != cls3 and cls1 != cls3:
        if r12 == n1 * d and r13 == n1 * n3 and r23 == d * n3:
            return [_Route(family="EX1", params={"ranks": (n1, d, n3)},
                           type_path=f"{prefix}-ex1")], defect
        if d == 1 and n1 == 1 and r12 == 0 and r13 == n3 and r23 == n3:
            t_hat = _hinge_fit(wd.reduced.basis, 0, a)
            return [_Route(family="AT", params={"ranks": (1, 1, n3)},
                           type_path="three-groups-hinged", t=t_hat)], defect
        if d == 1 and n3 == 1 and r23 == 0 and r12 == n1 and r13 == n1:
            t_hat = _hinge_fit(wd.reduced.basis, a, n - 1)
            return [_Route(family="AT", variant="anti", params={"ranks": (1, 1, n1)},
                           type_path="three-groups-hinged-anti", t=t_hat)], defect
        return [], defect

    # a block linked to the middle has its size, so the EX3 shapes have d = 1
    if cls1 == cls2 and cls2 != cls3:
        if n1 == 1 and r12 == 1 and r13 == n3 and r23 == n3:
            return [_Route(family="EX3", params={"ranks": (1, 1, n3)},
                           type_path="three-groups-ex3")], defect
        return [], defect
    if cls2 == cls3 and cls1 != cls2:
        if n3 == 1 and r23 == 1 and r12 == n1 and r13 == n1:
            return [_Route(family="EX3", variant="anti", params={"ranks": (1, 1, n1)},
                           type_path="three-groups-ex3-anti")], defect
        return [], defect
    if cls1 == cls3 and cls1 != cls2:
        # the outer scalar classes are linked: corner-module candidate
        return [_corner_module_route(alg, rstack, (g1, g2, g3), r12, r23, f"{prefix}-lr")], defect
    return [], "single-class-defect"


def _case_split(alg, wd, a: int, b: int):
    """All blocks 1x1, no special position: split after the scalar prefix of
    a coordinates; b is the scalar suffix."""
    struct = wd.block
    n = alg.n
    rstack = wd.rad.basis
    p_hat = support_columns(rstack, "col", alg.tol) if wd.rad.dim else np.zeros((n, 0))
    q_hat = support_columns(rstack, "row", alg.tol) if wd.rad.dim else np.zeros((n, 0))
    rp, rq = p_hat.shape[1], q_hat.shape[1]
    if wd.rad.dim != rp * rq:
        return [], "split-defect"
    if len(struct.classes) == 1:
        layout = _complete_frame(n, np.hstack([p_hat, q_hat]))
        return [_Route(family="LR_UNITAL", params={"ranks": (rp, rq), "overlap": 0},
                       type_path="split-lr", layout=layout)], "split-defect"
    # two classes: full-corner form, or a rank-one overlap pinned at coordinate 0
    candidates = []
    if rp == a and rq == n - a:
        candidates.append(_Route(family="EX1", params={"ranks": (a, 0, n - a)},
                                 type_path="split-ex1"))
    singles = [cls[0] for cls in struct.classes if len(cls) == 1]
    if a == 1 and singles == [0] and rp <= 1:
        layout = _complete_frame(n, np.hstack([_frame_from_coords(n, [0]), q_hat]))
        candidates.append(_Route(family="LR_UNITAL", params={"ranks": (1, 1 + rq), "overlap": 1},
                                 type_path="split-lr", layout=layout))
    # mirror: overlap coordinate pinned at the end instead of the start
    if b == 1 and singles == [n - 1] and rq <= 1:
        layout = _complete_frame(n, np.hstack([p_hat, _frame_from_coords(n, [n - 1])]))
        candidates.append(_Route(family="LR_UNITAL", params={"ranks": (rp + 1, 1), "overlap": 1},
                                 type_path="split-lr", layout=layout))
    return candidates, "split-defect"


def _route(alg: MatrixAlgebra, wd: WedderburnData):
    """Candidate certificates in the order to try them, and the refutation path.

    a and b count the coordinates of the longest scalar runs of whole blocks
    from the start and from the end. A block of size >= 2 compresses to a
    full matrix algebra, so it never lies in a run; with 1x1 blocks the
    special positions are exactly the middle [a, n - b).
    """
    n = alg.n
    off = wd.block.offsets
    blocks = [list(range(off[i], off[i + 1])) for i in range(len(off) - 1)]
    ustack = wd.unhinged.basis
    a = _scalar_run(ustack, blocks[:-1])
    b = _scalar_run(ustack, blocks[:0:-1])
    if a >= n - b:
        return _case_split(alg, wd, a, b)
    if off[off.index(a) + 1] == n - b:
        return _case_three_groups(alg, wd, a, n - b)
    return [], "nonunique-k"


# ---------------------------------------------------------------- public API


def _certificate_similarity(wd: WedderburnData, layout: np.ndarray | None) -> np.ndarray:
    move = wd.block.u @ wd.s_unhinge
    z = layout if layout is not None else np.eye(move.shape[0], dtype=np.complex128)
    return z.conj().T @ np.linalg.inv(move)


def _build_verdict(alg, route: _Route, wd, seed: int) -> Verdict:
    n = alg.n
    sim = _certificate_similarity(wd, route.layout) if wd is not None else np.eye(n)
    params = dict(route.params or {})
    family, t_value = route.family, None
    if family == "AT":
        if route.t is None:
            raise ClassifierInconsistencyError("hinge fit failed on an AT route")
        # conjugating by a diagonal phase matrix is unitary and rotates the
        # hinge by an arbitrary phase, so only |t| is an invariant of the
        # disguised algebra: report the nonnegative real member of the orbit
        t_value = complex(abs(route.t))
        if abs(t_value) < 1e-7:
            family, t_value = "EX2", None
        else:
            # the unhinged form is the t = 0 member; the certificate similarity
            # must reattach the hinge of the canonical model
            h = np.eye(n, dtype=np.complex128)
            if route.variant == "anti":
                h[n - 2, n - 1] = t_value
            else:
                h[0, 1] = -t_value
            sim = h @ sim
            params["t"] = t_value
    return Verdict(
        compressible=True, n=n, dim=alg.dim, family=family, variant=route.variant,
        params=params, type_path=route.type_path, t=t_value, similarity=sim,
        witness=None, check=None, seed=seed,
    )


def certify(alg: MatrixAlgebra, verdict: Verdict) -> bool:
    """Independently replay a verdict: span equality for certificates,
    idempotency and corner residual for witnesses."""
    if not verdict.compressible:
        if verdict.witness is None:
            return False
        w = as_matrix(verdict.witness)
        # the corner test presumes E^2 = E; a matrix that is not idempotent refutes nothing
        return (corner_residual(alg, w) > VIOLATION_RESIDUAL
                and np.linalg.norm(w @ w - w) <= 1e-8 * max(1.0, np.linalg.norm(w) ** 2))
    if verdict.family is None or verdict.similarity is None:
        return False
    kwargs = {}
    params = verdict.params or {}
    if "ranks" in params:
        kwargs["ranks"] = tuple(params["ranks"])
    if "overlap" in params:
        kwargs["overlap"] = int(params["overlap"])
    if verdict.family == "AT":
        kwargs["t"] = params.get("t", 0.0) or 0.0
    try:
        model = make_family(verdict.family, alg.n, **kwargs)
    except ValueError:
        return False
    if verdict.variant == "anti":
        model = transpose_variant(model, "anti")
    try:
        moved = conjugate(model, verdict.similarity)
    except NumericalFailureError:
        return False
    return moved.space.equals(alg.space)


def _attach_check(alg, verdict: Verdict, wd, trials: int, seed: int) -> Verdict:
    report = check_compressible(
        alg, mode="idempotent", trials=trials, seed=seed,
        struct=wd.block if wd is not None else None,
    )
    if not report.consistent:
        raise ClassifierInconsistencyError(
            f"certificate for {verdict.family} ({verdict.type_path}) contradicted by a "
            f"corner violation of residual {report.first_violation().residual:.2e}"
        )
    return replace(verdict, check=report)


def classify(
    alg: MatrixAlgebra,
    seed: int = 0,
    cross_validate: bool = True,
    trials: int = 500,
    wd: WedderburnData | None = None,
) -> Verdict:
    """Decide compressibility of a unital subalgebra of M_n, n >= 4.

    Dimensions 1 and n^2 are settled directly for every n. Returns a Verdict
    carrying a certificate (family, variant, similarity, t) or a replaying
    witness projection and its source. Pass a precomputed reduction as wd to
    skip the triangularization.
    """
    if not alg.unital:
        raise ValueError("classification is defined for unital algebras")
    n = alg.n
    if alg.dim in (1, n * n):
        family = "SCALAR" if alg.dim == 1 else "FULL"
        wd, refuted = None, "trivial-defect"
        candidates = [_Route(family=family, type_path=f"trivial-{family.lower()}")]
    else:
        if n < 4:
            raise ValueError("the structured classification requires n >= 4")
        if wd is None:
            wd = wedderburn(alg, seed=seed)
        candidates, refuted = _route(alg, wd)

    # a candidate is that family exactly when its certificate replays
    for route in candidates:
        verdict = _build_verdict(alg, route, wd, seed)
        if certify(alg, verdict):
            return _attach_check(alg, verdict, wd, trials, seed) if cross_validate else verdict

    hit = _find_witness(alg, wd, seed)
    if hit is None:
        raise ClassifierInconsistencyError(
            f"refutation path {refuted} produced no replaying witness"
        )
    return Verdict(compressible=False, n=n, dim=alg.dim, family=None, variant="id",
                   params={}, type_path=refuted, t=None, similarity=None,
                   witness=hit.witness, check=None, seed=seed, witness_source=hit.kind)


def classify_generated(
    t_mat,
    seed: int = 0,
    cross_validate: bool = True,
    trials: int = 400,
) -> GeneratedVerdict:
    """Compressibility of the algebras generated by a single matrix.

    With the identity adjoined, the generated algebra is compressible exactly
    when some eigenvalue alpha has multiplicity at least n-1 and T - alpha I
    has rank at most one. Without the identity, additionally 0 must not be an
    eigenvalue of algebraic multiplicity exactly one.
    """
    t = as_matrix(t_mat)
    n = t.shape[0]
    if t.shape[0] != t.shape[1] or n < 2:
        raise ValueError("need a square matrix of size at least 2")
    vals = np.linalg.eigvals(t)
    scale = max(1.0, float(np.max(np.abs(vals))))
    groups = _cluster_values(vals, 1e-7 * scale)
    alpha = None
    for g in groups:
        if len(g) >= n - 1:
            cand = complex(np.mean(vals[g]))
            if rank_tol(t - cand * np.eye(n)) <= 1:
                alpha = cand
                break
    zero_simple = any(
        len(g) == 1 and abs(vals[g[0]]) <= 1e-7 * scale for g in groups
    )
    unital = alpha is not None
    nonunital = unital and not zero_simple

    rep_u = rep_n = None
    structural = None
    if cross_validate:
        alg_u = generated_algebra([t], include_identity=True)
        rep_u = check_compressible(alg_u, trials=trials, seed=seed)
        if unital and not rep_u.consistent:
            raise ClassifierInconsistencyError(
                "generated unital algebra predicted compressible, but a corner violation exists"
            )
        if not unital and rep_u.consistent:
            raise ClassifierInconsistencyError(
                "generated unital algebra predicted not compressible, but no witness was found"
            )
        if n >= 4:
            structural = classify(alg_u, seed=seed, cross_validate=False)
            if structural.compressible != unital:
                raise ClassifierInconsistencyError(
                    "spectral criterion disagrees with the structural classification"
                )
        alg_n = generated_algebra([t], include_identity=False)
        if alg_n.dim == 0:
            rep_n = None  # the zero algebra: nothing to test
        else:
            rep_n = check_compressible(alg_n, trials=trials, seed=seed)
            if nonunital and not rep_n.consistent:
                raise ClassifierInconsistencyError(
                    "generated algebra predicted compressible, but a corner violation exists"
                )
            if not nonunital and rep_n.consistent:
                raise ClassifierInconsistencyError(
                    "generated algebra predicted not compressible, but no witness was found"
                )
    return GeneratedVerdict(
        n=n, unital_compressible=unital, nonunital_compressible=nonunital,
        alpha=alpha, zero_simple=zero_simple, unital_check=rep_u,
        nonunital_check=rep_n, structural=structural, seed=seed,
    )
