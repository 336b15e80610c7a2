"""Structure theory for unital subalgebras of M_n.

Provides the reduced block upper triangular form (diagonal blocks scalar or
full), the Jacobson radical via the trace form, linkage classes of diagonal
blocks, and the unhinging similarity that splits the algebra into its
block-diagonal part plus the radical (Wedderburn-Malcev in coordinates).

All randomized routines draw from seeded generators and retry on numerical
failure; results are verified post hoc and a NumericalFailureError is raised
only after the retry budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .matcore import DEFAULT_TOL, NumericalFailureError, Tolerance, numerical_rank
from .subalgebra import MatrixAlgebra, MatrixSubspace, membership_residuals, subspace_from

__all__ = [
    "BlockStructure",
    "WedderburnData",
    "radical",
    "triangularize",
    "reduced_algebra",
    "bd_algebra",
    "bd_part",
    "unhinge",
    "wedderburn",
    "support_columns",
]

_RETRY_BUDGET = 32
# trapezoidal nodes on a Riesz projection's circle; 32 left errors near 1e-8
_RIESZ_NODES = 64


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Flag data for a reduced block upper triangular form.

    u: unitary whose columns are the flag basis; conjugating by u puts the
       algebra in reduced form.
    sizes: diagonal block sizes, in flag order.
    classes: linkage classes as a partition of block indices; blocks in one
       class carry equivalent irreducible diagonal representations.
    """

    u: np.ndarray
    sizes: tuple
    classes: tuple

    @property
    def n(self) -> int:
        return int(sum(self.sizes))

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    @cached_property
    def offsets(self) -> tuple:
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return tuple(out)

    def block_slice(self, i: int) -> slice:
        off = self.offsets
        return slice(off[i], off[i + 1])

    def block(self, x: np.ndarray, i: int, j: int) -> np.ndarray:
        return x[self.block_slice(i), self.block_slice(j)]

    def class_of(self, i: int) -> int:
        for k, cls in enumerate(self.classes):
            if i in cls:
                return k
        raise ValueError(f"block index {i} out of range")

    @cached_property
    def _bd_mask(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=bool)
        for i in range(self.num_blocks):
            s = self.block_slice(i)
            m[s, s] = True
        m.flags.writeable = False
        return m

    def bd_mask(self) -> np.ndarray:
        """Boolean mask of the diagonal blocks; shared and read-only."""
        return self._bd_mask

    def strict_lower_norm(self, x: np.ndarray) -> float:
        keep = np.triu(np.ones((self.n, self.n), dtype=bool))
        keep |= self.bd_mask()
        return float(np.linalg.norm(x[~keep]))


@dataclass(frozen=True, eq=False)
class WedderburnData:
    """Reduced form plus the unhinging similarity.

    reduced = u* A u is block upper triangular; unhinged = s^{-1} reduced s
    (s unit-diagonal block upper) contains its own block-diagonal part, so
    unhinged = bd (+) rad as subspaces. rad is the radical of the unhinged
    algebra; bd is the block-diagonal image, identical for reduced and
    unhinged.
    """

    block: BlockStructure
    reduced: MatrixAlgebra
    bd: MatrixAlgebra
    unhinged: MatrixAlgebra
    s_unhinge: np.ndarray
    rad: MatrixSubspace


def radical(alg: MatrixAlgebra) -> MatrixSubspace:
    """Jacobson radical as a subspace: the kernel of the trace form on the algebra."""
    if not alg.unital:
        raise ValueError("radical via the trace form requires a unital algebra")
    b = alg.basis
    g = np.einsum("iab,jba->ij", b, b)
    _, s, vh = np.linalg.svd(g)
    null = vh[numerical_rank(s, alg.tol):].conj()
    return subspace_from([np.tensordot(c, b, axes=(0, 0)) for c in null], n=alg.n, tol=alg.tol)


def _unital_algebra(mats: np.ndarray, n: int, tol: Tolerance) -> MatrixAlgebra:
    # internal: caller guarantees closure (images of algebras under homomorphisms)
    return MatrixAlgebra(space=subspace_from(mats, n=n, tol=tol), unital=True)


def _union_classes(k: int, linked_pairs) -> list:
    """Connected components of range(k) under the given (i, j) links.

    Each component is an ascending index list; components come in the order
    of their smallest member.
    """
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in linked_pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _cluster_values(vals: np.ndarray, tol_abs: float):
    """Greedy union of values closer than tol_abs; returns list of index lists."""
    k = len(vals)
    out = _union_classes(
        k, ((i, j) for i in range(k) for j in range(i + 1, k)
            if abs(vals[i] - vals[j]) <= tol_abs)
    )
    # deterministic order: by representative eigenvalue
    out.sort(key=lambda g: (round(vals[g[0]].real, 6), round(vals[g[0]].imag, 6)))
    return out


def _minimal_invariant(stack: np.ndarray, rng: np.random.Generator, tol: Tolerance) -> np.ndarray:
    """Orthonormal columns spanning a minimal invariant subspace of the span of stack.

    The span is assumed to be a unital subalgebra of M_m. Returns an (m, w)
    frame; w == m means the action is irreducible.
    """
    m = stack.shape[1]
    if m == 1:
        return np.eye(1, dtype=np.complex128)
    alg = _unital_algebra(stack, m, tol)
    b = alg.basis
    d = len(b)
    if d <= 1:
        # scalars: every line is invariant
        out = np.zeros((m, 1), dtype=np.complex128)
        out[0, 0] = 1.0
        return out
    rad = radical(alg)
    if rad.dim > 0:
        # the range of the radical is a proper invariant subspace
        cols = np.hstack(rad.basis)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        r = numerical_rank(s, tol)
        w = u[:, :r]
        if r == 0 or r >= m:
            raise NumericalFailureError("degenerate radical range")
        sub = np.einsum("pa,iab,bq->ipq", w.conj().T, b, w)
        z = _minimal_invariant(sub, rng, tol)
        return w @ z
    if d == m * m:
        return np.eye(m, dtype=np.complex128)
    # semisimple with a proper invariant subspace; try the center first
    center = _center_coeffs(b, tol)
    if len(center) > 1:
        z = np.tensordot(rng.standard_normal(len(center)), center, axes=(0, 0))
        zm = np.tensordot(z, b, axes=(0, 0))
        w = _eigencluster_frame(zm, rng, want_proper=True)
        sub = np.einsum("pa,iab,bq->ipq", w.conj().T, b, w)
        zz = _minimal_invariant(sub, rng, tol)
        return w @ zz
    # simple, acting with multiplicity: a cyclic vector from a small eigencluster
    a = np.tensordot(rng.standard_normal(d), b, axes=(0, 0))
    vals, vecs = np.linalg.eig(a)
    scale = max(1.0, float(np.max(np.abs(vals))))
    groups = _cluster_values(vals, 1e-6 * scale)
    groups.sort(key=len)
    v = vecs[:, groups[0][0]]
    orbit = np.einsum("iab,b->ai", b, v)
    u, s, _ = np.linalg.svd(orbit, full_matrices=False)
    r = numerical_rank(s, tol)
    if r >= m or r == 0:
        raise NumericalFailureError("cyclic subspace is not proper")
    w = u[:, :r]
    sub = np.einsum("pa,iab,bq->ipq", w.conj().T, b, w)
    z = _minimal_invariant(sub, rng, tol)
    return w @ z


def _center_coeffs(b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Coefficient vectors (in the basis b), as rows, spanning the center of span(b)."""
    d, m, _ = b.shape
    comms = np.einsum("kab,ibc->kiac", b, b) - np.einsum("iab,kbc->kiac", b, b)
    sys = comms.reshape(d, d * m * m).T
    _, s, vh = np.linalg.svd(sys, full_matrices=False)
    return vh[numerical_rank(s, tol):].conj()


def _eigencluster_frame(zm: np.ndarray, rng: np.random.Generator, want_proper: bool) -> np.ndarray:
    """Orthonormal frame of the invariant subspace from a smallest eigenvalue cluster."""
    m = zm.shape[0]
    vals, vecs = np.linalg.eig(zm)
    scale = max(1.0, float(np.max(np.abs(vals))))
    groups = _cluster_values(vals, 1e-6 * scale)
    if want_proper and len(groups) < 2:
        raise NumericalFailureError("central element failed to split the space")
    groups.sort(key=len)
    cols = vecs[:, groups[0]]
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int(np.count_nonzero(s > 1e-10 * float(s[0])))
    if want_proper and (r == 0 or r >= m):
        raise NumericalFailureError("eigencluster frame is not proper")
    return u[:, :r]


def _build_flag(stack: np.ndarray, rng: np.random.Generator, tol: Tolerance):
    m = stack.shape[1]
    if m == 0:
        return np.zeros((0, 0), dtype=np.complex128), []
    w = _minimal_invariant(stack, rng, tol)
    k = w.shape[1]
    if k == m:
        return np.eye(m, dtype=np.complex128), [m]
    # unitary whose first k columns span ran(w)
    v = np.linalg.svd(w, full_matrices=True)[0]
    comp = v[:, k:]
    sub = np.einsum("pa,iab,bq->ipq", comp.conj().T, stack, comp)
    u_rest, sizes_rest = _build_flag(sub, rng, tol)
    u = v.copy()
    u[:, k:] = comp @ u_rest
    return u, [k] + sizes_rest


def _diag_block_stacks(stack: np.ndarray, sizes, offsets):
    return [
        stack[:, offsets[i] : offsets[i] + sizes[i], offsets[i] : offsets[i] + sizes[i]]
        for i in range(len(sizes))
    ]


def _stack_rank(flat: np.ndarray, tol: Tolerance) -> int:
    return numerical_rank(np.linalg.svd(flat, full_matrices=False)[1], tol)


def _linkage_classes(diag_stacks, sizes, tol: Tolerance):
    """Partition of block indices into linkage classes, with consistency checks."""
    k = len(sizes)
    ranks = [_stack_rank(ds.reshape(ds.shape[0], -1), tol) for ds in diag_stacks]

    def linked(i, j):
        if sizes[i] != sizes[j]:
            return False
        pair = np.concatenate(
            [diag_stacks[i].reshape(diag_stacks[i].shape[0], -1),
             diag_stacks[j].reshape(diag_stacks[j].shape[0], -1)],
            axis=1,
        )
        r = _stack_rank(pair, tol)
        if r == ranks[i]:
            return True
        if r == ranks[i] + ranks[j]:
            return False
        raise NumericalFailureError(
            f"ambiguous linkage between blocks {i} and {j} (rank {r})"
        )

    pairwise = {}
    for i in range(k):
        for j in range(i + 1, k):
            pairwise[(i, j)] = linked(i, j)
    classes = _union_classes(k, (pair for pair, is_linked in pairwise.items() if is_linked))
    # linkage must be transitive; anything else is a numerical artifact
    for members in classes:
        for a in range(len(members)):
            for c in range(a + 1, len(members)):
                i, j = members[a], members[c]
                if not pairwise[(i, j)]:
                    raise NumericalFailureError("linkage relation is not transitive")
    out = sorted((tuple(sorted(m)) for m in classes), key=lambda t: t[0])
    return tuple(out)


def triangularize(alg: MatrixAlgebra, seed: int = 0) -> BlockStructure:
    """Unitary flag putting the algebra in reduced block upper triangular form.

    Diagonal blocks act irreducibly (scalar on size-1 blocks, full matrix
    algebra otherwise); the result is verified and the search retried with
    fresh randomness on failure.
    """
    if not alg.unital:
        raise ValueError("triangularize requires a unital algebra")
    stack = alg.basis
    scale = max(1.0, float(np.max(np.abs(stack))))
    last_err = None
    for attempt in range(_RETRY_BUDGET):
        rng = np.random.default_rng([seed, attempt])
        try:
            u, sizes = _build_flag(stack, rng, alg.tol)
            red = np.einsum("pa,iab,bq->ipq", u.conj().T, stack, u)
            struct = BlockStructure(u=u, sizes=tuple(sizes), classes=())
            low = max(struct.strict_lower_norm(red[i]) for i in range(len(red)))
            if low > alg.tol.rel_eps * scale * alg.n:
                raise NumericalFailureError(f"flag is not triangular (residual {low:.2e})")
            diag_stacks = _diag_block_stacks(red, struct.sizes, struct.offsets)
            for i, ds in enumerate(diag_stacks):
                r = _stack_rank(ds.reshape(ds.shape[0], -1), alg.tol)
                want = 1 if sizes[i] == 1 else sizes[i] * sizes[i]
                if r != want:
                    raise NumericalFailureError(
                        f"diagonal block {i} has span dimension {r}, expected {want}"
                    )
            classes = _linkage_classes(diag_stacks, struct.sizes, alg.tol)
            return BlockStructure(u=u, sizes=tuple(sizes), classes=classes)
        except NumericalFailureError as exc:
            last_err = exc
    raise NumericalFailureError(f"triangularization failed after retries: {last_err}")


def reduced_algebra(alg: MatrixAlgebra, struct: BlockStructure) -> MatrixAlgebra:
    u = struct.u
    mats = u.conj().T @ alg.basis @ u
    return MatrixAlgebra(space=subspace_from(mats, n=alg.n, tol=alg.tol), unital=alg.unital)


def bd_part(x: np.ndarray, struct: BlockStructure) -> np.ndarray:
    return np.where(struct.bd_mask(), np.asarray(x, dtype=np.complex128), 0)


def bd_algebra(reduced: MatrixAlgebra, struct: BlockStructure) -> MatrixAlgebra:
    return _unital_algebra(bd_part(reduced.basis, struct), reduced.n, reduced.tol)


def support_columns(
    mats: Sequence[np.ndarray] | np.ndarray, side: str, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal frame for the joint column span ('col') or row span ('row')
    of a sequence of equal-shape matrices or an (m, r, c) stack."""
    mats = np.asarray(mats, dtype=np.complex128)
    if len(mats) == 0:
        raise ValueError("support of an empty family")
    if side == "col":
        cols = np.hstack(mats)
    elif side == "row":
        cols = np.hstack(mats.conj().transpose(0, 2, 1))
    else:
        raise ValueError(f"unknown side {side!r}")
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :numerical_rank(s, tol)]


def _riesz_projection(a: np.ndarray, labels: np.ndarray, width: float) -> np.ndarray:
    """Spectral projection of a onto the eigenvalues within width of the labels.

    The cluster's projection is the resolvent integral (2πi)⁻¹ ∮ (z − a)⁻¹ dz
    over the circle |z − c| = ρ, with c the cluster's mean eigenvalue and ρ
    halfway between the cluster's radius r_in and the distance r_out from c
    to the rest of the spectrum. The trapezoidal rule on N = _RIESZ_NODES
    midpoint nodes converges geometrically (Trefethen and Weideman, SIAM
    Review 2014); its error is near max(r_in/ρ, ρ/r_out)^N. A cluster with
    r_in > r_out/4 raises NumericalFailureError, which caps that error near
    (5/8)^64 ≈ 1e-13; unhinge then retries with another element.
    """
    n = a.shape[0]
    vals = np.linalg.eigvals(a)
    inside = np.min(np.abs(vals[:, None] - labels[None, :]), axis=1) < width
    k = int(np.count_nonzero(inside))
    if k == 0:
        raise NumericalFailureError("empty Riesz cluster")
    if k == n:
        return np.eye(n, dtype=np.complex128)
    c = np.mean(vals[inside])
    r_in = float(np.max(np.abs(vals[inside] - c)))
    r_out = float(np.min(np.abs(vals[~inside] - c)))
    if r_in > r_out / 4.0:
        raise NumericalFailureError("Riesz cluster not separated from the rest of the spectrum")
    rho = (r_in + r_out) / 2.0
    w = np.exp(2j * np.pi * (np.arange(_RIESZ_NODES) + 0.5) / _RIESZ_NODES)
    resolvents = np.linalg.inv((c + rho * w)[:, None, None] * np.eye(n) - a)
    return (rho / _RIESZ_NODES) * np.tensordot(w, resolvents, axes=(0, 0))


def _pick_coupler(
    f_left: np.ndarray,
    f_right: np.ndarray,
    basis: np.ndarray,
    struct: BlockStructure,
    rng: np.random.Generator,
):
    """f_left b f_right with the largest diagonal part, b over the (d, n, n)
    basis and 8 random combinations of it."""
    d = len(basis)
    coefs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(8)]
    candidates = np.concatenate([basis, [np.tensordot(c, basis, axes=(0, 0)) for c in coefs]])
    vs = f_left @ candidates @ f_right
    norms = [np.linalg.norm(bd_part(v, struct)) for v in vs]
    best = int(np.argmax(norms))
    if norms[best] < 1e-8:
        raise NumericalFailureError("no coupling element found between clusters")
    return vs[best]


def unhinge(
    reduced: MatrixAlgebra,
    struct: BlockStructure,
    bd: MatrixAlgebra,
    seed: int = 0,
) -> np.ndarray:
    """Unit-diagonal block upper triangular s with s^{-1} (reduced) s containing bd.

    Uses spectral idempotents of a random lift of a generic block-diagonal
    element, upgraded to a matrix-unit system inside the algebra; the
    conjugation moves the semisimple part into exact block-diagonal position.
    """
    n = reduced.n
    rad_red = radical(reduced)
    # fast path: already unhinged
    hybrid = subspace_from(np.concatenate([bd.basis, rad_red.basis]), n=n, tol=reduced.tol)
    if hybrid.dim == reduced.dim and all(hybrid.contains(b)[0] for b in reduced.basis):
        return np.eye(n, dtype=np.complex128)

    class_sizes = {s: struct.sizes[cls[0]] for s, cls in enumerate(struct.classes)}
    mult = {s: len(cls) for s, cls in enumerate(struct.classes)}
    # the block-diagonal map on the basis, one row per element, for the lift
    red_bd = bd_part(reduced.basis, struct).reshape(reduced.dim, -1)
    last_err = None
    for attempt in range(_RETRY_BUDGET):
        rng = np.random.default_rng([seed, 7, attempt])
        try:
            w0 = np.tensordot(rng.standard_normal(bd.dim), bd.basis, axes=(0, 0))
            vals = np.linalg.eigvals(w0)
            scale = max(1.0, float(np.max(np.abs(vals))))
            groups = _cluster_values(vals, 1e-6 * scale)
            # lift w0 into the algebra through the block-diagonal map
            coef = np.linalg.lstsq(red_bd.T, w0.reshape(-1), rcond=None)[0]
            a_w = np.tensordot(coef, reduced.basis, axes=(0, 0))
            if np.linalg.norm(bd_part(a_w, struct) - w0) > 1e-8 * scale:
                raise NumericalFailureError("block-diagonal lift failed")
            # spectral idempotents per eigenvalue cluster
            cluster_data = []
            for g in groups:
                labels = vals[g]
                f = _riesz_projection(a_w, labels, 1e-6 * scale / 3.0)
                if np.linalg.norm(f @ f - f) > 1e-7 * n:
                    raise NumericalFailureError("spectral idempotent drifted")
                supp = frozenset(
                    i
                    for i in range(struct.num_blocks)
                    if np.linalg.norm(struct.block(f, i, i)) > 1e-6
                )
                cluster_data.append((labels[0], f, supp, len(g)))
            total = sum(f for _, f, _, _ in cluster_data)
            if np.linalg.norm(total - np.eye(n)) > 1e-7 * n:
                raise NumericalFailureError("spectral idempotents do not resolve the identity")
            # group clusters by linkage class and check the generic pattern
            per_class: dict = {s: [] for s in range(len(struct.classes))}
            for lab, f, supp, m in cluster_data:
                match = [
                    s for s, cls in enumerate(struct.classes) if supp == frozenset(cls)
                ]
                if len(match) != 1:
                    raise NumericalFailureError("cluster support does not match one class")
                s = match[0]
                if m != mult[s]:
                    raise NumericalFailureError("cluster multiplicity mismatch")
                per_class[s].append((lab.real, lab.imag, f))
            units = []  # (class, i, e_1i, e_i1)
            for s, items in per_class.items():
                if len(items) != class_sizes[s]:
                    raise NumericalFailureError("degenerate spectrum within a class")
                items.sort(key=lambda t: (round(t[0], 6), round(t[1], 6)))
                fs = [f for _, _, f in items]
                f1 = fs[0]
                units.append((s, 0, f1, f1))
                for i in range(1, len(fs)):
                    v = _pick_coupler(f1, fs[i], reduced.basis, struct, rng)
                    w = _pick_coupler(fs[i], f1, reduced.basis, struct, rng)
                    t_mat = v @ w + (np.eye(n) - f1)
                    if np.linalg.cond(t_mat) > 1e10:
                        raise NumericalFailureError("corner element is nearly singular")
                    y = f1 @ np.linalg.inv(t_mat) @ f1
                    e_1i = v
                    e_i1 = w @ y
                    if np.linalg.norm(e_1i @ e_i1 - f1) > 1e-6:
                        raise NumericalFailureError("matrix unit identity e1i*ei1 failed")
                    if np.linalg.norm(e_i1 @ e_1i - fs[i]) > 1e-6:
                        raise NumericalFailureError("matrix unit identity ei1*e1i failed")
                    units.append((s, i, e_1i, e_i1))
            y_mat = np.zeros((n, n), dtype=np.complex128)
            for _, _, e_1i, e_i1 in units:
                y_mat += bd_part(e_i1, struct) @ e_1i
            if np.linalg.norm(bd_part(y_mat, struct) - np.eye(n)) > 1e-6 * n:
                raise NumericalFailureError("intertwiner is not unit-diagonal")
            s_mat = np.linalg.inv(y_mat)
            # verify: conjugation absorbs the block-diagonal algebra
            moved = np.einsum("ab,ibc,cd->iad", y_mat, reduced.basis, s_mat)
            moved_space = subspace_from(moved, n=n, tol=reduced.tol)
            resid = membership_residuals(moved_space, bd.basis)
            if np.max(resid) > 1e-7:
                raise NumericalFailureError(
                    f"unhinged span does not contain the block-diagonal part "
                    f"(residual {np.max(resid):.2e})"
                )
            return s_mat
        except NumericalFailureError as exc:
            last_err = exc
    raise NumericalFailureError(f"unhinging failed after retries: {last_err}")


def wedderburn(alg: MatrixAlgebra, seed: int = 0) -> WedderburnData:
    """Full structural decomposition: flag, block-diagonal part, unhinging, radical."""
    struct = triangularize(alg, seed=seed)
    reduced = reduced_algebra(alg, struct)
    bd = bd_algebra(reduced, struct)
    s = unhinge(reduced, struct, bd, seed=seed)
    if np.allclose(s, np.eye(alg.n)):
        unhinged = reduced
    else:
        s_inv = np.linalg.inv(s)
        unhinged = MatrixAlgebra(
            space=subspace_from(s_inv @ reduced.basis @ s, n=alg.n, tol=alg.tol),
            unital=alg.unital,
        )
    rad = radical(unhinged)
    if bd.dim + rad.dim != unhinged.dim:
        raise NumericalFailureError(
            f"dimension split failed: bd {bd.dim} + rad {rad.dim} != {unhinged.dim}"
        )
    return WedderburnData(
        block=struct, reduced=reduced, bd=bd, unhinged=unhinged, s_unhinge=s, rad=rad
    )
