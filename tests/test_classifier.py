"""Decision tree routing, certificates, witness replay, single-generator verdicts."""

import dataclasses

import numpy as np
import pytest

from corneralg import checker, classifier
from corneralg.checker import corner_residual
from corneralg.classifier import (
    certify,
    classify,
    classify_generated,
)
from corneralg.families import make_family, random_instance
from corneralg.matcore import haar_unitary, random_similarity
from corneralg.subalgebra import (
    algebra_from_span,
    conjugate,
    generated_algebra,
    transpose_variant,
    unitize,
)


def eij(n, i, j):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def assert_orthogonal_projection(w):
    # W = W*, W^2 = W and ||W||_2 = 1: the witness refutes both notions at once
    assert np.linalg.norm(w - w.conj().T, 2) <= 1e-12
    assert np.linalg.norm(w @ w - w, 2) <= 1e-12
    assert abs(np.linalg.norm(w, 2) - 1.0) <= 1e-12


def linked_pair():
    # {A (+) A : A in M_2} + C I, one isotypic class of multiplicity two
    blocks = [np.kron(np.eye(2), eij(2, i, j)) for i in range(2) for j in range(2)]
    return algebra_from_span(blocks + [np.eye(4)])


def two_jordan_cells():
    return algebra_from_span([np.eye(4), eij(4, 0, 1) + eij(4, 2, 3)])


def double_eigenvalues():
    return algebra_from_span(
        [np.diag([1, 1, 0, 0]).astype(complex), np.diag([0, 0, 1, 1]).astype(complex)]
    )


def full_diagonal():
    return algebra_from_span([np.diag(row).astype(complex) for row in np.eye(4)])


def split_radical_defect():
    # span{I, E14, E23, E24}: radical too small to factor through one corner
    return algebra_from_span([np.eye(4), eij(4, 0, 3), eij(4, 1, 2), eij(4, 1, 3)])


def big_block_with_a_split_outer_group():
    # span{E11, E22, E55} + M_2 on {3, 4}: the group before the big block is not scalar
    units = [eij(5, i, i) for i in (0, 1, 4)]
    return algebra_from_span(units + [eij(5, i, j) for i in (2, 3) for j in (2, 3)])


def misplaced_nilpotent():
    # span{I, E44, E12}: the nilpotent couples two coordinates inside one class
    return algebra_from_span([np.eye(4), eij(4, 3, 3), eij(4, 0, 1)])


# ---------------------------------------------------------------- trivial dims


def test_scalar_and_full_settled_for_every_size():
    v = classify(make_family("SCALAR", 5))
    assert v.compressible and v.family == "SCALAR"
    assert v.type_path == "trivial-scalar"
    assert v.check is not None and v.check.consistent
    w = classify(make_family("FULL", 4), trials=60)
    assert w.compressible and w.family == "FULL"
    assert w.type_path == "trivial-full"
    # small n is fine while the dimension alone decides
    assert classify(make_family("SCALAR", 3)).compressible
    assert classify(make_family("FULL", 2), trials=40).compressible


def test_input_validation():
    with pytest.raises(ValueError):
        classify(make_family("LR", 4, ranks=(2, 2)))  # not unital
    with pytest.raises(ValueError):
        classify(make_family("DIAGONAL", 3))  # structured routing needs n >= 4


# ---------------------------------------------------------------- certificates


@pytest.mark.parametrize(
    "tag,kw,n,path,params",
    [
        ("EX1", {"ranks": (1, 3, 1)}, 5, "unique-k-ex1", {"ranks": (1, 3, 1)}),
        ("EX1", {"ranks": (1, 1, 2)}, 4, "three-groups-ex1", {"ranks": (1, 1, 2)}),
        ("EX1", {"ranks": (2, 0, 2)}, 4, "split-ex1", {"ranks": (2, 0, 2)}),
        ("EX2", {}, 4, "three-groups-hinged", {"ranks": (1, 1, 2)}),
        ("EX2", {}, 5, "three-groups-hinged", {"ranks": (1, 1, 3)}),
        ("EX3", {}, 5, "three-groups-ex3", {"ranks": (1, 1, 3)}),
        ("LR_UNITAL", {"ranks": (2, 2)}, 5, "split-lr",
         {"ranks": (2, 2), "overlap": 0}),
        ("LR_UNITAL", {"ranks": (2, 2), "overlap": 1}, 4, "three-groups-lr",
         {"ranks": (2, 2), "overlap": 1}),
        ("LR_UNITAL", {"ranks": (1, 2), "overlap": 1}, 4, "split-lr",
         {"ranks": (1, 2), "overlap": 1}),
        ("LR_UNITAL", {"ranks": (2, 3), "overlap": 2}, 5, "unique-k-extreme",
         {"ranks": (2, 3), "overlap": 2}),
        ("LR_UNITAL", {"ranks": (1, 1), "overlap": 1}, 4, "split-lr",
         {"ranks": (1, 1), "overlap": 1}),
    ],
)
def test_family_routes_and_recovered_parameters(tag, kw, n, path, params):
    alg = make_family(tag, n, **kw)
    v = classify(alg, trials=120)
    assert v.compressible and v.family == tag and v.variant == "id"
    assert v.type_path == path
    for key, val in params.items():
        assert v.params[key] == val
    assert certify(alg, v)
    assert v.check is not None and v.check.consistent


def test_similarity_disguise_recovers_family_and_ranks():
    base = make_family("EX1", 5, ranks=(1, 3, 1))
    moved = random_instance(base, disguise="similarity", seed=7)
    v = classify(moved, trials=120)
    assert v.compressible and v.family == "EX1"
    assert v.params["ranks"] == (1, 3, 1)
    assert certify(moved, v)


def test_transpose_variants_detected():
    anti3 = transpose_variant(make_family("EX3", 5), "anti")
    v = classify(anti3, trials=120)
    assert v.family == "EX3" and v.variant == "anti"
    assert v.type_path == "three-groups-ex3-anti"
    assert certify(anti3, v)
    tr2 = transpose_variant(make_family("EX2", 4), "transpose")
    w = classify(tr2, trials=120)
    assert w.family == "EX2" and w.variant == "anti"
    assert w.type_path == "three-groups-hinged-anti"
    assert certify(tr2, w)


def test_unitized_corner_module_matches_direct_construction():
    alg = unitize(make_family("LR", 4, ranks=(2, 2)))
    v = classify(alg, trials=120)
    assert v.family == "LR_UNITAL"
    assert v.params == {"ranks": (2, 2), "overlap": 0}
    assert certify(alg, v)


def test_corner_module_with_overlap_pinned_at_last_coordinate():
    # free coordinate between the rows and the shared row/column index
    alg = algebra_from_span([np.eye(4), eij(4, 0, 3), eij(4, 1, 3), eij(4, 3, 3)])
    v = classify(alg, trials=120)
    assert v.compressible and v.family == "LR_UNITAL"
    assert v.params == {"ranks": (3, 1), "overlap": 1}
    assert certify(alg, v)


@pytest.mark.parametrize("n,p,seed", [(4, 3, 2), (5, 4, 0), (6, 5, 5)])
def test_single_column_overlap_modules_survive_disguise(n, p, seed):
    # flag orderings that park the shared index last used to defeat routing
    base = make_family("LR_UNITAL", n, ranks=(p, 1), overlap=1)
    kind = "unitary" if seed % 2 == 0 else "similarity"
    alg = random_instance(base, disguise=kind, seed=seed)
    v = classify(alg, seed=seed, trials=120)
    assert v.compressible and v.family == "LR_UNITAL"
    assert v.params == {"ranks": (p, 1), "overlap": 1}
    assert certify(alg, v)


@pytest.mark.parametrize("disguise", ["none", "similarity"])
def test_big_block_in_last_position_is_an_extreme_corner_module(disguise):
    # EX1 with an empty third group is the corner module M_5 P with rank P = 3
    alg = random_instance(make_family("EX1", 5, ranks=(2, 3, 0)), disguise, seed=3)
    v = classify(alg, trials=120)
    assert v.compressible and v.family == "LR_UNITAL" and v.type_path == "unique-k-extreme"
    assert v.params == {"ranks": (5, 3), "overlap": 3}
    assert certify(alg, v)


# ---------------------------------------------------------------- hinge


def test_hinge_modulus_recovered_from_unitary_disguise():
    # a diagonal phase conjugation rotates the hinge, so |t| is the invariant
    for t, want in [(2.0, 2.0), (1j, 1.0)]:
        alg = random_instance(make_family("AT", 4, t=t), disguise="unitary", seed=3)
        v = classify(alg, trials=120)
        assert v.compressible and v.family == "AT"
        assert v.t is not None and v.t.imag == 0.0 and v.t.real > 0
        assert abs(v.t - want) < 1e-6
        assert v.params["t"] == v.t
        assert certify(alg, v)


def test_hinge_zero_is_reported_as_the_pinched_family():
    alg = random_instance(make_family("AT", 4, t=0.0), disguise="unitary", seed=3)
    v = classify(alg, trials=120)
    assert v.family == "EX2" and v.t is None


def test_hinge_family_survives_general_similarity():
    # |t| is not a similarity invariant; the family and certificate are
    alg = random_instance(make_family("AT", 4, t=2.0), disguise="similarity", seed=5)
    v = classify(alg, trials=120)
    assert v.compressible and v.family == "AT"
    assert v.t is not None and v.t.real > 0
    assert certify(alg, v)


# ---------------------------------------------------------------- refutations


@pytest.mark.parametrize(
    "builder,path",
    [
        (linked_pair, "nonunique-k"),
        (full_diagonal, "nonunique-k"),
        (double_eigenvalues, "split-defect"),
        (two_jordan_cells, "split-defect"),
        (split_radical_defect, "split-defect"),
        (misplaced_nilpotent, "three-groups-defect"),
        (big_block_with_a_split_outer_group, "nonunique-k"),
    ],
)
def test_refutations_carry_a_replaying_witness(builder, path):
    alg = builder()
    v = classify(alg)
    assert not v.compressible and v.family is None
    assert v.type_path == path
    assert v.witness is not None
    assert corner_residual(alg, v.witness) > 1e-6
    assert certify(alg, v)
    assert_orthogonal_projection(v.witness)
    assert v.witness_source == "projection" or v.witness_source.startswith("catalog:")


def test_refutation_witness_deterministic_for_fixed_seed():
    v1 = classify(linked_pair(), seed=2)
    v2 = classify(linked_pair(), seed=2)
    assert v1.type_path == v2.type_path
    assert np.allclose(v1.witness, v2.witness, atol=1e-12)


def test_witness_fallback_samples_through_the_checker():
    # the search is a projection-mode check in the input's own coordinates
    alg = random_instance(make_family("DIAGONAL", 4), "similarity", seed=5)
    hit = classifier._find_witness(alg, None, seed=0)
    assert hit is not None
    assert_orthogonal_projection(hit.witness)
    assert corner_residual(alg, hit.witness) > 1e-6
    assert classifier._find_witness(make_family("EX1", 4), None, seed=0) is None


def make_generator(kind, n, rng):
    """A generator whose unital algebra is not compressible: n eigenvalues at
    least 0.3 apart (the benchmark's `perfbench.workloads.make_generator`)."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    while True:
        if kind == "generic":
            t = cplx(n, n)
            vals = np.linalg.eigvals(t)
        else:
            vals = cplx(n)
            t = np.diag(vals)
            if kind == "triangular":
                t = t + np.triu(cplx(n, n), 1)
        gaps = np.abs(vals[:, None] - vals[None, :]) + 1e9 * np.eye(n)
        if gaps.min() >= 0.3:
            return t


GENERATOR_KINDS = ("diagonal", "triangular", "generic")


@pytest.mark.parametrize("n", (4, 5, 6))
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generated_algebras_are_refuted_by_orthogonal_projections(kind, n):
    for k in range(4):
        t = make_generator(kind, n, np.random.default_rng([777, n, k, GENERATOR_KINDS.index(kind)]))
        s = random_similarity(n, np.random.default_rng([778, n, k, 2]), max_cond=1e2)
        alg = generated_algebra([np.linalg.solve(s, t @ s)])
        v = classify(alg, seed=k, cross_validate=False)
        assert not v.compressible, (kind, n, k)
        assert certify(alg, v), (kind, n, k)
        assert_orthogonal_projection(v.witness)


def test_witness_search_runs_in_batched_corner_tests(monkeypatch):
    # the whole search is a few catalog batches, not one kernel call per candidate
    t = make_generator("generic", 6, np.random.default_rng([779, 6]))
    u = haar_unitary(6, np.random.default_rng([779, 7]))
    alg = generated_algebra([u.conj().T @ t @ u])
    kernel, calls = checker._corner_residual_batch, []

    def counted(*args):
        calls.append(args[1].shape[0])
        return kernel(*args)

    monkeypatch.setattr(checker, "_corner_residual_batch", counted)
    v = classify(alg, cross_validate=False)
    assert not v.compressible
    assert 1 <= len(calls) <= 2, calls


@pytest.mark.parametrize(
    "n,kw,key,max_cond,path",
    [
        (5, {"ranks": (3, 1), "overlap": 1}, [22, 77], 1e4, "three-groups-lr"),
        (4, {"ranks": (1, 1), "overlap": 1}, [555, 1, 4], 1e3, "split-lr"),
        (6, {"ranks": (3, 4), "overlap": 2}, [555, 2, 45], 1e4, "unique-k-lr"),
        (4, {"ranks": (3, 4), "overlap": 3}, [555, 1, 9], 1e5, "unique-k-extreme"),
    ],
)
def test_lr_unital_under_an_ill_conditioned_similarity_is_certified(n, kw, key, max_cond, path):
    # the disguise amplifies roundoff in the unhinged coordinates past rel_eps;
    # the certificate still replays in the input's own coordinates, where the
    # span decision is made
    s = random_similarity(n, np.random.default_rng(key), max_cond=max_cond)
    alg = conjugate(make_family("LR_UNITAL", n, **kw), s)
    v = classify(alg, cross_validate=False)
    assert v.compressible and v.family == "LR_UNITAL" and v.type_path == path
    assert v.params == {"ranks": kw["ranks"], "overlap": kw["overlap"]}
    assert certify(alg, v)


# ---------------------------------------------------------------- replay audit


def test_certificate_rejects_tampered_similarity():
    alg = make_family("EX2", 4)
    v = classify(alg, cross_validate=False)
    assert v.check is None
    assert certify(alg, v)
    # right-multiplying by a non-normalizing element must break the replay
    bad = dataclasses.replace(
        v, similarity=v.similarity @ (np.eye(4) + 0.3 * eij(4, 2, 0))
    )
    assert not certify(alg, bad)


def test_refutation_rejects_a_non_violating_witness():
    alg = two_jordan_cells()
    v = classify(alg)
    bad = dataclasses.replace(v, witness=np.eye(4))
    assert not certify(alg, bad)
    empty = dataclasses.replace(v, witness=None)
    assert not certify(alg, empty)


def test_refutation_rejects_a_non_idempotent_witness():
    # a Gaussian W leaves {W a W} unclosed on a compressible algebra, but
    # W^2 != W, so W witnesses nothing
    alg = make_family("EX2", 4)
    v = classify(alg, cross_validate=False)
    w = np.random.default_rng(5).standard_normal((4, 4))
    assert np.linalg.norm(w @ w - w) > 1.0
    assert corner_residual(alg, w) > 1e-6
    bad = dataclasses.replace(v, compressible=False, witness=w)
    assert not certify(alg, bad)


# ---------------------------------------------------------------- random sweep


@pytest.mark.parametrize("s", range(8))
def test_random_generated_algebras_classify_cleanly(s):
    rng = np.random.default_rng([77, s])
    k = 1 + s % 3
    gens = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for _ in range(k)]
    if s % 4 == 0:
        # conjugated triangular patterns exercise the non-full routes
        gens = [np.triu(g) for g in gens]
        u = haar_unitary(4, rng)
        gens = [u.conj().T @ g @ u for g in gens]
    alg = generated_algebra(gens)
    v = classify(alg, seed=s, trials=120)
    assert certify(alg, v)
    if not v.compressible:
        assert corner_residual(alg, v.witness) > 1e-6


# ---------------------------------------------------------------- one generator


def test_generated_verdicts_follow_the_spectral_criterion():
    v = classify_generated(1.5 * np.eye(4) + eij(4, 0, 1))
    assert v.unital_compressible and v.nonunital_compressible
    assert abs(v.alpha - 1.5) < 1e-9
    assert v.structural is not None and v.structural.compressible

    v = classify_generated(np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex))
    assert v.unital_compressible and not v.nonunital_compressible
    assert v.zero_simple

    v = classify_generated(eij(4, 0, 1) + eij(4, 1, 2))
    assert not v.unital_compressible and not v.nonunital_compressible
    assert v.structural is not None and not v.structural.compressible

    v = classify_generated(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    assert not v.unital_compressible

    v = classify_generated(np.zeros((4, 4), dtype=complex))
    assert v.unital_compressible and v.nonunital_compressible
    assert v.nonunital_check is None  # the zero algebra has nothing to test


def test_generated_small_sizes_use_trial_checks_only():
    v = classify_generated(eij(3, 0, 1))
    assert v.unital_compressible and v.nonunital_compressible
    assert v.structural is None
    assert v.unital_check is not None and v.unital_check.consistent


def test_generated_input_validation():
    with pytest.raises(ValueError):
        classify_generated(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        classify_generated(np.zeros((2, 3)))
