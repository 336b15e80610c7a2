"""The benchmark's reference checks accept real outputs and reject corrupted ones.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import json

import numpy as np
import pytest

import reference as ref
import workloads
from corneralg import checker, classifier, cli, families, matcore, subalgebra
from corneralg import io as algio


def _family_case():
    base = workloads.Base("LR(2,3,1)n5", "LR_UNITAL", 5, {"ranks": (2, 3), "overlap": 1})
    s = matcore.random_similarity(5, np.random.default_rng([5, 1]), max_cond=1e3)
    return workloads._disguised(base, base.library(), s)


def _diagonal_case():
    t = np.diag([1.0, 2.0, 3.5j, -1.0])
    return workloads._generated("diag", t, np.random.default_rng([5, 2]))


@pytest.fixture(scope="module")
def family():
    case = _family_case()
    v = classifier.classify(case.alg, cross_validate=False)
    return case, v


@pytest.fixture(scope="module")
def diagonal():
    case = _diagonal_case()
    v = classifier.classify(case.alg, cross_validate=False)
    return case, v


def _replays(case, v, **changes):
    v = dataclasses.replace(v, **changes)
    return ref.verdict_replays(case.ref_mats, case.expected, v.compressible, family=v.family,
                               params=v.params, variant=v.variant,
                               similarity=v.similarity, witness=v.witness)


def test_real_certificate_replays(family):
    case, v = family
    assert v.compressible and _replays(case, v) is None


@pytest.mark.parametrize("scale", [1e-3, 1e-5])
def test_perturbed_certificate_similarity_is_rejected(family, scale):
    case, v = family
    rng = np.random.default_rng(9)
    noise = rng.standard_normal(v.similarity.shape) + 1j * rng.standard_normal(v.similarity.shape)
    bad = v.similarity + scale * np.linalg.norm(v.similarity) * noise
    assert _replays(case, v, similarity=bad) is not None


def test_certificate_naming_another_member_is_rejected(family):
    case, v = family
    assert _replays(case, v, params={"ranks": (2, 3), "overlap": 2}) is not None
    assert _replays(case, v, variant="anti") is not None


def test_real_witness_replays(diagonal):
    case, v = diagonal
    assert not v.compressible and _replays(case, v) is None


def test_identity_offered_as_witness_is_rejected(diagonal):
    case, v = diagonal
    assert _replays(case, v, witness=np.eye(4, dtype=np.complex128)) is not None


def test_non_idempotent_witness_is_rejected(diagonal):
    case, v = diagonal
    assert _replays(case, v, witness=2.0 * v.witness) is not None


def test_swapped_verdicts_are_rejected(family, diagonal):
    case, v = family
    assert _replays(case, v, compressible=False, witness=np.eye(5)) is not None
    case, v = diagonal
    assert _replays(case, v, compressible=True, family="DIAGONAL",
                    similarity=np.eye(4)) is not None


def test_expected_verdicts_follow_the_construction():
    assert ref.generator_compressible(np.diag([2.0, 2.0, 2.0, 5.0]))
    jordan = np.diag([1.0, 1.0, 1.0, 3.0]) + np.diag([1.0, 1.0, 0.0], 1)
    assert not ref.generator_compressible(jordan)  # rank(T - I) = 3
    rng = np.random.default_rng(3)
    for kind in workloads.GENERATOR_KINDS:
        for n in (4, 5, 6):
            assert not ref.generator_compressible(workloads.make_generator(kind, n, rng))
    for base in workloads.corpus_bases()[::20]:
        assert ref.sampled_corner_residual(base.reference(), rng, per_rank=1) <= ref.PASS_RESIDUAL
    assert ref.sampled_corner_residual(ref.canonical_member("DIAGONAL", 3), rng) > 1e-6


def test_reference_members_match_the_library():
    for base in workloads.corpus_bases()[::7]:
        lib = base.library()
        assert ref.same_span(list(lib.basis), base.reference()), base.label
    lib = subalgebra.transpose_variant(families.make_family("AT", 5, t=2.0), "anti")
    assert ref.same_span(list(lib.basis), ref.canonical_member("AT", 5, {"t": 2.0}, "anti"))


def _cli_reply(tmp_path, case, capsys):
    path = tmp_path / "alg.json"
    algio.write_algebra(path, case.alg)
    code = cli.main(["classify", str(path), "--format", "json", "--trials", "50"])
    return ref.read_file_mats(path), code, capsys.readouterr().out


def test_cli_reply_replays_and_a_wrong_exit_code_is_rejected(tmp_path, capsys):
    mats, code, out = _cli_reply(tmp_path, _family_case(), capsys)
    assert code == 0 and ref.cli_reply_replays(mats, True, code, out, trials=50) is None
    assert ref.cli_reply_replays(mats, True, 1, out) is not None
    assert ref.cli_reply_replays(mats, True, 3, out) is not None
    assert ref.cli_reply_replays(mats, True, code, out, trials=500) is not None
    doc = json.loads(out)
    doc["check"] = None
    assert ref.cli_reply_replays(mats, True, code, json.dumps(doc), trials=50) is not None
    mats, code, out = _cli_reply(tmp_path, _diagonal_case(), capsys)
    assert code == 1 and ref.cli_reply_replays(mats, False, code, out) is None
    assert ref.cli_reply_replays(mats, False, 0, out) is not None
    doc = json.loads(out)
    doc["witness"] = algio.matrix_to_pairs(np.eye(4))
    assert ref.cli_reply_replays(mats, False, code, json.dumps(doc)) is not None


def test_traced_kernel_corners_match_the_reports():
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        w = workloads.Corpus(0)
        case = _family_case()
        tr.begin_round(0)
        tr.active = True
        outcome = w.run_case(case)
        tr.active = False
        layers = tr.end_round()
    finally:
        tr.uninstall()
    assert outcome.error is None and outcome.problem is None
    assert layers["checker.kernel.corners"] == layers["checker.check.report_corners"] > 0
    assert layers["checker.sampler.idempotents"] == layers["checker.check.trials"] == 500
    assert layers["checker.kernel.self_s"] > 0
    assert not hasattr(checker._corner_residual_batch, "__wrapped__")  # uninstalled
