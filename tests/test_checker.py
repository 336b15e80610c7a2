"""Witness catalog, randomized corner trials, folding."""

import sys
import threading
from itertools import combinations
from math import comb

import numpy as np
import pytest

from corneralg import checker
from corneralg.checker import (
    PASS_RESIDUAL,
    VIOLATION_RESIDUAL,
    _block_trials,
    _corner_residual_batch,
    _block,
    _draw_trials,
    _frames,
    _sample_batch,
    check_compressible,
    corner_residual,
    fold_corner,
    witness_catalog,
)
from corneralg.families import make_family, random_instance
from corneralg.matcore import _RANK_FLOOR, ShapeMismatchError, haar_unitary
from corneralg.structure import triangularize
from corneralg.subalgebra import algebra_from_span, generated_algebra


def eij(n, i, j):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def two_jordan_cells():
    # elements a(E11+E22) + bE12 + c(E33+E44) + dE34
    n = 4
    return algebra_from_span(
        [eij(n, 0, 0) + eij(n, 1, 1), eij(n, 0, 1), eij(n, 2, 2) + eij(n, 3, 3), eij(n, 2, 3)]
    )


def three_dim_radical():
    # span{I, E14, E23, E24}
    n = 4
    return algebra_from_span([np.eye(n), eij(n, 0, 3), eij(n, 1, 2), eij(n, 1, 3)])


# ---------------------------------------------------------------- catalog


def test_catalog_entries_are_projections_with_expected_ranks():
    cat4 = dict(witness_catalog(4))
    assert len(cat4) == 9
    ranks = {name: int(round(np.trace(p).real)) for name, p in cat4.items()}
    assert ranks["rank2-fold"] == 2
    assert all(r == 3 for name, r in ranks.items() if name.startswith("rank3"))
    for p in cat4.values():
        assert np.linalg.norm(p @ p - p) < 1e-13
        assert np.linalg.norm(p - p.conj().T) < 1e-13
    cat3 = witness_catalog(3)
    assert len(cat3) == 1 and int(round(np.trace(cat3[0][1]).real)) == 2
    assert witness_catalog(5) == []
    for (a, p), (b, q) in combinations(witness_catalog(4), 2):
        assert not np.allclose(p, q, atol=1e-12), (a, b)


def test_outer_pair_identity_for_block_upper():
    # for any (2,2) block upper A: ((QAQ)^2)[2,1] == 8 A[0,1] A[2,3],
    # with Q the unscaled integer matrix of the rank3-outer-pair entry
    q = 2.0 * dict(witness_catalog(4))["rank3-outer-pair"]
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a[2:, :2] = 0.0
        lhs = np.linalg.matrix_power(q @ a @ q, 2)[2, 1]
        rhs = 8.0 * a[0, 1] * a[2, 3]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("d", [3, 4])
def test_folded_square_is_rank_one(d):
    # P = 2I with the middle 2x2 block replaced by ones; A couples the outer
    # groups through the middle; then (PAP)^2 = 8 E[0, 2d-2]
    n = 2 * d
    p = 2.0 * np.eye(n)
    p[d - 1 : d + 1, d - 1 : d + 1] = 1.0
    assert np.linalg.norm((p / 2) @ (p / 2) - p / 2) < 1e-13
    a = np.zeros((n, n))
    a[0, d] = 1.0
    a[d - 1, 2 * d - 2] = 1.0
    m = np.linalg.matrix_power(p @ a @ p, 2)
    expected = np.zeros((n, n))
    expected[0, 2 * d - 2] = 8.0
    assert np.allclose(m, expected, atol=1e-12)


def test_catalog_entries_carry_an_orthonormal_range_basis():
    for n in (3, 4):
        for name, p, q in checker._witness_catalog(n):
            np.testing.assert_allclose(q @ q.conj().T, p, rtol=0, atol=1e-14, err_msg=name)
            np.testing.assert_allclose(q.conj().T @ q, np.eye(q.shape[1]), rtol=0, atol=1e-14,
                                       err_msg=name)
            assert not q.flags.writeable


# ---------------------------------------------------------------- refutations


def test_two_jordan_cells_refuted_in_identity_frame():
    alg = two_jordan_cells()
    p = dict(witness_catalog(4))["rank3-outer-pair"]
    assert corner_residual(alg, p) > 1e-3
    report = check_compressible(alg, trials=50, seed=0)
    assert not report.consistent
    v = report.first_violation()
    assert v.kind.startswith("catalog:")
    # the recorded witness replays
    assert corner_residual(alg, v.witness) > 1e-6


def test_catalog_witnesses_are_copies():
    # a witness owns its memory: it keeps no frame batch alive and no report shares it
    reports = [check_compressible(two_jordan_cells(), trials=0, seed=s, stop_on_violation=False)
               for s in (0, 1)]
    witnesses = [v.witness for r in reports for v in r.violations]
    assert len(reports[0].violations) >= 2
    assert all(w.base is None for w in witnesses)
    for a, b in combinations(witnesses, 2):
        assert not np.shares_memory(a, b)


def test_three_dim_radical_refuted_by_inner_pair():
    alg = three_dim_radical()
    p = dict(witness_catalog(4))["rank3-inner-pair"]
    assert corner_residual(alg, p) > 1e-3
    report = check_compressible(alg, trials=50, seed=0)
    assert not report.consistent


def test_diagonal_m3_needs_random_frames():
    alg = make_family("DIAGONAL", 3)
    p = witness_catalog(3)[0][1]
    # in the identity frame this corner is closed; random frames refute
    assert corner_residual(alg, p) < 1e-12
    report = check_compressible(alg, trials=2000, seed=0)
    assert not report.consistent
    assert corner_residual(alg, report.first_violation().witness) > 1e-6


def test_violations_reproducible_and_collectable():
    alg = two_jordan_cells()
    r1 = check_compressible(alg, trials=40, seed=3, use_catalog=False)
    r2 = check_compressible(alg, trials=40, seed=3, use_catalog=False)
    assert not r1.consistent and not r2.consistent
    assert r1.first_violation().index == r2.first_violation().index
    full = check_compressible(alg, trials=40, seed=3, use_catalog=False,
                              stop_on_violation=False)
    assert len(full.violations) >= 2
    assert full.trials_run == 40


# ---------------------------------------------------------------- positives


@pytest.mark.parametrize("tag,kw", [
    ("EX1", {"ranks": (1, 2, 1)}),
    ("EX2", {}),
    ("EX3", {}),
    ("AT", {"t": 2.0}),
    ("LR_UNITAL", {"ranks": (2, 2)}),
    ("FULL", {}),
])
def test_positive_families_pass_trials(tag, kw):
    alg = random_instance(make_family(tag, 4, **kw), "unitary", seed=11)
    report = check_compressible(alg, trials=80, seed=2)
    assert report.consistent, report.first_violation()
    assert report.indeterminate == 0
    assert report.trials_run == 80


def test_projection_mode_only_samples_projections():
    alg = make_family("SCALAR", 4)
    report = check_compressible(alg, mode="projection", trials=30, seed=0)
    assert report.consistent
    with pytest.raises(ValueError):
        check_compressible(alg, mode="unitary")


# ---------------------------------------------------------------- samplers


def test_samplers_produce_idempotents():
    es, _, kinds = _sample_batch(4, "idempotent", seed=6, t0=0, bsz=12)
    for t, (e, kind) in enumerate(zip(es, kinds)):
        assert kind == ("idempotent" if t % 2 else "projection")
        assert np.linalg.norm(e @ e - e) < 1e-10
        assert abs(np.trace(e).real - (1 + t % 3)) < 1e-8
        if kind == "projection":
            assert np.linalg.norm(e - e.conj().T) < 1e-12
    # one substream per trial: a later window redraws the same idempotents
    later, _, _ = _sample_batch(4, "idempotent", seed=6, t0=5, bsz=4)
    assert np.allclose(later, es[5:9], rtol=0, atol=1e-14)


def _reference_sample_batch(n, mode, seed, t0, bsz):
    """The sampler with two Gaussian draws per complex matrix and a QR of three
    matrices per trial, identities padding a projection. Kept as the reference
    for the one-draw sampler, whose output must be bit-identical."""
    kinds = []
    colmask = np.zeros((bsz, 1, n))
    gin = np.empty((bsz, 3, n, n), dtype=np.complex128)
    conds = np.ones(bsz)
    idem = np.zeros(bsz, dtype=bool)
    for k in range(bsz):
        t = t0 + k
        rng = np.random.default_rng([seed, t])
        colmask[k, 0, : 1 + t % (n - 1)] = 1.0
        gin[k, 0] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if mode != "projection" and t % 2 == 1:
            idem[k] = True
            gin[k, 1] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            gin[k, 2] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            conds[k] = rng.uniform(1.0, 50.0)
        else:
            gin[k, 1] = np.eye(n)
            gin[k, 2] = np.eye(n)
        kinds.append("idempotent" if idem[k] else "projection")
    q, r = np.linalg.qr(gin.reshape(bsz * 3, n, n))
    d = np.diagonal(r, axis1=1, axis2=2)
    q = (q * (d / np.abs(d))[:, None, :]).reshape(bsz, 3, n, n)
    v = q[:, 0] * colmask
    es = v @ v.conj().transpose(0, 2, 1)
    if np.any(idem):
        sing = np.geomspace(1.0, conds[idem], n, axis=-1)
        s = (q[idem, 1] * sing[:, None, :]) @ q[idem, 2]
        es[idem] = s @ es[idem] @ np.linalg.inv(s)
    return es, kinds


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("mode", ["idempotent", "projection"])
def test_sampler_matches_reference_bitwise(n, mode):
    for t0 in (0, 177, 256):
        for bsz in (1, 4, 200):
            es, _, kinds = _sample_batch(n, mode, seed=9, t0=t0, bsz=bsz)
            ref_es, ref_kinds = _reference_sample_batch(n, mode, 9, t0, bsz)
            assert np.array_equal(es, ref_es), (t0, bsz)
            assert kinds == ref_kinds


# ---------------------------------------------------------------- trial cache


def _assert_window_matches_draw(n, mode, seed, t0, bsz):
    es, svd, _ = _sample_batch(n, mode, seed, t0, bsz)
    drawn = _draw_trials(n, mode, seed, t0, bsz)
    assert np.array_equal(es, drawn), (n, t0, bsz)
    # the cached factors are those of the window, bit for bit
    for cached, fresh in zip(svd, np.linalg.svd(drawn), strict=True):
        assert np.array_equal(cached, fresh), (n, t0, bsz)


@pytest.mark.parametrize("n", [4, 5, 6, 26])
@pytest.mark.parametrize("mode", ["idempotent", "projection"])
def test_cached_trials_match_the_draw_bitwise(n, mode):
    size = _block_trials(n)
    _block.cache_clear()
    # inside a block, across one edge, across several, and past trial 2048;
    # cold, then warm
    windows = [(0, 1), (3, size - 3), (size - 2, 4), (size - 1, 2 * size + 2), (2045, 9)]
    for t0, bsz in windows + windows:
        _assert_window_matches_draw(n, mode, 5, t0, bsz)
    # a check's walk in chunks that do not divide the block
    for chunk in (17, 177):
        for t0 in range(0, 520, chunk):
            _assert_window_matches_draw(n, mode, chunk, t0, chunk)


def _block_bytes(n):
    """es, u and vh of 16 n^2 bytes a corner, and s of 8 n."""
    return _block_trials(n) * (3 * 16 * n * n + 8 * n)


def test_trial_cache_bounds():
    # 256 blocks of 64 KB of trial idempotents and their factors: at most
    # 54.5 MB for n <= 64
    assert _block.cache_info().maxsize == 256
    assert [_block_trials(n) for n in (4, 6, 26, 64, 65)] == [256, 113, 6, 1, 1]
    assert all(16 * n * n * _block_trials(n) <= 65536 for n in range(2, 65))
    assert max(_block_bytes(n) for n in range(2, 65)) == _block_bytes(2) == 212992
    assert 256 * _block_bytes(2) <= 64e6
    block = _block(6, "idempotent", 3, 0)
    assert block[0].nbytes == 16 * 6 * 6 * 113
    assert sum(x.nbytes for x in block) == _block_bytes(6)


def test_shared_blocks_are_read_only():
    block = _block(4, "idempotent", 3, 0)
    es, svd, _ = _sample_batch(4, "idempotent", 3, 5, 9)
    for window, whole in zip((es, *svd), block, strict=True):
        assert np.shares_memory(window, whole)
        for arr in (whole, window):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(ValueError):
            window.flags.writeable = True


def test_trial_cache_serves_concurrent_windows():
    # four threads on three keys of a cold cache, windows within and across
    # blocks, under a short switch interval
    _block.cache_clear()
    errors = []

    def worker(w):
        try:
            for i in range(40):
                seed, t0 = (w + i) % 3, (37 * i) % 600
                _assert_window_matches_draw(4, "idempotent", seed, t0, 9)
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]


def _fields(report):
    return (report.mode, report.seed, report.requested_trials, report.trials_run,
            report.catalog_corners, report.indeterminate,
            [(v.kind, v.index, v.witness.tobytes(), v.residual) for v in report.violations])


def _uncached_sample_batch(n, mode, seed, t0, bsz):
    # no factors: the kernel computes its own SVD
    kinds = ["idempotent" if i else "projection" for i in checker._twisted(mode, t0, bsz)]
    return _draw_trials(n, mode, seed, t0, bsz), None, kinds


@pytest.mark.parametrize("stop", [True, False])
@pytest.mark.parametrize("tag,use_catalog", [("DIAGONAL", True), ("DIAGONAL", False),
                                             ("EX2", True)])
def test_reports_identical_cold_warm_evicted_and_uncached(monkeypatch, tag, use_catalog, stop):
    alg = random_instance(make_family(tag, 4), "similarity", seed=7)
    kw = dict(trials=300, seed=41, use_catalog=use_catalog, stop_on_violation=stop)
    _block.cache_clear()
    cold = _fields(check_compressible(alg, **kw))
    assert bool(cold[6]) == (tag == "DIAGONAL")
    assert _fields(check_compressible(alg, **kw)) == cold
    _block.cache_clear()
    check_compressible(alg, **dict(kw, trials=9))  # a short check, then the full one
    assert _fields(check_compressible(alg, **kw)) == cold
    monkeypatch.setattr(checker, "_sample_batch", _uncached_sample_batch)
    assert _fields(check_compressible(alg, **kw)) == cold


def _assert_kernel_factors_match_fresh(basis, es, tol, svd):
    """The kernel on cached factors against the kernel factoring es itself, bitwise."""
    got = _corner_residual_batch(basis, es, tol, svd)
    fresh = _corner_residual_batch(basis, np.array(es), tol)
    for a, b in zip(got, fresh, strict=True):
        assert np.array_equal(a, b)
    return got


@pytest.mark.parametrize("mode", ["idempotent", "projection"])
def test_trial_factors_match_the_kernel_run_without_them(mode):
    n = 5
    size = _block_trials(n)
    algs = [random_instance(make_family(tag, n), "similarity", seed=8)
            for tag in ("DIAGONAL", "EX2")]
    windows = [(0, 1), (3, size - 3), (size - 2, 4), (size - 1, 2 * size + 2)]
    _block.cache_clear()
    for t0, bsz in windows + windows:  # cold, then warm
        es, svd, _ = _sample_batch(n, mode, 7, t0, bsz)
        for alg in algs:
            _assert_kernel_factors_match_fresh(checker._basis_stack(alg), es, alg.tol, svd)


def _reference_catalog_batches(n, u, seed):
    """The catalog's batches from one frame list per size: coordinate frames,
    flag frames, then six Haar frames, all sizes drawing from one generator."""
    rng = np.random.default_rng([seed, 999])
    eye = np.eye(n, dtype=np.complex128)
    batches = []
    for size in (3, 4):
        cat = witness_catalog(size)
        if size > n or not cat:
            continue
        frames = [eye[:, list(idx)] for idx in combinations(range(n), size)]
        if u is not None:
            frames += [u[:, list(idx)] for idx in combinations(range(n), size)]
        frames += [haar_unitary(n, rng)[:, :size] for _ in range(6)]
        batches += [np.array([f @ p @ f.conj().T for f in frames]) for _, p in cat]
    return batches


@pytest.mark.parametrize("flag", [False, True])
def test_catalog_factors_match_the_kernel_run_without_them(monkeypatch, flag):
    # a catalog corner's closed-form factors (F q, 1, (F q)*) and the SVD the
    # kernel computes span the same range in different bases, so residuals
    # agree to rounding, not bit for bit; dims and verdicts agree exactly
    n, seed = 9, 5
    # three orthogonal projections of rank 3 span an algebra of dimension 3, so
    # no corner of rank 2 or 3 spans all of M_k and every batch forms products
    w = haar_unitary(n, np.random.default_rng(3))
    alg = generated_algebra([w.conj().T @ np.diag(np.repeat([0.0, 1.0, 2.0], 3)) @ w])
    assert alg.dim == 3
    u = haar_unitary(n, np.random.default_rng(4)) if flag else None
    batches = []

    def compare(basis, es, tol, svd=None):
        assert svd is not None
        got = _corner_residual_batch(basis, es, tol, svd)
        rel, dims = _corner_residual_batch(basis, np.array(es), tol)
        np.testing.assert_allclose(got[0], rel, rtol=0, atol=1e-13)
        assert np.array_equal(got[1], dims)
        for cut in (PASS_RESIDUAL, VIOLATION_RESIDUAL):
            assert np.array_equal(got[0] > cut, rel > cut)
        batches.append((np.array(es), got[0]))
        return got

    monkeypatch.setattr(checker, "_corner_residual_batch", compare)
    reference = _reference_catalog_batches(n, u, seed)
    corners = checker._catalog_pass(alg, u, seed, [], False)
    assert corners == sum(map(len, reference))
    assert len(batches) == len(reference)
    for (es, _), want in zip(batches, reference):
        assert np.array_equal(es, want)
    assert all(np.all(rel > VIOLATION_RESIDUAL) for _, rel in batches)


def test_a_warm_repeat_check_factors_no_algebra_independent_corner(monkeypatch):
    factored, given = [], []
    factor, kernel = checker._factored, checker._corner_residual_batch

    def counted(es):
        factored.append(len(es))
        return factor(es)

    def spy(basis, es, tol, svd=None):
        given.append(svd is not None)
        return kernel(basis, es, tol, svd)

    draws = []
    haar = checker.haar_unitary
    monkeypatch.setattr(checker, "haar_unitary", lambda *a: draws.append(a[0]) or haar(*a))
    monkeypatch.setattr(checker, "_factored", counted)
    monkeypatch.setattr(checker, "_corner_residual_batch", spy)
    n = 5
    _block.cache_clear()
    for seed in (7, 8):  # two disguises of one algebra, each with its own flag frame
        alg = random_instance(make_family("EX2", n), "similarity", seed=seed)
        draws.clear()
        report = check_compressible(alg, trials=500, seed=43, struct=triangularize(alg))
        assert report.consistent and report.trials_run == 500
        # 5 + 5 flag corners per size-4 entry, 10 + 10 for size 3, each with 6 Haar frames
        assert report.catalog_corners == 9 * 16 + 26
        # six Haar frames for each of the two sizes, drawn on every catalog pass
        assert draws == [n] * 12
        if seed == 7:
            # a cold check factors its four trial blocks and nothing else
            assert factored == [_block_trials(n)] * 4
            factored.clear()
    assert factored == []
    assert given and all(given)


def test_a_repeat_check_at_n14_factors_nothing(monkeypatch):
    # C(14, 4) = 1001 coordinate frames: the catalog pass builds its corners
    # itself and reads no block, so it cannot evict the check's trial blocks
    n = 14
    factored, catalog_reads, in_catalog = [], [], []
    factor, block, catalog = checker._factored, checker._block, checker._catalog_pass

    def counted(es):
        factored.append(len(es))
        return factor(es)

    def block_spy(*args):
        if in_catalog:
            catalog_reads.append(args)
        return block(*args)

    def catalog_spy(*args):
        in_catalog.append(True)
        try:
            return catalog(*args)
        finally:
            in_catalog.pop()

    monkeypatch.setattr(checker, "_factored", counted)
    monkeypatch.setattr(checker, "_block", block_spy)
    monkeypatch.setattr(checker, "_catalog_pass", catalog_spy)
    alg = make_family("SCALAR", n)
    block.cache_clear()
    first = _fields(check_compressible(alg, trials=100))
    assert first[4] == 9 * (comb(n, 4) + 6) + comb(n, 3) + 6 and not first[6]
    assert factored == [_block_trials(n)] * 5
    factored.clear()
    assert _fields(check_compressible(alg, trials=100)) == first
    assert factored == []
    assert catalog_reads == []


def test_editing_a_witness_leaves_later_checks_unchanged():
    alg = make_family("DIAGONAL", 4)
    kw = dict(trials=40, seed=44, use_catalog=False)
    first = check_compressible(alg, **kw)
    expected = _fields(first)
    first.first_violation().witness[...] = 0.0
    assert _fields(check_compressible(alg, **kw)) == expected


def test_negative_trials_rejected():
    alg = make_family("DIAGONAL", 4)
    with pytest.raises(ValueError, match="trials"):
        check_compressible(alg, trials=-5, use_catalog=False)
    # zero trials runs the catalog alone
    report = check_compressible(alg, trials=0)
    assert report.trials_run == 0 and report.catalog_corners > 0


def _reference_corner_kernel(basis, es, rank_eps_factor):
    """The corner kernel on full n x n corners: the products (E a E)(E b E)
    formed one by one, span, ranks and residuals on vectorized n x n
    matrices. Kept as the reference for the k x k kernel."""
    bsz, n, _ = es.shape
    d = basis.shape[0]
    eb = es[:, None]
    corners = eb @ basis[None] @ eb
    cvec = corners.reshape(bsz, d, n * n)
    _, s, vh = np.linalg.svd(cvec, full_matrices=False)
    lead = np.maximum(rank_eps_factor * s[:, :1], _RANK_FLOOR)
    rmask = s > lead
    vh_masked = vh * rmask[:, :, None]
    prods = corners[:, :, None] @ corners[:, None, :]
    pvec = prods.reshape(bsz, d * d, n * n)
    coeffs = pvec @ vh_masked.conj().transpose(0, 2, 1)
    recon = coeffs @ vh_masked
    resid = np.linalg.norm(pvec - recon, axis=2)
    scale = np.maximum(1.0, np.linalg.norm(pvec, axis=2))
    rel = resid / scale
    return rel.max(axis=1), rmask.sum(axis=1)


def _band(rel):
    """0: pass, 1: indeterminate, 2: violation."""
    return (rel > PASS_RESIDUAL).astype(int) + (rel > VIOLATION_RESIDUAL)


def _assert_kernel_matches_reference(alg, es):
    # a change of frame moves roundoff, so residuals agree to 1e-12, not bitwise;
    # ranks and the pass / indeterminate / violation band must not move
    basis = np.array(alg.basis)
    rel, rank = _corner_residual_batch(basis, es, alg.tol)
    ref_rel, ref_rank = _reference_corner_kernel(basis, es, alg.tol.rank_eps_factor)
    assert np.array_equal(rank, ref_rank)
    assert np.max(np.abs(rel - ref_rel)) <= 1e-12
    assert np.array_equal(_band(rel), _band(ref_rel))
    return rel, rank


@pytest.mark.parametrize("tag,kw", [
    ("EX1", {"ranks": (1, 2, 2)}),
    ("FULL", {}),
    ("LR_UNITAL", {"ranks": (3, 2), "overlap": 1}),
    ("DIAGONAL", {}),
])
def test_corner_kernel_matches_reference_formula(tag, kw):
    alg = random_instance(make_family(tag, 5, **kw), "similarity", seed=8)
    for mode in ("idempotent", "projection"):
        es, _, _ = _sample_batch(5, mode, seed=1, t0=0, bsz=64)
        _assert_kernel_matches_reference(alg, es)


def test_corner_kernel_matches_reference_on_a_full_chunk():
    # LR(4,6,4) at n=6 has d=25, the corpus's largest corner stack;
    # check_compressible runs it in chunks of 177 trials
    alg = random_instance(make_family("LR_UNITAL", 6, ranks=(4, 6), overlap=4), "similarity",
                          seed=3)
    assert alg.dim == 25
    es, _, _ = _sample_batch(6, "idempotent", seed=5, t0=0, bsz=177)
    _assert_kernel_matches_reference(alg, es)


def test_corner_kernel_matches_reference_on_catalog_frames():
    # the catalog pass sends one batch per entry, every corner of one rank
    rng = np.random.default_rng(21)
    compressible = random_instance(make_family("EX1", 6, ranks=(2, 2, 2)), "similarity", seed=2)
    for alg, expected_bands in ((compressible, {0}), (two_jordan_cells(), {0, 2})):
        n = alg.n
        frames = _frames(np.eye(n, dtype=np.complex128), 4) + _frames(haar_unitary(n, rng), 4)
        frames += [haar_unitary(n, rng)[:, :4] for _ in range(6)]
        bands = set()
        for _, p in witness_catalog(4):
            es = np.array([f @ p @ f.conj().T for f in frames])
            rel, _ = _assert_kernel_matches_reference(alg, es)
            bands |= set(_band(rel).tolist())
        assert bands == expected_bands


def test_corner_kernel_zero_and_identity_corners():
    # one batch mixing E = 0, ranks 1..n-1 and E = I: several rank groups
    n = 5
    alg = random_instance(make_family("EX1", n, ranks=(1, 2, 2)), "similarity", seed=8)
    es, _, _ = _sample_batch(n, "idempotent", seed=4, t0=0, bsz=n - 1)
    es = np.concatenate([np.zeros((1, n, n), dtype=np.complex128), es,
                         np.eye(n, dtype=np.complex128)[None]])
    rel, rank = _assert_kernel_matches_reference(alg, es)
    assert rel[0] == 0.0 and rank[0] == 0
    assert rank[-1] == alg.dim
    assert np.all(rank[1:] > 0)


def test_corner_kernel_full_corners_are_closed_without_products():
    # a corner spanning all of M_k, k = rank E, has residual exactly 0 and
    # dimension k^2: every rank-1 corner of a unital algebra, every corner of FULL
    n = 5
    full = random_instance(make_family("FULL", n), "similarity", seed=8)
    es, _, _ = _sample_batch(n, "idempotent", seed=2, t0=0, bsz=16)
    k = np.linalg.matrix_rank(es)
    rel, rank = _assert_kernel_matches_reference(full, es)
    assert np.array_equal(rank, k * k) and np.all(rel == 0.0)
    ex1 = random_instance(make_family("EX1", n, ranks=(1, 2, 2)), "similarity", seed=8)
    rel, rank = _assert_kernel_matches_reference(ex1, es)
    assert np.all(rank[k == 1] == 1) and np.all(rel[k == 1] == 0.0)
    # one rank-2 group of coordinate projections and a Haar projection:
    # corners inside one block of EX1 span M_2, the others do not
    alg = make_family("EX1", n, ranks=(1, 2, 2))
    es = np.array([np.diag(np.isin(np.arange(n), c)).astype(np.complex128)
                   for c in combinations(range(n), 2)])
    sampled, _, _ = _sample_batch(n, "projection", seed=2, t0=1, bsz=1)
    es = np.concatenate([es, sampled])
    rel, rank = _assert_kernel_matches_reference(alg, es)
    assert set(rank.tolist()) == {1, 3, 4}
    assert np.all(rel[rank == 4] == 0.0)


def test_corner_kernel_open_corner_with_fewer_generators_than_k_squared():
    # a single generator at n = 6 spans d = 6 < k^2 = 25 for a rank-5 corner:
    # the span's complement needs the full right singular frame
    g = np.random.default_rng(0).standard_normal((6, 6))
    alg = generated_algebra([g])
    assert alg.dim == 6
    es, _, _ = _sample_batch(6, "idempotent", seed=0, t0=4, bsz=1)
    assert np.linalg.matrix_rank(es[0]) == 5
    rel, rank = _assert_kernel_matches_reference(alg, es)
    assert rank[0] == 6 and rel[0] > VIOLATION_RESIDUAL


def test_corner_residual_rejects_a_misshapen_idempotent():
    alg = make_family("DIAGONAL", 4)
    with pytest.raises(ShapeMismatchError):
        corner_residual(alg, np.ones(4))
    with pytest.raises(ShapeMismatchError):
        corner_residual(alg, np.eye(3))


# ---------------------------------------------------------------- folding


def test_fold_corner_flags_shear_pair():
    # span{I, E14, E23}: the aligned fold is span{I, E12, E21}, not closed
    n = 4
    alg = algebra_from_span([np.eye(n), eij(n, 0, 3), eij(n, 1, 2)])
    report = fold_corner(alg)
    assert not report.closed
    assert report.defect > 1e-3
    assert report.dim == 3


def test_fold_corner_closed_on_compressible_families():
    for tag, kw in [("EX2", {}), ("EX3", {}), ("AT", {"t": 1j}),
                    ("EX1", {"ranks": (1, 2, 1)}), ("LR_UNITAL", {"ranks": (2, 2)})]:
        alg = make_family(tag, 4, **kw)
        assert fold_corner(alg).defect < 1e-8, tag


def test_fold_corner_random_frames_on_compressible():
    alg = random_instance(make_family("EX2", 6), "unitary", seed=4)
    rng = np.random.default_rng(13)
    for _ in range(3):
        u = haar_unitary(6, rng)
        v1, v2 = u[:, :3], u[:, 3:]
        q1 = v1 @ v1.conj().T
        e = v2 @ v1.conj().T
        assert fold_corner(alg, q1, e).defect < 1e-8


def test_fold_corner_rejects_misshapen_inputs():
    alg = make_family("EX2", 4)
    q1, e = checker._aligned_fold(4)
    for args in ((np.eye(2), e), (q1, np.eye(2)), (np.eye(2), np.zeros((2, 2)))):
        with pytest.raises(ShapeMismatchError, match="4 x 4"):
            fold_corner(alg, *args)


def test_fold_corner_validates_inputs():
    alg = make_family("EX2", 5)
    with pytest.raises(ValueError, match="even"):
        fold_corner(alg)
    alg4 = make_family("EX2", 4)
    with pytest.raises(ValueError):
        fold_corner(alg4, np.eye(4), None)
    bad_q = np.diag([1.0, 1.0, 1.0, 0.0])
    e = np.zeros((4, 4))
    with pytest.raises(ValueError):
        fold_corner(alg4, bad_q, e)
