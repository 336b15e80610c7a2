"""The three workloads: their inputs, one decision each, and its reference check.

Inputs come from the workload seed alone. Each round transports the same
canonical bases (and generators) by fresh disguises drawn from
(seed, round, input index), and every decision gets a new algebra object,
so no memo or cached property carries over from an earlier round. The
pinned faults of `structural` are the one exception: they are fixed inputs
that fail on every run.

The library is called through its module attributes (``checker.X``, not an
imported ``X``) so that a traced run sees its own wrappers.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from corneralg import checker, classifier, cli, families, matcore, structure, subalgebra
from corneralg import io as algio

CORPUS_TRIALS = 500  # the acceptance fixture's trial count
CLI_TIMEOUT_S = 60  # a request takes about 1 s; a hang must not outlast a run

# ------------------------------------------------------------ the Tier-1 corpus


def _rank_splits_three(n):
    return [(r1, r2, n - r1 - r2) for r1 in range(n + 1) for r2 in range(n + 1 - r1)]


def _lr_shapes(n):
    return [(p, q, o) for p in range(1, n + 1) for q in range(1, n + 1)
            for o in range(0, min(p, q) + 1) if p - o + q <= n]


@dataclass(frozen=True)
class Base:
    """One canonical family member: how the library and the reference build it."""

    label: str
    family: str
    n: int
    params: dict = field(default_factory=dict)

    def library(self):
        kw = dict(self.params)
        if "ranks" in kw:
            kw["ranks"] = tuple(kw["ranks"])
        return families.make_family(self.family, self.n, **kw)

    def reference(self):
        return ref.canonical_member(self.family, self.n, self.params)

    @property
    def cost(self) -> int:
        """d^2 n^2: the size of one corner's product stack."""
        return ref.span_rows(self.reference()).shape[0] ** 2 * self.n ** 2


def corpus_bases() -> list:
    """The 221 bases of the Tier-1 positive corpus, in the fixture's order."""
    out = []
    for n in (4, 5, 6):
        for ranks in _rank_splits_three(n):
            out.append(Base(f"EX1{ranks}n{n}", "EX1", n, {"ranks": ranks}))
        for p, q, o in _lr_shapes(n):
            out.append(Base(f"LR({p},{q},{o})n{n}", "LR_UNITAL", n,
                            {"ranks": (p, q), "overlap": o}))
        out.append(Base(f"EX2n{n}", "EX2", n))
        out.append(Base(f"EX3n{n}", "EX3", n))
        for t in (0.0, 2.0, 1j):
            out.append(Base(f"AT(t={t})n{n}", "AT", n, {"t": t}))
    return out


# A stratified slice: every family at n = 4, 5, 6, from the cheapest corner
# stack (d^2 n^2 = 36) up to d = 25 (22500), as in the corpus, where bases
# above 12000 take 47% of the time. The count is odd so that the pooled
# median and p75 fall inside one input's cluster of times, not on the gap
# between two.
CORPUS_SLICE = (
    "EX1(0, 0, 6)n6", "LR(1,2,1)n4", "AT(t=1j)n4", "EX3n4", "EX1(1, 1, 2)n4",
    "EX2n5", "AT(t=0.0)n5", "LR(3,3,2)n5", "EX1(1, 2, 2)n5", "AT(t=2.0)n6",
    "LR(4,2,2)n6", "EX1(2, 2, 2)n6", "LR(4,6,4)n6",
)


# ------------------------------------------------------------ single generators


# Diagonal plus strictly upper with a repeated eigenvalue is left out: it
# fails now and then even under unitary disguises (see CHANGES.md).
GENERATOR_KINDS = ("diagonal", "triangular", "generic")


def _separated(vals, gap):
    d = np.abs(vals[:, None] - vals[None, :]) + np.eye(len(vals)) * 1e9
    return float(d.min()) >= gap


def make_generator(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A generator whose unital algebra is not compressible, by construction."""
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
        if _separated(vals, 0.3):
            return t


# ------------------------------------------------------------ cases and outcomes


@dataclass
class Case:
    """One input of one round."""

    label: str
    alg: object  # corneralg MatrixAlgebra
    ref_mats: list  # the same algebra, built by the reference alone
    expected: bool  # compressible, by construction
    pinned: bool = False
    path: str | None = None  # algebra file, for the cli workload


@dataclass
class Outcome:
    label: str
    seconds: float
    result: object = None
    error: str | None = None  # an exception: the operation failed
    problem: str | None = None  # a wrong or unreplayable output
    pinned: bool = False


def _disguised(base: Base, lib_base, s) -> Case:
    return Case(base.label, subalgebra.conjugate(lib_base, s),
                ref.transport(base.reference(), s), True)


def _generated(label, t, rng) -> Case:
    """The unital algebra of a generator moved by a fresh Haar unitary.

    Unitary, not merely bounded, disguises: under similarities of condition
    number up to 1e3 classify() fails on a seed-dependent share of these
    algebras (see the FOUND lines in CHANGES.md).
    """
    u = matcore.haar_unitary(t.shape[0], rng)
    t_in = u.conj().T @ t @ u
    return Case(label, subalgebra.generated_algebra([t_in]), ref.generated_mats(t_in), False)


# ------------------------------------------------------------ workloads


class Workload:
    def __init__(self, seed: int):
        self.seed = seed
        self.setup_notes: dict = {}

    def rng(self, *key) -> np.random.Generator:
        # SeedSequence ignores trailing zeros ([s, w, 0] and [s, w, 0, 0] draw
        # alike); a final 1 keeps every key distinct
        return np.random.default_rng([self.seed, *key, 1])

    def check_bases(self, bases, w: int) -> None:
        """Reference residuals of sampled corners of every rank, once per base."""
        rng = self.rng(w, 0)
        worst = {b.label: ref.sampled_corner_residual(b.reference(), rng) for b in bases}
        bad = {k: v for k, v in worst.items() if v > ref.PASS_RESIDUAL}
        if bad:
            raise RuntimeError(f"reference corners not closed on family bases: {bad}")
        self.setup_notes["reference_sampled_residual_max"] = max(worst.values())

    def draw_generators(self, specs, w: int) -> list:
        """(label, generator) for each (kind, n, k), checked non-compressible."""
        out = []
        for kind, n, k in specs:
            t = make_generator(kind, n, self.rng(w, 1, GENERATOR_KINDS.index(kind), n, k))
            if ref.generator_compressible(t):
                raise RuntimeError(f"{kind} generator came out compressible")
            out.append((f"gen-{kind}-n{n}-{k}", t))
        return out

    def cases(self, rnd: int) -> list:
        raise NotImplementedError

    def decide(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, result) -> str | None:
        raise NotImplementedError

    def run_case(self, case: Case) -> Outcome:
        t0 = time.perf_counter()
        try:
            result = self.decide(case)
        except Exception as exc:  # a failed operation is counted, not fatal
            return Outcome(case.label, time.perf_counter() - t0,
                           error=f"{type(exc).__name__}: {exc}", pinned=case.pinned)
        out = Outcome(case.label, time.perf_counter() - t0, result=result, pinned=case.pinned)
        out.problem = self.check(case, result)
        return out


def _verdict_problem(case: Case, v, certified: bool) -> str | None:
    if not certified:
        return "certify() rejected the library's own verdict"
    return ref.verdict_replays(case.ref_mats, case.expected, v.compressible, family=v.family,
                               params=v.params, variant=v.variant,
                               similarity=v.similarity, witness=v.witness)


class Corpus(Workload):
    """The acceptance fixture's per-instance work on a stratified corpus slice."""

    def __init__(self, seed: int):
        super().__init__(seed)
        by_label = {b.label: b for b in corpus_bases()}
        self.bases = [by_label[label] for label in CORPUS_SLICE]
        self.lib_bases = [b.library() for b in self.bases]
        self.check_bases(self.bases, 1)
        self.setup_notes["inputs"] = [{"label": b.label, "d2n2": b.cost} for b in self.bases]

    def cases(self, rnd):
        out = []
        for i, (base, lib) in enumerate(zip(self.bases, self.lib_bases)):
            rng = self.rng(1, rnd, i)
            # the fixture alternates unitary and similarity disguises
            s = (matcore.haar_unitary(base.n, rng) if i % 2 == 0
                 else matcore.random_similarity(base.n, rng, max_cond=50.0))
            out.append(_disguised(base, lib, s))
        return out

    def decide(self, case):
        alg = case.alg
        wd = structure.wedderburn(alg)
        rep = checker.check_compressible(alg, trials=CORPUS_TRIALS, struct=wd.block)
        v = classifier.classify(alg, cross_validate=False, wd=wd)
        certified = classifier.certify(alg, v)
        fold = checker.fold_corner(alg) if alg.n % 2 == 0 else None
        return rep, v, certified, fold

    def check(self, case, result):
        rep, v, certified, fold = result
        if not (rep.consistent and rep.mode == "idempotent"
                and rep.trials_run == CORPUS_TRIALS and rep.catalog_corners > 0):
            return (f"check report: consistent={rep.consistent} trials={rep.trials_run} "
                    f"catalog={rep.catalog_corners}")
        if fold is not None:
            if not fold.closed:
                return f"fold not closed (defect {fold.defect:.2e})"
            defect = ref.fold_defect(case.ref_mats)
            if defect > ref.VIOLATION_RESIDUAL:
                return f"reference fold defect {defect:.2e}"
        return _verdict_problem(case, v, certified)


# Pinned faults of `structural`: fixed inputs, independent of the workload
# seed, that the program fails on every run (see README.md).
MISROUTE = ("LR_UNITAL", 5, {"ranks": (3, 1), "overlap": 1}, [22, 77])
UNHINGE_FAILURES = (4, 17, 40)  # indices into every 4th corpus base


class Structural(Workload):
    """classify(cross_validate=False) + certify on disguised family members,
    non-compressible single-generator algebras, and the pinned faults."""

    # At condition numbers up to 1e3 classify() fails on a seed-dependent few
    # of these members (see the FOUND lines in CHANGES.md); up to 1e2 none
    # failed in 16800 decisions.
    max_cond = 1e2
    generators_per_kind = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bases = corpus_bases()[::4]
        self.lib_bases = [b.library() for b in self.bases]
        self.check_bases(self.bases, 2)
        self.generators = self.draw_generators(
            [(kind, n, k) for kind in GENERATOR_KINDS for n in (4, 5, 6)
             for k in range(self.generators_per_kind)], 2)
        self.pinned = self._pinned()

    def _pinned(self):
        out = []
        fam, n, params, key = MISROUTE
        base = Base("misroute-LR(3,1,1)n5", fam, n, params)
        s = matcore.random_similarity(n, np.random.default_rng(key), max_cond=1e4)
        out.append((base, base.library(), s))
        for i in UNHINGE_FAILURES:
            base = self.bases[i]
            s = matcore.random_similarity(base.n, np.random.default_rng([22, i]), max_cond=1e4)
            out.append((Base(f"unhinge-{base.label}", base.family, base.n, base.params),
                        self.lib_bases[i], s))
        return out

    def cases(self, rnd):
        out = []
        for i, (base, lib) in enumerate(zip(self.bases, self.lib_bases)):
            s = matcore.random_similarity(base.n, self.rng(2, rnd, i), max_cond=self.max_cond)
            out.append(_disguised(base, lib, s))
        for j, (label, t) in enumerate(self.generators):
            out.append(_generated(label, t, self.rng(2, rnd, len(self.bases) + j)))
        for base, lib, s in self.pinned:
            case = _disguised(base, lib, s)
            case.pinned = True
            out.append(case)
        return out

    def decide(self, case):
        v = classifier.classify(case.alg, cross_validate=False)
        return v, classifier.certify(case.alg, v)

    def check(self, case, result):
        v, certified = result
        return _verdict_problem(case, v, certified)


# Seven files a round, four compressible: with an odd count the pooled median
# falls inside one input's cluster of request times, not on the gap between
# the non-compressible and the compressible requests.
CLI_FAMILIES = ("EX3n4", "EX2n5", "LR(3,3,2)n5", "AT(t=2.0)n6")
CLI_GENERATORS = (("diagonal", 4, 0), ("generic", 5, 0), ("triangular", 6, 0))


class Cli(Workload):
    """One fresh `python -m corneralg.cli classify FILE --format json` per request."""

    def __init__(self, seed: int, workdir: str, env: dict, in_process: bool = False):
        super().__init__(seed)
        self.workdir = workdir
        self.env = env
        self.in_process = in_process
        by_label = {b.label: b for b in corpus_bases()}
        self.bases = [by_label[label] for label in CLI_FAMILIES]
        self.lib_bases = [b.library() for b in self.bases]
        self.check_bases(self.bases, 3)
        self.generators = self.draw_generators(CLI_GENERATORS, 3)
        self.written = {}

    def write_round(self, rnd: int) -> None:
        """Write one round's files (set-up writes them ahead of the timed rounds)."""
        cases = []
        for i, (base, lib) in enumerate(zip(self.bases, self.lib_bases)):
            s = matcore.random_similarity(base.n, self.rng(3, rnd, i), max_cond=50.0)
            cases.append(_disguised(base, lib, s))
        for j, (label, t) in enumerate(self.generators):
            cases.append(_generated(label, t, self.rng(3, rnd, len(self.bases) + j)))
        for i, case in enumerate(cases):
            case.path = os.path.join(self.workdir, f"r{rnd:04d}-{i}.json")
            algio.write_algebra(case.path, case.alg, {"label": case.label})
            # the reference reads back exactly what the program will read
            case.ref_mats = ref.read_file_mats(case.path)
            case.alg = None
        self.written[rnd] = cases

    def cases(self, rnd):
        if rnd not in self.written:
            self.write_round(rnd)
        return self.written.pop(rnd)

    def argv(self, case):
        return ["classify", case.path, "--format", "json"]

    def decide(self, case):
        if self.in_process:
            buf = _stdio.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv(case))
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "corneralg.cli", *self.argv(case)],
                              env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def check(self, case, result):
        code, stdout = result
        return ref.cli_reply_replays(case.ref_mats, case.expected, code, stdout,
                                     trials=CORPUS_TRIALS)
