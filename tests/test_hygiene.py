"""Source hygiene, checked on the syntax tree: no unused module-level import,
rank_eps_factor turned into a rank cutoff only in matcore, one span equality
decision and one scalar-group scan in the classifier, single corners tested
only by certify, trials drawn only by the block cache, and no SVD in the
checker outside trial blocks and the corner kernel, and no random draw in the
checker outside the trial sampler, and one basis representation: a basis is
never re-stacked or split into a list; numpy's private linalg gufuncs are
reached only in checker._positive_definite. Also: the package imports
no scipy and no third-party module that pyproject does not declare, and a
classify request that builds Riesz projections leaves scipy unloaded."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corneralg import io, make_family, random_instance, wedderburn

SRC = Path(__file__).resolve().parents[1] / "src" / "corneralg"
MODULES = sorted(SRC.glob("*.py"))

# (module, qualified function) allowed to read Tolerance.rank_eps_factor: the
# scalar rank policy, its row-wise form, the Gram shift that certifies a full
# rank under it, and the validation of the field itself
RANK_FACTOR_READERS = {
    ("matcore", "numerical_rank"),
    ("matcore", "numerical_ranks"),
    ("matcore", "full_rank_shifts"),
    ("matcore", "Tolerance.__post_init__"),
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    """Names listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


class _Scoped(ast.NodeVisitor):
    """(qualified enclosing function, line) of every node that `hit` accepts."""

    def __init__(self, hit):
        self.hit = hit
        self.scope = []
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def generic_visit(self, node):
        if self.hit(node):
            self.found.append((".".join(self.scope), node.lineno))
        super().generic_visit(node)


def _found(path, hit):
    visitor = _Scoped(hit)
    visitor.visit(_tree(path))
    return visitor.found


def _reads_rank_factor(node):
    return (isinstance(node, ast.Attribute) and node.attr == "rank_eps_factor"
            and isinstance(node.ctx, ast.Load))


def _calls_equals(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "equals")


def _calls(name):
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def test_rank_cutoff_has_one_policy():
    stray = []
    for path in MODULES:
        stray += [f"{path.name}:{line} in {where or '<module>'}"
                  for where, line in _found(path, _reads_rank_factor)
                  if (path.stem, where) not in RANK_FACTOR_READERS]
    assert not stray, f"rank cutoffs outside matcore: {stray}"


def test_classifier_decides_span_equality_only_in_certify():
    # routes propose candidates; certify alone compares spans, in the input's
    # own coordinates
    calls = _found(SRC / "classifier.py", _calls_equals)
    stray = [f"classifier.py:{line} in {where or '<module>'}"
             for where, line in calls if where != "certify"]
    assert not stray, f"span equality outside certify: {stray}"
    assert any(where == "certify" for where, _ in calls)


def test_classifier_scans_for_scalar_groups_only_in_scalar_run():
    # the route reads every outer group off the two runs of _scalar_run
    calls = _found(SRC / "classifier.py", _calls("_corner_scalar"))
    stray = [f"classifier.py:{line} in {where or '<module>'}"
             for where, line in calls if where != "_scalar_run"]
    assert not stray, f"scalar tests outside _scalar_run: {stray}"
    assert any(where == "_scalar_run" for where, _ in calls)


def test_only_certify_tests_single_corners():
    # the witness search scores its candidates in the checker's batches
    calls = {(path.stem, where) for path in MODULES
             for where, _ in _found(path, _calls("corner_residual"))}
    assert calls == {("classifier", "certify")}, calls


def test_trials_are_drawn_only_through_the_trial_cache():
    # every check reads its trials from the cached blocks; no uncached path
    calls = {(path.stem, where) for path in MODULES
             for where, _ in _found(path, _calls("_draw_trials"))}
    assert calls == {("checker", "_block")}, calls


def _calls_any(names):
    """Calls to any of names, as a bare name or as an attribute (np.random.default_rng)."""
    def hit(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return ((isinstance(f, ast.Name) and f.id in names)
                or (isinstance(f, ast.Attribute) and f.attr in names))
    return hit


def test_checker_draws_randomness_only_in_the_trial_sampler():
    # the catalog is fixed; a random witness is a trial, drawn in _draw_trials
    calls = _found(SRC / "checker.py",
                   _calls_any({"default_rng", "haar_unitary", "random_similarity"}))
    stray = [f"checker.py:{line} in {where or '<module>'}"
             for where, line in calls if where != "_draw_trials"]
    assert not stray, f"random draws outside _draw_trials: {stray}"
    assert any(where == "_draw_trials" for where, _ in calls)


# where a given basis is coerced into the subspace's own read-only stack
BASIS_COERCERS = {("subalgebra", "MatrixSubspace.__post_init__")}


def _rebuilds_a_basis(node):
    """np.array, np.asarray, list or tuple called on a .basis attribute."""
    return _calls_any({"array", "asarray", "list", "tuple"})(node) and any(
        isinstance(arg, ast.Attribute) and arg.attr == "basis" for arg in node.args)


def test_one_basis_representation():
    # a basis is one (d, n, n) stack: every caller uses it as it is
    stray = [f"{path.name}:{line} in {where or '<module>'}" for path in MODULES
             for where, line in _found(path, _rebuilds_a_basis)
             if (path.stem, where) not in BASIS_COERCERS]
    assert not stray, f"a basis re-stacked or listed: {stray}"
    gone = {"vec", "unvec", "_basis_stack", "_stack"}
    defined = [f"{path.name}:{node.lineno} {node.name}" for path in MODULES
               for node in ast.walk(_tree(path))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in gone]
    assert not defined, f"second basis formats defined: {defined}"


def _calls_np_linalg(name):
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                         and node.func.attr == name
                         and ast.unparse(node.func.value) == "np.linalg")


def test_checker_factors_only_trial_blocks_and_single_corners():
    # catalog corners carry closed-form factors: the checker runs an SVD only
    # on a trial block, and in the corner kernel (a single corner's factors,
    # and each corner span)
    calls = {where for where, _ in _found(SRC / "checker.py", _calls_np_linalg("svd"))}
    assert calls == {"_factored", "_corner_residual_batch"}, calls


def _names_umath_linalg(node):
    """A name, attribute or import that mentions numpy's private _umath_linalg."""
    if isinstance(node, ast.Name):
        return "_umath_linalg" in node.id
    if isinstance(node, ast.Attribute):
        return "_umath_linalg" in node.attr
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
        return any("_umath_linalg" in name for name in names)
    return False


def test_private_linalg_gufuncs_only_in_positive_definite():
    # the Cholesky gufunc is private numpy API: one function holds it
    found = {(path.stem, where) for path in MODULES
             for where, _ in _found(path, _names_umath_linalg)}
    assert found == {("checker", "_positive_definite")}, found
    texts = [path.name for path in MODULES
             if "_umath_linalg" in path.read_text(encoding="utf-8")]
    assert texts == ["checker.py"], texts


def _imported_modules(tree):
    """(dotted module name, line) of every absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and ((isinstance(node.func, ast.Name) and node.func.id == "__import__")
                   or (isinstance(node.func, ast.Attribute)
                       and node.func.attr == "import_module"))):
            yield node.args[0].value, node.lineno


def test_package_imports_no_scipy():
    # Riesz projections are built by numpy alone; scipy serves only as a
    # test reference
    found = [f"{path.name}:{line} {name}" for path in MODULES
             for name, line in _imported_modules(_tree(path))
             if name.split(".")[0] == "scipy"]
    assert not found, found


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                for dep in pyproject["project"]["dependencies"]}
    imported = {name.split(".")[0] for path in MODULES
                for name, _ in _imported_modules(_tree(path))}
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "corneralg"}
    assert third_party == declared


def _child_env():
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_leaves_scipy_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, corneralg.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=_child_env(),
    )
    assert out.stdout.strip() == "False"


def test_classify_request_through_riesz_projections_leaves_scipy_unloaded(tmp_path):
    alg = random_instance(make_family("EX2", 5), disguise="similarity", seed=0)
    # the request must unhinge: the fast path builds no Riesz projection
    assert not np.allclose(wedderburn(alg).s_unhinge, np.eye(5))
    path = tmp_path / "ex2.json"
    io.write_algebra(path, alg)
    code = ("import sys; from corneralg import cli; "
            f"code = cli.main(['classify', {str(path)!r}]); "
            "print(code, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=_child_env())
    assert out.stdout.split()[-2:] == ["0", "False"], out.stdout
