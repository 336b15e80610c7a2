"""Source hygiene, checked on the syntax tree: no unused module-level import,
and one place that turns rank_eps_factor into a rank cutoff. Also: importing
the command line does not import scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "corneralg"
MODULES = sorted(SRC.glob("*.py"))

# (module, qualified function) allowed to read Tolerance.rank_eps_factor: the
# scalar rank policy, its batched form in the corner kernel, and the
# validation of the field itself
RANK_FACTOR_READERS = {
    ("matcore", "numerical_rank"),
    ("matcore", "Tolerance.__post_init__"),
    ("checker", "_corner_residual_batch"),
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


class _FactorReads(ast.NodeVisitor):
    def __init__(self):
        self.scope = []
        self.reads = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Attribute(self, node):
        if node.attr == "rank_eps_factor" and isinstance(node.ctx, ast.Load):
            self.reads.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def test_rank_cutoff_has_one_policy():
    stray = []
    for path in MODULES:
        visitor = _FactorReads()
        visitor.visit(_tree(path))
        stray += [f"{path.name}:{line} in {where or '<module>'}"
                  for where, line in visitor.reads
                  if (path.stem, where) not in RANK_FACTOR_READERS]
    assert not stray, f"rank cutoffs outside matcore.numerical_rank: {stray}"


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported where a Riesz projection is built: a request that
    # builds none does not pay for it
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, corneralg.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.stdout.strip() == "False"
