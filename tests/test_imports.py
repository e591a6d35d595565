"""Every name a module of the package or of the tests imports is used in
that module, every public top-level function or class is used outside the
tests, and the exact paths leave numpy unimported.

No lint tool is a dependency, so this walks each module's syntax tree with
the standard library: an imported name counts as used when it occurs as a
name anywhere in the module or is listed in ``__all__``; a public name, a
public method or property of a class, or a private top-level function,
counts as used when code in ``src/``, ``bench/`` or ``tools/`` reads it as
an attribute, imports it, or names it in the module that defines it (a
mention in a docstring, or a local variable of the same name in another
module, does not count).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liedouble

MODULES = sorted(Path(liedouble.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))

# Public names that only the tests call, each kept for a reason.
TEST_ONLY = {
    "annihilator": "h^⊥ in the double, a construction of the paper",
    "is_semidirect": "the semidirect-product split of a bracket table, from the paper",
    "is_lagrangian": "reference route that classify is tested against",
    "is_subalgebra": "reference route that classify is tested against",
    "solve_in_span": "reference route that the Bareiss kernel is tested against",
    "change_basis": "applies the catalog basis changes",
    "algebras_equal": "compares the catalog basis changes with published algebras",
    "chart_inverse": "oracle of test_invariance_oracle_all_fields",
    "generator_matrix": "oracle of test_invariance_oracle_all_fields",
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom typing import Any, List\n"
        "x: List = j.loads('[]')\n"
    )
    assert unused_imports(source) == ["Any", "os"]


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES],
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def public_definitions(source: str) -> set:
    """Names of the public top-level functions and classes of a module."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def referenced_names(source: str) -> set:
    """Names a module uses: as an attribute, in an import, or as a bare name
    of a top-level function or class the module defines.  A bare name of
    anything else is a use only of what the module imports under it, which
    the import already counts, or of a local name of its own."""
    tree = ast.parse(source)
    names, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used |= {a.name.split(".")[-1] for a in node.names}
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    return used | (names & defined)


def test_reference_checker_ignores_docstrings():
    source = (
        '"""Calls helper."""\n'
        'def helper():\n    """helper"""\n'
        "class _Private:\n    pass\n"
    )
    assert public_definitions(source) == {"helper"}
    assert "helper" not in referenced_names(source)
    assert {"helper", "dumps"} <= referenced_names(
        "from .x import helper\nimport json\njson.dumps(1)\n"
    )
    # a bare name counts only in the module that defines or imports it, so
    # a local variable does not keep a function of another module in use
    assert "point" not in referenced_names("point = {'eta': 1.0}\nf(point)\n")
    assert "point" in referenced_names("def point():\n    pass\nx = point()\n")
    assert "point" in referenced_names("from .charts import point\nx = point()\n")


def test_public_names_are_used_outside_the_tests():
    sources = [
        path.read_text()
        for folder in ("src", "bench", "tools")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    defined = set().union(
        *(public_definitions(p.read_text()) for p in (ROOT / "src").rglob("*.py"))
    )
    used = set().union(*(referenced_names(source) for source in sources))
    unused = defined - used
    assert sorted(unused - set(TEST_ONLY)) == []
    assert sorted(set(TEST_ONLY) - unused) == []  # the list is not stale


# Public class members that only the tests call, each kept for a reason.
TEST_ONLY_MEMBERS = {
    "canonical_r_skew": "the paper's canonical r of D(g), from which the so22 "
    "r-matrices are to be derived (ROADMAP item 2)",
    "basis_change": "the catalog's basis changes, which nothing in src/ applies "
    "yet (CHANGES.md, FOUND on basis_changes; ROADMAP item 2)",
}


def public_members(source: str) -> set:
    """Names of the public methods and properties of the top-level classes
    of a module."""
    return {
        item.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def test_public_members_are_used_outside_the_tests():
    assert public_members(
        "class A:\n    def run(self):\n        pass\n"
        "    @property\n    def size(self):\n        pass\n"
        "    def __len__(self):\n        pass\n"
        "def top():\n    pass\n"
    ) == {"run", "size"}
    defined = set().union(
        *(public_members(p.read_text()) for p in (ROOT / "src").rglob("*.py"))
    )
    used = set().union(
        *(
            referenced_names(path.read_text())
            for folder in ("src", "bench", "tools")
            for path in sorted((ROOT / folder).rglob("*.py"))
        )
    )
    unused = defined - used
    assert sorted(unused - set(TEST_ONLY_MEMBERS)) == []
    assert sorted(set(TEST_ONLY_MEMBERS) - unused) == []  # the list is not stale


def private_functions(source: str) -> set:
    """Names of the private top-level functions of a module."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }


def test_private_functions_are_used_outside_the_tests():
    # a helper left behind when its callers are deleted is flagged, even
    # while a test still imports it
    assert private_functions(
        "def _helper():\n    pass\nclass _Private:\n    pass\ndef public():\n    pass\n"
    ) == {"_helper"}
    defined = set().union(
        *(private_functions(p.read_text()) for p in (ROOT / "src").rglob("*.py"))
    )
    used = set().union(
        *(
            referenced_names(path.read_text())
            for folder in ("src", "bench", "tools")
            for path in sorted((ROOT / folder).rglob("*.py"))
        )
    )
    assert sorted(defined - used) == []


def scalar_format_uses(source: str, may_import_q: bool = False) -> list:
    """Lines at which a module reaches into the exact scalar format: it
    imports ``fractions`` or exactalg's ``Q`` (unless ``may_import_q``), or
    reads ``.numerator`` or ``.denominator``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "fractions" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "fractions" or (
                not may_import_q and any(a.name == "Q" for a in node.names)
            )
        else:
            hit = isinstance(node, ast.Attribute) and node.attr in (
                "numerator", "denominator"
            )
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_exactalg_knows_the_scalar_format():
    # a PolyExpr is integer terms over one denominator; only exactalg reads
    # or builds its coefficients as Fractions, and __init__ re-exports Q
    assert scalar_format_uses(
        "import fractions\nfrom .exactalg import PolyExpr, Q\n"
        "q.denominator == 1 and q.numerator in (1, -1)\n"
    ) == [1, 2, 3, 3]
    assert scalar_format_uses("from .exactalg import Q\n", may_import_q=True) == []
    found = {
        path.name: scalar_format_uses(path.read_text(), path.name == "__init__.py")
        for path in MODULES
        if path.name != "exactalg.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_exact_paths_do_not_import_numpy():
    # numpy is imported only where a numeric chart is evaluated
    probe = (
        "import sys, liedouble.cli, liedouble.catalog\n"
        "liedouble.catalog.load().get('so22-twisted')\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(liedouble.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
