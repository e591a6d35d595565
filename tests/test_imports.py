"""Every name a module of the package imports is used in that module, and
the exact paths leave numpy unimported.

No lint tool is a dependency, so this walks each module's syntax tree with
the standard library: an imported name counts as used when it occurs as a
name anywhere in the module or is listed in ``__all__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liedouble

MODULES = sorted(Path(liedouble.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


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
