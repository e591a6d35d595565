"""The ledger of the abstract's claims, ``tools/paper_claims.py``, against
its committed output and the test functions it cites."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_ledger():
    path = ROOT / "tools" / "paper_claims.py"
    spec = importlib.util.spec_from_file_location("paper_claims", path)
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    return ledger


def defined_tests(source: str) -> set:
    """Names of the top-level ``test_*`` functions of a test module."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }


def missing_tests(ids) -> list:
    """The ids ``tests/<file>::<name>`` whose file defines no test function
    of that name."""
    out = []
    for test_id in ids:
        path, name = test_id.split("::")
        file = ROOT / path
        if not (file.is_file() and name in defined_tests(file.read_text())):
            out.append(test_id)
    return out


def test_ledger_matches_the_committed_one(capsys):
    # an intended change of a claim's state or checks regenerates
    # tests/data/paper_claims.txt
    assert load_ledger().main() == 0
    got = capsys.readouterr().out.splitlines()
    assert got == (ROOT / "tests" / "data" / "paper_claims.txt").read_text().splitlines()


def test_ledger_cites_only_defined_test_functions():
    claims = load_ledger().CLAIMS
    ids = [test_id for _, _, tests, _ in claims for test_id in tests]
    assert ids and missing_tests(ids) == []


def test_checker_flags_a_missing_test_function():
    assert defined_tests("def test_a():\n    pass\ndef helper():\n    pass\n") == {"test_a"}
    assert missing_tests([
        "tests/test_paper_claims.py::test_ledger_matches_the_committed_one",
        "tests/test_paper_claims.py::test_no_such_function",
        "tests/no_such_file.py::test_a",
    ]) == ["tests/test_paper_claims.py::test_no_such_function", "tests/no_such_file.py::test_a"]
