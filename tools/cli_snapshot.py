"""Fingerprint the CLI's output on a fixed command list.

Run from anywhere:  python3 tools/cli_snapshot.py

Each command runs in-process through ``liedouble.cli.main`` (from this
checkout's ``src``) and gives one line ``sha256  exit  argv``.  The hash
covers stdout and stderr, less the wall-clock ``elapsed:`` line.  Running
the script on two checkouts and diffing the outputs shows whether a change
kept the CLI byte-identical.  ``tests/data/cli_snapshot.txt`` holds the
output, and a test compares a fresh run with it; a change meant to alter the
output regenerates that file.

The list: ``validate catalog:<key>`` for every catalog key, ``double <key>
--iterate`` for every bialgebra, ``verify-brackets --seed 42``, each in
text and json; ``classify`` of the basis-label subalgebras of so22-r1 and
so22-twisted, and of the ``CLASSIFY_PI`` cases (constant, eta and
non-antisymmetric π, recombined generators, h not a subalgebra, an adapted
basis with a Laurent inverse and one without), in text and json;
``classify`` of the nine cells of the paper's sl(2,R) table
(``SL2_TABLE``), in text and json; and
``validate`` of two invalid files this script writes to a temporary
directory, an algebra that violates Jacobi and a bialgebra whose
cocommutator is not a cobracket, and of two targets there that cannot be
read, a directory and a file that is not UTF-8, in text and json; last,
``classify`` of two generators with a space inside a number or a label
(``SPACED_GENERATORS``), which are input errors, in text and json.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from liedouble import catalog, cli

FORMATS = (["--format", "text"], ["--format", "json"])
SO22_SUBALGEBRAS = ("span{J,K1,K2}", "span{J,P1,P2}", "span{P0,P1,K1}", "span{P0,P2,K2}")
# classify with a base-point π: (bialgebra, subalgebra, π rows or None)
CLASSIFY_PI = (
    ("sl2-hyp", "span{J12}", [[0, 1], [-1, 0]]),            # closes
    ("sl2-hyp", "span{P1}", [[0, "1/2"], ["-1/2", 0]]),
    ("sl2-eta", "span{X1}", [[0, "eta"], ["-eta", 0]]),
    ("sl2-eta", "span{X0}", [[0, "2*eta"], ["-2*eta", 0]]),
    ("sl2-hyp", "span{J12}", [[0, 1], [0, 0]]),             # not Lagrangian
    ("sl2-eta", "span{X1}", [["eta", 0], [0, 0]]),          # closes, not Lagrangian
    ("sl2-hyp", "span{}", [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
    ("so22-twisted", "span{J+K1}", None),
    ("so22-twisted", "span{J+K1,P0-2*K2}", None),
    ("so22-twisted", "span{K1}",                            # only [X, X] fails
     [[0, 0, 0, 0, -1], [0, 0, "eta", 0, 0], [0, "-eta", 0, 0, 0],
      [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]),
    ("so22-r1", "span{J,K1,K2}", [[0, "eta", "1/2"], ["-eta", 0, "-2*eta"], ["-1/2", "2*eta", 0]]),
    ("so22-twisted", "span{P0,P1,K2}", None),                # h not a subalgebra
    ("so22-twisted", "span{P0,K1}", None),
    ("so22-r1", "span{J+eta*K1}", None),                    # A⁻¹ has eta^-1 entries
    ("so22-r1", "span{J+eta*K1,J+K1}", None),               # det A = ±(1 - eta): exit 2
)
# the sl(2,R) table in the CK basis: h = P1 (H2), J12 (AdS2) and P1+P2 (the
# lightcone) under the elliptic, hyperbolic and parabolic bialgebras
SL2_TABLE = tuple(
    (key, span)
    for key in ("sl2-ell", "sl2-hyp", "sl2-par")
    for span in ("span{P1}", "span{J12}", "span{P1+P2}")
)

# [e0,e1] = 1/3*eta^-1 e2 and [e0,e2] = 5/7*xi e0 violate Jacobi along e2.
BAD_ALGEBRA = {
    "dim": 3,
    "labels": ["e0", "e1", "e2"],
    "params": ["eta", "xi"],
    "brackets": [
        {"i": 0, "j": 1, "k": 2, "coef": "1/3*eta^-1"},
        {"i": 0, "j": 2, "k": 0, "coef": "5/7*xi"},
    ],
}
# sl(2,R) with δ(J3) = 5/7 J+ ∧ J-, which is not a cobracket.
BAD_BIALGEBRA = {
    "dim": 3,
    "labels": ["J3", "J+", "J-"],
    "brackets": [
        {"i": 0, "j": 1, "k": 1, "coef": "2"},
        {"i": 0, "j": 2, "k": 2, "coef": "-2"},
        {"i": 1, "j": 2, "k": 0, "coef": "1"},
    ],
    "cocomm": [{"i": 0, "j": 1, "k": 2, "coef": "5/7"}],
}
INVALID_FILES = {"bad-algebra.json": BAD_ALGEBRA, "bad-bialgebra.json": BAD_BIALGEBRA}
# a directory, and a label in Latin-1
UNREADABLE_DIR, NOT_UTF8 = "a-directory", "not-utf8.json"
# whitespace inside a number and inside a label: exit 2
SPACED_GENERATORS = ("span{2 3*J}", "span{K 1}")


def commands() -> list:
    cat = catalog.load()
    argvs = [["validate", f"catalog:{key}", *fmt] for key in cat.list() for fmt in FORMATS]
    argvs += [
        ["double", key, "--iterate", *fmt]
        for key in cat.list("bialgebra")
        for fmt in FORMATS
    ]
    argvs += [["verify-brackets", "--seed", "42", *fmt] for fmt in FORMATS]
    argvs += [
        ["classify", key, span, *fmt]
        for key in ("so22-r1", "so22-twisted")
        for span in SO22_SUBALGEBRAS
        for fmt in FORMATS
    ]
    for key, span, pi in CLASSIFY_PI:
        extra = [] if pi is None else ["--pi", json.dumps(pi)]
        argvs += [["classify", key, span, *extra, *fmt] for fmt in FORMATS]
    argvs += [["classify", key, span, *fmt] for key, span in SL2_TABLE for fmt in FORMATS]
    argvs += [
        ["validate", name, *fmt]
        for name in (*INVALID_FILES, UNREADABLE_DIR, NOT_UTF8)
        for fmt in FORMATS
    ]
    argvs += [
        ["classify", "so22-r1", span, *fmt] for span in SPACED_GENERATORS for fmt in FORMATS
    ]
    return argvs


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = re.sub(r"(?m)^elapsed: .*\n", "", err.getvalue())
    digest = hashlib.sha256((out.getvalue() + "\0" + stderr).encode()).hexdigest()
    return digest, code


@contextlib.contextmanager
def in_targets_dir():
    """Work in a temporary directory that holds the invalid and unreadable
    ``validate`` targets."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in INVALID_FILES.items():
            Path(tmp, name).write_text(json.dumps(data, indent=2) + "\n")
        Path(tmp, UNREADABLE_DIR).mkdir()
        Path(tmp, NOT_UTF8).write_bytes('{"labels": ["\u00e9"]}\n'.encode("latin-1"))
        # the invalid files are named relative to tmp, so reports and the
        # printed argv do not depend on where tmp is
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def main() -> int:
    with in_targets_dir():
        for argv in commands():
            digest, code = run(argv)
            print(f"{digest}  {code}  {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
