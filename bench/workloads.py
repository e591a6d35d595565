"""Seeded inputs, ops and output oracles of the benchmark.

The timed workloads are ``double-iterate`` and ``lagrangian-sweep``, each a
closed loop with one client.  ``cli-cold`` commands are replayed by the
traced pass only, in-process through ``cli.main``.  Inputs are generated as
plain, JSON-able descriptors from ``random.Random(seed)`` and then
materialized into liedouble objects; both steps are part of set-up.

Nothing here imports liedouble at module level: the set-up time the
benchmark reports starts before the package is imported.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("double-iterate", "lagrangian-sweep")  # timed
REPLAYED = ("cli-cold",) + WORKLOADS  # by the traced pass

# 3-dim catalog bialgebras.  The J-family uses the labels J3, J+, J-, which
# the CLI's generator parser rejects (ROADMAP item 0), so classify draws only
# from the others; every traced pass probes the defect once, apart from the ops.
CK_BIALGEBRAS = ("iso11-eta", "sl2-ell", "sl2-eta", "sl2-hyp", "sl2-par")
J_BIALGEBRAS = ("sl2-hyp-j", "sl2-par-j", "sl2-trivial")
KNOWN_DEFECT_ARGV = ["classify", "sl2-hyp-j", "span{J+}", "--format", "json"]
SO22_BIALGEBRAS = ("so22-r1", "so22-twisted")

# Basis-label subalgebras of so(2,2) in the catalog basis; span{J,K1,K2} is
# the isotropy algebra of AdS3.
SO22_SUBALGEBRAS = (
    ("J", "K1", "K2"),
    ("J", "P1", "P2"),
    ("P0", "P1", "K1"),
    ("P0", "P2", "K2"),
)

# The block of cli-cold commands the traced pass replays; the seed draws each
# slot's arguments and the order inside the block.
CLI_BLOCK = (
    "validate-rmatrix",
    "validate-other",
    "classify",
    "classify",
    "double",
    "double-iterate",
    "verify-sklyanin",
    "verify-any",
)
DOUBLE_OPS = 8  # alternating so22-r1 and so22-twisted
# One lagrangian-sweep op classifies a batch of SWEEP_BATCH specs of a fixed
# composition (see generate_sweep), so every op costs about the same; single
# specs fall into cost classes whose share decides where a median lands.
SWEEP_BATCH = 16
SWEEP_BATCHES = 4

CLI_TIMEOUT_S = 60.0


def import_package():
    """Import every liedouble layer (through the CLI module) from ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import liedouble.cli

    return liedouble.cli


def setup(workload: str, seed: int):
    """Import liedouble, load the catalog and build the workload's inputs.

    Returns ``(catalog, descriptors, inputs, seconds)``."""
    start = time.perf_counter()
    import_package()
    from liedouble import catalog

    cat = catalog.load()
    descriptors = GENERATORS[workload](random.Random(seed), cat)
    inputs = [MATERIALIZERS[workload](d, cat) for d in descriptors]
    return cat, descriptors, inputs, time.perf_counter() - start


# ---------------------------------------------------------------- helpers


def _affine_eta(rng):
    """c*eta + d with c = ±p/q and d = ±r/s for four distinct primes from
    11 to 31: no cancellation against each other or the structure constants,
    so every draw costs about the same."""
    from liedouble.exactalg import PolyExpr

    p, q, r, s = rng.sample((11, 13, 17, 19, 23, 29, 31), 4)
    c, d = Fraction(rng.choice((1, -1)) * p, q), Fraction(rng.choice((1, -1)) * r, s)
    return PolyExpr.param("eta") * c + d


def complete_basis(algebra, h_vectors) -> list:
    """Add unit vectors, in basis order, until h spans the algebra."""
    from liedouble.exactlinalg import rank

    complement, current = [], [list(v) for v in h_vectors]
    for i in range(algebra.dim):
        if len(current) == algebra.dim:
            break
        candidate = algebra.basis_vector(i)
        if rank(current + [candidate]) > rank(current):
            current.append(candidate)
            complement.append(candidate)
    return complement


def _parse_matrix(rows) -> list:
    from liedouble.exactalg import PolyExpr

    return [[PolyExpr.parse(str(x)) for x in row] for row in rows]


def _antisymmetric(rng, m: int, entries) -> list:
    from liedouble.exactalg import PolyExpr

    pi = [["0"] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            x = PolyExpr.parse(rng.choice(entries))
            pi[a][b], pi[b][a] = str(x), str(-x)
    return pi


# ---------------------------------------------------------------- cli-cold


def _generator_text(combo: dict) -> str:
    out = ""
    for label, coef in combo.items():
        sign = "-" if coef < 0 else ("+" if out else "")
        out += sign + (label if abs(coef) == 1 else f"{abs(coef)}*{label}")
    return out


def _draw_subalgebra(rng, algebra) -> list:
    """1 or 2 independent generators, each a small integer combination."""
    from liedouble.exactlinalg import rank

    labels = list(algebra.labels)
    n_h = rng.choice((1, 2))
    while True:
        gens = [
            {lab: rng.choice((1, 1, 2, -1)) for lab in rng.sample(labels, rng.choice((1, 1, 2)))}
            for _ in range(n_h)
        ]
        if rank([algebra.vector(g) for g in gens]) == n_h:
            return gens


def _classify_op(rng, cat, key) -> dict:
    B = cat.bialgebra(key)
    gens = _draw_subalgebra(rng, B.algebra)
    text = ",".join(_generator_text(g) for g in gens)
    # A bare argument that starts with '-' would be read as an option.
    bare = rng.random() < 0.5 and not text.startswith("-")
    argv = ["classify", key, text if bare else f"span{{{text}}}"]
    pi = None
    if len(gens) == 1 and rng.random() < 0.5:
        entries = ["1", "-1/2", "2/3", "3"]
        if "eta" in B.algebra.params:
            entries += ["eta", "-2*eta"]
        pi = _antisymmetric(rng, 2, entries)
        argv += ["--pi", json.dumps(pi)]
    return {"kind": "classify", "argv": argv, "bialgebra": key, "gens": gens, "pi": pi}


def generate_cli(rng, cat) -> list:
    from liedouble import catalog

    rmatrices = cat.list("rmatrix")
    others = [k for k in cat.list() if k not in rmatrices]
    sklyanin = [c.bracket_id for c in catalog.default_verification_cells(cat)]
    cells = sklyanin + catalog.property_check_ids(cat)
    bialgebras = sorted(CK_BIALGEBRAS + J_BIALGEBRAS)
    ops = []
    block = list(CLI_BLOCK)
    rng.shuffle(block)
    for slot in block:
        if slot.startswith("validate"):
            key = rng.choice(rmatrices if slot == "validate-rmatrix" else others)
            op = {"kind": "validate", "argv": ["validate", f"catalog:{key}"], "key": key}
        elif slot == "classify":
            op = _classify_op(rng, cat, rng.choice(CK_BIALGEBRAS))
        elif slot.startswith("double"):
            key = rng.choice(bialgebras)
            iterate = slot == "double-iterate"
            argv = ["double", key] + (["--iterate"] if iterate else [])
            op = {"kind": "double", "argv": argv, "bialgebra": key, "iterate": iterate}
        else:
            cell = rng.choice(sklyanin if slot == "verify-sklyanin" else cells)
            points, vseed = rng.randint(20, 300), rng.randint(0, 10**6)
            argv = ["verify-brackets", "--cells", cell, "--points", str(points),
                    "--seed", str(vseed)]
            op = {"kind": "verify", "argv": argv, "cell": cell, "points": points,
                  "seed": vseed}
        op["argv"] = op["argv"] + ["--format", "json"]
        ops.append(op)
    return ops


def _split_report(stdout: str):
    """(text before the JSON report, the report) of a ``--format json`` run."""
    start = stdout.find("{")
    if start < 0:
        return stdout, None
    try:
        return stdout[:start], json.loads(stdout[start:])
    except json.JSONDecodeError:
        return stdout, None


def classify_spec(cat, op: dict):
    """(bialgebra, LagrangianSpec) of a classify op, built with
    ``LieAlgebra.vector`` rather than the CLI parser."""
    from liedouble.homogeneous import LagrangianSpec

    B = cat.bialgebra(op["bialgebra"])
    h = [B.algebra.vector(g) for g in op["gens"]]
    complement = complete_basis(B.algebra, h)
    m = len(complement)
    return B, LagrangianSpec(h, complement, _parse_matrix(op["pi"] or [[0] * m] * m))


def cli_reference(op: dict, cat) -> dict:
    """Expected exit code and verdicts of a cli-cold op, computed in-process."""
    from liedouble import catalog, charts
    from liedouble.double import (
        bracket_table_text, build_double, crossed_bracket_mismatches, double_of_double,
    )
    from liedouble.homogeneous import classify
    from liedouble.liealg import jacobi_violations
    from liedouble.rmatrix import is_cybe, is_mcybe

    def verdict(ok):
        return "pass" if ok else "fail"

    ref = {"text": None, "classification": None}
    kind = op["kind"]
    if kind == "validate":
        entry = cat.get(op["key"])
        if entry.kind == "algebra":
            verdicts = {"jacobi": verdict(not jacobi_violations(entry.payload))}
        elif entry.kind == "bialgebra":
            verdicts = {"double-jacobi": "pass"}
        elif entry.kind == "rmatrix":
            alg, declared = cat.rmatrix_algebra(op["key"]), entry.raw["verdicts"]
            verdicts = {
                "cybe-verdict": verdict(is_cybe(alg, entry.payload) == declared["cybe"]),
                "mcybe-verdict": verdict(is_mcybe(alg, entry.payload) == declared["mcybe"]),
            }
        elif entry.kind == "basis_change":
            verdicts = {"invertible": "pass"}
        else:
            verdicts = {"registered-bracket": "pass"}
    elif kind == "classify":
        B, spec = classify_spec(cat, op)
        rep = classify(build_double(B), B, spec)
        verdicts = {"lagrangian": verdict(rep.lagrangian), "subalgebra": verdict(rep.subalgebra)}
        ref["classification"] = rep.to_json()
    elif kind == "double":
        B = cat.bialgebra(op["bialgebra"])
        D = build_double(B)
        verdicts = {"double-jacobi": verdict(not jacobi_violations(D.algebra))}
        ref["text"] = bracket_table_text(D.algebra)
        if op["iterate"]:
            D2 = double_of_double(B)
            verdicts["iterated-jacobi"] = verdict(not jacobi_violations(D2.algebra))
            verdicts["crossed-brackets"] = verdict(not crossed_bracket_mismatches(D2, B))
            ref["text"] += bracket_table_text(D2.algebra)
    else:
        rng = random.Random(op["seed"])
        verdicts = {}
        for cell in catalog.default_verification_cells(cat):
            if cell.bracket_id == op["cell"]:
                for res in charts.verify_sklyanin_cell(cell, rng, op["points"], 1e-9, 1e-12):
                    verdicts[f"{op['cell']}:{','.join(res['pair'])}"] = verdict(res["pass"])
        if not verdicts:  # property cell: numerical Jacobi, linearization, flat limit
            verdicts = {f"{op['cell']}:{check}": "pass"
                        for check in ("jacobi", "linearization", "flat-limit")}
    ref["verdicts"] = verdicts
    ref["exit"] = 0 if all(v == "pass" for v in verdicts.values()) else 1
    return ref


def check_cli(result: dict, ref: dict) -> bool:
    text, report = _split_report(result["stdout"])
    return (
        report is not None
        and result["exit"] == ref["exit"]
        and report.get("verdicts") == ref["verdicts"]
        and (ref["text"] is None or text == ref["text"])
        and (ref["classification"] is None or report.get("classification") == ref["classification"])
    )


def known_defect_note() -> str:
    """Whether classify on a J+/J- label still exits 2 (ROADMAP item 0), from
    one ``python -m liedouble.cli`` in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-m", "liedouble.cli", *KNOWN_DEFECT_ARGV],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), stdin=subprocess.DEVNULL,
        capture_output=True, timeout=CLI_TIMEOUT_S,
    )
    status = "still present" if done.returncode == 2 else "no longer reproduces"
    return f"known defect {status}: `{' '.join(KNOWN_DEFECT_ARGV)}` exits {done.returncode}"


# ---------------------------------------------------------------- double-iterate


def generate_double(rng, cat) -> list:
    return [{"bialgebra": SO22_BIALGEBRAS[i % 2], "eta": str(_affine_eta(rng))}
            for i in range(DOUBLE_OPS)]


def materialize_double(desc: dict, cat):
    """The so22 bialgebra with eta replaced exactly (revalidated)."""
    from liedouble.bialgebra import substitute_params
    from liedouble.exactalg import PolyExpr

    B = cat.bialgebra(desc["bialgebra"])
    return substitute_params(B, {"eta": PolyExpr.parse(desc["eta"])})


def run_double_iterate(B) -> dict:
    """The work of ``liedouble double <B> --iterate``."""
    from liedouble.double import (
        bracket_table_text, build_double, crossed_bracket_mismatches, double_of_double,
    )
    from liedouble.liealg import jacobi_violations

    D = build_double(B)
    jac = jacobi_violations(D.algebra)
    D2 = double_of_double(B)
    jac2 = jacobi_violations(D2.algebra)
    crossed = crossed_bracket_mismatches(D2, B)
    bracket_table_text(D.algebra)
    bracket_table_text(D2.algebra)
    return {"double-jacobi": jac, "iterated-jacobi": jac2, "crossed-brackets": crossed}


def check_double(result: dict) -> bool:
    """A polynomial substitution keeps every identity: all lists empty."""
    return all(not v for v in result.values())


# ---------------------------------------------------------------- lagrangian-sweep


def generate_sweep(rng, cat) -> list:
    """SWEEP_BATCHES batches of SWEEP_BATCH specs.  Per so22 bialgebra a batch
    holds every basis-label subalgebra recombined with pi = 0, two seeded ones
    recombined with a nonzero pi, and two random h, one with each kind of pi."""
    from liedouble.exactlinalg import mat, rank

    labels = list(cat.bialgebra(SO22_BIALGEBRAS[0]).algebra.labels)
    pi_entries = ["1", "-1", "1/2", "-2/3", "eta", "-eta", "1/2*eta"]

    def full_rank(rows: int, cols: int) -> list:
        while True:
            m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            if rank(mat(m)) == rows:
                return m

    specs = []
    for _ in range(SWEEP_BATCHES):
        slots = []
        for key in SO22_BIALGEBRAS:
            slots += [(key, source, True) for source in SO22_SUBALGEBRAS]
            slots += [(key, rng.choice(SO22_SUBALGEBRAS), False) for _ in range(2)]
            slots += [(key, None, True), (key, None, False)]
        rng.shuffle(slots)
        for key, source, zero_pi in slots:
            if source is not None:
                mix = full_rank(3, 3)
                h = [[0] * len(labels) for _ in range(3)]
                for r in range(3):
                    for j, lab in enumerate(source):
                        h[r][labels.index(lab)] = mix[r][j]
            else:
                h = full_rank(3, len(labels))
            pi = [["0"] * 3 for _ in range(3)] if zero_pi else _antisymmetric(rng, 3, pi_entries)
            specs.append({"bialgebra": key, "h": h, "source": source, "pi": pi})
    return specs


def materialize_sweep(desc: dict, cat):
    from liedouble.exactlinalg import mat
    from liedouble.homogeneous import LagrangianSpec

    B = cat.bialgebra(desc["bialgebra"])
    h = mat(desc["h"])
    return B, LagrangianSpec(h, complete_basis(B.algebra, h), _parse_matrix(desc["pi"]))


def run_sweep(batch: list) -> list:
    """One op: classify every spec of a batch, with the bracket table of
    each l that is a subalgebra.  Returns the verdicts per spec."""
    from liedouble.double import build_double
    from liedouble.homogeneous import classify, lagrangian_bracket_table

    out = []
    for B, spec in batch:
        D = build_double(B)
        rep = classify(D, B, spec)
        if rep.subalgebra:
            lagrangian_bracket_table(D, spec)
        out.append(verdicts_of(rep))
    return out


def verdicts_of(rep) -> dict:
    return {name: getattr(rep, name)
            for name in ("lagrangian", "subalgebra", "coisotropic", "poisson_subgroup")}


def sweep_point(seed: int) -> float:
    """The seeded parameter value of the float oracle."""
    return random.Random(seed).uniform(0.6, 1.6)


def float_verdicts(desc: dict, cat, eta: float) -> dict:
    """Lagrangian and subalgebra verdicts of l from a numpy rank test at eta."""
    import numpy as np

    from liedouble.double import build_double

    B, spec = materialize_sweep(desc, cat)
    D = build_double(B)
    n = D.n
    point = {"eta": eta}
    c = np.array([[[x.evaluate(point) if not x.is_zero else 0.0 for x in row]
                   for row in plane] for plane in D.algebra.c], dtype=float)

    def num(m):
        return np.array([[x.evaluate(point) if not x.is_zero else 0.0 for x in row]
                         for row in m], dtype=float)

    h, comp, pi = num(spec.h_basis), num(spec.complement), num(spec.pi)
    a_inv = np.linalg.inv(np.vstack([h, comp]))
    n_h = len(h)
    rows = [np.concatenate([v, np.zeros(n)]) for v in h]
    for a in range(len(comp)):
        rows.append(np.concatenate([pi[a] @ comp, a_inv[:, n_h + a]]))
    l = np.array(rows)
    pairing = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    lagrangian = (np.linalg.matrix_rank(l) == n
                  and np.abs(l @ pairing @ l.T).max() < 1e-9 * max(1.0, np.abs(l).max() ** 2))
    subalgebra = all(
        np.linalg.matrix_rank(np.vstack([l, np.einsum("i,j,ijk->k", l[i], l[j], c)])) == n
        for i in range(n) for j in range(i + 1, n)
    )
    return {"lagrangian": bool(lagrangian), "subalgebra": bool(subalgebra)}


def sweep_reference(desc: dict, cat, eta: float) -> list:
    """Expected verdicts: the float rank test, and for a recombined known
    subalgebra also the exact verdicts of its source span."""
    from liedouble.double import build_double
    from liedouble.homogeneous import classify

    refs = [float_verdicts(desc, cat, eta)]
    if desc["source"] is not None:
        labels = cat.bialgebra(desc["bialgebra"]).algebra.labels
        unit = [[int(lab == s) for lab in labels] for s in desc["source"]]
        B, spec = materialize_sweep(dict(desc, h=unit), cat)
        refs.append(verdicts_of(classify(build_double(B), B, spec)))
    return refs


def check_sweep(result: dict, refs: list) -> bool:
    return all(result[k] == v for ref in refs for k, v in ref.items())


GENERATORS = {
    "cli-cold": generate_cli,
    "double-iterate": generate_double,
    "lagrangian-sweep": generate_sweep,
}
MATERIALIZERS = {
    "cli-cold": lambda desc, cat: desc,
    "double-iterate": materialize_double,
    "lagrangian-sweep": materialize_sweep,
}
