"""Command-line front end.

Subcommands
-----------
validate         Jacobi / bialgebra validity of a catalog entry or JSON file.
double           Build D(g) for a catalog bialgebra; optionally iterate.
classify         Lagrangian / coisotropy / Poisson-subgroup classification.
verify-brackets  Numerical verification matrix (Sklyanin vs closed forms,
                 plus property checks for the 3d anti-de Sitter brackets).

Exit codes: 0 pass, 1 verification failure, 2 input error (an unwritable
``--json`` or ``--out`` path included; ``--json`` is checked before any
work or output).  Reports are
deterministic for a fixed seed; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import re
import sys
import time
from pathlib import Path

from . import catalog
from .bialgebra import from_json as bialgebra_from_json, new_bialgebra
from .double import (
    bracket_table_text,
    build_double,
    double_of_double,
)
from .errors import (
    LiedoubleError,
    NotACobracket,
    NotDivisible,
    ParseError,
    PolyParseError,
    ShapeError,
    UnknownKey,
)
from .exactalg import PRODUCT, PolyExpr
from .homogeneous import (
    LagrangianSpec,
    _names,
    classify as classify_spec,
)
from .liealg import _jacobi_notes, from_json as algebra_from_json
from .rmatrix import cocommutator_from_r

PASS, FAIL, INPUT_ERROR = 0, 1, 2


@contextlib.contextmanager
def _writing(path):
    """Turn an :class:`OSError` in the block into the input error
    ``cannot write <path>: <reason>``."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path) -> None:
    """Raise the input error of :func:`_writing` now, before any work or
    output, if ``path`` cannot be opened for writing.  An existing file is
    left as it is; a file the check creates is removed again."""
    existed = os.path.lexists(path)
    with _writing(path):
        with open(path, "a"):
            pass
        if not existed:
            Path(path).unlink()


def _text_lines(report: dict):
    yield f"command: {report['command']}"
    for name, verdict in sorted(report["verdicts"].items()):
        yield f"  {'PASS' if verdict == 'pass' else 'FAIL'}  {name}"
    classification = report.get("classification")
    if classification is not None:  # classify: coisotropy, Poisson subgroup, violations
        for key in ("coisotropic", "poisson_subgroup"):
            answer = "yes" if classification[key] else "no"
            yield f"  {key.replace('_', '-')}: {answer}"
        for violation in classification["violations"]:
            yield f"  violation: {violation}"
    for extra in report["notes"]:
        yield f"  note: {extra}"
    yield f"overall: {'PASS' if report['pass'] else 'FAIL'}"


def _report(args, command: str, inputs: dict, verdicts: dict, notes=(), **extra) -> int:
    """Write the report of ``command`` to ``--json``, print it in
    ``--format`` and return its exit code.  It passes iff every verdict is
    ``"pass"``."""
    passed = all(v == "pass" for v in verdicts.values())
    report = {"command": command, "inputs": inputs, "verdicts": verdicts,
              "notes": list(notes), **extra, "pass": passed}
    blob = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.json:
        with _writing(args.json):
            Path(args.json).write_text(blob)
    if args.format == "text":
        for line in _text_lines(report):
            print(line)
    else:
        sys.stdout.write(blob)
    return PASS if passed else FAIL


# ---------------------------------------------------------------- validate


def _load_target(target: str):
    if target.startswith("catalog:"):
        return catalog.get(target.split(":", 1)[1])
    path = Path(target)
    if not path.exists():
        raise ParseError(f"no such file: {target}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:  # a directory, or a file that cannot be opened
        raise ParseError(f"cannot read {target}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {target}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{target}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    return data


def _from_file(target: str, from_json, data):
    """``from_json(data)``, with every fault of the input (a missing key, a
    malformed entry, an index out of range, a bad polynomial) raised as
    :class:`ParseError`; only the verdict :class:`NotACobracket` passes."""
    try:
        return from_json(data)
    except NotACobracket:
        raise
    except KeyError as exc:
        raise ParseError(f"{target}: missing key {exc}") from exc
    except (TypeError, LiedoubleError) as exc:
        raise ParseError(f"{target}: {exc}") from exc


def cmd_validate(args) -> int:
    target = _load_target(args.target)
    verdicts = {}
    notes = []
    if isinstance(target, catalog.CatalogEntry):
        # get() built the entry and raised if any of its checks failed
        verdicts = dict.fromkeys(catalog.CHECKS[target.kind], "pass")
        inputs = {"target": args.target, "kind": target.kind}
    else:
        data = target
        if not isinstance(data, dict):
            raise ParseError(f"{args.target}: not a JSON object")
        if "cocomm" in data:
            try:
                _from_file(args.target, bialgebra_from_json, data)
                verdicts["double-jacobi"] = "pass"
            except NotACobracket as exc:
                verdicts["double-jacobi"] = "fail"
                notes.append(str(exc))
        elif "brackets" in data:
            alg = _from_file(args.target, algebra_from_json, data)
            bad = _jacobi_notes(alg, 8)
            verdicts["jacobi"] = "pass" if not bad else "fail"
            notes.extend(bad)
        else:
            raise ParseError(f"{args.target}: neither an algebra nor a bialgebra")
        inputs = {"target": args.target, "kind": "file"}
    return _report(args, "validate", inputs, verdicts, notes)


# ---------------------------------------------------------------- double


def cmd_double(args) -> int:
    cat = catalog.load()
    B = cat.bialgebra(args.bialgebra)
    D = build_double(B)
    # new_bialgebra proved Jacobi for D when the catalog built B, and the
    # isomorphism ψ onto D ⊕ D proves it for D(D), crossed brackets included,
    # inside double_of_double; both raise instead of returning otherwise
    verdicts = {"double-jacobi": "pass"}
    artifacts = {}
    out_dir = Path(args.out) if args.out else None

    def write_table(stem, algebra):
        text = bracket_table_text(algebra)
        if out_dir:
            with _writing(out_dir):
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"{stem}.txt").write_text(text)
                (out_dir / f"{stem}.json").write_text(
                    json.dumps(algebra.to_json(), indent=2, sort_keys=True)
                    + "\n"
                )
            artifacts[stem] = str(out_dir / f"{stem}.txt")
        else:
            print(text, end="")

    write_table(f"{args.bialgebra}-double", D.algebra)
    if args.iterate:
        D2 = double_of_double(B)
        verdicts["iterated-jacobi"] = verdicts["crossed-brackets"] = "pass"
        write_table(f"{args.bialgebra}-double-of-double", D2.algebra)
    if not (args.json or args.format == "json"):
        return PASS
    inputs = {"bialgebra": args.bialgebra, "iterate": bool(args.iterate)}
    return _report(args, "double", inputs, verdicts, artifacts=artifacts)


# ---------------------------------------------------------------- classify


def _parse_generator(expr: str, algebra) -> list:
    """Parse a linear combination like 'P1+P2', '2*K1 - J' or 'J++J-' into a
    vector.  Terms are ``[sign][coef*]label``; labels may contain '+' and
    '-', so they are matched against the algebra's own, longest first.  A
    coefficient is one unsigned term of the polynomial text, as in
    'eta^-1*K1' (the :data:`~liedouble.exactalg.PRODUCT` pattern).
    Whitespace may stand between the parts of a term, as in '2 * K1', but
    not inside a number, a name or a label."""
    labels = "|".join(map(re.escape, sorted(algebra.labels, key=len, reverse=True)))
    term = re.compile(
        rf"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>{PRODUCT})\s*\*\s*)?"
        rf"(?P<label>{labels})\s*(?=[+-]|$)"
    )
    if not expr.strip():
        raise ParseError("empty generator expression")
    combo: dict = {}
    pos = 0
    while pos < len(expr):
        m = term.match(expr, pos)
        if m is None:
            raise ParseError(
                f"cannot parse {expr[pos:]!r} in {expr!r}: expected "
                f"[sign][coef*]label with a label in {list(algebra.labels)}"
            )
        sign, coef_text, label = m.group("sign", "coef", "label")
        try:
            coef = PolyExpr.parse(coef_text) if coef_text else PolyExpr.one()
        except LiedoubleError as exc:
            raise ParseError(f"bad coefficient in {expr!r}: {exc}") from exc
        if sign == "-":
            coef = -coef
        combo[label] = combo.get(label, PolyExpr.zero()) + coef
        pos = m.end()
    return algebra.vector(combo)


def _parse_subalgebra(spec: str, algebra) -> list:
    text = spec.strip()
    if text.startswith("span{") and text.endswith("}"):
        text = text[len("span{"):-1]
    return [_parse_generator(g, algebra) for g in text.split(",") if g.strip()]


def _complete_basis(algebra, h_vectors) -> list:
    """The basis vectors that complete h, chosen greedily in basis order:
    the pivot columns after h of one elimination of the columns (h, e_0, …,
    e_{n−1}), whose first k pivots are h's own when h is independent."""
    from .exactlinalg import _bareiss, _cleared, transpose

    k = len(h_vectors)
    units = [algebra.basis_vector(i) for i in range(algebra.dim)]
    pivots = _bareiss(_cleared(transpose(h_vectors + units))[1], reduce=False)
    if pivots[:k] != list(range(k)):
        raise ParseError("the subalgebra generators are linearly dependent")
    return [units[c - k] for c in pivots[k:]]


def cmd_classify(args) -> int:
    cat = catalog.load()
    B = cat.bialgebra(args.bialgebra)
    h = _parse_subalgebra(args.subalgebra, B.algebra)
    complement = _complete_basis(B.algebra, h)
    m = len(complement)
    pi_rows = [[0] * m for _ in range(m)]
    if args.pi:
        try:
            pi_rows = json.loads(args.pi)
        except json.JSONDecodeError as exc:
            raise ParseError(f"--pi is not valid JSON: {exc}") from exc
        # a string or object row would be read as its characters or keys
        rows = pi_rows if isinstance(pi_rows, list) else [pi_rows]
        for row in rows:
            if not isinstance(row, list):
                what = "row " if rows is pi_rows else ""
                raise ParseError(f"--pi must be a {m}x{m} matrix of polynomials: "
                                 f"{what}{json.dumps(row)} is not a JSON list")
    try:
        spec = LagrangianSpec(h, complement, pi_rows)
    except (TypeError, PolyParseError, ShapeError) as exc:
        raise ParseError(
            f"--pi must be a {m}x{m} matrix of polynomials: {exc}"
        ) from exc
    D = build_double(B)
    try:
        rep = classify_spec(D, B, spec)
    except NotDivisible as exc:  # A⁻¹ is not a Laurent matrix: nothing was verified
        completion = ", ".join(_names(complement, B.algebra.labels, "T"))
        raise ParseError(
            f"the generators {args.subalgebra}, completed by "
            f"{completion or 'no vector'}, give an adapted basis whose {exc}"
        ) from exc
    table_info = None
    if rep.table is not None:
        table_info = {
            "labels": list(rep.table.labels),
            "table": bracket_table_text(rep.table).splitlines(),
        }
    verdicts = {
        "lagrangian": "pass" if rep.lagrangian else "fail",
        "subalgebra": "pass" if rep.subalgebra else "fail",
    }
    inputs = {
        "bialgebra": args.bialgebra, "subalgebra": args.subalgebra, "pi": args.pi or "0"
    }
    return _report(args, "classify", inputs, verdicts,
                   classification=rep.to_json(), bracket_table=table_info)


# ---------------------------------------------------------------- verify


def _origin_report(cat, entry):
    """``classify`` at π = 0 of a bracket entry's isotropy h in the
    bialgebra of its r-matrix.  By Drinfel'd's correspondence its M^{ab}_c
    is the linear part at the origin of the bracket on G/H, in the chart
    coordinates x_a of the complement of h (x0, x1, x2 ↔ P0, P1, P2)."""
    key = entry.raw["rmatrix"]
    alg = cat.rmatrix_algebra(key)
    B = new_bialgebra(alg, cocommutator_from_r(alg, cat.rmatrix(key)))
    h = [_parse_generator(label, alg) for label in entry.raw["isotropy"]]
    complement = _complete_basis(alg, h)
    m = len(complement)
    spec = LagrangianSpec(h, complement, [[0] * m for _ in range(m)])
    return classify_spec(build_double(B), B, spec)


def _property_cell(cat, bracket_id, rng, n_points, tol):
    """Property checks for a bracket on G/H without a desk-scale Sklyanin
    route: numerical Jacobi, and the linearization and eta -> 0 limit
    against the linear bracket {x_a, x_b} = Σ_c M^{ab}_c x_c of
    :func:`_origin_report`."""
    import numpy as np

    from . import charts  # deferred: charts imports numpy

    entry = cat.get(bracket_id)
    ranges = entry.raw["param_ranges"]
    params = {name: rng.uniform(*bounds) for name, bounds in sorted(ranges.items())}
    n_h = len(entry.raw["isotropy"])
    m = np.zeros((3, 3, 3))  # M^{ab}_c as floats
    for (a, b, k), x in _origin_report(cat, entry).m.items():
        if k >= n_h:
            m[a, b, k - n_h] = float(x.evaluate(params))

    def result(check, err, **extra):
        return {"bracket_id": bracket_id, "check": check, **extra,
                "max_abs_err": err, "pass": err < tol}

    max_jacobi = 0.0
    for _ in range(n_points):
        p = charts._sample_point(rng, charts.ADS3)
        max_jacobi = max(max_jacobi, charts.jacobi_numeric(bracket_id, params, p))
    err = float(np.abs(charts.linearize(bracket_id, params) - m).max())
    p = charts._sample_point(rng, charts.ADS3)
    flat = charts.flat_limit_check(bracket_id, p, params=params)
    max_flat = float(np.abs(flat - m @ p.coords).max())
    return [
        result("jacobi", max_jacobi, n_points=n_points),
        result("linearization", err),
        result("flat-limit", max_flat),
    ]


def cmd_verify_brackets(args) -> int:
    if args.points < 1:
        raise ParseError(f"--points must be at least 1, got {args.points}")
    for flag, value in (
        ("--tol", args.tol), ("--tol-rel", args.tol_rel), ("--tol-abs", args.tol_abs)
    ):
        if value is not None and not 0 <= value < math.inf:
            raise ParseError(f"{flag} must be finite and non-negative, got {value}")
    from . import charts  # deferred: charts imports numpy

    cat = catalog.load()
    rng = random.Random(args.seed)
    tol_rel = args.tol if args.tol is not None else args.tol_rel
    tol_abs = args.tol if args.tol is not None else args.tol_abs
    property_tol = args.tol if args.tol is not None else 1e-6
    wanted = args.cells
    cells = []
    results = []
    for cell in catalog.default_verification_cells(cat):
        if wanted and wanted not in cell.bracket_id:
            continue
        cells.append(cell.bracket_id)
        results.extend(
            charts.verify_sklyanin_cell(cell, rng, args.points, tol_rel, tol_abs)
        )
    for bracket_id in catalog.property_check_ids(cat):
        if wanted and wanted not in bracket_id:
            continue
        cells.append(bracket_id)
        results.extend(
            _property_cell(
                cat, bracket_id, rng, max(10, args.points // 2), property_tol
            )
        )
    if not cells:
        raise ParseError(f"--cells {wanted!r} matches no verification cell")
    verdicts = {}
    for res in results:
        name = res["bracket_id"] + ":" + (
            ",".join(res["pair"]) if "pair" in res else res["check"]
        )
        verdicts[name] = "pass" if res["pass"] else "fail"
    inputs = {
        "cells": wanted or "all",
        "points": args.points,
        "tol_rel": tol_rel,
        "tol_abs": tol_abs,
        "property_tol": property_tol,
    }
    return _report(args, "verify-brackets", inputs, verdicts,
                   seed=args.seed, results=results)


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liedouble",
        description="Lie bialgebra / classical double / Poisson structure workbench",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", help="write the JSON report to this path")
        p.add_argument(
            "--format", choices=("json", "text"), default="text",
            help="stdout format (default text)",
        )

    p = sub.add_parser("validate", help="validate a catalog entry or JSON file")
    p.add_argument("target", help="catalog:<key> or a path to a JSON file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("double", help="build the classical double of a bialgebra")
    p.add_argument("bialgebra", help="catalog bialgebra key")
    p.add_argument("--iterate", action="store_true",
                   help="also build the double of the double")
    p.add_argument("--out", help="directory for table artifacts")
    common(p)
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("classify", help="classify a Lagrangian subalgebra")
    p.add_argument("bialgebra", help="catalog bialgebra key")
    p.add_argument("subalgebra", help="e.g. 'span{J12}' or 'J,K1,K2' or 'P1+P2'")
    p.add_argument("--pi", help="JSON matrix of base-point bivector components")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-brackets", help="run the numerical verification matrix")
    p.add_argument("--cells", help="substring filter on bracket ids")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol-rel", type=float, default=1e-9, dest="tol_rel")
    p.add_argument("--tol-abs", type=float, default=1e-12, dest="tol_abs")
    p.add_argument("--tol", type=float, default=None,
                   help="override every tolerance with one value")
    common(p)
    p.set_defaults(func=cmd_verify_brackets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.json:
            _check_writable(args.json)
        code = args.func(args)
    except (ParseError, UnknownKey) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except LiedoubleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
