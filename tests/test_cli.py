import collections
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liedouble import catalog
from liedouble.charts import linearize
from liedouble.cli import _origin_report, _parse_generator, main
from liedouble.errors import ParseError
from liedouble.exactalg import PolyExpr

GOLDEN = Path(__file__).parent / "data"


def run(tmp_path, *argv, json_out=True):
    args = list(argv)
    report_path = None
    if json_out:
        report_path = tmp_path / "report.json"
        args += ["--json", str(report_path)]
    code = main(args)
    report = json.loads(report_path.read_text()) if report_path else None
    return code, report


def test_validate_catalog_algebra(tmp_path):
    code, report = run(tmp_path, "validate", "catalog:gLambda")
    assert code == 0
    assert report["verdicts"] == {"jacobi": "pass"}


def test_validate_catalog_rmatrix_and_bialgebra(tmp_path):
    code, report = run(tmp_path, "validate", "catalog:so22.r1")
    assert code == 0
    assert report["verdicts"]["mcybe-verdict"] == "pass"
    code, report = run(tmp_path, "validate", "catalog:so22-twisted")
    assert code == 0


def test_validate_broken_bracket_file(tmp_path):
    broken = {
        "dim": 3,
        "labels": ["e1", "e2", "e3"],
        "params": [],
        "brackets": [
            {"i": 0, "j": 1, "k": 2, "coef": "1"},
            {"i": 0, "j": 2, "k": 0, "coef": "1"},
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, report = run(tmp_path, "validate", str(path))
    assert code == 1
    assert report["verdicts"]["jacobi"] == "fail"
    assert report["notes"] == ["Jacobi_(e1, e2, e3)^(e3) = -1"]


def test_validate_file_with_wide_exponents_in_three_parameters(tmp_path):
    # the Jacobi sum numbers monomials by their exponents; exponents of 1000
    # in three parameters must neither blow up memory nor slow the check
    wide = {
        "dim": 3,
        "labels": ["e1", "e2", "e3"],
        "params": ["eta", "xi", "zeta"],
        "brackets": [
            {"i": 0, "j": 1, "k": 2, "coef": "eta^1000*xi^1000*zeta^1000"},
            {"i": 0, "j": 2, "k": 0, "coef": "xi^-1000 - zeta^999"},
        ],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide))
    start = time.perf_counter()
    code, report = run(tmp_path, "validate", str(path))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert report["verdicts"]["jacobi"] == "fail"
    assert report["notes"] == [
        "Jacobi_(e1, e2, e3)^(e3) = eta^1000*xi^1000*zeta^1999 - eta^1000*zeta^1000"
    ]


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_validate_directory_is_an_input_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_validate_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"labels": ["\u00e9"]}'.encode("latin-1"))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9 in "
        "position 13: invalid continuation byte\n"
    )


def test_validate_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


SL2_HYP_FILE = {
    "dim": 3,
    "labels": ["P1", "P2", "J12"],
    "params": ["eta"],
    "brackets": [
        {"i": 0, "j": 1, "k": 2, "coef": "1"},
        {"i": 0, "j": 2, "k": 1, "coef": "-1"},
        {"i": 1, "j": 2, "k": 0, "coef": "-1"},
    ],
    "cocomm": [
        {"i": 0, "j": 0, "k": 2, "coef": "2*eta"},
        {"i": 1, "j": 1, "k": 2, "coef": "2*eta"},
    ],
    "dual_labels": ["a1", "a2", "theta"],
}


def _broken(kind, key, change):
    """SL2_HYP_FILE (without its cocommutator for an algebra file) with
    ``key`` deleted (change None), set to ``value`` (change ``(value,)``), or
    its entry 0 updated (a dict) or replaced."""
    data = json.loads(json.dumps(SL2_HYP_FILE))
    if kind == "algebra":
        del data["cocomm"], data["dual_labels"]
    if isinstance(change, tuple):
        (data[key],) = change
    elif isinstance(change, dict):
        data[key][0].update(change)
    elif change is None:
        del data[key]
    else:
        data[key][0] = change
    return data


@pytest.mark.parametrize("kind", ["algebra", "bialgebra"])
@pytest.mark.parametrize(
    "key, change, message",
    [
        ("dim", None, "missing key 'dim'"),
        ("labels", None, "missing key 'labels'"),
        ("brackets", [0, 1, 2, "1"], "brackets[0] must be an object"),
        ("brackets", {"coef": True}, "brackets[0] must be an object"),
        ("brackets", {"coef": "1+"}, "brackets[0] must be an object"),
        ("brackets", {"i": "0"}, "brackets[0] must be an object"),
        ("brackets", {"k": 3}, "index 3 out of range"),
        ("dim", (True,), "'dim' must be an integer, not True"),
        ("dim", ("3",), "'dim' must be an integer, not '3'"),
        ("labels", ("abc",), "'labels' must be a list of strings, not 'abc'"),
        ("labels", ([1, 2, 3],), "'labels' must be a list of strings"),
        ("params", ("eta",), "'params' must be a list of strings, not 'eta'"),
    ],
)
def test_validate_malformed_file_is_an_input_error(
    tmp_path, capsys, kind, key, change, message
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_broken(kind, key, change)))
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("duals", ["xyz", None, ["a1", 2, "theta"]])
def test_validate_malformed_dual_labels_is_an_input_error(tmp_path, capsys, duals):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_broken("bialgebra", "dual_labels", (duals,))))
    assert main(["validate", str(path)]) == 2
    assert "'dual_labels' must be a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        ("not an entry", "cocomm[0] must be an object"),
        ({"coef": None}, "cocomm[0] must be an object"),
        ({"coef": True}, "cocomm[0] must be an object"),
        ({"coef": "1+"}, "cocomm[0] must be an object"),
        ({"i": 3}, "wedge entry (3,0,2) out of range"),
        ({"j": -1}, "wedge entry (0,-1,2) out of range"),
        ({"j": 2}, "wedge entry (0,2,2) is identically zero"),
    ],
)
def test_validate_malformed_cocomm_is_an_input_error(tmp_path, capsys, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_broken("bialgebra", "cocomm", change)))
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"brackets": []}, "missing key 'dim'"),
        ({"cocomm": []}, "missing key 'dim'"),
        ({**SL2_HYP_FILE, "cocomm": {}}, "'cocomm' must be a list"),
        (["brackets"], "not a JSON object"),
        (5, "not a JSON object"),
        ({"dim": 3}, "neither an algebra nor a bialgebra"),
    ],
)
def test_validate_file_of_the_wrong_shape(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_validate_file_that_is_not_a_cobracket(tmp_path):
    data = _broken("bialgebra", "cocomm", {"coef": "eta"})
    path = tmp_path / "not-a-cobracket.json"
    path.write_text(json.dumps(data))
    code, report = run(tmp_path, "validate", str(path))
    assert code == 1
    assert report["verdicts"] == {"double-jacobi": "fail"}
    assert "double violates Jacobi" in report["notes"][0]


def test_validate_unknown_catalog_key():
    assert main(["validate", "catalog:nosuchkey"]) == 2


def test_double_writes_golden_table(tmp_path):
    code, report = run(
        tmp_path, "double", "sl2-hyp", "--out", str(tmp_path), "--format", "json"
    )
    assert code == 0
    table = (tmp_path / "sl2-hyp-double.txt").read_text()
    assert table == (GOLDEN / "d_sl2_hyp_table.txt").read_text()
    data = json.loads((tmp_path / "sl2-hyp-double.json").read_text())
    assert data["dim"] == 6


def test_double_iterate_writes_golden_so22_tables(tmp_path):
    code, report = run(
        tmp_path, "double", "so22-twisted", "--iterate", "--out", str(tmp_path),
        "--format", "json",
    )
    assert code == 0
    assert report["pass"] is True
    for stem, golden in (
        ("so22-twisted-double", "d_so22_twisted_table.txt"),
        ("so22-twisted-double-of-double", "dd_so22_twisted_table.txt"),
    ):
        table = (tmp_path / f"{stem}.txt").read_text()
        assert table == (GOLDEN / golden).read_text()
    data = json.loads((tmp_path / "so22-twisted-double-of-double.json").read_text())
    assert data["dim"] == 24


def test_iterated_double_file_passes_the_jacobi_route(tmp_path):
    # double_of_double proves D(D) by ψ; validating its written file runs the
    # 24-dim Jacobi sum instead, and the two routes must give the same verdict
    code, report = run(tmp_path, "double", "so22-twisted", "--iterate", "--out", str(tmp_path))
    assert code == 0
    assert report["verdicts"]["iterated-jacobi"] == "pass"
    path = tmp_path / "so22-twisted-double-of-double.json"
    code, report = run(tmp_path, "validate", str(path))
    assert code == 0
    assert report["verdicts"] == {"jacobi": "pass"}


def test_double_matches_catalog_table(tmp_path):
    from liedouble.double import bracket_table_text

    code, _ = run(
        tmp_path, "double", "sl2-eta", "--out", str(tmp_path), "--format", "json"
    )
    assert code == 0
    text = (tmp_path / "sl2-eta-double.txt").read_text()
    assert text == bracket_table_text(catalog.load().algebra("d-sl2-eta"))


def test_double_iterate_trivial(tmp_path):
    code, report = run(
        tmp_path,
        "double", "sl2-trivial", "--iterate", "--out", str(tmp_path),
        "--format", "json",
    )
    assert code == 0
    assert report["verdicts"]["crossed-brackets"] == "pass"
    assert report["verdicts"]["iterated-jacobi"] == "pass"


def test_double_iterate_sl2_eta(tmp_path):
    code, report = run(
        tmp_path,
        "double", "sl2-eta", "--iterate", "--out", str(tmp_path),
        "--format", "json",
    )
    assert code == 0
    assert report["verdicts"]["crossed-brackets"] == "pass"


def test_classify_poisson_subgroup(tmp_path):
    code, report = run(tmp_path, "classify", "sl2-hyp", "span{J12}")
    assert code == 0
    cls = report["classification"]
    assert cls["coisotropic"] and cls["poisson_subgroup"]
    assert report["bracket_table"]["labels"] == ["J12", "a1", "a2"]


def test_classify_coisotropic_only(tmp_path):
    code, report = run(tmp_path, "classify", "sl2-hyp", "span{P1+P2}")
    assert code == 0
    cls = report["classification"]
    assert cls["coisotropic"] and not cls["poisson_subgroup"]
    code, report = run(tmp_path, "classify", "sl2-hyp-j", "span{J+}")
    assert code == 0
    cls = report["classification"]
    assert cls["coisotropic"] and not cls["poisson_subgroup"]


# the paper's sl(2,R) table: h = P1, J12 or P1+P2 is a Poisson subgroup
# under exactly one of the three bialgebras, and coisotropic under each
SL2_DIAGONAL = {"sl2-ell": "span{P1}", "sl2-hyp": "span{J12}", "sl2-par": "span{P1+P2}"}


@pytest.mark.parametrize("span", sorted(SL2_DIAGONAL.values()))
@pytest.mark.parametrize("key", sorted(SL2_DIAGONAL))
def test_classify_text_names_the_table_cell(key, span, capsys):
    assert main(["classify", key, span, "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  coisotropic: yes" in lines
    expected = "yes" if SL2_DIAGONAL[key] == span else "no"
    assert f"  poisson-subgroup: {expected}" in lines


def test_classify_text_names_the_violations(tmp_path, capsys):
    # the text report lists the JSON's violations, one line each
    argv = ["classify", "so22-twisted", "span{P0,K1}"]
    assert main([*argv, "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  violation: [P0, K1] leaves l: C'_(P0, K1)^(P1) = -1" in lines
    code, report = run(tmp_path, *argv)
    assert code == 1
    violations = report["classification"]["violations"]
    assert [line for line in lines if line.startswith("  violation: ")] == [
        f"  violation: {v}" for v in violations
    ]


def test_classify_twisted_lorentz(tmp_path):
    code, report = run(tmp_path, "classify", "so22-twisted", "J,K1,K2")
    assert code == 0
    cls = report["classification"]
    assert cls["coisotropic"] and not cls["poisson_subgroup"]


def test_classify_with_pi(tmp_path):
    code, report = run(
        tmp_path, "classify", "sl2-hyp", "span{J12}",
        "--pi", "[[0, 1], [-1, 0]]",
    )
    assert code == 0
    cls = report["classification"]
    assert cls["lagrangian"] is True
    assert cls["coisotropic"] is False  # nonzero pi


def test_classify_names_the_nonvanishing_pairing(tmp_path):
    """A non-antisymmetric π names its first nonzero π^{αβ} + π^{βα} by the
    labels of l, like every other violation line."""
    code, report = run(
        tmp_path, "classify", "sl2-hyp", "span{J12}", "--pi", "[[0, 1], [0, 0]]"
    )
    assert code == 1
    cls = report["classification"]
    assert cls["lagrangian"] is False
    assert cls["violations"] == [
        "l is not Lagrangian: pairing_(a1, a2) = 1",
        "[J12, a1] leaves l: M_(J12)^(P1, P1) = 1",
        "[J12, a2] leaves l: M_(J12)^(P2, P2) = 1",
    ]
    code, report = run(
        tmp_path, "classify", "sl2-eta", "span{X1}", "--pi", '[["eta", 0], [0, 0]]'
    )
    assert report["classification"]["violations"][0] == (
        "l is not Lagrangian: pairing_(x0, x0) = 2*eta"
    )


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("J+", ["0", "1", "0"]),
        ("J++J-", ["0", "1", "1"]),
        ("2*J+ - J3", ["-1", "2", "0"]),
        ("-J-", ["0", "0", "-1"]),
        ("1/2*eta*J3-J+", ["1/2*eta", "-1", "0"]),
        ("eta^-2*J-+J3", ["1", "0", "eta^-2"]),
    ],
)
def test_parse_generator_signed_labels(sl2_std, expr, expected):
    assert [str(x) for x in _parse_generator(expr, sl2_std)] == expected


def test_parse_generator_prefers_longest_label():
    from liedouble.liealg import new_lie_algebra

    abelian = new_lie_algebra(2, ("J", "J+"), [])
    assert [str(x) for x in _parse_generator("J+-J", abelian)] == ["-1", "1"]


@pytest.mark.parametrize("expr", ["J+J-", "2*", "J3 +", "Q9", "2**J3"])
def test_parse_generator_rejects_malformed(sl2_std, expr):
    with pytest.raises(ParseError):
        _parse_generator(expr, sl2_std)


@pytest.mark.parametrize("expr, spaced", [
    ("2\t*J3", "2 *J3"), ("2*\tJ3", "2* J3"), ("J3 -\tJ+", "J3 - J+"), ("J3\t", "J3 "),
])
def test_parse_generator_reads_whitespace_between_the_parts_of_a_term(sl2_std, expr, spaced):
    assert _parse_generator(expr, sl2_std) == _parse_generator(spaced, sl2_std)


def test_parse_generator_rejects_whitespace_inside_a_label():
    # whitespace splits a number, a name or a label; it stands only between
    # the parts of a term
    L = catalog.load().bialgebra("so22-r1").algebra
    for expr in ("2 3*J", "e ta*J", "K 1", "K\t1"):
        with pytest.raises(ParseError):
            _parse_generator(expr, L)
    assert main(["classify", "so22-r1", "span{2 3*J}"]) == 2
    assert main(["classify", "so22-r1", "span{K\t1}"]) == 2


def test_classify_bad_generator(tmp_path):
    assert main(["classify", "sl2-hyp", "span{Q9}"]) == 2
    assert main(["classify", "so22-r1", "span{1/0*J}"]) == 2


def test_classify_pi_that_is_not_json_is_an_input_error(capsys):
    assert main(["classify", "sl2-hyp", "span{J12}", "--pi", "[[0,"]) == 2
    assert "--pi is not valid JSON" in capsys.readouterr().err


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.fractions(max_denominator=10**6).filter(bool),
    st.dictionaries(st.sampled_from(("eta", "kappa", "z")), st.integers(-3, 3)),
)
def test_parse_generator_reads_every_single_term_coefficient(sl2_std, coef, exps):
    # a coefficient is one term of the text str writes, negative powers included
    p = PolyExpr({tuple(sorted((n, e) for n, e in exps.items() if e)): coef})
    assert _parse_generator(f"{p}*J3", sl2_std) == sl2_std.vector({"J3": p})


@pytest.mark.parametrize("span, combos, code", [
    # a subalgebra: l passes
    ("span{J-eta^-1*K1}", [{"J": "1", "K1": "-eta^-1"}], 0),
    # not a subalgebra: l fails verification, which is no input error
    ("span{eta*J+eta^-1*K1,K2}", [{"J": "eta", "K1": "eta^-1"}, {"K2": "1"}], 1),
])
def test_classify_generator_with_a_negative_exponent(tmp_path, span, combos, code):
    # the '-' of 'eta^-1' belongs to the coefficient, not to the next term
    L = catalog.load().bialgebra("so22-r1").algebra
    generators = span[len("span{"):-1].split(",")
    assert [_parse_generator(g, L) for g in generators] == [L.vector(c) for c in combos]
    got, report = run(tmp_path, "classify", "so22-r1", span)
    assert got == code
    assert report["verdicts"]["subalgebra"] == ("pass" if code == 0 else "fail")


def test_classify_completes_the_basis_with_one_elimination(monkeypatch, capsys):
    # one forward elimination of the columns (h, e_0, ..., e_5), 6 rows by 9
    # columns, and no rank per candidate; the adapted pass reduces its own
    from liedouble import exactlinalg

    ranks, forward = [], []
    rank, bareiss = exactlinalg.rank, exactlinalg._bareiss
    monkeypatch.setattr(exactlinalg, "rank", lambda rows: ranks.append(rows) or rank(rows))

    def counted(m, reduce):
        if not reduce:
            forward.append((len(m), len(m[0])))
        return bareiss(m, reduce)

    monkeypatch.setattr(exactlinalg, "_bareiss", counted)
    assert main(["classify", "so22-r1", "span{J,K1,K2}", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert ranks == [] and forward == [(6, 9)]
    assert report["bracket_table"]["labels"] == ["J", "K1", "K2", "p0", "p1", "p2"]


@pytest.mark.parametrize("span, completion", [
    ("span{J+eta*K1,J+K1}", "P0, P1, P2, K2"),
    ("span{J+eta*K1,J+K1,P0,P1,P2,K2}", "no vector"),
])
def test_classify_basis_with_no_laurent_inverse_is_an_input_error(span, completion, capsys):
    # det of the adapted basis is ±(1 - eta): A⁻¹ is not a Laurent matrix,
    # so nothing is verified and the generators are what to change
    assert main(["classify", "so22-r1", span]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: the generators {span}, completed by {completion}, give an "
        "adapted basis whose matrix has no Laurent inverse: its determinant "
        "±(1 - eta) is not one term\n"
    )


def test_verify_brackets_default_passes(tmp_path):
    code, report = run(tmp_path, "verify-brackets", "--format", "json")
    assert code == 0
    assert report["pass"] is True
    sklyanin = [r for r in report["results"] if "pair" in r]
    assert len(sklyanin) == 18  # six families, three pairs each
    checks = [r for r in report["results"] if "check" in r]
    assert len(checks) == 6  # two property cells, three checks each
    assert all(r["max_rel_err"] < 1e-9 for r in sklyanin)


# M^{ab}_c with a < b, as the literal linear brackets at the origin
ORIGIN_M = {
    "ads3-double1": {(0, 1, 2): "-1", (0, 2, 1): "1", (1, 2, 0): "1"},
    "ads3-twisted": {
        (0, 2, 0): "-1/2", (0, 2, 1): "-1/2*xi", (1, 2, 0): "-1/2*xi", (1, 2, 1): "-1/2",
    },
}


def origin_m(key):
    """The nonzero M^{ab}_c of the origin report of a bracket, keyed
    (a, b, c) by the index c of its complement of h: the entries of the
    report's M at adapted index n_h + c."""
    entry = catalog.get(key)
    n_h = len(entry.raw["isotropy"])
    m = _origin_report(catalog.load(), entry).m
    return {(a, b, k - n_h): v for (a, b, k), v in m.items() if k >= n_h}


@pytest.mark.parametrize(
    "key, poisson_subgroup", [("ads3-double1", True), ("ads3-twisted", False)]
)
def test_origin_report_is_the_papers_verdict(key, poisson_subgroup):
    # SL(2,R) is a Poisson subgroup for the first double structure; the
    # twisted bracket is coisotropic but not a Poisson-subgroup quotient
    rep = _origin_report(catalog.load(), catalog.get(key))
    assert rep.lagrangian and rep.subalgebra and rep.coisotropic
    assert rep.poisson_subgroup is poisson_subgroup
    m = {(a, b, c): str(v) for (a, b, c), v in origin_m(key).items() if a < b}
    assert m == ORIGIN_M[key]


@pytest.mark.parametrize("xi", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("key", ["ads3-double1", "ads3-twisted"])
def test_origin_report_is_the_linearized_closed_form(key, xi):
    params = {"eta": 0.5, "xi": xi}
    m = origin_m(key)
    lin = linearize(key, params)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                value = float(m[a, b, c].evaluate(params)) if (a, b, c) in m else 0.0
                assert abs(lin[a][b][c] - value) < 1e-6


def test_verify_brackets_filter_and_points(tmp_path):
    code, report = run(
        tmp_path, "verify-brackets", "--cells", "ads3-twisted", "--points", "50"
    )
    assert code == 0
    assert all(r["bracket_id"] == "ads3-twisted" for r in report["results"])


def test_verify_brackets_tolerance_floor(tmp_path):
    code, report = run(tmp_path, "verify-brackets", "--tol", "1e-15")
    assert code == 1
    assert report["pass"] is False


@pytest.mark.parametrize("points", ["0", "-3"])
def test_verify_brackets_needs_a_point(capsys, points):
    assert main(["verify-brackets", "--points", points]) == 2
    assert "--points must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol", "--tol-rel", "--tol-abs"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
def test_verify_brackets_rejects_bad_tolerance(capsys, flag, value):
    assert main(["verify-brackets", "--cells", "hyp-CK", f"{flag}={value}"]) == 2
    assert f"{flag} must be finite and non-negative" in capsys.readouterr().err


def test_verify_brackets_unknown_cell():
    assert main(["verify-brackets", "--cells", "nosuchcell"]) == 2


def test_reports_byte_identical_for_fixed_seed(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify-brackets", "--seed", "7", "--json", str(a)]) == 0
    assert main(["verify-brackets", "--seed", "7", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["verify-brackets", "--seed", "8", "--json", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_exit_zero_iff_all_pass(tmp_path):
    code, report = run(tmp_path, "verify-brackets", "--points", "5")
    assert (code == 0) == report["pass"]


@pytest.mark.parametrize(
    "argv",
    [
        ["span{1/0*J12}"],
        ["span{J12}", "--pi", '[[0, "1/0"], [0, 0]]'],
        ["span{J12}", "--pi", "5"],
        ["span{J12}", "--pi", '[["x@", 0], [0, 0]]'],
        ["span{J12}", "--pi", "[[0, 1, 2], [0, 0, 0]]"],
        ["span{J12}", "--pi", "[[0, 1]]"],
        ["span{J12}", "--pi", "[[0, null], [null, 0]]"],
        ["span{J12}", "--pi", "[[0, 0.5], [-0.5, 0]]"],
        ["span{P1,P1}"],
        ["span{P1, 2*P1}"],
        ["span{J12}", "--pi", "[[0, true], [false, 0]]"],
        ["span{J12}", "--pi", '["ab", "cd"]'],
        ["span{" + "1" * 5000 + "*J12}"],
    ],
)
def test_classify_malformed_input_exits_2(argv, capsys):
    assert main(["classify", "sl2-hyp", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, target, reason",
    [
        (["validate", "catalog:sl2.std", "--json"], "missing/r.json",
         "No such file or directory"),
        (["classify", "sl2-hyp", "span{J12}", "--json"], "missing/r.json",
         "No such file or directory"),
        # double prints its tables before the report: nothing may reach stdout
        (["double", "sl2-hyp", "--json"], "missing/r.json",
         "No such file or directory"),
        (["double", "sl2-hyp", "--iterate", "--json"], "file/r.json", "Not a directory"),
        (["verify-brackets", "--cells", "hyp", "--json"], ".", "Is a directory"),
        (["double", "sl2-hyp", "--out"], "file/x", "Not a directory"),
        (["double", "sl2-hyp", "--out"], "file", "File exists"),
    ],
)
def test_unwritable_output_is_an_input_error(tmp_path, capsys, argv, target, reason):
    (tmp_path / "file").write_text("")
    path = tmp_path / target
    assert main([*argv, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: cannot write {path}: {reason}\n"


def test_writable_check_leaves_no_file_behind(tmp_path, capsys):
    """The up-front --json check creates nothing a failed command leaves."""
    path = tmp_path / "r.json"
    assert main(["classify", "sl2-hyp", "span{Q}", "--json", str(path)]) == 2
    assert not path.exists()
    assert capsys.readouterr().err.startswith("error: cannot parse")


def test_validate_catalog_reports_declared_checks(tmp_path):
    for kind, key in (
        ("algebra", "sl2.std"),
        ("bialgebra", "sl2-hyp"),
        ("rmatrix", "sl2.hyperbolic"),
        ("basis_change", "PJ-from-Jpm"),
        ("bracket_fn", "hyp-CK"),
    ):
        code, report = run(tmp_path, "validate", f"catalog:{key}")
        assert code == 0
        assert report["inputs"]["kind"] == kind
        assert report["verdicts"] == dict.fromkeys(catalog.CHECKS[kind], "pass")


# Fraction objects one in-process `double so22-twisted --iterate --out`
# constructs with a fresh catalog: 16,032 when this bound was set (52,719
# when every arithmetic result re-coerced its coefficients), so about 1.5x.
DOUBLE_ITERATE_FRACTION_BUDGET = 24_000


def test_double_iterate_fraction_budget(tmp_path, monkeypatch):
    from fractions import Fraction

    monkeypatch.setattr(catalog, "_CATALOG", None)
    count = 0
    new = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        code = main(["double", "so22-twisted", "--iterate", "--out", str(tmp_path)])
    finally:
        Fraction.__new__ = new
    assert code == 0
    assert count <= DOUBLE_ITERATE_FRACTION_BUDGET


def load_cli_snapshot():
    """The module ``tools/cli_snapshot.py``."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"
    spec = importlib.util.spec_from_file_location("cli_snapshot", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    return snapshot


def test_every_report_passes_iff_every_verdict_passes(tmp_path, capsys):
    # one pass rule for every command of the snapshot list: a report passes
    # iff each of its verdicts is "pass", and the exit code is 0 iff it passes
    snapshot = load_cli_snapshot()
    argvs = snapshot.commands() + [["verify-brackets", "--tol", "1e-15"]]
    codes = collections.Counter()
    with snapshot.in_targets_dir():
        for n, argv in enumerate(argvs):
            path = tmp_path / f"report{n}.json"
            code = main([*argv, "--json", str(path)])
            if code == 2:  # an input error writes no report
                assert not path.exists()
                continue
            report = json.loads(path.read_text())
            assert report["pass"] == all(v == "pass" for v in report["verdicts"].values())
            assert code == (0 if report["pass"] else 1), argv
            codes[code] += 1
    capsys.readouterr()
    assert code == 1  # verify-brackets at a tolerance no cell meets
    assert codes[0] and codes[1]


def test_cli_snapshot_matches_the_committed_one(capsys):
    # tools/cli_snapshot.py, run in-process, prints the committed fingerprints;
    # an intended output change regenerates tests/data/cli_snapshot.txt
    snapshot = load_cli_snapshot()
    assert snapshot.main() == 0
    got = capsys.readouterr().out.splitlines()
    assert got == (GOLDEN / "cli_snapshot.txt").read_text().splitlines()
