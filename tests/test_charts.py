import itertools
import json
import math
import random

import numpy as np
import pytest

from dense import dense_c

from liedouble import catalog, charts
from liedouble.charts import (
    ADS3,
    CK,
    PM,
    BracketFn,
    ChartPoint,
    SklyaninCell,
    bracket_fn,
    chart_inverse,
    ck_chart_inverse,
    closed_form,
    flat_limit_check,
    generator_matrix,
    group_matrix,
    invariant_fields,
    jacobi_numeric,
    linearize,
    pm_chart_inverse,
    sklyanin_numeric,
    verify_sklyanin_cell,
)
from liedouble.errors import OutOfChart, UnknownBracket, WrongChart


def expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential (test oracle only)."""
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, ord=np.inf)
    k = max(0, int(math.ceil(math.log2(max(norm, 1e-16) / 0.25))))
    b = a / (2**k)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for n in range(1, 24):
        term = term @ b / n
        result = result + term
    for _ in range(k):
        result = result @ result
    return result


def test_ck_matrix_identity():
    assert np.allclose(group_matrix(ChartPoint(CK, (0, 0, 0))), np.eye(3))
    assert np.allclose(group_matrix(ChartPoint(PM, (0, 0, 0))), np.eye(2))


def test_ck_matrix_pure_boost():
    theta = 0.7
    m = group_matrix(ChartPoint(CK, (theta, 0, 0)))
    expected = np.array(
        [
            [1, 0, 0],
            [0, math.cosh(theta), math.sinh(theta)],
            [0, math.sinh(theta), math.cosh(theta)],
        ]
    )
    assert np.allclose(m, expected, atol=1e-14)


def test_ck_matrix_product_property():
    rng = random.Random(12)
    for _ in range(10):
        theta, a1, a2 = (rng.uniform(-1.2, 1.2) for _ in range(3))
        m = group_matrix(ChartPoint(CK, (theta, a1, a2)))
        prod = (
            expm(a1 * generator_matrix(CK, "P1"))
            @ expm(a2 * generator_matrix(CK, "P2"))
            @ expm(theta * generator_matrix(CK, "J12"))
        )
        assert np.max(np.abs(m - prod)) < 1e-12


def test_pm_matrix_product_property():
    rng = random.Random(13)
    for _ in range(10):
        ap, am, chi = (rng.uniform(-1.0, 1.0) for _ in range(3))
        m = group_matrix(ChartPoint(PM, (ap, am, chi)))
        prod = (
            expm(am * generator_matrix(PM, "J-"))
            @ expm(ap * generator_matrix(PM, "J+"))
            @ expm(chi * generator_matrix(PM, "J3"))
        )
        assert np.max(np.abs(m - prod)) < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_ck_chart_inverse_identity():
    p = ck_chart_inverse(np.eye(3))
    assert p.coords == (0.0, 0.0, 0.0)


def test_ck_chart_round_trip():
    p = ChartPoint(CK, (0.3, -0.4, 0.5))
    q = ck_chart_inverse(group_matrix(p))
    assert max(abs(x - y) for x, y in zip(p.coords, q.coords)) < 1e-10
    rng = random.Random(99)
    for _ in range(20):
        p = ChartPoint(CK, tuple(rng.uniform(-1.2, 1.2) for _ in range(3)))
        q = ck_chart_inverse(group_matrix(p))
        assert max(abs(x - y) for x, y in zip(p.coords, q.coords)) < 1e-10


def test_ck_chart_inverse_out_of_chart():
    bad = np.eye(3)
    bad[2][2] = 0.0
    with pytest.raises(OutOfChart):
        ck_chart_inverse(bad)
    with pytest.raises(OutOfChart):
        ck_chart_inverse(np.diag([1.0, 2.0, 3.0]))  # not in the group


def test_pm_chart_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        p = ChartPoint(PM, tuple(rng.uniform(-1.0, 1.0) for _ in range(3)))
        q = pm_chart_inverse(group_matrix(p))
        assert max(abs(x - y) for x, y in zip(p.coords, q.coords)) < 1e-10
    with pytest.raises(OutOfChart):
        pm_chart_inverse(np.array([[-1.0, 0.0], [0.0, -1.0]]))


def test_invariant_field_examples():
    # the last factor's generator moves only its coordinate on the left, the
    # first factor's on the right
    left, right = invariant_fields(ChartPoint(CK, (0.4, -0.3, 0.8)))
    assert np.allclose(left["J12"], [1, 0, 0])
    assert np.allclose(right["P1"], [0, 1, 0])
    pm_left, _ = invariant_fields(ChartPoint(PM, (0.2, 0.7, 0.0)))
    assert np.allclose(pm_left["J+"], [1, 0, 0])


def test_wrong_chart_errors(rmats):
    with pytest.raises(WrongChart):
        sklyanin_numeric(CK, rmats["hyp_ck"], {"eta": 1.0}, ChartPoint(PM, (0, 0, 0)))
    for call, chart_id in (
        (lambda: invariant_fields(ChartPoint(ADS3, (0, 0, 0))), ADS3),
        (lambda: group_matrix(ChartPoint(ADS3, (0, 0, 0))), ADS3),
        (lambda: chart_inverse(ADS3, np.eye(2)), ADS3),
        (lambda: chart_inverse("XY", np.eye(2)), "XY"),
        (lambda: generator_matrix(ADS3, "J"), ADS3),
    ):
        with pytest.raises(WrongChart) as exc:
            call()
        assert str(exc.value) == f"chart {chart_id} has no matrix representation"
    with pytest.raises(WrongChart):
        generator_matrix(CK, "J3")
    with pytest.raises(WrongChart):
        ChartPoint("XY", (0, 0, 0))


@pytest.mark.parametrize("chart_id, algebra", [(CK, "sl2.ck"), (PM, "sl2.std")])
def test_generator_matrices_carry_the_catalog_brackets(chart_id, algebra):
    """[ρ(X_i), ρ(X_j)] = Σ_k C_ij^k ρ(X_k) exactly, with C read from the
    catalog algebra whose labels the chart's r-matrices carry."""
    L = catalog.load().algebra(algebra)
    c = dense_c(L)
    rho = [generator_matrix(chart_id, label) for label in L.labels]
    for i in range(L.dim):
        for j in range(L.dim):
            combo = sum(float(c[i][j][k].evaluate({})) * rho[k] for k in range(L.dim))
            assert np.array_equal(rho[i] @ rho[j] - rho[j] @ rho[i], combo), (i, j)


def test_invariance_oracle_all_fields():
    """The derived fields match the pushforward of t -> coords(g exp(tX))
    (left) and t -> coords(exp(tX) g) (right) at t = 0, by central
    differences through the chart inverses."""
    rng = random.Random(2718)
    h = 1e-6
    for chart_id in (CK, PM):
        labels = ("P1", "P2", "J12") if chart_id == CK else ("J3", "J+", "J-")
        for _ in range(6):
            coords = tuple(rng.uniform(-0.8, 0.8) for _ in range(3))
            p = ChartPoint(chart_id, coords)
            g = group_matrix(p)
            for side, fields in zip(("left", "right"), invariant_fields(p)):
                for lab in labels:
                    x = generator_matrix(chart_id, lab)
                    step_plus = expm(h * x)
                    step_minus = expm(-h * x)
                    if side == "left":
                        gp, gm = g @ step_plus, g @ step_minus
                    else:
                        gp, gm = step_plus @ g, step_minus @ g
                    cp = chart_inverse(chart_id, gp).coords
                    cm = chart_inverse(chart_id, gm).coords
                    numeric = [(a - b) / (2 * h) for a, b in zip(cp, cm)]
                    assert np.max(np.abs(np.array(numeric) - fields[lab])) < 1e-6


def test_sklyanin_hyperbolic_origin_is_zero(rmats):
    bracket = sklyanin_numeric(
        CK, rmats["hyp_ck"], {"eta": 1.0}, ChartPoint(CK, (0, 0, 0))
    )
    assert bracket[1, 2] == 0.0  # {a1, a2}


def test_sklyanin_hyperbolic_specific_point(rmats):
    p = ChartPoint(CK, (0.3, -0.4, 0.5))
    bracket = sklyanin_numeric(CK, rmats["hyp_ck"], {"eta": 1.0}, p)
    expected = 2.0 * (1.0 / math.cosh(0.5) - math.cos(0.4))
    assert abs(bracket[1, 2] - expected) < 1e-9  # {a1, a2}


def test_sklyanin_parabolic_pm_point(rmats):
    p = ChartPoint(PM, (0.2, 0.7, -0.1))
    bracket = sklyanin_numeric(PM, rmats["par_j"], {}, p)
    assert abs(bracket[2, 1] - (-0.5 * 0.7**2)) < 1e-9  # {chi, a-}


def test_sklyanin_antisymmetry_is_exact(rmats):
    rng = random.Random(3)
    coords = charts.CHART_COORDS[CK]
    i, j = coords.index("theta"), coords.index("a2")
    for _ in range(10):
        p = ChartPoint(CK, tuple(rng.uniform(-1, 1) for _ in range(3)))
        bracket = sklyanin_numeric(CK, rmats["hyp_ck"], {"eta": 0.7}, p)
        assert bracket[i, j] == -bracket[j, i]


def sklyanin_by_wedge_terms(r, params, p):
    """The Sklyanin matrix summed wedge term by wedge term (reference)."""
    left, right = invariant_fields(p)
    out = np.zeros((3, 3))
    for a, b, coef in r.wedge_terms():
        w = float(coef.evaluate(params))
        for fields, sign in ((left, w), (right, -w)):
            fa, fb = fields[r.labels[a]], fields[r.labels[b]]
            out += sign * (np.outer(fa, fb) - np.outer(fb, fa))
    return out


def test_bracket_matrices_are_exactly_antisymmetric(rmats):
    params = {"eta": 0.6, "xi": 0.4, "z": 0.7}
    rng = random.Random(3)
    for _ in range(10):
        for cell in verification_cells(rmats):
            p = charts._sample_point(rng, cell.chart_id)
            bracket = sklyanin_numeric(cell.chart_id, cell.r, params, p)
            reference = sklyanin_by_wedge_terms(cell.r, params, p)
            assert np.max(np.abs(bracket - reference)) < 1e-12
            assert np.array_equal(bracket, -bracket.T)
            assert not bracket.diagonal().any()
        for fn in charts._BRACKETS.values():
            p = charts._sample_point(rng, fn.chart_id)
            bracket = closed_form(fn.id, p, params)
            assert np.array_equal(bracket, -bracket.T), fn.id
            assert not bracket.diagonal().any(), fn.id


def test_every_bracket_names_each_coordinate_pair_once():
    for fn in charts._BRACKETS.values():
        pairs = set(itertools.combinations(charts.CHART_COORDS[fn.chart_id], 2))
        assert len(fn.pairs) == len(pairs), fn.id
        assert {frozenset(key) for key in fn.pairs} == set(map(frozenset, pairs))


def test_sklyanin_rejects_mismatched_labels(rmats):
    with pytest.raises(WrongChart):
        sklyanin_numeric(CK, rmats["hyp_j"], {"eta": 1.0}, ChartPoint(CK, (0, 0, 0)))


def verification_cells(rmats):
    return [
        SklyaninCell("hyp-CK", CK, rmats["hyp_ck"], {"eta": (0.3, 0.9)}),
        SklyaninCell("hyp-PM", PM, rmats["hyp_j"], {"eta": (0.3, 0.9)}),
        SklyaninCell("ell-CK", CK, rmats["ell_ck"], {"z": (0.3, 0.9)}),
        SklyaninCell("ell-PM", PM, rmats["ell_j"], {"z": (0.3, 0.9)}),
        SklyaninCell("par-CK", CK, rmats["par_ck"], {}),
        SklyaninCell("par-PM", PM, rmats["par_j"], {}),
    ]


def test_all_published_families_match_sklyanin(rmats):
    rng = random.Random(42)
    for cell in verification_cells(rmats):
        results = verify_sklyanin_cell(
            cell, rng, n_points=20, tol_rel=1e-9, tol_abs=1e-12
        )
        assert len(results) == 3
        for res in results:
            assert res["pass"], res


def test_verify_sklyanin_cell_reads_every_pair_at_each_point(rmats, monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return invariant_fields(p)

    monkeypatch.setattr(charts, "invariant_fields", counting)
    for cell in verification_cells(rmats):
        calls.clear()
        results = verify_sklyanin_cell(cell, random.Random(5), 7, 1e-9, 1e-12)
        assert len(calls) == 7
        assert len(results) == 3
        assert all(res["pass"] for res in results), results


def test_verification_is_deterministic(rmats):
    def run():
        rng = random.Random(7)
        out = []
        for cell in verification_cells(rmats):
            out.extend(
                verify_sklyanin_cell(cell, rng, 5, 1e-9, 1e-12)
            )
        return json.dumps(out, sort_keys=True)

    assert run() == run()


def test_closed_form_antisymmetric_lookup():
    p = ChartPoint(CK, (0.2, 0.1, -0.4))
    bracket = closed_form("hyp-CK", p, {"eta": 0.5})
    coords = charts.CHART_COORDS[CK]
    i, j = coords.index("theta"), coords.index("a2")
    assert bracket[i, j] != 0
    assert bracket[i, j] == -bracket[j, i]


def test_closed_form_examples():
    p = ChartPoint(CK, (0.1, 0.2, 0.3))
    bracket = closed_form("hyp-CK", p, {"eta": 0.5})
    assert abs(bracket[0, 2] - (-1.0 * math.tanh(0.3))) < 1e-15  # {theta, a2}
    p = ChartPoint(ADS3, (0.0, 0.4, 0.9))
    bracket = closed_form("ads3-double1", p, {"eta": 0.6})
    assert bracket[1, 2] == 0.0  # tan(eta x0) factor vanishes at x0 = 0
    bracket = closed_form(
        "ads3-twisted", ChartPoint(ADS3, (0.3, -0.2, 0.8)), {"eta": 0.4, "xi": 0.0}
    )
    assert bracket[0, 1] == 0.0  # xi prefactor
    p = ChartPoint(PM, (0.2, 0.7, -0.1))
    bracket = closed_form("par-PM", p, {})
    assert bracket[1, 2] == 0.5 * 0.7 * 0.7  # stored as {chi, a-}
    with pytest.raises(UnknownBracket):
        closed_form("nosuch", ChartPoint(ADS3, (0, 0, 0)), {})


def test_linearize_twisted_matches_linearized_bracket():
    lin = linearize("ads3-twisted", {"eta": 0.3, "xi": 1.0})
    # {x0,x2}_lin = -1/2 (x0 + xi x1), {x1,x2}_lin = -1/2 (xi x0 + x1)
    assert np.max(np.abs(lin[0][1])) < 1e-6
    assert np.max(np.abs(lin[0][2] - np.array([-0.5, -0.5, 0.0]))) < 1e-6
    assert np.max(np.abs(lin[1][2] - np.array([-0.5, -0.5, 0.0]))) < 1e-6
    lin = linearize("ads3-twisted", {"eta": 0.3, "xi": 0.25})
    assert np.max(np.abs(lin[0][2] - np.array([-0.5, -0.125, 0.0]))) < 1e-6


def test_linearize_double1_matches_linear_table():
    lin = linearize("ads3-double1", {"eta": 0.3})
    assert np.max(np.abs(lin[0][1] - np.array([0.0, 0.0, -1.0]))) < 1e-6
    assert np.max(np.abs(lin[0][2] - np.array([0.0, 1.0, 0.0]))) < 1e-6
    assert np.max(np.abs(lin[1][2] - np.array([1.0, 0.0, 0.0]))) < 1e-6


def test_linearize_hyperbolic_vanishes():
    # register a CK-restricted view: the {a1,a2} bracket has no linear term
    lin = linearize("hyp-CK", {"eta": 0.5})
    assert np.max(np.abs(lin[1][2])) < 1e-6  # pair (a1, a2)


def test_jacobi_numeric_ads3():
    rng = random.Random(31337)
    for _ in range(10):
        p = ChartPoint(ADS3, tuple(rng.uniform(-1, 1) for _ in range(3)))
        assert jacobi_numeric("ads3-double1", {"eta": 0.4}, p) < 1e-6
        assert jacobi_numeric("ads3-twisted", {"eta": 0.4, "xi": 1.0}, p) < 1e-6
        assert jacobi_numeric("ads3-twisted", {"eta": 0.4, "xi": 0.3}, p) < 1e-6


def test_jacobi_numeric_constant_bracket_exact_zero(monkeypatch):
    monkeypatch.setitem(
        charts._BRACKETS,
        "test-constant",
        BracketFn(
            "test-constant",
            ADS3,
            {
                ("x0", "x1"): lambda q, c: 1.25,
                ("x0", "x2"): lambda q, c: -0.5,
                ("x1", "x2"): lambda q, c: 2.0,
            },
        )
    )
    assert jacobi_numeric("test-constant", {}, ChartPoint(ADS3, (0.3, 0.1, -0.2))) == 0.0


def test_flat_limit_twisted_untwisted_kappa_minkowski():
    p = ChartPoint(ADS3, (0.7, -0.4, 0.5))
    flat = flat_limit_check("ads3-twisted", p, params={"xi": 0.0})
    assert abs(flat[0, 2] - (-0.5 * 0.7)) < 1e-6
    assert abs(flat[1, 2] - (-0.5 * -0.4)) < 1e-6


def test_flat_limit_double1_rotation_algebra():
    p = ChartPoint(ADS3, (0.7, -0.4, 0.5))
    target = np.array([[0.0, -0.5, -0.4], [0.5, 0.0, 0.7], [0.4, -0.7, 0.0]])
    assert np.max(np.abs(flat_limit_check("ads3-double1", p) - target)) < 1e-6


def test_flat_limit_twisted_01_vanishes():
    p = ChartPoint(ADS3, (0.9, 0.8, -0.6))
    flat = flat_limit_check("ads3-twisted", p, params={"xi": 1.0})
    assert abs(flat[0, 1]) < 1e-6


def test_bracket_ids_include_builtins():
    for expected in (
        "hyp-CK",
        "hyp-PM",
        "ell-CK",
        "ell-PM",
        "par-CK",
        "par-PM",
        "ads3-double1",
        "ads3-twisted",
    ):
        assert bracket_fn(expected).id == expected
    assert bracket_fn("hyp-CK").chart_id == CK
