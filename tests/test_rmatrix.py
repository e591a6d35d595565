import random
import re
from fractions import Fraction as Q
from itertools import combinations

import pytest
from dense import dense_c, dense_f, dense_r
from hypothesis import given, settings, strategies as st

from liedouble import catalog
from liedouble.errors import DimensionMismatch, ShapeError
from liedouble.exactalg import PolyExpr
from liedouble.liealg import substitute_params
from liedouble.rmatrix import (
    RMatrix,
    _cybe_residual,
    cocommutator_from_r,
    is_cybe,
    is_mcybe,
    rmatrix_from_wedge,
)

P = PolyExpr.parse
CATALOG_RMATRICES = catalog.load().list("rmatrix")


def schouten_oracle(L, r):
    """Direct three-term expansion with no index gymnastics."""
    n = L.dim
    t, r = dense_c(L), dense_r(r)
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = PolyExpr.zero()
                for l in range(n):
                    for m in range(n):
                        c = t[l][m]
                        total = total + c[i] * r[l][j] * r[m][k]
                        total = total + c[j] * r[i][l] * r[m][k]
                        total = total + c[k] * r[i][l] * r[j][m]
                out[(i, j, k)] = total
    return out


def ad_oracle(L, t):
    """(ad_{X_m} T)^{jkl} = Σ_a ( C_ma^j T^{akl} + C_ma^k T^{jal}
    + C_ma^l T^{jka} ) for a 3-tensor T given as {(j, k, l): value},
    keyed (m, j, k, l)."""
    n = L.dim
    dense = dense_c(L)
    out = {}
    for m in range(n):
        c = dense[m]
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total = PolyExpr.zero()
                    for a in range(n):
                        total = total + c[a][j] * t[(a, k, l)]
                        total = total + c[a][k] * t[(j, a, l)]
                        total = total + c[a][l] * t[(j, k, a)]
                    out[(m, j, k, l)] = total
    return out


def assert_cybe_identity(L, r):
    """_cybe_residual is −[[r,r]]^{ijm} for i < j, component by component."""
    oracle = schouten_oracle(L, r)
    expected = {
        (i, j, m): -value
        for (i, j, m), value in oracle.items()
        if i < j and not value.is_zero
    }
    assert _cybe_residual(L, r, cocommutator_from_r(L, r)) == expected
    return oracle


def assert_mcybe_identity(L, r, oracle):
    """The Jacobi residual R_jkl^m of g* = δ_r is −(ad_{X_m}[[r,r]])^{jkl}."""
    ad = ad_oracle(L, oracle)
    expected = {
        (j, k, l, m): -ad[(m, j, k, l)]
        for j, k, l in combinations(range(L.dim), 3)
        for m in range(L.dim)
        if not ad[(m, j, k, l)].is_zero
    }
    assert cocommutator_from_r(L, r).jacobi_components() == expected
    return ad


def wedge_coeff(f, L, i_label, j_label, k_label):
    """Coefficient of X_j ∧ X_k in δ(X_i) (our wedge is u⊗v − v⊗u)."""
    i, j, k = (L.index(x) for x in (i_label, j_label, k_label))
    return f[i][j][k]


def test_hyperbolic_cocommutator_is_deltastandard(sl2_ck, rmats):
    f = dense_f(cocommutator_from_r(sl2_ck, rmats["hyp_ck"]))
    # δ(J12) = 0
    assert all(x.is_zero for row in f[sl2_ck.index("J12")] for x in row)
    # δ(P1) = 2η P1∧J12, δ(P2) = 2η P2∧J12
    assert wedge_coeff(f, sl2_ck, "P1", "P1", "J12") == P("2*eta")
    assert wedge_coeff(f, sl2_ck, "P1", "J12", "P1") == P("-2*eta")
    assert wedge_coeff(f, sl2_ck, "P2", "P2", "J12") == P("2*eta")
    nonzero = [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if not f[i][j][k].is_zero
    ]
    assert sorted(nonzero) == [(0, 0, 2), (0, 2, 0), (1, 1, 2), (1, 2, 1)]


def test_zero_r_gives_zero_cocommutator(sl2_ck):
    r = RMatrix(sl2_ck.labels, {})
    assert cocommutator_from_r(sl2_ck, r).nonzero() == []


def test_generic_cocommutator_matches_published_coefficients(glambda, rmats):
    f = dense_f(cocommutator_from_r(glambda, rmats["generic"]))
    # selected coefficients of the 15-parameter cocommutator on (J,K1,K2)
    assert wedge_coeff(f, glambda, "K1", "J", "K1") == P("c2")
    assert wedge_coeff(f, glambda, "K1", "J", "P0") == P("a1 + b4")
    assert wedge_coeff(f, glambda, "K1", "J", "P1") == P("a6 + c1")
    assert wedge_coeff(f, glambda, "K1", "J", "P2") == P("b5")
    assert wedge_coeff(f, glambda, "K2", "K1", "P1") == P("a1")
    assert wedge_coeff(f, glambda, "K2", "P2", "K2") == P("b4")
    assert wedge_coeff(f, glambda, "K2", "P0", "K1") == P("b6 - c1")
    assert wedge_coeff(f, glambda, "K2", "P2", "J") == P("b6 - c1")
    assert wedge_coeff(f, glambda, "J", "K1", "P0") == P("b4")
    assert wedge_coeff(f, glambda, "J", "K1", "P1") == P("a6 + b6")
    assert wedge_coeff(f, glambda, "J", "P2", "K2") == P("a6 + b6")
    # no curvature parameter enters the Lorentz-sector cocommutator
    for lab in ("J", "K1", "K2"):
        i = glambda.index(lab)
        for row in f[i]:
            for entry in row:
                assert "kappa" not in entry.parameters()


def test_cocommutator_upper_antisymmetry_random(glambda):
    rng = random.Random(31)
    labels = glambda.labels
    for _ in range(6):
        terms = []
        for a in range(6):
            for b in range(a + 1, 6):
                if rng.random() < 0.4:
                    terms.append((labels[a], labels[b], Q(rng.randint(-3, 3))))
        r = rmatrix_from_wedge(labels, terms)
        f = dense_f(cocommutator_from_r(glambda, r))
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert f[i][j][k] == -f[i][k][j]


def test_rmatrix_shape_checks(sl2_ck):
    with pytest.raises(ShapeError):
        RMatrix(("a", "b"), {(1, 0): PolyExpr.one()})
    with pytest.raises(ShapeError):
        rmatrix_from_wedge(("a", "b"), [("a", "a", 1)])
    with pytest.raises(DimensionMismatch):
        cocommutator_from_r(sl2_ck, rmatrix_from_wedge(("a", "b"), [("a", "b", 1)]))


def test_schouten_zero_r(sl2_ck):
    r = RMatrix(sl2_ck.labels, {})
    assert all(v.is_zero for v in schouten_oracle(sl2_ck, r).values())
    assert _cybe_residual(sl2_ck, r, cocommutator_from_r(sl2_ck, r)) == {}
    assert is_cybe(sl2_ck, r) and is_mcybe(sl2_ck, r)


def test_parabolic_is_triangular(sl2_ck, rmats):
    r = rmats["par_ck"]
    assert _cybe_residual(sl2_ck, r, cocommutator_from_r(sl2_ck, r)) == {}
    assert is_cybe(sl2_ck, r)


def test_carrier_345_is_triangular(glambda, rmats):
    assert is_cybe(glambda, rmats["carrier345"])


def test_hyperbolic_schouten_matches_oracle_and_cybe_fails(sl2_ck, rmats):
    r = rmats["hyp_ck"]
    oracle = assert_cybe_identity(sl2_ck, r)
    # [[r,r]] = 4η² P1∧P2∧J12: one alternating component
    assert oracle[(0, 1, 2)] == P("4*eta^2")
    assert _cybe_residual(sl2_ck, r, cocommutator_from_r(sl2_ck, r)) == {
        (0, 1, 2): P("-4*eta^2"), (0, 2, 1): P("4*eta^2"), (1, 2, 0): P("-4*eta^2")
    }
    assert not is_cybe(sl2_ck, r)


def test_elliptic_and_hyperbolic_are_mcybe(sl2_ck, rmats):
    assert is_mcybe(sl2_ck, rmats["hyp_ck"])
    assert is_mcybe(sl2_ck, rmats["ell_ck"])


def test_r1_is_mcybe_on_negative_lambda(glambda, rmats):
    alg = substitute_params(glambda, {"kappa": P("eta^2")})
    assert is_mcybe(alg, rmats["r1"])
    assert not is_cybe(alg, rmats["r1"])


def test_twisted_rmatrix_is_mcybe(glambda, rmats):
    # the twist family solves the mCYBE for symbolic curvature and xi
    assert is_mcybe(glambda, rmats["twisted"])


def test_cybe_implies_mcybe(sl2_ck, glambda, rmats):
    assert is_mcybe(sl2_ck, rmats["par_ck"])
    assert is_mcybe(glambda, rmats["carrier345"])


def on_variety_points(rng, count):
    """Exact rational points of a2^2 + b2^2 - c2^2 - 4 kappa a6^2 = 0
    (kappa = eta^2), generated by rational rotations of (a2, b2)."""
    pts = []
    while len(pts) < count:
        a2 = Q(rng.randint(-8, 8), rng.randint(1, 4))
        b2 = Q(rng.randint(-8, 8), rng.randint(1, 4))
        alpha = Q(rng.randint(-6, 6), rng.randint(1, 4))
        eta = Q(rng.randint(1, 5), rng.randint(1, 3))
        den = 1 + alpha * alpha
        cos_t = (1 - alpha * alpha) / den
        sin_t = 2 * alpha / den
        c2 = a2 * cos_t - b2 * sin_t
        s = a2 * sin_t + b2 * cos_t
        a6 = s / (2 * eta)
        if a2 == 0 and b2 == 0:
            continue
        pts.append({"a2": a2, "b2": b2, "c2": c2, "a6": a6, "eta": eta})
    return pts


def psc_at_point(pt):
    return rmatrix_from_wedge(
        ("J", "P0", "P1", "P2", "K1", "K2"),
        [
            ("J", "K1", pt["a2"]),
            ("J", "K2", pt["b2"]),
            ("K1", "K2", pt["c2"]),
            ("J", "P0", -pt["a6"]),
            ("P1", "K2", pt["a6"]),
            ("K1", "P2", pt["a6"]),
        ],
    )


def test_psc_family_mcybe_on_and_off_variety(glambda):
    rng = random.Random(4242)
    constraint = P("a2^2 + b2^2 - c2^2 - 4*kappa*a6^2")
    on_pts = on_variety_points(rng, 10)
    for pt in on_pts:
        kappa = pt["eta"] ** 2
        assert constraint.evaluate({**pt, "kappa": kappa}) == 0
        alg = substitute_params(glambda, {"kappa": kappa})
        assert is_mcybe(alg, psc_at_point(pt))
    off = 0
    for pt in on_variety_points(rng, 20):
        pt = dict(pt)
        pt["c2"] = pt["c2"] + 1
        kappa = pt["eta"] ** 2
        if constraint.evaluate({**pt, "kappa": kappa}) == 0:
            continue
        alg = substitute_params(glambda, {"kappa": kappa})
        assert not is_mcybe(alg, psc_at_point(pt))
        off += 1
        if off >= 10:
            break
    assert off >= 10


def test_psc_symbolic_declared_not_identically_mcybe(glambda, rmats):
    assert not is_mcybe(glambda, rmats["psc"])


@pytest.mark.parametrize("verdict", [is_cybe, is_mcybe])
def test_verdict_dimension_check(sl2_ck, verdict):
    r = rmatrix_from_wedge(("a", "b"), [("a", "b", 1)])
    with pytest.raises(DimensionMismatch):
        verdict(sl2_ck, r)


@pytest.mark.parametrize("key", CATALOG_RMATRICES)
def test_residuals_match_oracle_on_catalog(key):
    # the residual generators of both verdicts, pinned to [[r,r]] and its
    # ad-action on every shipped r-matrix
    cat = catalog.load()
    L, r = cat.rmatrix_algebra(key), cat.rmatrix(key)
    oracle = assert_cybe_identity(L, r)
    ad = assert_mcybe_identity(L, r, oracle)
    declared = cat.get(key).raw["verdicts"]
    assert all(v.is_zero for v in oracle.values()) == declared["cybe"]
    assert all(v.is_zero for v in ad.values()) == declared["mcybe"]


# The 6-dim carriers, where the oracles take about 0.1 s, are drawn less
# often than the 3-dim ones.  Every 3-dim carrier here is unimodular, so
# mCYBE fails only on a 6-dim one.
_CARRIERS = catalog.load().list("algebra") + catalog.load().list("bialgebra")
_SMALL = [k for k in _CARRIERS if catalog.load()._raw[k]["dim"] == 3]
_LARGE = [k for k in _CARRIERS if catalog.load()._raw[k]["dim"] > 3]
_COEFFS = ("1", "-1", "2", "1/2", "eta", "-eta", "a", "b*eta")


@st.composite
def random_wedge_r(draw):
    large = draw(st.integers(0, 5)) == 5
    L = catalog.load().algebra(draw(st.sampled_from(_LARGE if large else _SMALL)))
    pairs = list(combinations(L.labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
    terms = [(i, j, draw(st.sampled_from(_COEFFS))) for i, j in chosen]
    return L, rmatrix_from_wedge(L.labels, terms)


def test_verdicts_agree_with_oracle_on_random_r():
    seen = set()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(random_wedge_r())
    def check(case):
        L, r = case
        oracle = schouten_oracle(L, r)
        cybe = all(v.is_zero for v in oracle.values())
        mcybe = all(v.is_zero for v in ad_oracle(L, oracle).values())
        assert is_cybe(L, r) == cybe
        assert is_mcybe(L, r) == mcybe
        seen.add((cybe, mcybe))

    check()
    assert {cybe for cybe, _ in seen} == {True, False}
    assert {mcybe for _, mcybe in seen} == {True, False}


def test_wedge_terms_and_json_round_trip(rmats):
    r = rmats["r1"]
    terms = r.wedge_terms()
    rebuilt = rmatrix_from_wedge(
        r.labels, [(r.labels[i], r.labels[j], c) for i, j, c in terms]
    )
    assert dense_r(rebuilt) == dense_r(r)
    as_json = r.to_json()
    again = rmatrix_from_wedge(
        r.labels, [(e["i"], e["j"], e["coef"]) for e in as_json]
    )
    assert dense_r(again) == dense_r(r)


def test_rmatrix_from_wedge_orders_sums_and_cancels():
    # X_j ∧ X_i is −X_i ∧ X_j, duplicates are summed, cancelled terms dropped
    r = rmatrix_from_wedge(
        ("a", "b", "c"),
        [("b", "a", "eta"), ("a", "b", 2), ("a", "c", 1), ("c", "a", 1),
         ("b", "c", "1/2"), ("b", "c", "1/2")],
    )
    assert r.terms == {(0, 1): P("2 - eta"), (1, 2): P("1")}
    assert r.wedge_terms() == [(0, 1, P("2 - eta")), (1, 2, P("1"))]
    assert dense_r(r) == [
        [P("0"), P("2 - eta"), P("0")],
        [P("eta - 2"), P("0"), P("1")],
        [P("0"), P("-1"), P("0")],
    ]
    assert rmatrix_from_wedge(("a", "b"), [("a", "b", 1), ("b", "a", 1)]).terms == {}


@pytest.mark.parametrize("key", [(1, 0), (1, 1), (0, 3), (-1, 2)])
def test_rmatrix_names_a_term_out_of_order_or_range(key):
    with pytest.raises(ShapeError, match=re.escape(f"r-matrix term ({key[0]},{key[1]})")):
        RMatrix(("a", "b", "c"), {(0, 1): PolyExpr.one(), key: PolyExpr.one()})


def dense_r_oracle(labels, terms):
    """r^{ij} from labelled wedge terms, filled into a dense matrix."""
    n = len(labels)
    r = [[PolyExpr.zero()] * n for _ in range(n)]
    for li, lj, coef in terms:
        i, j, coef = labels.index(li), labels.index(lj), P(coef)
        r[i][j] = r[i][j] + coef
        r[j][i] = r[j][i] - coef
    return r


def dense_cocommutator_oracle(L, r):
    """f_i^{jk} = Σ_l (C_il^j r^{lk} + C_il^k r^{jl}) over dense loops."""
    n = L.dim
    c = dense_c(L)
    return [
        [
            [
                sum(
                    (c[i][l][j] * r[l][k] + c[i][l][k] * r[j][l] for l in range(n)),
                    PolyExpr.zero(),
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize("key", CATALOG_RMATRICES)
def test_catalog_rmatrix_and_cocommutator_match_dense_oracles(key):
    cat = catalog.load()
    L, r = cat.rmatrix_algebra(key), cat.rmatrix(key)
    terms = [(t["i"], t["j"], t["coef"]) for t in cat.get(key).raw["terms"]]
    dense = dense_r_oracle(list(r.labels), terms)
    assert dense_r(r) == dense
    assert dense_f(cocommutator_from_r(L, r)) == dense_cocommutator_oracle(L, dense)
