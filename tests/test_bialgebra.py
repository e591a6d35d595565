import re

import pytest
from dense import dense_c, dense_f

from liedouble.bialgebra import cocomm_from_wedge, from_json, new_bialgebra, to_json
from liedouble.errors import NotACobracket, ShapeError
from liedouble.exactalg import PolyExpr
from liedouble.liealg import LieAlgebra, algebras_equal, new_lie_algebra
from liedouble.rmatrix import cocommutator_from_r

P = PolyExpr.parse


def brute_double_jacobi_violations(L, f):
    """Independent oracle: assemble the double's brackets straight from the
    defining relations and scan the cyclic Jacobi sum by brute force."""
    n = L.dim
    dim = 2 * n
    c_l = dense_c(L)
    c = [[[PolyExpr.zero()] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = c_l[i][j][k]
                c[n + i][n + j][n + k] = f[k][i][j]
                c[n + i][j][n + k] = c[n + i][j][n + k] + c_l[j][k][i]
                c[n + i][j][k] = c[n + i][j][k] - f[j][i][k]
    for a in range(n):
        for b in range(n, dim):
            for k in range(dim):
                c[a][b][k] = -c[b][a][k]
    bad = []
    for a in range(dim):
        for b in range(dim):
            for d in range(dim):
                for m in range(dim):
                    total = PolyExpr.zero()
                    for k in range(dim):
                        total = total + c[a][b][k] * c[k][d][m]
                        total = total + c[b][d][k] * c[k][a][m]
                        total = total + c[d][a][k] * c[k][b][m]
                    if not total.is_zero:
                        bad.append((a, b, d, m))
    return bad


def test_hyperbolic_bialgebra_is_valid(sl2_hyp):
    assert sl2_hyp.dim == 3
    assert sl2_hyp.dual_labels == ("a1", "a2", "theta")


def test_trivial_bialgebra_is_valid(sl2_ck):
    B = new_bialgebra(sl2_ck, cocomm_from_wedge(sl2_ck, []))
    assert B.cocomm.nonzero() == []


def test_not_a_cobracket(sl2_std):
    f = cocomm_from_wedge(sl2_std, [(0, 1, 2, 1)])  # δ(J3) = J+ ∧ J-
    assert brute_double_jacobi_violations(sl2_std, dense_f(f))
    with pytest.raises(NotACobracket):
        new_bialgebra(sl2_std, f)


def test_valid_cocommutators_match_brute_oracle(sl2_ck, sl2_hyp):
    assert brute_double_jacobi_violations(sl2_ck, dense_f(sl2_hyp.cocomm)) == []


def test_explicit_cocommutators_are_coboundary(sl2_ck, sl2_std, rmats,
                                               sl2_hyp, sl2_ell, sl2_par,
                                               sl2_hyp_j, sl2_par_j):
    pairs = [
        (sl2_hyp, sl2_ck, "hyp_ck"),
        (sl2_ell, sl2_ck, "ell_ck"),
        (sl2_par, sl2_ck, "par_ck"),
        (sl2_hyp_j, sl2_std, "hyp_j"),
        (sl2_par_j, sl2_std, "par_j"),
    ]
    for B, L, key in pairs:
        assert dense_f(B.cocomm) == dense_f(cocommutator_from_r(L, rmats[key]))


def test_sl2_eta_matches_half_eta_coboundary(sl2_x, sl2_eta):
    from liedouble.rmatrix import rmatrix_from_wedge

    r = rmatrix_from_wedge(sl2_x.labels, [("X1", "X2", "1/2*eta")])
    assert dense_f(sl2_eta.cocomm) == dense_f(cocommutator_from_r(sl2_x, r))


def test_cocomm_apply_examples(sl2_hyp, so22_twisted):
    # δ(J12) = 0 on sl2-hyp and δ(K1) = 0 on so22-twisted: the planes
    # f_i^{jk} of those generators vanish
    for B, label in ((sl2_hyp, "J12"), (so22_twisted, "K1")):
        plane = dense_f(B.cocomm)[B.algebra.index(label)]
        assert all(x.is_zero for row in plane for x in row)


def test_cocomm_apply_is_delta(sl2_hyp):
    plane = dense_f(sl2_hyp.cocomm)[sl2_hyp.algebra.index("P1")]
    assert plane[0][2] == P("2*eta")
    assert plane[2][0] == P("-2*eta")


def test_coboundary_of_mcybe_is_valid_bialgebra(sl2_ck, so22_eta, rmats):
    for L, key in ((sl2_ck, "hyp_ck"), (sl2_ck, "ell_ck"), (sl2_ck, "par_ck")):
        new_bialgebra(L, cocommutator_from_r(L, rmats[key]))
    new_bialgebra(so22_eta, cocommutator_from_r(so22_eta, rmats["r1"]))
    twisted = rmats["twisted"].substitute({"xi": 1})
    new_bialgebra(so22_eta, cocommutator_from_r(so22_eta, twisted))


def test_shape_errors(sl2_ck):
    with pytest.raises(ShapeError):
        new_bialgebra(sl2_ck, new_lie_algebra(4, ("a", "b", "c", "d"), []))
    one = PolyExpr.one()
    # g* holds f_0^{12} as C*_12^0; the dense entries list f_0^{21} = C*_21^0
    # too, which the storage does not hold
    bad = [(1, 2, 0, one), (2, 1, 0, -one)]
    with pytest.raises(ShapeError, match=re.escape("structure constant (2,1,0)")):
        LieAlgebra(3, sl2_ck.labels, (), bad)


@pytest.mark.parametrize(
    "key",
    [(1, 2, 0), (0, 2, 1), (2, 1, 1), (0, 0, 0), (3, 0, 1), (0, 1, 3), (-1, 0, 1)],
)
def test_cocomm_names_a_key_out_of_order_or_range(sl2_hyp, key):
    # f_i^{jk} is stored as C*_jk^i of g*, at j < k only, each index in
    # range: any other key, such as a lower-half partner, a diagonal entry
    # or an index outside [0, 3), raises and is named; the valid entries
    # before it are kept
    i, j, k = key
    g_star = sl2_hyp.cocomm
    entries = [*g_star.nonzero(), (j, k, i, P("5/7"))]
    with pytest.raises(ShapeError, match=re.escape(f"structure constant ({j},{k},{i})")):
        LieAlgebra(3, g_star.labels, g_star.params, entries)
    assert LieAlgebra(3, g_star.labels, g_star.params, entries[:-1]) == g_star


def test_json_round_trip(sl2_hyp, iso11_eta):
    for B in (sl2_hyp, iso11_eta):
        data = to_json(B)
        back = from_json(data)
        assert algebras_equal(back.algebra, B.algebra)
        assert dense_f(back.cocomm) == dense_f(B.cocomm)
        assert back.dual_labels == B.dual_labels


def test_not_a_cobracket_message(sl2_std):
    f = cocomm_from_wedge(sl2_std, [(0, 1, 2, 1)])  # δ(J3) = J+ ∧ J-
    with pytest.raises(NotACobracket) as exc:
        new_bialgebra(sl2_std, f)
    assert str(exc.value) == (
        "double violates Jacobi at 12 components (first: "
        "Jacobi_(J3, J+, d:J3)^(J+) = -1; Jacobi_(J3, J+, d:J+)^(J3) = 1; "
        "Jacobi_(J3, J-, d:J3)^(J-) = -1; Jacobi_(J3, J-, d:J-)^(J3) = 1)"
    )


def test_cocomm_from_wedge_sums_duplicates_and_drops_cancelled():
    abc = new_lie_algebra(3, ("a", "b", "c"), [])
    f = cocomm_from_wedge(
        abc,
        [(0, 1, 2, 1), (0, 2, 1, "eta"), (1, 0, 2, 1), (1, 2, 0, 1), (2, 0, 1, 0)],
    )
    assert f.nonzero() == [(1, 2, 0, P("1 - eta"))]  # f_0^{12} as C*_12^0
    assert f.params == ("eta",) and f.labels == abc.labels
    assert cocomm_from_wedge(abc, [("c", "a", "b", 2), ("c", "a", "b", 3)]) == (
        new_lie_algebra(3, abc.labels, [(0, 1, 2, 5)])
    )
