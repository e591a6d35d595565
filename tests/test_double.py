from pathlib import Path

import pytest

from liedouble import catalog
from liedouble.bialgebra import CocommTensor, cocomm_from_wedge, new_bialgebra
from liedouble.double import (
    _psi_mismatches,
    _term_prefix,
    bracket_table_text,
    build_double,
    canonical_cocommutator,
    crossed_bracket_mismatches,
    double_of_double,
    pairing,
)
from liedouble.errors import DimensionMismatch
from liedouble.exactalg import PolyExpr
from liedouble.liealg import (
    algebras_equal,
    bracket,
    is_jacobi_zero,
    jacobi_violations,
    new_lie_algebra,
)
from liedouble.rmatrix import is_mcybe

P = PolyExpr.parse
GOLDEN = Path(__file__).parent / "data"


def test_double_sl2_eta_reproduces_published_table(sl2_eta, d_sl2_eta_published):
    D = build_double(sl2_eta)
    assert algebras_equal(D.algebra, d_sl2_eta_published)
    assert D.algebra.labels == ("X0", "X1", "X2", "x0", "x1", "x2")
    # spot check: [x0, X1] = x2 + (η/2) X1
    out = bracket(
        D.algebra, D.algebra.basis_vector("x0"), D.algebra.basis_vector("X1")
    )
    assert out[5] == PolyExpr.one()
    assert out[1] == P("1/2*eta")
    assert is_jacobi_zero(D.algebra)


def test_double_iso11_eta_reproduces_published_table(
    iso11_eta, d_iso11_eta_published
):
    D = build_double(iso11_eta)
    assert algebras_equal(D.algebra, d_iso11_eta_published)
    # spot check: [x1, X2] = x0
    out = bracket(
        D.algebra, D.algebra.basis_vector("x1"), D.algebra.basis_vector("X2")
    )
    assert out[3] == PolyExpr.one()
    assert is_jacobi_zero(D.algebra)


def test_double_of_trivial_abelian_bialgebra():
    abelian = new_lie_algebra(2, ("e1", "e2"), [])
    B = new_bialgebra(abelian, CocommTensor(2, []))
    D = build_double(B)
    assert all(
        D.algebra.c[i][j][k].is_zero
        for i in range(4)
        for j in range(4)
        for k in range(4)
    )


def test_pairing_values(sl2_hyp):
    D = build_double(sl2_hyp)
    for i in range(3):
        xi = D.algebra.basis_vector(i)
        dual = D.algebra.basis_vector(3 + i)
        assert pairing(D, xi, dual) == PolyExpr.one()
        assert pairing(D, dual, xi) == PolyExpr.one()
        for j in range(3):
            assert pairing(D, xi, D.algebra.basis_vector(j)).is_zero
    v = [1, 0, 0, 1, 0, 0]
    assert pairing(D, v, v) == PolyExpr.const(2)
    with pytest.raises(DimensionMismatch):
        pairing(D, [1, 0], [0, 1])


def test_pairing_ad_invariance(sl2_hyp, iso11_eta):
    for B in (sl2_hyp, iso11_eta):
        D = build_double(B)
        dim = D.dim
        for w in range(dim):
            wv = D.algebra.basis_vector(w)
            for u in range(dim):
                uv = D.algebra.basis_vector(u)
                for v in range(dim):
                    vv = D.algebra.basis_vector(v)
                    total = pairing(D, bracket(D.algebra, wv, uv), vv) + pairing(
                        D, uv, bracket(D.algebra, wv, vv)
                    )
                    assert total.is_zero


def test_canonical_skew_r_is_half_antisymmetrization(sl2_hyp):
    # the skew part of r = Σ x^i ⊗ X_i: r[n+i][i] = 1/2, r[i][n+i] = -1/2
    D = build_double(sl2_hyp)
    n = D.n
    for a in range(D.dim):
        for b in range(D.dim):
            if a == b + n:
                expected = P("1/2")
            elif b == a + n:
                expected = P("-1/2")
            else:
                expected = PolyExpr.zero()
            assert D.canonical_r_skew.r[a][b] == expected


def test_canonical_skew_r_is_mcybe_on_double(sl2_hyp, iso11_eta):
    for B in (sl2_hyp, iso11_eta):
        D = build_double(B)
        assert is_mcybe(D.algebra, D.canonical_r_skew)


def test_canonical_cocommutator_tensor(sl2_eta):
    D = build_double(sl2_eta)
    delta = canonical_cocommutator(D)
    n = 3
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert delta.f[i][j][k] == -sl2_eta.cocomm.f[i][j][k]
                assert delta.f[n + i][n + j][n + k] == sl2_eta.algebra.c[j][k][i]


def test_double_split_pattern_h_t_partition(sl2_hyp):
    # partition the base {H} = {J12}, {T} = {P1, P2}; the mixed bracket
    # [t^a, H_i] must equal C^a_{i b} t^b + C^a_{i j} h^j - f_i^{a j} H_j
    # - f_i^{a b} T_b, read off from the split form of the double bracket
    D = build_double(sl2_hyp)
    L = sl2_hyp.algebra
    f = sl2_hyp.cocomm.f
    h_idx = [L.index("J12")]
    t_idx = [L.index("P1"), L.index("P2")]
    for alpha in t_idx:
        t_vec = D.algebra.basis_vector(3 + alpha)
        for i in h_idx:
            got = bracket(D.algebra, t_vec, D.algebra.basis_vector(i))
            expected = [PolyExpr.zero()] * 6
            for c in range(3):
                expected[3 + c] = L.c[i][c][alpha]  # C^alpha_{i c} t^c
                expected[c] = -f[i][alpha][c]       # -f_i^{alpha c} H_c
            assert got == expected


def crossed_bracket_expectations(D2, B):
    """Assemble the iterated-double crossed brackets from (C, f) of the base."""
    n = B.dim
    alg = D2.algebra
    C = B.algebra.c
    f = B.cocomm.f

    def vec(*pairs):
        v = [PolyExpr.zero()] * (4 * n)
        for idx, coef in pairs:
            v[idx] = v[idx] + coef
        return v

    cases = []
    for i in range(n):
        for j in range(n):
            yi = alg.basis_vector(2 * n + i)
            Yi = alg.basis_vector(3 * n + i)
            Xj = alg.basis_vector(j)
            xj = alg.basis_vector(n + j)
            # [Y_i, X_j] = C_ij^k Y_k
            cases.append(
                (Yi, Xj, vec(*(((3 * n + k), C[i][j][k]) for k in range(n))))
            )
            # [y^i, x^j] = f_k^{ij} y^k
            cases.append(
                (yi, xj, vec(*(((2 * n + k), f[k][i][j]) for k in range(n))))
            )
            # [y^i, X_j] = C_jk^i y^k + f_j^{ik} (X_k - Y_k)
            pairs = [((2 * n + k), C[j][k][i]) for k in range(n)]
            pairs += [(k, f[j][i][k]) for k in range(n)]
            pairs += [((3 * n + k), -f[j][i][k]) for k in range(n)]
            cases.append((yi, Xj, vec(*pairs)))
            # [Y_i, x^j] = f_i^{jk} Y_k - C_ik^j (x^k + y^k)
            pairs = [((3 * n + k), f[i][j][k]) for k in range(n)]
            pairs += [((n + k), -C[i][k][j]) for k in range(n)]
            pairs += [((2 * n + k), -C[i][k][j]) for k in range(n)]
            cases.append((Yi, xj, vec(*pairs)))
    return cases


def test_double_of_double_crossed_brackets(sl2_eta, iso11_eta):
    for B in (sl2_eta, iso11_eta):
        D2 = double_of_double(B)
        assert D2.dim == 12
        assert D2.algebra.labels[6:] == ("y0", "y1", "y2", "Y0", "Y1", "Y2")
        for u, v, expected in crossed_bracket_expectations(D2, B):
            assert bracket(D2.algebra, u, v) == expected


def test_double_of_double_dual_sector(sl2_eta):
    # [Y_i, Y_j] = C_ij^k Y_k, [y^i, y^j] = -f_k^{ij} y^k, [y^i, Y_j] = 0
    B = sl2_eta
    D2 = double_of_double(B)
    alg = D2.algebra
    n = 3
    for i in range(n):
        for j in range(n):
            got = bracket(
                alg, alg.basis_vector(9 + i), alg.basis_vector(9 + j)
            )
            expected = [PolyExpr.zero()] * 12
            for k in range(n):
                expected[9 + k] = B.algebra.c[i][j][k]
            assert got == expected
            got = bracket(
                alg, alg.basis_vector(6 + i), alg.basis_vector(6 + j)
            )
            expected = [PolyExpr.zero()] * 12
            for k in range(n):
                expected[6 + k] = -B.cocomm.f[k][i][j]
            assert got == expected
            assert all(
                x.is_zero
                for x in bracket(
                    alg, alg.basis_vector(6 + i), alg.basis_vector(9 + j)
                )
            )


def test_double_of_double_restricts_to_double(sl2_eta, iso11_eta):
    for B in (sl2_eta, iso11_eta):
        D1 = build_double(B)
        D2 = double_of_double(B)
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert D2.algebra.c[i][j][k] == D1.algebra.c[i][j][k]
                for k in range(6, 12):
                    assert D2.algebra.c[i][j][k].is_zero


def test_double_of_double_trivial_abelian():
    abelian = new_lie_algebra(2, ("e1", "e2"), [])
    B = new_bialgebra(abelian, CocommTensor(2, []))
    D2 = double_of_double(B)
    crossed = [
        (a, b)
        for a in range(4, 8)
        for b in range(4)
    ]
    for a, b in crossed:
        assert all(
            x.is_zero
            for x in bracket(
                D2.algebra, D2.algebra.basis_vector(a), D2.algebra.basis_vector(b)
            )
        )


def test_double_of_double_pairing(sl2_eta):
    D2 = double_of_double(sl2_eta)
    alg = D2.algebra
    # <Y_i, x^j> = <y^j, X_i> = δ_i^j
    for i in range(3):
        assert pairing(
            D2, alg.basis_vector(9 + i), alg.basis_vector(3 + i)
        ) == PolyExpr.one()
        assert pairing(
            D2, alg.basis_vector(6 + i), alg.basis_vector(i)
        ) == PolyExpr.one()
        assert pairing(D2, alg.basis_vector(9 + i), alg.basis_vector(i)).is_zero
        assert pairing(
            D2, alg.basis_vector(6 + i), alg.basis_vector(3 + i)
        ).is_zero


def format_combo(labels, coeffs, prefix=_term_prefix):
    """Render Σ coeff_k · label_k from a dense row, e.g. ``x2 + 1/2*eta*X1``;
    ``prefix(coef)`` gives the text before a label.  The oracle that the
    one-pass rows of :func:`bracket_table_text` are checked against."""
    terms = [prefix(coef) + lab for lab, coef in zip(labels, coeffs) if coef.terms]
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


def test_format_combo():
    labels = ("A", "B")
    assert format_combo(labels, [P("1"), P("0")]) == "A"
    assert format_combo(labels, [P("-1"), P("2*eta")]) == "-A + 2*eta*B"
    assert format_combo(labels, [P("0"), P("1 + eta")]) == "(1 + eta)*B"
    assert format_combo(labels, [P("0"), P("0")]) == "0"
    # ±1, one term and several terms, each in either place
    assert format_combo(labels, [P("1"), P("-1")]) == "A - B"
    assert format_combo(labels, [P("1/2*eta"), P("-1/2*eta")]) == "1/2*eta*A - 1/2*eta*B"
    assert format_combo(labels, [P("-eta^-1"), P("2")]) == "-eta^-1*A + 2*B"
    assert format_combo(labels, [P("1 - eta"), P("-1")]) == "(1 - eta)*A - B"
    assert format_combo(labels, [P("-1"), P("eta^-1 - 2/3*eta*kappa")]) == (
        "-A + (eta^-1 - 2/3*eta*kappa)*B"
    )


def assert_rows_match_the_dense_oracle(L, prefix=_term_prefix):
    """Each line of the table of L is ``[e_a, e_b] = `` and the oracle's
    rendering of the dense row C_ab^·, in the order a < b."""
    lines = bracket_table_text(L).splitlines()
    pairs = [(a, b) for a in range(L.dim) for b in range(a + 1, L.dim)]
    assert len(lines) == len(pairs)
    for line, (a, b) in zip(lines, pairs):
        head, _, row = line.partition(" = ")
        assert head.rstrip() == f"[{L.labels[a]}, {L.labels[b]}]"
        assert row == format_combo(L.labels, L.c[a][b], prefix), (a, b)


def count_renders(monkeypatch):
    """The list of polynomials whose text is rendered anew from now on."""
    rendered = []
    real = PolyExpr._render
    monkeypatch.setattr(PolyExpr, "_render", lambda p: rendered.append(p) or real(p))
    return rendered


def coefficient_ids(*algebras):
    return {id(coef) for L in algebras for *_, coef in L.nonzero()}


def test_bracket_table_renders_each_shared_coefficient_once(so22_twisted, monkeypatch):
    # the entries of D(D(a)) share the coefficients of C and f, and each
    # coefficient keeps its text: the first table renders each distinct
    # coefficient object at most once, a second table renders none, and
    # every row is still format_combo of the dense row
    L = double_of_double(so22_twisted).algebra
    rendered = count_renders(monkeypatch)
    first = bracket_table_text(L)
    ids = [id(p) for p in rendered]
    assert len(set(ids)) == len(ids) and set(ids) <= coefficient_ids(L)
    rendered.clear()
    assert bracket_table_text(L) == first and rendered == []
    assert_rows_match_the_dense_oracle(L)


@pytest.mark.parametrize("key", ["so22-r1", "so22-twisted@13/17*eta - 19/23"])
def test_a_double_iterate_op_renders_each_coefficient_once(key, monkeypatch):
    # the tables of D(a) and then D(D(a)), as `double --iterate` prints them:
    # D(D(a))'s renders only coefficients that D(a)'s did not, and a second
    # op on the same bialgebra renders none
    B = case(key)
    rendered = count_renders(monkeypatch)
    D = build_double(B)
    bracket_table_text(D.algebra)
    in_first = len(rendered)
    D2 = double_of_double(B)
    tables = bracket_table_text(D.algebra), bracket_table_text(D2.algebra)
    ids = [id(p) for p in rendered]
    assert len(set(ids)) == len(ids) and set(ids) <= coefficient_ids(D.algebra, D2.algebra)
    assert not set(ids[in_first:]) & coefficient_ids(D.algebra)
    rendered.clear()
    D, D2 = build_double(B), double_of_double(B)
    assert (bracket_table_text(D.algebra), bracket_table_text(D2.algebra)) == tables
    assert rendered == []


def test_shared_table_heads_keep_each_algebras_rows(so22_r1, so22_twisted):
    # the doubles of so22-r1 and so22-twisted have the same 12 labels, so
    # their tables share one set of row heads, but not their rows
    r1, tw = build_double(so22_r1).algebra, build_double(so22_twisted).algebra
    assert r1.labels == tw.labels and r1.dim == 12
    texts = []
    for L in (r1, tw, r1, tw):
        assert_rows_match_the_dense_oracle(L)
        texts.append(bracket_table_text(L))
    assert texts[0] == texts[2] != texts[1] == texts[3]


@pytest.mark.parametrize("key", sorted(catalog.load().list("bialgebra")))
def test_bracket_tables_of_both_doubles_match_the_dense_oracle(key):
    B = catalog.load().bialgebra(key)
    for L in (B.double_algebra, double_of_double(B).algebra):
        assert_rows_match_the_dense_oracle(L)


def test_bracket_table_renders_every_kind_of_coefficient():
    # 1, −1, a rational, a parameter term, several terms and a Laurent term,
    # each after another term of its row and each but the rational also
    # first in one; [e0, e3] has no term
    rows = {
        (0, 1): [(0, "1"), (1, "-1"), (2, "-3/4"), (3, "2*eta")],
        (0, 2): [(3, "-3/4"), (2, "2*eta"), (1, "1 - eta"), (0, "-eta^-1*kappa")],
        (1, 2): [(0, "2*eta"), (3, "-eta^-1*kappa")],
        (1, 3): [(0, "1 - eta"), (2, "1")],
        (2, 3): [(1, "-1"), (2, "-3/4")],
    }
    brackets = [(a, b, k, P(c)) for (a, b), terms in rows.items() for k, c in terms]
    L = new_lie_algebra(4, ("e0", "e1", "e2", "e3"), brackets)
    assert_rows_match_the_dense_oracle(L)
    assert bracket_table_text(L) == (
        "[e0, e1] = e0 - e1 - 3/4*e2 + 2*eta*e3\n"
        "[e0, e2] = -eta^-1*kappa*e0 + (1 - eta)*e1 + 2*eta*e2 - 3/4*e3\n"
        "[e0, e3] = 0\n"
        "[e1, e2] = 2*eta*e0 - eta^-1*kappa*e3\n"
        "[e1, e3] = (1 - eta)*e0 + e2\n"
        "[e2, e3] = -e1 - 3/4*e2\n"
    )


def test_bracket_table_of_an_algebra_with_no_pairs_is_empty():
    from liedouble.homogeneous import LagrangianSpec, lagrangian_bracket_table

    assert bracket_table_text(new_lie_algebra(0, (), [])) == ""
    assert bracket_table_text(new_lie_algebra(1, ("a",), [])) == ""
    # the table of the 1-dim Lagrangian l = span{a} of D(a) for the 1-dim a
    B = new_bialgebra(new_lie_algebra(1, ("a",), []), CocommTensor(1, []))
    D = build_double(B)
    table = lagrangian_bracket_table(D, LagrangianSpec([B.algebra.basis_vector(0)], [], []))
    assert table.dim == 1
    assert bracket_table_text(table) == ""
    assert bracket_table_text(D.algebra) == "[a, d:a] = 0\n"


def test_bracket_table_text_golden(sl2_hyp):
    D = build_double(sl2_hyp)
    text = bracket_table_text(D.algebra)
    golden = (GOLDEN / "d_sl2_hyp_table.txt").read_text()
    assert text == golden


def test_bracket_table_json_round_trip(sl2_hyp):
    from liedouble.liealg import from_json

    D = build_double(sl2_hyp)
    data = D.algebra.to_json()
    assert algebras_equal(from_json(data), D.algebra)


def test_build_double_reuses_the_validated_algebra(sl2_hyp, so22_twisted):
    for B in (sl2_hyp, so22_twisted):
        assert build_double(B).algebra is B.double_algebra


def test_iterated_double_evaluates_its_jacobi_residual_once(so22_twisted, monkeypatch):
    from liedouble import liealg

    evaluated = []
    evaluate = liealg._jacobi_components

    def counting(L):
        evaluated.append(L.dim)
        return evaluate(L)

    monkeypatch.setattr(liealg, "_jacobi_components", counting)
    D2 = double_of_double(so22_twisted)
    assert jacobi_violations(D2.algebra) == []
    # ψ proves the identity, so the 24-dim residual is never summed
    assert evaluated == []


def test_iterated_double_jacobi_fraction_cost_guard(so22_r1, so22_twisted):
    # The Jacobi check of each 24-dim D(D(so22)) after eta -> 13/17*eta - 19/23
    # built 23.4k (so22-r1) and 23.1k (so22-twisted) Fractions when it summed
    # Fraction coefficients.  Summed over integers it builds none: both
    # residuals vanish, so no component is divided back.
    from liedouble import liealg
    from liedouble.bialgebra import substitute_params
    from test_homogeneous import fraction_constructions

    for B in (so22_r1, so22_twisted):
        B = substitute_params(B, {"eta": P("13/17*eta - 19/23")})
        L = double_of_double(B).algebra
        assert L.dim == 24
        assert fraction_constructions(lambda: liealg._jacobi_components(L)) <= 1_000


def test_kept_jacobi_components_match_oracle(sl2_eta):
    from test_liealg import jacobi_oracle

    def oracle_violations(L):
        return sorted(key for key, value in jacobi_oracle(L).items() if not value.is_zero)

    D2 = double_of_double(sl2_eta)
    assert jacobi_violations(D2.algebra) == oracle_violations(D2.algebra) == []
    # [J3,J+] = J+, [J3,J-] = J-, [J+,J-] = J3 violates Jacobi along J3
    broken = new_lie_algebra(3, ("J3", "J+", "J-"), [(0, 1, 1, 1), (0, 2, 2, 1), (1, 2, 0, 1)])
    expected = oracle_violations(broken)
    assert expected
    assert jacobi_violations(broken) == expected
    assert jacobi_violations(broken) == expected  # from the kept components
    assert not is_jacobi_zero(broken)


def test_crossed_bracket_mismatch_messages(sl2_hyp, sl2_ell):
    # D(D) of one bialgebra against the closed forms of another
    got = crossed_bracket_mismatches(double_of_double(sl2_hyp), sl2_ell)
    assert got == [
        f"[{a}, {b}] differs from the closed form"
        for a, b in (
            ("y0", "P1"), ("Y0", "a1"), ("y0", "a2"), ("y0", "P2"), ("y0", "theta"),
            ("y0", "J12"), ("Y0", "theta"), ("y1", "a1"), ("Y1", "a1"), ("y1", "P2"),
            ("Y1", "a2"), ("y1", "theta"), ("Y1", "theta"), ("y2", "a1"), ("y2", "P1"),
            ("Y2", "a1"), ("y2", "a2"), ("y2", "P2"), ("y2", "J12"), ("Y2", "theta"),
        )
    ]


# --- D(D(a)) ≅ D(a) ⊕ D(a) by ψ ----------------------------------------------


# every catalog bialgebra, and so22 after eta -> 13/17*eta - 19/23
CASES = sorted(catalog.load().list("bialgebra")) + [
    "so22-r1@13/17*eta - 19/23", "so22-twisted@13/17*eta - 19/23",
]


def case(key):
    from liedouble.bialgebra import substitute_params

    key, _, eta = key.partition("@")
    B = catalog.load().bialgebra(key)
    return substitute_params(B, {"eta": P(eta)}) if eta else B


def psi_image(n, a):
    """ψ(e_a) for the basis {X, x, y, Y} of D(D(a)) as a pair of vectors of
    D(a): ψ(u) = (u, u), ψ(y^j) = (0, -x^j), ψ(Y_j) = (X_j, 0)."""
    def unit(i, sign=1):
        return [PolyExpr.const(sign if k == i else 0) for k in range(2 * n)]

    zero = unit(-1)
    if a < 2 * n:
        return unit(a), unit(a)
    if a < 3 * n:
        return zero, unit(a - n, -1)
    return unit(a - 3 * n), zero


@pytest.mark.parametrize("key", CASES)
def test_psi_route_agrees_with_the_jacobi_sum(key):
    from liedouble import liealg

    B = case(key)
    D2 = double_of_double(B)  # raises NotACobracket on a mismatch
    assert D2.algebra.jacobi_components() == {}
    assert crossed_bracket_mismatches(D2, B) == []
    # the 4n-dim Jacobi sum, forced on the same outer algebra, agrees
    assert liealg._jacobi_components(D2.algebra) == {}


@pytest.mark.parametrize("key", CASES)
def test_psi_is_an_isometry_onto_the_difference_pairing(key):
    # <u, v> on D(D(a)) is <ψ(u)_1, ψ(v)_1> - <ψ(u)_2, ψ(v)_2> on D(a)
    B = case(key)
    D, D2 = build_double(B), double_of_double(B)
    n = B.dim
    images = [psi_image(n, a) for a in range(4 * n)]
    for a, (u1, u2) in enumerate(images):
        for b, (v1, v2) in enumerate(images):
            expected = pairing(D, u1, v1) - pairing(D, u2, v2)
            got = pairing(D2, D2.algebra.basis_vector(a), D2.algebra.basis_vector(b))
            assert got == expected, (key, a, b)


@pytest.mark.parametrize("key", CASES)
def test_double_builder_matches_a_dense_scan(key):
    # the sparse view and parameters of D and D(D), assigned from C and f,
    # are what a scan of the dense tensor finds
    from liedouble.liealg import _algebra_of, _nonzero_entries

    B = case(key)
    for L in (B.double_algebra, double_of_double(B).algebra):
        scanned = _algebra_of(L.labels, [e for e in _nonzero_entries(L.c) if e[0] < e[1]])
        assert L.nonzero() == scanned.nonzero()
        assert L.params == scanned.params


@pytest.mark.parametrize("key", CASES)
def test_double_of_double_takes_the_parameters_of_the_inner_double(key, monkeypatch):
    # every entry of δ_D is an entry of D(a), so no entry is scanned again
    B = case(key)
    calls = []
    real = PolyExpr.parameters
    monkeypatch.setattr(PolyExpr, "parameters", lambda p: calls.append(p) or real(p))
    D2 = double_of_double(B)
    assert calls == []
    assert D2.algebra.params == B.double_algebra.params


def test_double_builder_negates_no_entry(so22_twisted, monkeypatch):
    # each −C_ij^k and −f_k^{ij} the double stores is the negation that its
    # coefficient keeps, computed when B's double was first built, and each
    # −f_i^{jk} of δ_D is read from D(a): building them again computes no
    # negation and builds no polynomial
    from liedouble import exactalg
    from liedouble.bialgebra import _double_algebra

    built = []
    real = exactalg._canonical
    monkeypatch.setattr(exactalg, "_canonical", lambda terms: built.append(terms) or real(terms))
    B = so22_twisted
    again = _double_algebra(B.algebra, B.cocomm, B.dual_labels)
    delta = canonical_cocommutator(build_double(B))
    assert built == []
    assert again == B.double_algebra
    coefs = {id(coef) for *_, coef in B.double_algebra.nonzero()}
    assert all(id(coef) in coefs for *_, coef in [*again.nonzero(), *delta.nonzero()])


def test_psi_is_a_lie_isomorphism_by_an_independent_bracket(sl2_eta, so22_twisted):
    # ψ([e_a, e_b]) = ([ψ(e_a)_1, ψ(e_b)_1], [ψ(e_a)_2, ψ(e_b)_2]), with both
    # sides from liealg.bracket rather than the sparse rows double_of_double reads
    for B in (sl2_eta, so22_twisted):
        D, D2 = build_double(B), double_of_double(B)
        n = B.dim
        images = [psi_image(n, a) for a in range(4 * n)]

        def psi(v):
            halves = ([PolyExpr.zero()] * (2 * n), [PolyExpr.zero()] * (2 * n))
            for coef, image in zip(v, images):
                for half, w in zip(halves, image):
                    for k, x in enumerate(w):
                        if not (coef.is_zero or x.is_zero):
                            half[k] = half[k] + coef * x
            return halves

        for a in range(4 * n):
            for b in range(a + 1, 4 * n):
                e_a, e_b = D2.algebra.basis_vector(a), D2.algebra.basis_vector(b)
                (u1, u2), (v1, v2) = images[a], images[b]
                assert psi(bracket(D2.algebra, e_a, e_b)) == (
                    bracket(D.algebra, u1, v1), bracket(D.algebra, u2, v2)
                ), (a, b)


def perturb_one_outer_bracket(monkeypatch, coef=1):
    """Add coef·X1∧X2 to δ_D(X0), which changes [X0, y1], [X0, y2] and
    [y1, y2] of D(D(a)) and nothing else."""
    from liedouble import double

    canonical = double.canonical_cocommutator

    def perturbed(D):
        return cocomm_from_wedge(D.dim, [*canonical(D).nonzero(), (0, 1, 2, coef)])

    monkeypatch.setattr(double, "canonical_cocommutator", perturbed)


def test_double_of_double_names_the_brackets_psi_does_not_preserve(sl2_eta, monkeypatch):
    from liedouble import liealg
    from liedouble.errors import NotACobracket

    evaluated = []
    evaluate = liealg._jacobi_components

    def counting(L):
        evaluated.append(L.dim)
        return evaluate(L)

    monkeypatch.setattr(liealg, "_jacobi_components", counting)
    perturb_one_outer_bracket(monkeypatch)
    with pytest.raises(NotACobracket) as err:
        double_of_double(sl2_eta)
    assert str(err.value) == (
        "ψ is not a Lie isomorphism D(D) → D ⊕ D at 3 brackets "
        "(first: [X0, y1], [X0, y2], [y1, y2])"
    )
    assert evaluated == []  # no fallback to the Jacobi sum


def test_cli_double_iterate_reports_a_psi_mismatch(tmp_path, capsys, monkeypatch):
    from liedouble.cli import main

    perturb_one_outer_bracket(monkeypatch)
    code = main(["double", "sl2-eta", "--iterate", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: ψ is not a Lie isomorphism" in err
    assert "[X0, y1], [X0, y2], [y1, y2]" in err
    assert "Traceback" not in err


def test_integer_psi_names_the_brackets_of_a_fractional_perturbation(
    so22_twisted, monkeypatch
):
    # D(so22-twisted) has scale 2; 1/3*eta on P0∧P1 in δ_D(J) gives δ_D scale
    # 6, so the outer and inner integer forms that ψ compares are scaled apart
    from liedouble import double
    from liedouble.errors import NotACobracket

    scales = []
    check = double._psi_mismatches

    def recording(outer, inner, pairs):
        scales.append((outer.int_tensor()[0], inner.int_tensor()[0]))
        return check(outer, inner, pairs)

    monkeypatch.setattr(double, "_psi_mismatches", recording)
    perturb_one_outer_bracket(monkeypatch, P("1/3*eta"))
    with pytest.raises(NotACobracket) as err:
        double_of_double(so22_twisted)
    assert str(err.value) == (
        "ψ is not a Lie isomorphism D(D) → D ⊕ D at 3 brackets "
        "(first: [J, y1], [J, y2], [y1, y2])"
    )
    assert scales == [(6, 2)]


@pytest.mark.parametrize("key", sorted(catalog.load().list("bialgebra")))
def test_assigned_integer_forms_equal_the_computed_ones(key):
    # D(a), δ_D and D(D(a)) are given their integer forms and sparse views
    # from those of C and f; so22-twisted (d_C = 1, d_f = 2) and sl2-eta
    # rescale C to the common scale
    from liedouble.liealg import _int_tensor, _nonzero_entries

    B = catalog.load().bialgebra(key)
    delta = canonical_cocommutator(build_double(B))
    for L in (B.double_algebra, double_of_double(B).algebra, delta):
        assert L.int_tensor() == _int_tensor(L.nonzero())
    assert delta.nonzero() == [e for e in _nonzero_entries(delta.f) if e[1] < e[2]]
    if key == "so22-twisted":
        assert (B.algebra.int_tensor()[0], B.cocomm.int_tensor()[0]) == (1, 2)
        assert B.double_algebra.int_tensor()[0] == 2


def dense_scan(n, entries, upper):
    """The dense n³ tensor of a stored half, antisymmetric in (i, j), or in
    (j, k) with ``upper``, filled here entry by entry, both signs."""
    t = [[[PolyExpr.zero()] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in entries:
        t[i][j][k] = v
        if upper:
            t[i][k][j] = -v
        else:
            t[j][i][k] = -v
    return t


@pytest.mark.parametrize("key", CASES)
def test_dense_tensors_are_cached_views_of_the_entries(key):
    # D(a), δ_D and D(D(a)) are built from entries alone; .c and .f are
    # dense views built on first read, and == does not depend on them
    from dataclasses import replace

    from liedouble.bialgebra import from_json, to_json
    from liedouble.liealg import _nonzero_entries, algebras_equal

    B = from_json(to_json(case(key)))  # fresh objects, no view read yet
    D = build_double(B)
    delta = canonical_cocommutator(D)
    D2 = double_of_double(B)
    assert D._r_skew is None
    for T, view, name, pair in (
        (B.algebra, "_c", "c", (0, 1)),
        (B.double_algebra, "_c", "c", (0, 1)),
        (D2.algebra, "_c", "c", (0, 1)),
        (B.cocomm, "_f", "f", (1, 2)),
        (delta, "_f", "f", (1, 2)),
    ):
        assert getattr(T, view) is None  # no builder filled a dense tensor
        twin = replace(T, **{view: None, "_int": None})
        assert twin == T
        dense = getattr(T, name)
        assert getattr(T, name) is dense
        assert dense == dense_scan(len(dense), T.nonzero(), pair == (1, 2))
        p, q = pair
        assert [e for e in _nonzero_entries(dense) if e[p] < e[q]] == T.nonzero()
        assert getattr(twin, view) is None and twin == T
        getattr(twin, name)
        assert twin == T
    for L in (B.algebra, B.double_algebra, D2.algebra):
        assert algebras_equal(replace(L, _c=None), L)


@pytest.mark.parametrize("key", ["so22-r1", "so22-twisted@13/17*eta - 19/23"])
def test_a_warm_iterated_double_builds_no_fraction(key):
    # once D(D(a)) has been built, building it again and rendering both
    # bracket tables, the work of a warm `double --iterate` op, builds no
    # Fraction: each coefficient D(D(a)) stores is one of D(a) or the
    # negation that coefficient keeps, and the ψ⁻¹ image is cached on D(a)
    from test_homogeneous import fraction_constructions

    B = case(key)
    D = build_double(B)
    double_of_double(B)

    def op():
        D2 = double_of_double(B)
        bracket_table_text(D.algebra)
        bracket_table_text(D2.algebra)
        return D2

    assert fraction_constructions(op) == 0
    inner = {id(coef) for *_, coef in D.algebra.nonzero()}
    for *_, coef in op().algebra.nonzero():
        assert -(-coef) is coef
        assert id(coef) in inner or id(-coef) in inner
    p = P("2*eta - 1/3")
    assert -(-p) is p and -p is -p and -p == P("1/3 - 2*eta")


def counting_psi_images(monkeypatch) -> list:
    """Record the dimension n of each call of ``double._psi_image``."""
    from liedouble import double

    calls = []
    real = double._psi_image
    monkeypatch.setattr(double, "_psi_image", lambda ints, n: calls.append(n) or real(ints, n))
    return calls


@pytest.mark.parametrize("key", CASES)
def test_psi_image_is_cached_on_the_inner_double(key, monkeypatch):
    # the first check builds D(a)'s image from its integer form, at its own
    # scale, and every later check against the same D(a) reads it back
    from liedouble.bialgebra import from_json, to_json

    calls = counting_psi_images(monkeypatch)
    B = from_json(to_json(case(key)))  # fresh objects, no image cached yet
    inner = B.double_algebra
    assert inner._psi is None
    D2 = double_of_double(B)
    image = inner._psi
    assert calls == [B.dim] and image is not None
    double_of_double(B)
    assert crossed_bracket_mismatches(D2, B) == []
    assert calls == [B.dim] and inner._psi is image
    # every entry is one of D(a)'s own terms dicts, or its negation where the
    # image reads a pair in the other order, so none was rescaled
    own = list(inner.int_tensor()[1].values())
    terms = {id(t) for t in own}
    negated = [{mono: -c for mono, c in t.items()} for t in own]
    assert all(id(t) in terms or t in negated for t in image.values())


def test_psi_image_at_another_scale_is_not_cached(monkeypatch):
    # so22-r1 after eta -> 13/17*eta - 19/23 has another integer scale than
    # so22-r1: a check of one's D(D) against the other's D(a) builds the
    # rescaled image each time and neither reads nor fills the cache
    from itertools import combinations

    B, C = case("so22-r1@13/17*eta - 19/23"), case("so22-r1")
    outer, inner = double_of_double(B).algebra, C.double_algebra
    assert outer.int_tensor()[0] != inner.int_tensor()[0]
    monkeypatch.setattr(inner, "_psi", None)  # the catalog's objects are shared
    calls = counting_psi_images(monkeypatch)
    pairs = list(combinations(range(outer.dim), 2))
    bad = _psi_mismatches(outer, inner, pairs)
    assert len(bad) == 88  # the 176 ordered pairs of the oracle test
    assert _psi_mismatches(outer, inner, pairs) == bad
    assert calls == [C.dim, C.dim] and inner._psi is None
    # a wrong image in the cache is not read at another scale either
    monkeypatch.setattr(inner, "_psi", {})
    assert _psi_mismatches(outer, inner, pairs) == bad
    assert calls == [C.dim] * 3 and inner._psi == {}


def psi_oracle(outer, inner, pairs):
    """The pairs (a, b), in the order given, at which ψ([e_a, e_b]) in
    ``outer`` = D(D(a)) differs from [ψ(e_a), ψ(e_b)] in ``inner`` ⊕ ``inner``,
    by summation: with d_out and d_in the scales of the two integer forms,
    d_in·d_out times the difference is summed per (index, monomial), the
    outer terms times d_in and the inner ones times d_out, and a pair is bad
    iff a sum is nonzero.  The oracle that the row comparison of
    :func:`_psi_mismatches` is checked against."""
    def rows_of(L):
        """The rows (a, b) of every ordered pair: the stored ones, a < b, and
        each swapped (b, a) with its terms negated."""
        rows = {}
        for (a, b, k), terms in L.int_tensor()[1].items():
            rows.setdefault((a, b), []).append((k, terms))
            rows.setdefault((b, a), []).append((k, {m: -c for m, c in terms.items()}))
        return rows

    m = inner.dim
    # ψ(e_a) as ((index, sign), ...), the second summand's indices offset by m
    psi = [((a, 1), (m + a, 1)) for a in range(m)]  # u to (u, u)
    psi += [((m + a, -1),) for a in range(m // 2, m)]  # y^j to (0, −x^j)
    psi += [((a, 1),) for a in range(m // 2)]  # Y_j to (X_j, 0)
    d_out, d_in = outer.int_tensor()[0], inner.int_tensor()[0]
    outer_rows, inner_rows = rows_of(outer), rows_of(inner)
    bad = []
    for a, b in pairs:
        sums = {}
        for k, terms in outer_rows.get((a, b), ()):
            for r, s in psi[k]:
                for mono, c in terms.items():
                    sums[r, mono] = sums.get((r, mono), 0) + s * d_in * c
        for p, s in psi[a]:
            for q, t in psi[b]:
                if p // m != q // m:  # not the same summand
                    continue
                base = p - p % m
                for k, terms in inner_rows.get((p % m, q % m), ()):
                    for mono, c in terms.items():
                        key = (base + k, mono)
                        sums[key] = sums.get(key, 0) - s * t * d_out * c
        if any(sums.values()):
            bad.append((a, b))
    return bad


def psi_against_the_oracle(outer, inner):
    """:func:`_psi_mismatches` over every ordered pair a != b of ``outer``,
    asserted equal to :func:`psi_oracle`."""
    pairs = [(a, b) for a in range(outer.dim) for b in range(outer.dim) if a != b]
    bad = _psi_mismatches(outer, inner, pairs)
    assert bad == psi_oracle(outer, inner, pairs)
    return bad


@pytest.mark.parametrize("key", CASES)
def test_psi_rows_agree_with_the_summing_oracle(key):
    B = case(key)
    assert psi_against_the_oracle(double_of_double(B).algebra, B.double_algebra) == []


@pytest.mark.parametrize("fixture", ["sl2_eta", "so22_twisted"])
@pytest.mark.parametrize("coef", ["1", "1/3*eta"])
def test_psi_rows_of_a_perturbed_double_agree_with_the_summing_oracle(
    fixture, coef, request, monkeypatch
):
    from liedouble import double
    from liedouble.errors import NotACobracket

    calls = []
    check = double._psi_mismatches
    monkeypatch.setattr(
        double, "_psi_mismatches",
        lambda outer, inner, pairs: calls.append((outer, inner)) or check(outer, inner, pairs),
    )
    perturb_one_outer_bracket(monkeypatch, P(coef))
    with pytest.raises(NotACobracket):
        double_of_double(request.getfixturevalue(fixture))
    ((outer, inner),) = calls
    assert len(psi_against_the_oracle(outer, inner)) == 6  # the 3 brackets, both orders


def test_psi_rows_across_two_bialgebras_agree_with_the_summing_oracle(sl2_hyp, sl2_ell):
    outer = double_of_double(sl2_hyp).algebra
    assert len(psi_against_the_oracle(outer, sl2_ell.double_algebra)) == 66


def test_psi_rows_at_two_integer_scales_agree_with_the_summing_oracle():
    # D(D) of so22-r1 after eta -> 13/17*eta - 19/23 against D(so22-r1), and
    # the other way round: the integer forms are brought to one scale first
    B, C = case("so22-r1@13/17*eta - 19/23"), case("so22-r1")
    for outer, inner in (
        (double_of_double(B).algebra, C.double_algebra),
        (double_of_double(C).algebra, B.double_algebra),
    ):
        assert outer.int_tensor()[0] != inner.int_tensor()[0]
        assert len(psi_against_the_oracle(outer, inner)) == 176
