import random
import re
from fractions import Fraction as Q
from itertools import combinations, permutations
from math import comb

import pytest
from dense import dense_c, dense_f, zeros3
from hypothesis import assume, given, settings, strategies as st

from liedouble.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ShapeError,
    SingularMatrix,
    SymmetricEntry,
)
from liedouble import catalog
from liedouble.bialgebra import from_json as bialgebra_from_json
from liedouble.bialgebra import substitute_params as substitute_bialgebra_params
from liedouble.bialgebra import to_json as bialgebra_to_json
from liedouble.double import build_double, double_of_double
from liedouble.exactalg import PolyExpr, from_int_terms, poly_div_exact
from liedouble.exactlinalg import _cleared, invert, mat, rank
from liedouble.homogeneous import LagrangianSpec, _adapted, _adapted_pass, classify
from liedouble.liealg import (
    BasisChange,
    LieAlgebra,
    _int_matrix,
    _int_rows,
    _int_tensor,
    _minors,
    _nonzero_entries,
    _structure_int,
    algebras_equal,
    bracket,
    change_basis,
    from_json,
    is_jacobi_zero,
    jacobi_violations,
    new_lie_algebra,
    substitute_params,
    transform_cocomm,
    transform_structure,
)
from test_exactalg import laurent_polys

P = PolyExpr.parse


def jacobi_oracle(L):
    """Direct dense evaluation of the cyclic residual, independent of the
    library's sparse accumulation path.  A product with a zero factor adds
    nothing and is skipped, which keeps a 24-dim D(D(a)) affordable."""
    n = L.dim
    c = dense_c(L)
    res = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                totals = [PolyExpr.zero()] * n
                for a, b, e in ((i, j, l), (j, l, i), (l, i, j)):
                    for k in range(n):
                        if c[a][b][k].is_zero:
                            continue
                        for m in range(n):
                            if not c[k][e][m].is_zero:
                                totals[m] = totals[m] + c[a][b][k] * c[k][e][m]
                for m in range(n):
                    res[(i, j, l, m)] = totals[m]
    return res


def assert_jacobi_matches_oracle(L):
    """The cached components (sorted triples, nonzero only) and the
    violations over every ordering agree with :func:`jacobi_oracle`."""
    oracle = jacobi_oracle(L)
    components = L.jacobi_components()
    assert all(i < j < l and v for (i, j, l, _), v in components.items())
    for (i, j, l, m), v in oracle.items():
        if i < j < l:
            assert components.get((i, j, l, m), PolyExpr.zero()) == v
    nonzero = sorted(key for key, v in oracle.items() if not v.is_zero)
    assert jacobi_violations(L) == nonzero
    assert is_jacobi_zero(L) == (not nonzero)


def test_construction_sl2(sl2_std):
    assert sl2_std.dim == 3
    assert sl2_std.labels == ("J3", "J+", "J-")
    c = dense_c(sl2_std)
    assert c[0][1][1] == 2
    assert c[1][0][1] == -2


def test_construction_ck2d(ck2d):
    assert bracket(ck2d, ck2d.basis_vector("P1"), ck2d.basis_vector("P2")) == [
        PolyExpr.zero(),
        PolyExpr.zero(),
        P("k1"),
    ]


def test_symmetric_entry_rejected():
    with pytest.raises(SymmetricEntry):
        new_lie_algebra(3, ("a", "b", "c"), [(1, 1, 2, 1)])


def test_index_out_of_range_rejected():
    with pytest.raises(IndexOutOfRange):
        new_lie_algebra(3, ("a", "b", "c"), [(0, 3, 1, 1)])


def test_duplicate_entries_sum():
    L = new_lie_algebra(2, ("a", "b"), [(0, 1, 0, 1), (0, 1, 0, 2)])
    assert dense_c(L)[0][1][0] == 3


def test_entries_are_folded_into_the_stored_half():
    # [b, a] = c is stored as [a, b] = -c and summed with [a, b] = 2c; the
    # two orders of [a, c] cancel and are dropped
    L = new_lie_algebra(
        3, ("a", "b", "c"), [(1, 0, 2, 1), (0, 1, 2, 2), (0, 2, 1, "eta"), (2, 0, 1, "eta")]
    )
    assert L.nonzero() == [(0, 1, 2, P("1"))]
    assert dense_c(L)[1][0][2] == -1


@pytest.mark.parametrize(
    "key", [(1, 0, 2), (2, 1, 0), (1, 1, 0), (0, 1, 3), (0, 3, 1), (-1, 1, 0)]
)
def test_lie_algebra_names_a_key_out_of_order_or_range(sl2_std, key):
    # C_ij^k is stored at i < j only, each index in range: any other key,
    # such as a lower-half partner, a diagonal entry or an index outside
    # [0, 3), raises and is named; the valid entries before it are kept
    i, j, k = key
    entries = [*sl2_std.nonzero(), (i, j, k, P("5/7"))]
    with pytest.raises(ShapeError, match=re.escape(f"structure constant ({i},{j},{k})")):
        LieAlgebra(3, sl2_std.labels, (), entries)
    assert LieAlgebra(3, sl2_std.labels, (), entries[:-1]) == sl2_std


def test_jacobi_zero_known_algebras(sl2_std, sl2_ck, ck2d, glambda, iso11):
    for L in (sl2_std, sl2_ck, ck2d, glambda, iso11):
        assert is_jacobi_zero(L)


def test_jacobi_residual_matches_oracle_on_valid_cyclic_tensor():
    # setting all three cyclic constants to +1 happens to satisfy Jacobi
    # (it is a real form of so(2,1)); the residual must be identically zero
    cyc = new_lie_algebra(
        3, ("e1", "e2", "e3"), [(0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 1, 1)]
    )
    oracle = jacobi_oracle(cyc)
    assert all(v.is_zero for v in oracle.values())
    assert is_jacobi_zero(cyc)


def test_jacobi_residual_matches_oracle_and_is_nonzero():
    # [e1,e2]=e3 with [e1,e3]=e1 violates Jacobi: the cyclic sum on
    # (e1,e2,e3) contains [[e2,e3],e1]=0, [[e1,e2],e3]=[e3,e3]=0 and
    # [[e3,e1],e2]=[-e1,e2]=-e3
    bad = new_lie_algebra(3, ("e1", "e2", "e3"), [(0, 1, 2, 1), (0, 2, 0, 1)])
    assert_jacobi_matches_oracle(bad)
    assert bad.jacobi_components()[(0, 1, 2, 2)] == PolyExpr.const(-1)
    assert (0, 1, 2, 2) in jacobi_violations(bad)


@st.composite
def antisymmetric_tensors(draw):
    """Random sparse structure tensors of dim 4-5; most violate Jacobi."""
    n = draw(st.integers(4, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    entry = st.tuples(
        st.sampled_from(pairs),
        st.integers(0, n - 1),
        st.sampled_from([1, -1, 2, "eta", "-1/2*eta", "eta^2"]),
    )
    entries = draw(st.lists(entry, max_size=8))
    labels = tuple(f"e{i}" for i in range(n))
    return new_lie_algebra(n, labels, [(i, j, k, c) for (i, j), k, c in entries])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(antisymmetric_tensors())
def test_jacobi_matches_oracle_on_random_antisymmetric_tensors(L):
    assert_jacobi_matches_oracle(L)


# Coprime denominators, negative powers of eta and a second parameter xi:
# the residual is summed over integers after clearing a common denominator,
# and these make that denominator large and the division back non-trivial.
AWKWARD_COEFFICIENTS = [
    "1/3", "5/7", "-11/13", "eta^-1", "-2/3*eta^-2", "5/7*eta*xi",
    "xi - 1/3", "-11/13*xi^2 + eta^-1", "3/5*eta + 7/11*xi^-1",
]


@st.composite
def awkward_tensors(draw):
    """Random sparse structure tensors of dim 3-5 over AWKWARD_COEFFICIENTS."""
    n = draw(st.integers(3, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    entry = st.tuples(
        st.sampled_from(pairs),
        st.integers(0, n - 1),
        st.sampled_from(AWKWARD_COEFFICIENTS),
    )
    entries = draw(st.lists(entry, min_size=1, max_size=8))
    labels = tuple(f"e{i}" for i in range(n))
    return new_lie_algebra(n, labels, [(i, j, k, c) for (i, j), k, c in entries])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(awkward_tensors())
def test_jacobi_matches_oracle_with_awkward_coefficients(L):
    assert_jacobi_matches_oracle(L)


def test_jacobi_residual_with_a_non_trivial_denominator():
    # [e0,e1] = 1/3*eta^-1 e2 and [e0,e2] = 5/7*xi e0: the cyclic sum on
    # (e0,e1,e2) is [[e2,e0],e1] = -5/7*xi [e0,e1] = -5/21*eta^-1*xi e2
    L = new_lie_algebra(
        3, ("e0", "e1", "e2"), [(0, 1, 2, "1/3*eta^-1"), (0, 2, 0, "5/7*xi")]
    )
    assert L.jacobi_components() == {(0, 1, 2, 2): P("-5/21*eta^-1*xi")}
    assert_jacobi_matches_oracle(L)
    assert jacobi_violations(L) == sorted(
        (i, j, l, 2) for i, j, l in permutations((0, 1, 2))
    )


@st.composite
def laurent_tensors(draw):
    """Random sparse structure tensors of dim 3-5 whose constants are random
    Laurent polynomials in eta and xi with coprime denominators, so that
    negative exponents, cancellation and every sign rule of the Jacobi sum
    are exercised."""
    n = draw(st.integers(3, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    entry = st.tuples(
        st.sampled_from(pairs), st.integers(0, n - 1), laurent_polys(("eta", "xi"))
    )
    entries = draw(st.lists(entry, min_size=1, max_size=10))
    labels = tuple(f"e{i}" for i in range(n))
    return new_lie_algebra(n, labels, [(i, j, k, c) for (i, j), k, c in entries])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(laurent_tensors())
def test_jacobi_matches_oracle_on_random_laurent_tensors(L):
    assert_jacobi_matches_oracle(L)


def test_jacobi_matches_oracle_on_a_perturbed_iterated_double(so22_twisted):
    # D(D(so22)) satisfies Jacobi; two added brackets with Laurent terms, a
    # second parameter and large coefficients give it a nonzero residual
    L = double_of_double(so22_twisted).algebra
    entries = list(L.nonzero())
    entries += [(0, 5, 7, "eta^-1*xi - 1000003/7"), (3, 14, 20, "999983*eta^2")]
    perturbed = new_lie_algebra(L.dim, L.labels, entries)
    assert perturbed.params == ("eta", "xi")
    assert perturbed.jacobi_components()
    assert_jacobi_matches_oracle(perturbed)


@pytest.mark.parametrize(
    "q",
    [
        "eta^2 - eta^-1",  # a negative exponent, coefficients of both signs
        "xi^2*eta + 3/7",  # all coefficients of the residual negative
        "-eta^-2*xi + 5",
        "1099511627689*eta - 1099511627791",  # coefficients near 2**40
        "-1099511627689/3*xi^-1*eta^2",
    ],
)
def test_jacobi_residual_signs_and_magnitudes(q):
    # [e0,e1] = c e2 and [e0,e2] = q e0 leave -c*q along e2 on (e0,e1,e2)
    c = "1099511627791/5"
    L = new_lie_algebra(3, ("e0", "e1", "e2"), [(0, 1, 2, c), (0, 2, 0, q)])
    assert L.jacobi_components() == {(0, 1, 2, 2): -P(c) * P(q)}
    assert_jacobi_matches_oracle(L)


def test_jacobi_residual_with_wide_exponents_in_three_parameters():
    # exponents up to 10**12 in eta, xi and zeta, of both signs
    c = "eta^1000000000000*xi^-1000*zeta^1000 - 3/7"
    q = "xi^999 - eta^-5*zeta^-1000"
    L = new_lie_algebra(3, ("e0", "e1", "e2"), [(0, 1, 2, c), (0, 2, 0, q)])
    assert L.params == ("eta", "xi", "zeta")
    assert L.jacobi_components() == {(0, 1, 2, 2): -P(c) * P(q)}
    assert_jacobi_matches_oracle(L)


@pytest.mark.parametrize(
    "c_32, expected",
    [("5/3", None), ("5/3 + xi", "eta*xi")],
)
def test_jacobi_residual_cancelling_across_products(c_32, expected):
    # R_012^3 = C_01^3 C_32^3 + C_12^3 C_30^3 with C_01^3 = C_12^3 = eta and
    # C_30^3 = -5/3: two nonzero products whose 5/3*eta terms cancel
    L = new_lie_algebra(
        4,
        ("e0", "e1", "e2", "e3"),
        [(0, 1, 3, "eta"), (1, 2, 3, "eta"), (3, 2, 3, c_32), (0, 3, 3, "5/3")],
    )
    got = L.jacobi_components().get((0, 1, 2, 3))
    assert got == (None if expected is None else P(expected))
    assert_jacobi_matches_oracle(L)


WIDE = "eta^1000000000000*xi^-1000"


@pytest.mark.parametrize(
    "c_32, expected",
    [("5/3", None), ("5/3 - 2*zeta^-7", f"-2*{WIDE}*zeta^-7")],
)
def test_jacobi_residual_cancelling_with_wide_exponents(c_32, expected):
    # the products above with C_01^3 = C_12^3 = eta^(10^12)*xi^-1000: their
    # 5/3 terms cancel in R_012^3; [e1, e3] adds components in the same
    # parameters that do not cancel
    L = new_lie_algebra(
        4,
        ("e0", "e1", "e2", "e3"),
        [(0, 1, 3, WIDE), (1, 2, 3, WIDE), (3, 2, 3, c_32), (0, 3, 3, "5/3"),
         (1, 3, 0, "xi^-1000 - 3/7*eta^-1000000000000")],
    )
    got = L.jacobi_components().get((0, 1, 2, 3))
    assert got == (None if expected is None else P(expected))
    assert len(L.jacobi_components()) > 1
    assert_jacobi_matches_oracle(L)


def test_bracket_examples(sl2_std, ck2d):
    j3 = sl2_std.basis_vector("J3")
    jp = sl2_std.basis_vector("J+")
    assert bracket(sl2_std, j3, jp) == [PolyExpr.zero(), P("2"), PolyExpr.zero()]
    assert bracket(ck2d, ck2d.basis_vector("P1"), ck2d.basis_vector("P2"))[2] == P(
        "k1"
    )


def test_bracket_antisymmetry_random(glambda):
    rng = random.Random(7)
    for _ in range(10):
        v = [PolyExpr.const(Q(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(6)]
        assert all(x.is_zero for x in bracket(glambda, v, v))


def test_bracket_length_mismatch(sl2_std):
    with pytest.raises(DimensionMismatch):
        bracket(sl2_std, [PolyExpr.one()] * 2, [PolyExpr.one()] * 3)


def test_adjoint_eigenaction(sl2_std):
    j3 = sl2_std.basis_vector("J3")
    for label, eig in (("J3", 0), ("J+", 2), ("J-", -2)):
        v = sl2_std.basis_vector(label)
        expect = [as_p * PolyExpr.const(eig) for as_p in v]
        assert bracket(sl2_std, j3, v) == expect


def test_adjoint_self_is_zero(sl2_std, glambda):
    for L in (sl2_std, glambda):
        for i in range(L.dim):
            e_i = L.basis_vector(i)
            assert all(x.is_zero for x in bracket(L, e_i, e_i))


def test_adjoint_ck(ck2d):
    image = bracket(ck2d, ck2d.basis_vector(2), ck2d.basis_vector("P1"))
    assert image == ck2d.basis_vector("P2")


def test_change_basis_identity(sl2_std):
    ident = BasisChange([[1, 0, 0], [0, 1, 0], [0, 0, 1]], sl2_std.labels)
    assert algebras_equal(change_basis(sl2_std, ident), sl2_std)


def test_change_basis_jbasis_to_ck(sl2_std, sl2_ck):
    # P1 = (J+ - J-)/2, P2 = (J+ + J-)/2, J12 = J3/2
    bc = BasisChange(
        [["0", "1/2", "-1/2"], ["0", "1/2", "1/2"], ["1/2", "0", "0"]],
        ("P1", "P2", "J12"),
    )
    moved = change_basis(sl2_std, bc)
    assert algebras_equal(moved, sl2_ck)


def test_change_basis_round_trip(glambda):
    rows = [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, "kappa", 0],
        [0, 0, 0, 2, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, "-1/3"],
    ]
    bc = BasisChange(rows, glambda.labels)
    back = BasisChange(bc.inverse, glambda.labels)
    assert algebras_equal(change_basis(change_basis(glambda, bc), back), glambda)


def test_change_basis_commutes_with_bracket(sl2_std):
    bc = BasisChange(
        [["0", "1/2", "-1/2"], ["0", "1/2", "1/2"], ["1/2", "0", "0"]],
        ("P1", "P2", "J12"),
    )
    moved = change_basis(sl2_std, bc)
    rng = random.Random(11)
    w_matrix = bc.inverse

    def push(v):
        """Coordinates of v in the new basis: v'^a = sum_i v^i W_i^a."""
        return [
            sum((v[i] * w_matrix[i][a] for i in range(3)), PolyExpr.zero())
            for a in range(3)
        ]

    for _ in range(8):
        v = [PolyExpr.const(Q(rng.randint(-3, 3))) for _ in range(3)]
        u = [PolyExpr.const(Q(rng.randint(-3, 3))) for _ in range(3)]
        # push vectors to the new basis, bracket there, compare
        assert bracket(moved, push(v), push(u)) == push(bracket(sl2_std, v, u))


def test_singular_basis_change_rejected():
    with pytest.raises(SingularMatrix):
        BasisChange([[1, 1], [1, 1]], ("a", "b"))


def ad_invariant(L, k):
    """Whether the symmetric 2-tensor K is ad-invariant:
    sum_c (C_ic^a K^cb + C_ic^b K^ac) = 0 for all i, a, b, summed over the
    nonzero structure constants C_ic^t, each stored C_ic^t (i < c) read in
    both orders, C_ci^t = −C_ic^t."""
    k = mat(k)
    defect = {}
    stored = L.nonzero()
    for i, c, t, coef in stored + [(c, i, t, -coef) for i, c, t, coef in stored]:
        for x in range(L.dim):
            for key, kv in (((i, t, x), k[c][x]), ((i, x, t), k[x][c])):
                defect[key] = defect.get(key, PolyExpr.zero()) + coef * kv
    return all(v.is_zero for v in defect.values())


def test_casimirs_glambda(glambda):
    n = 6
    zero = [[0] * n for _ in range(n)]
    c_tensor = [row[:] for row in zero]
    # C = P0^2 - P1^2 - P2^2 + kappa (J^2 - K1^2 - K2^2)
    c_tensor[1][1] = "1"
    c_tensor[2][2] = "-1"
    c_tensor[3][3] = "-1"
    c_tensor[0][0] = "kappa"
    c_tensor[4][4] = "-kappa"
    c_tensor[5][5] = "-kappa"
    assert ad_invariant(glambda, c_tensor)
    # W = -J P0 + K1 P2 - K2 P1, symmetrised
    w_tensor = [row[:] for row in zero]
    w_tensor[0][1] = w_tensor[1][0] = "-1/2"
    w_tensor[4][3] = w_tensor[3][4] = "1/2"
    w_tensor[5][2] = w_tensor[2][5] = "-1/2"
    assert ad_invariant(glambda, w_tensor)


def test_casimir_failure_single_component(sl2_std):
    # K = J3 (x) J3 is not invariant: the (i,a,b)=(J+,J3,J+) component is -2
    k = mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    total = PolyExpr.zero()
    i, a, b = 1, 0, 1
    t = dense_c(sl2_std)
    for c in range(3):
        total = total + t[i][c][a] * k[c][b]
        total = total + t[i][c][b] * k[a][c]
    assert total == PolyExpr.const(-2)
    assert not ad_invariant(sl2_std, k)


def test_substitute_params(glambda):
    sub = substitute_params(glambda, {"kappa": P("eta^2")})
    assert dense_c(sub)[1][2][4] == P("eta^2")
    assert is_jacobi_zero(sub)


def test_json_round_trip(glambda):
    data = glambda.to_json()
    back = from_json(data)
    assert algebras_equal(back, glambda)
    assert back.labels == glambda.labels
    assert back.params == glambda.params


# --- basis transforms against full-plane loops --------------------------


def full_transform_structure(c, m, w):
    """C'_ab^c = M_a^i M_b^j C_ij^k W_k^c over every (a, b)."""
    n = len(m)
    out = [[[PolyExpr.zero()] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if c[i][j][k].is_zero:
                            continue
                        scale = m[a][i] * m[b][j] * c[i][j][k]
                        for cc in range(n):
                            out[a][b][cc] = out[a][b][cc] + scale * w[k][cc]
    return out


def full_transform_cocomm(f, m, w):
    """f'_a^bc = M_a^i f_i^jk W_j^b W_k^c over every (b, c)."""
    n = len(m)
    out = [[[PolyExpr.zero()] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if f[i][j][k].is_zero:
                        continue
                    scale = m[a][i] * f[i][j][k]
                    for b in range(n):
                        for cc in range(n):
                            out[a][b][cc] = out[a][b][cc] + scale * w[j][b] * w[k][cc]
    return out


CATALOG = catalog.load()
TRANSFORM_BIALGEBRAS = sorted(
    key for key in CATALOG.list("bialgebra")
    if CATALOG.bialgebra(key).dim == 3 or key in ("so22-r1", "so22-twisted")
)


@st.composite
def dense_adapted_bases(draw):
    """A catalog bialgebra and a dense invertible integer basis for it."""
    B = CATALOG.bialgebra(draw(st.sampled_from(TRANSFORM_BIALGEBRAS)))
    n = B.dim
    entry = st.integers(-2, 2).filter(lambda x: x != 0)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n).filter(lambda r: rank(mat(r)) == n))
    m = mat(rows)
    return B, m, invert(m)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(dense_adapted_bases())
def test_halved_transforms_match_full_planes(case):
    B, m, w = case
    n = B.dim
    c_in, f_in = dense_c(B.algebra), dense_f(B.cocomm)
    c = transform_structure(c_in, m, w)
    f = transform_cocomm(f_in, m, w)
    assert c == full_transform_structure(c_in, m, w)
    assert f == full_transform_cocomm(f_in, m, w)
    for a in range(n):
        for b in range(n):
            assert c[a][b] == [-x for x in c[b][a]]
            assert f[a][b] == [-f[a][x][b] for x in range(n)]


LAURENT_DIAGONAL = ["1/3", "-5/7*eta", "eta^-1", "11/13*xi", "-2/3*eta^-2"]


@st.composite
def awkward_cocomms(draw, n):
    """A dense n³ tensor f_i^{jk}, antisymmetric in (j, k), over
    AWKWARD_COEFFICIENTS."""
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    f = zeros3(n)
    wedges = st.tuples(
        st.integers(0, n - 1), st.sampled_from(pairs), st.sampled_from(AWKWARD_COEFFICIENTS)
    )
    for i, (j, k), coef in draw(st.lists(wedges, min_size=1, max_size=8)):
        f[i][j][k] = f[i][j][k] + P(coef)
        f[i][k][j] = f[i][k][j] - P(coef)
    return f


@st.composite
def awkward_transforms(draw):
    """An awkward structure tensor, a cocommutator over the same
    coefficients, and a basis whose rows are a permuted lower-triangular
    matrix with Laurent-monomial diagonal: its inverse has Laurent entries
    (eta^-1, xi^-1, ...) over coprime denominators."""
    L = draw(awkward_tensors())
    n = L.dim
    f = draw(awkward_cocomms(n))
    off = st.sampled_from(["0", "0", *AWKWARD_COEFFICIENTS])
    rows = [
        [draw(st.sampled_from(LAURENT_DIAGONAL)) if j == i else draw(off) if j < i else "0"
         for j in range(n)]
        for i in range(n)
    ]
    m = mat([rows[i] for i in draw(st.permutations(range(n)))])
    return dense_c(L), f, m, invert(m)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(awkward_transforms())
def test_integer_transforms_match_polyexpr_oracle(case):
    c, f, m, w = case
    assert transform_structure(c, m, w) == full_transform_structure(c, m, w)
    assert transform_cocomm(f, m, w) == full_transform_cocomm(f, m, w)


# --- the shared integer contraction path and the cached integer tensors ------


def dual_tensor(c):
    """f_i^{jk} = C_jk^i: an input of transform_cocomm, antisymmetric in
    (j, k), over the coefficients of C."""
    n = len(c)
    return [[[c[j][k][i] for k in range(n)] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("key", CATALOG.list("basis_change"))
def test_transforms_match_dense_contraction_on_catalog_basis_changes(key):
    bc = CATALOG.basis_change(key)
    L = CATALOG.algebra(CATALOG.get(key).raw["source"])
    c = dense_c(L)
    f = dual_tensor(c)
    assert transform_structure(c, bc.m, bc.inverse) == full_transform_structure(
        c, bc.m, bc.inverse
    )
    assert transform_cocomm(f, bc.m, bc.inverse) == full_transform_cocomm(
        f, bc.m, bc.inverse
    )


def star(f):
    """C*_jk^i = f_i^{jk}: the structure tensor of g* for a dense f, the
    inverse of :func:`dual_tensor`."""
    n = len(f)
    return [[[f[i][j][k] for i in range(n)] for k in range(n)] for j in range(n)]


def dense_of_half(form, pair, n):
    """The dense tensor of an integer form ``(d, entries)`` that stores one
    entry per pair of slots ``pair`` = (p, q), at key[p] < key[q]: each entry
    divided back by d, and its negation at the swapped key."""
    d, entries = form
    p, q = pair
    t = zeros3(n)
    for key, terms in entries.items():
        assert key[p] < key[q] and any(terms.values())
        value = from_int_terms(terms, d)
        swapped = list(key)
        swapped[p], swapped[q] = key[q], key[p]
        t[key[0]][key[1]][key[2]] = value
        t[swapped[0]][swapped[1]][swapped[2]] = -value
    return t


@st.composite
def so22_adapted_specs(draw):
    """so22-r1 or so22-twisted and an adapted basis of the sweep's shape:
    three integer rows h with entries in [-2, 2], then the unit rows that
    complete them, first unit first."""
    B = CATALOG.bialgebra(draw(st.sampled_from(["so22-r1", "so22-twisted"])))
    n = B.dim
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    h = mat(draw(st.lists(row, min_size=3, max_size=3).filter(
        lambda r: rank(mat(r)) == 3)))
    complement = []
    for i in range(n):
        e = B.algebra.basis_vector(i)
        if rank(h + complement + [e]) > len(h) + len(complement):
            complement.append(e)
    return B, LagrangianSpec(h, complement, [[0] * 3 for _ in range(3)])


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(so22_adapted_specs())
def test_adapted_pass_transforms_match_dense_contraction(case):
    """The adapted pass reads C and f from the algebras' cached integer
    tensors and A⁻¹ straight from the integer Bareiss kernel, and keeps C'
    and f' in integer form, one entry per antisymmetric pair; the public
    wrappers take the dense tensors and matrices.  Both equal the dense
    contraction."""
    B, spec = case
    a = spec.h_basis + spec.complement
    w = invert(a)
    c_in, f_in = dense_c(B.algebra), dense_f(B.cocomm)
    c_full = full_transform_structure(c_in, a, w)
    f_full = full_transform_cocomm(f_in, a, w)
    p = _adapted_pass(B, spec)
    assert dense_of_half(p.c_int, (0, 1), B.dim) == c_full
    assert dense_of_half(p.f_int, (0, 1), B.dim) == star(f_full)
    assert transform_structure(c_in, a, w) == c_full
    assert transform_cocomm(f_in, a, w) == f_full


# --- the transforms read one antisymmetric half, through 2×2 minors --------


def pascal(n):
    """Pascal's matrix binom(i + j, i): every minor is positive and the
    determinant is 1, so its inverse is an integer matrix."""
    return mat([[comb(i + j, i) for j in range(n)] for i in range(n)])


def assert_transforms_read_one_half(B, m, w, m_cols, w_rows):
    """The integer forms of C and g* hold only their entries with i < j
    (f_i^{jk} with j < k, keyed (j, k, i)), and C' and f' transformed from
    them by M = m, read as ``m_cols``, and W = w, read as ``w_rows`` (g* by
    (Wᵀ, Mᵀ), whose columns and rows those are), equal the full-plane
    contraction of the dense tensors, both signs written."""
    c, f = B.algebra.int_tensor(), B.cocomm.int_tensor()
    assert all(i < j for i, j, _ in c[1]) and all(j < k for j, k, _ in f[1])
    n = B.dim
    assert dense_of_half(_structure_int(c, m_cols, w_rows), (0, 1), n) == (
        full_transform_structure(dense_c(B.algebra), m, w)
    )
    assert dense_of_half(_structure_int(f, w_rows, m_cols), (0, 1), n) == (
        star(full_transform_cocomm(dense_f(B.cocomm), m, w))
    )


@pytest.mark.parametrize("key", CATALOG.list("bialgebra"))
def test_transforms_read_only_the_upper_half_on_catalog_bialgebras(key):
    """C' and f' are read from the stored half alone, i < j (j < k for f),
    and equal the contraction over every plane."""
    B = CATALOG.bialgebra(key)
    m = pascal(B.dim)
    w = invert(m)
    assert_transforms_read_one_half(
        B, m, w, _int_matrix(m, transpose=True), _int_matrix(w, transpose=False)
    )


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(so22_adapted_specs())
def test_transforms_read_only_the_upper_half_on_sweep_bases(case):
    """The sweep's integer bases give M and W one layer each, the constant
    monomial, which holds every nonzero entry of s·A and of e·A⁻¹."""
    B, spec = case
    a = spec.h_basis + spec.complement
    (s, a_int), (e, rows) = _adapted(spec, B.dim)
    assert (s, a_int) == _cleared(a)
    m_cols = (s, _int_rows(a_int, transpose=True))
    w_rows = (e, _int_rows(rows, transpose=False))
    for (_, layers), dense, transpose in ((m_cols, a_int, True), (w_rows, rows, False)):
        assert list(layers) == [()]
        assert dense_of_layers(layers, B.dim, transpose) == dense
    assert_transforms_read_one_half(B, a, invert(a), m_cols, w_rows)


FRACTIONAL_SCALES = ["1/3", "-5/7*eta", "-2/3*eta^-2", "11/13*xi^-1"]
LAURENT_SCALES = ["1", "-1", "eta^-1", *FRACTIONAL_SCALES]


@st.composite
def minor_bases(draw):
    """(c, f, m, cancelled): an awkward structure tensor, a cocommutator
    over the same coefficients, and the basis diag(r)·Pascal·diag(s) with
    its rows and columns permuted, r and s Laurent monomials with
    fractional coefficients.  Every 2×2 minor of m is then nonzero, and so
    is every one of its inverse.  With ``cancelled`` = (a, b, i, j), entry
    (b, j) was replaced so that columns i and j are proportional on rows a
    and b: that one minor of m cancels to zero."""
    L = draw(awkward_tensors())
    n = L.dim
    f = draw(awkward_cocomms(n))
    r = [P(draw(st.sampled_from(FRACTIONAL_SCALES)))]
    r += [P(draw(st.sampled_from(LAURENT_SCALES))) for _ in range(n - 1)]
    s = [P(draw(st.sampled_from(LAURENT_SCALES))) for _ in range(n)]
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    m = [[r[a] * s[i] * comb(rows[a] + cols[i], rows[a]) for i in range(n)]
         for a in range(n)]
    cancelled = None
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(list(combinations(range(n), 2))))
        i, j = draw(st.sampled_from(list(combinations(range(n), 2))))
        m[b][j] = poly_div_exact(m[a][j] * m[b][i], m[a][i])
        assume(rank(m) == n)
        cancelled = (a, b, i, j)
    return dense_c(L), f, m, cancelled


def dense_of_layers(layers, n, transpose):
    """The dense n×n matrix of integer terms dicts that the layers
    ``{mono: {x: [(y, int)]}}`` of :func:`_int_rows` hold, entry (x, y), or
    (y, x) with ``transpose``; each int is nonzero and each entry occurs
    at most once in a layer."""
    out = [[{} for _ in range(n)] for _ in range(n)]
    for mono, layer in layers.items():
        for x, entries in layer.items():
            for y, v in entries:
                row, col = (y, x) if transpose else (x, y)
                assert v and mono not in out[row][col]
                out[row][col][mono] = v
    return out


def minors_of(m, transpose):
    """{(x, y): {(a, b) with a nonzero minor}} of the rows of m (of its
    columns with ``transpose``), as the transforms build them: in monomial
    layers, each holding a pair (a, b) at most once and only with a nonzero
    int, so a minor that cancels is in no layer."""
    layers = _int_matrix(m, transpose)[1]
    pairs = list(combinations(range(len(m)), 2))
    found = {pair: set() for pair in pairs}
    for layer in _minors(layers, pairs).values():
        for pair, lam in layer.items():
            assert lam and all(v for _, v in lam)
            assert len({ab for ab, _ in lam}) == len(lam)
            found[pair] |= {ab for ab, _ in lam}
    return found


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(minor_bases())
def test_minor_transforms_match_full_planes(case):
    """The transforms of c and f by (m, m⁻¹) and by (m⁻¹, m) equal the
    full-plane contraction; so each minor of m, the cancelled one too,
    enters C' in the first and f' in the second.  Every stored entry of
    the integer forms has key[p] < key[q] and a nonzero term."""
    c, f, m, cancelled = case
    c_int = _int_tensor([e for e in _nonzero_entries(c) if e[0] < e[1]])
    f_int = _int_tensor([e for e in _nonzero_entries(star(f)) if e[0] < e[1]])
    assume(c_int[0] > 1 and f_int[0] > 1)
    assert _int_matrix(m, transpose=True)[0] > 1
    n = len(m)
    w = invert(m)
    pairs = set(combinations(range(n), 2))
    m_minors = minors_of(m, transpose=True)
    if cancelled is None:
        assert all(found == pairs for found in m_minors.values())
        assert all(found == pairs for found in minors_of(w, transpose=False).values())
    else:
        a, b, i, j = cancelled
        assert m_minors[i, j] == pairs - {(a, b)}
    for basis, inverse in ((m, w), (w, m)):
        m_cols = _int_matrix(basis, transpose=True)
        w_rows = _int_matrix(inverse, transpose=False)
        c_full = full_transform_structure(c, basis, inverse)
        f_full = full_transform_cocomm(f, basis, inverse)
        assert dense_of_half(_structure_int(c_int, m_cols, w_rows), (0, 1), n) == c_full
        assert dense_of_half(_structure_int(f_int, w_rows, m_cols), (0, 1), n) == star(f_full)
        assert transform_structure(c, basis, inverse) == c_full
        assert transform_cocomm(f, basis, inverse) == f_full


def test_substituted_bialgebra_has_its_own_integer_tensors():
    B = CATALOG.bialgebra("so22-twisted")
    h = [B.algebra.basis_vector(label) for label in ("J", "K1", "K2")]
    rest = [B.algebra.basis_vector(label) for label in ("P0", "P1", "P2")]
    spec = LagrangianSpec(h, rest, [[0, "eta", "1/2"], ["-eta", 0, 0], ["-1/2", 0, 0]])
    classify(build_double(B), B, spec)  # fills B's caches
    sub = substitute_bialgebra_params(B, {"eta": "2*eta + 1/3"})
    for old, new in ((B.algebra, sub.algebra), (B.cocomm, sub.cocomm)):
        assert new.int_tensor() is not old.int_tensor()
        assert new.int_tensor() == _int_tensor(new.nonzero())
    fresh = bialgebra_from_json(bialgebra_to_json(sub))
    got = classify(build_double(sub), sub, spec)
    expected = classify(build_double(fresh), fresh, spec)
    assert got.to_json() == expected.to_json()
    assert got.xx_residual == expected.xx_residual
    assert (got.table is None) == (expected.table is None)
    if got.table is not None:
        assert dense_c(got.table) == dense_c(expected.table)
    plain = substitute_params(B.algebra, {"eta": "2*eta + 1/3"})
    assert plain.int_tensor() is not B.algebra.int_tensor()
    assert plain.int_tensor() == _int_tensor(plain.nonzero())
