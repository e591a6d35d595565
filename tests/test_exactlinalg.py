"""Exact linear algebra against sympy's DomainMatrix over QQ(eta, xi).

Matrices are small, with entries of one or two terms: a rational
coefficient (0, ±1, ±2, ±1/2 or 2/3) times 1, eta, xi, eta^-1 or eta*xi,
drawn by a derandomized hypothesis so every run sees the same examples.
Some rows are unit rows, or unit rows times one single-term value shared
by the matrix, among the others: a pivot then often equals the previous
one, and the Bareiss kernel leaves the rows with no entry in its column as
they are.  The kernel clears the denominators once and eliminates over
integers; the inverse solves each single-term row by substitution and
eliminates only the block of the other rows.  The 6x6 adapted bases are
those of the Lagrangian sweep, integer h rows, some of them unit or
repeated-value rows, completed by unit rows.
"""

from fractions import Fraction as Q
from operator import add

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from liedouble.errors import NotDivisible, SingularMatrix
from liedouble.exactalg import PolyExpr, _div_terms, as_poly
from liedouble import exactlinalg
from liedouble.exactlinalg import (
    _bareiss,
    _cleared,
    _int_inverse,
    invert,
    mat,
    nullspace,
    rank,
    solve_in_span,
)

ETA = PolyExpr.param("eta")
XI = PolyExpr.param("xi")
K = QQ.frac_field(sympy.Symbol("eta"), sympy.Symbol("xi"))

SETTINGS = settings(derandomize=True, database=None, max_examples=80, deadline=None)

COEFFICIENT = st.sampled_from([0, 1, -1, 2, -2, Q(1, 2), Q(-1, 2), Q(2, 3)])
MONOMIAL = st.sampled_from(
    [PolyExpr.one(), ETA, XI, PolyExpr.param("eta", -1), ETA * XI]
)
TERM = st.builds(lambda c, x: c * x, COEFFICIENT, MONOMIAL)
ENTRY = st.one_of(TERM, st.builds(add, TERM, TERM))


@st.composite
def matrices(draw, max_rows=4, max_cols=4, square=False):
    """Rows of ENTRYs, unit rows e_j and rows v·e_j for one nonzero
    single-term v per matrix, in any order."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = n_rows if square else draw(st.integers(1, max_cols))
    value = draw(TERM.filter(lambda x: x.terms))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["entries", "entries", "unit", "value"]),
                              min_size=n_rows, max_size=n_rows)):
        if kind == "entries":
            rows.append(draw(st.lists(ENTRY, min_size=n_cols, max_size=n_cols)))
            continue
        row = [PolyExpr.zero()] * n_cols
        row[draw(st.integers(0, n_cols - 1))] = PolyExpr.one() if kind == "unit" else value
        rows.append(row)
    return rows


@st.composite
def laurent_invertible(draw, max_n=3):
    """L * U with L unit lower triangular and U upper triangular with
    single-term diagonal: the determinant is one term, so the inverse is a
    Laurent matrix."""
    n = draw(st.integers(1, max_n))
    pivot = st.sampled_from(
        [1, -1, 2, Q(-2, 3), ETA, -ETA, Q(1, 2) * XI, 2 * PolyExpr.param("eta", -1)]
    ).map(as_poly)
    lower = [[PolyExpr.const(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[PolyExpr.zero()] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = draw(pivot)
        for j in range(i):
            lower[i][j] = draw(ENTRY)
            upper[j][i] = draw(ENTRY)
    zero = PolyExpr.zero()
    return [
        [sum((lower[i][k] * upper[k][j] for k in range(n)), zero) for j in range(n)]
        for i in range(n)
    ]


def to_field(p: PolyExpr):
    expr = sympy.Integer(0)
    for mono, v in p.terms.items():
        term = sympy.Rational(Q(v, p.den))
        for name, e in mono:
            term *= sympy.Symbol(name) ** e
        expr += term
    return K.from_sympy(expr)


def oracle(rows) -> DomainMatrix:
    return DomainMatrix(
        [[to_field(x) for x in row] for row in rows], (len(rows), len(rows[0])), K
    )


def is_laurent(x) -> bool:
    """A fraction-field element whose reduced denominator is one term."""
    return len(x.denom.terms()) == 1


@SETTINGS
@given(matrices())
def test_rank_matches_sympy(rows):
    assert rank(rows) == oracle(rows).rank()


@SETTINGS
@given(st.one_of(matrices(max_rows=3, square=True), laurent_invertible()))
def test_invert_matches_sympy(a):
    n = len(a)
    m = oracle(a)
    if m.rank() < n:
        with pytest.raises(SingularMatrix):
            invert(a)
        return
    expected = m.inv().to_Matrix().tolist()
    expected = [[K.from_sympy(x) for x in row] for row in expected]
    if all(is_laurent(x) for row in expected for x in row):
        assert [[to_field(x) for x in row] for row in invert(a)] == expected
    else:
        with pytest.raises(NotDivisible):
            invert(a)


def test_invert_errors():
    with pytest.raises(NotDivisible):
        invert(mat([["1 + eta"]]))
    with pytest.raises(NotDivisible):
        invert(mat([["1/2", "eta"], ["xi", "2/3"]]))
    with pytest.raises(SingularMatrix):
        invert(mat([[1, "eta"], [2, "2*eta"]]))
    with pytest.raises(SingularMatrix):
        invert(mat([[1, 2]]))
    assert invert(mat([["eta"]])) == [[PolyExpr.parse("eta^-1")]]


@st.composite
def span_problems(draw):
    rows = draw(matrices(max_rows=3))
    if draw(st.booleans()):  # a combination of the rows: always consistent
        k = len(rows)
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        v = [
            sum((c * row[j] for c, row in zip(coeffs, rows)), PolyExpr.zero())
            for j in range(len(rows[0]))
        ]
    else:
        v = draw(st.lists(ENTRY, min_size=len(rows[0]), max_size=len(rows[0])))
    return rows, v


@SETTINGS
@given(span_problems())
def test_solve_in_span_matches_sympy(problem):
    rows, v = problem
    k = len(rows)
    columns = [list(col) + [x] for col, x in zip(zip(*rows), v)]
    reduced, pivots = oracle(columns).rref()
    if k in pivots:
        assert solve_in_span(rows, v) is None
        return
    # free coefficients are zero, as in solve_in_span
    expected = [K.zero] * k
    for r, c in enumerate(pivots):
        expected[c] = reduced[r, k].element
    if all(is_laurent(x) for x in expected):
        assert [to_field(x) for x in solve_in_span(rows, v)] == expected
    else:
        with pytest.raises(NotDivisible):
            solve_in_span(rows, v)


def terms_of(rows) -> list:
    """A copy of each entry's terms dict and den."""
    return [[(dict(x.terms), x.den) for x in row] for row in rows]


@SETTINGS
@given(matrices())
def test_elimination_leaves_the_input_terms_as_they_are(rows):
    # the cleared matrix shares the terms dict of each entry whose den is the
    # common scale, and an answer may share a dict of the kernel's: running
    # every routine again changes none of them
    def run() -> list:
        answers = [nullspace(rows)]
        for route in (lambda: invert(rows), lambda: [solve_in_span(rows, rows[0])]):
            try:
                answers.append(route())
            except (NotDivisible, SingularMatrix):
                pass
        rank(rows)
        return answers

    before = terms_of(rows)
    answers = run()
    kept = [terms_of(a) for a in answers]
    run()
    assert terms_of(rows) == before
    assert [terms_of(a) for a in answers] == kept


@SETTINGS
@given(matrices())
def test_nullspace_is_a_kernel_basis(a):
    n_cols = len(a[0])
    basis = nullspace(a)
    assert len(basis) == n_cols - oracle(a).rank()
    for x in basis:
        for row in a:
            assert sum((y * z for y, z in zip(row, x)), PolyExpr.zero()).is_zero
    if basis:
        assert rank(basis) == len(basis)


def test_nullspace_keeps_the_fraction_free_vector():
    """When the kernel vector is not Laurent, the undivided vector of the
    reduced matrix of A is kept; the kernel eliminates 18*A over integers
    and divides that vector back by 18^2.  The value is that of the
    elimination over Fractions."""
    a = mat([["1/2", "eta", "1/3"], ["2/3*eta", "1 + xi", "-1/2*eta^-1"]])
    assert [[str(x) for x in v] for v in nullspace(a)] == [
        ["-5/6 - 1/3*xi", "1/4*eta^-1 + 2/9*eta", "1/2 - 2/3*eta^2 + 1/2*xi"]
    ]


def test_bareiss_leaves_a_row_with_no_entry_under_a_repeated_pivot():
    """A pivot equal to the previous one, 1 at the first step, leaves a row
    with no entry in its column as it is: its update piv·a/prev is a, and
    the row keeps its entry dicts."""
    eta = (("eta", 1),)
    m = [
        [{(): 1}, {(): 2}, {eta: 3}],
        [{}, {(): 5}, {(): 7}],
        [{(): 2}, {}, {(): 1}],
    ]
    row = m[1]
    entries = list(row)
    assert _bareiss(m, reduce=False) == [0, 1, 2]
    assert m[1] is row
    assert all(got is kept for got, kept in zip(row, entries))
    # no row was swapped: the last pivot is det = 33 - 30·eta
    assert m[2][2] == {(): 33, eta: -30}


def test_bareiss_prefers_a_pivot_equal_to_the_previous_one():
    """Among single-term candidates the first pivot is 1, the previous
    pivot's starting value, though a single-term 2 comes first."""
    m = [[{(): 2}, {(): 1}], [{(): 1}, {(): 3}]]
    assert _bareiss(m, reduce=True) == [0, 1]
    assert m == [[{(): -5}, {}], [{}, {(): -5}]]


def test_bareiss_keeps_the_update_it_divides_by_a_pivot_of_1(monkeypatch):
    """Division by the pivot 1 returns the numerator dict itself; by any
    other single-term pivot, a new dict."""
    eta = (("eta", 1),)
    num = {(): 6, eta: -4}
    assert _div_terms(num, {(): 1}) is num
    assert _div_terms(num, {(): 2}) == {(): 3, eta: -2}
    assert _div_terms(num, {eta: 1}) == {(("eta", -1),): 6, (): -4}
    built = []
    real = exactlinalg._add_product
    monkeypatch.setattr(
        exactlinalg, "_add_product", lambda out, *args: built.append(out) or real(out, *args)
    )
    m = [[{(): 1}, {(): 2}], [{(): 3}, {(): 5}]]
    assert _bareiss(m, reduce=False) == [0, 1]
    assert m[1][1] == {(): -1}
    assert m[1][1] is built[0]  # 1·5 − 3·2, divided by the first pivot 1


def test_bareiss_divides_a_later_update_by_a_multi_term_pivot(monkeypatch):
    """Column 0 has no single-term entry, so the first pivot is 1 + eta, and
    the update of the last row is divided exactly by it.  Every entry left
    in a pivot row, at or right of its pivot, is a minor of A, as sympy
    computes it."""
    a = mat([["1 + eta", "2 + xi", "1"],
             ["1 - eta", "eta + xi", "3"],
             ["2 + eta", "1 - xi", "eta"]])
    divisors = []
    real = exactlinalg._div_terms
    monkeypatch.setattr(
        exactlinalg, "_div_terms", lambda num, den: divisors.append(den) or real(num, den)
    )
    m = _cleared(a)[1]
    assert _bareiss(m, reduce=False) == [0, 1, 2]
    assert len(divisors[0]) == 2 and {len(d) for d in divisors} == {2}
    dense = sympy.Matrix([[to_field(x).as_expr() for x in row] for row in a])
    for r, j in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
        # no row was swapped: m[r][j] is the minor of rows 0..r and
        # columns 0..r-1, j
        minor = dense.extract([*range(r + 1)], [*range(r), j]).det()
        assert to_field(PolyExpr(m[r][j])) == K.from_sympy(sympy.expand(minor))


@st.composite
def adapted_bases(draw, n=6):
    """k integer rows h (rank k, checked by sympy) followed by the unit rows
    that complete them, first unit first, as the sweep builds an adapted
    basis.  An h row has entries in [-2, 2], or is a unit row e_j, or is
    c·e_j for one c in {2, -2, -1} shared by the basis."""
    k = draw(st.integers(1, 4))
    c = draw(st.sampled_from([2, -2, -1]))
    dense = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    scaled_unit = st.builds(
        lambda j, v: [v * int(i == j) for i in range(n)],
        st.integers(0, n - 1), st.sampled_from([1, c]),
    )
    h = draw(st.lists(st.one_of(dense, scaled_unit), min_size=k, max_size=k))
    assume(sympy.Matrix(h).rank() == k)
    rows = [list(r) for r in h]
    for i in range(n):
        unit = [int(i == j) for j in range(n)]
        if sympy.Matrix(rows + [unit]).rank() > len(rows):
            rows.append(unit)
    return k, rows


@SETTINGS
@given(adapted_bases())
def test_adapted_basis_inverse_matches_sympy(case):
    k, rows = case
    a = mat(rows)
    expected = sympy.Matrix(rows).inv()
    e, scaled = _int_inverse(*_cleared(a))
    assert e > 0
    assert all(type(v) is int for row in scaled for t in row for v in t.values())
    got = invert(a)
    assert [[to_field(x) for x in row] for row in got] == [
        [K.from_sympy(x) for x in expected.row(i)] for i in range(len(rows))
    ]
    assert got == [[PolyExpr({m: Q(v, e) for m, v in t.items()}) for t in row]
                   for row in scaled]
    assert rank(a) == len(rows)
    assert rank(a[:k]) == k
    kernel = nullspace(a[:k])
    assert len(kernel) == len(rows) - k
    assert all(
        sum((y * z for y, z in zip(r, x)), PolyExpr.zero()).is_zero
        for r in a[:k] for x in kernel
    )


def bareiss_shapes(monkeypatch) -> list:
    """Record the (rows, columns) of every matrix :func:`_bareiss` gets."""
    shapes = []
    real = exactlinalg._bareiss

    def counted(m, reduce):
        shapes.append((len(m), len(m[0]) if m else 0))
        return real(m, reduce)

    monkeypatch.setattr(exactlinalg, "_bareiss", counted)
    return shapes


def assert_inverse_matches_sympy(a, got):
    expected = oracle(a).inv().to_Matrix().tolist()
    assert [[to_field(x) for x in row] for row in got] == [
        [K.from_sympy(x) for x in row] for row in expected
    ]


@pytest.mark.parametrize("rows, n_h", [
    # h = two integer rows, completed by the unit rows e_2, e_3
    ([[1, 2, 0, -1], [1, 1, 1, 2], [0, 0, 1, 0], [0, 0, 0, 1]], 2),
    # parametric single-term rows eta·e_2 and eta^-1·e_0 among h's rows
    ([[1, "eta", 2, 0], [0, 0, "eta", 0], [0, 1, "eta", 1], ["eta^-1", 0, 0, 0]], 2),
    # a unit row, then h with a half and a parameter, then 1/2·e_1
    ([[0, 0, 0, 1], ["1/2", "xi", 1, 0], [1, 0, 1, 3], [0, "1/2", 0, 0]], 2),
])
def test_inverse_eliminates_only_the_rows_that_are_not_single_terms(monkeypatch, rows, n_h):
    """Each single-term row gives a row of A⁻¹ by substitution, and Bareiss
    reduces the n_h rows left on the n_h free columns, with the n columns
    of their right-hand side."""
    a = mat(rows)
    shapes = bareiss_shapes(monkeypatch)
    got = invert(a)
    assert shapes == [(n_h, n_h + len(rows))]
    assert_inverse_matches_sympy(a, got)


@pytest.mark.parametrize("rows", [
    [["2*eta", 0, 0], [0, "-1/3", 0], [0, 0, "eta^-1*xi"]],
    [[0, 0, "2*eta"], ["eta^-1", 0, 0], [0, "-1/2", 0]],
    [[1]],
])
def test_a_matrix_of_single_terms_is_inverted_by_substitution_alone(monkeypatch, rows):
    a = mat(rows)
    shapes = bareiss_shapes(monkeypatch)
    got = invert(a)
    assert shapes == [(0, 0)]
    assert_inverse_matches_sympy(a, got)


@pytest.mark.parametrize("rows", [
    [[0, "eta", 0], [1, 1, 1], [0, "2", 0]],  # two single-term rows in column 1
    [[1, 1, 0], [2, 2, 0], [0, 0, "eta"]],  # a singular block beside eta·e_2
])
def test_single_term_rows_keep_a_singular_matrix_singular(rows):
    with pytest.raises(SingularMatrix, match="rank deficient"):
        invert(mat(rows))
