"""Exact linear algebra over the polynomial scalars.

Every routine runs one fraction-free elimination, Bareiss's (Math. Comp.
22, 1968): each update divides exactly by the previous pivot, so the
entries stay polynomials (minors of the input) and no quotient of
polynomials is ever formed.  :func:`rank` reads the forward pass.
:func:`invert`, :func:`solve_in_span` and :func:`nullspace` also clear the
entries above each pivot; every pivot then equals the last one, d, and each
answer is an entry of the reduced matrix divided exactly by d, by
:func:`~liedouble.exactalg.poly_div_exact`.  That division raises
:class:`NotDivisible` when an answer is a genuine rational function rather
than a Laurent polynomial (:func:`nullspace` then keeps the undivided,
fraction-free vector).  Before it eliminates, :func:`invert` solves each
row whose only entry is one term by substitution, so the elimination
reduces only the square block of the other rows.

The elimination runs over integer terms with one scale.  The whole input
is brought to one scale once (:func:`_cleared`, over
:func:`~liedouble.exactalg.to_int_terms`): each entry's integer terms are
rescaled to the lcm s of the denominators, so it eliminates s·A for one
positive integer s, and every entry is held as a dict ``{monomial: int}``.
The integer core, :func:`_bareiss`, takes that cleared matrix, and so
does :func:`_int_inverse`, the integer entry point of :func:`invert`, so
the adapted pass of :mod:`liedouble.homogeneous` inverts the s·A its
transforms read without clearing it again.  It solves each single-term row
c·x^k·e_j, a unit row of a complement among them, by substitution, moves
the other rows' entries in the solved columns to the right-hand side, and
hands :func:`_bareiss` only the block of those rows on the free columns,
with that right-hand side and the identity on the block's rows appended as
integer dicts: for an adapted basis (h, e_c, …), h's n_h rows.  An update
piv·a − f·b is formed by one call of
:func:`~liedouble.exactalg._add_product`, the one product kernel, per
nonzero product, into one zero-free terms dict, and divided exactly by the
previous pivot, not at all when the pivot is 1, by
:func:`~liedouble.exactalg._div_terms`, the one integer long division of the
package.  Every entry of the reduced matrix of s·A is an r×r minor, r the
rank, so it is s^r times that of A: the answers above, ratios of two
entries, do not depend on s, and only the fraction-free vector of
:func:`nullspace` is divided back by s^r.  Each answer is divided back once,
by :func:`~liedouble.exactalg.from_int_terms`.

Semantics are generic in the parameters: a polynomial entry counts as
invertible unless it is identically zero.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import NotDivisible, SingularMatrix
from .exactalg import (
    PolyExpr,
    _UNIT,
    _add_product,
    _div_terms,
    _mono_mul,
    _mono_pow,
    as_poly,
    from_int_terms,
    poly_div_exact,
    to_int_terms,
)

Matrix = list  # list[list[PolyExpr]]
Vector = list  # list[PolyExpr]

_ZERO = PolyExpr.zero()


def mat(rows) -> Matrix:
    """Coerce a nested iterable of poly-likes to a matrix of PolyExpr."""
    return [[as_poly(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [
        [PolyExpr.one() if i == j else PolyExpr.zero() for j in range(n)]
        for i in range(n)
    ]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _cleared(rows: Matrix) -> tuple[int, list]:
    """Clear the denominators of a matrix once: ``(s, m)`` with s the lcm
    of its coefficient denominators and ``m[i][j]`` the terms of
    s·``rows[i][j]`` as a dict ``{monomial: int}``
    (:func:`~liedouble.exactalg.to_int_terms`)."""
    s, scaled = to_int_terms(x for row in rows for x in row)
    flat = iter(scaled)
    return s, [[next(flat) for _ in row] for row in rows]


def _bareiss(m: list, reduce: bool) -> list[int]:
    """Bareiss elimination of an integer matrix, each entry a dict
    ``{monomial: int}``, in place; returns the pivot columns.

    Row r of the result holds the pivot of column ``pivots[r]``; the rows
    after the last pivot row are zero.  Each update divides exactly by the
    previous pivot.  With ``reduce`` the entries above every pivot are
    cleared too, and every pivot ends equal to the last one.  The rows of
    ``m`` are reordered and replaced entry by entry; no entry dict is
    changed, so a dict shared with another matrix or a polynomial stays as
    it was.

    The pivot of a column is, among its nonzero entries at or below row r,
    the first single-term one equal to the previous pivot (1 before the
    first), else the first single-term one, else the first.  Single-term
    pivots keep the cross-multiples small, and a pivot equal to the
    previous one leaves every row with no entry in its column as it is: the
    update piv·a/prev of such a row is a, so the row is skipped and keeps
    its entry dicts.
    """
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev, unit = _UNIT, True  # by the pivot 1 an update is its own quotient
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = None
        for i in range(r, len(m)):
            x = m[i][c]
            if not x:
                continue
            if len(x) == 1 and x == prev:
                pivot_row = i
                break
            if pivot_row is None or (len(x) == 1 and len(m[pivot_row][c]) != 1):
                pivot_row = i
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow, piv = m[r], m[r][c]
        keep = piv == prev  # rows with no entry in column c stay as they are
        for i in range(0 if reduce else r + 1, len(m)):
            row, f = m[i], m[i][c]
            if i == r or (keep and not f):
                continue
            for j in range(ncols):
                if j == c:
                    continue
                a, b = row[j], prow[j]
                if not a and not (f and b):
                    continue
                num: dict = {}  # piv·a − f·b
                if a:
                    _add_product(num, 1, piv, a)
                if f and b:
                    _add_product(num, -1, f, b)
                if num and not unit:
                    num = _div_terms(num, prev)
                    assert num is not None, "Bareiss update not exact"
                row[j] = num
            row[c] = {}
        pivots.append(c)
        prev, unit = piv, piv == _UNIT
    return pivots


def rank(rows: Matrix) -> int:
    """Rank over the field of rational functions of the parameters."""
    return len(_bareiss(_cleared(rows)[1], reduce=False))


def solve_in_span(rows: Matrix, v: Vector) -> Vector | None:
    """Coefficients c with sum_r c[r] * rows[r] == v, or None.

    Free coefficients are set to zero.  Raises :class:`NotDivisible` if the
    (generic) coefficients are rational functions rather than Laurent
    polynomials.
    """
    if not rows:
        return None
    k = len(rows)
    augmented = [col + [as_poly(x)] for col, x in zip(transpose(mat(rows)), v)]
    m = _cleared(augmented)[1]
    pivots = _bareiss(m, reduce=True)
    if pivots and pivots[-1] == k:
        return None  # a pivot in the right-hand side: inconsistent
    coeffs = [_ZERO] * k
    for r, c in enumerate(pivots):
        row = m[r]
        coeffs[c] = poly_div_exact(from_int_terms(row[k], 1), from_int_terms(row[c], 1))
    return coeffs


def _int_inverse(s: int, m: list) -> tuple[int, list]:
    """``(e, rows)`` with a⁻¹ = rows / e, for a = m / s, from the integer
    matrix m = s·a that :func:`_cleared` gives: e a positive integer and
    ``rows[i][j]`` a dict ``{monomial: int}``; m is left as it was, and
    errors are those of :func:`invert`.

    A row u of m whose only nonzero entry is one term p_u = c_u·x^k, in a
    column j that no earlier such row uses, is solved by substitution: row
    j of a⁻¹ is s·e_u / p_u.  (A second such row in column j is a multiple
    of row u, so a is singular.)  The other rows' entries in the solved
    columns move to the right-hand side: :func:`_bareiss` reduces only the
    square block B of those rows on the free columns, with [I | m_S]
    appended, the identity on the block's rows and their entries in the
    solved columns.  Its right half ends as d·B⁻¹·[I | m_S], with d the
    last pivot, ±det(B), so det(a) is ±d·∏p_u / s^n.  With no single-term
    row the block is all of m.  a⁻¹ is a Laurent matrix only if det(a) is
    a unit of the Laurent ring, i.e. d is one term c·x^k; then the rows of
    a⁻¹ at the free columns are s times the right half over c·x^k, its
    column of each solved row u also over −p_u.  e is |c| times the lcm of
    the |c_u|, over its gcd with s, and no coefficient is divided."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise SingularMatrix("matrix is not square")
    solved: dict = {}  # column j -> the row u whose only entry is one term, in j
    block = []  # the other rows
    for u, row in enumerate(m):
        nonzero = [j for j, x in enumerate(row) if x]
        if len(nonzero) == 1 and len(row[nonzero[0]]) == 1:
            if nonzero[0] in solved:
                raise SingularMatrix("matrix has no inverse (rank deficient)")
            solved[nonzero[0]] = u
        else:
            block.append(u)
    free = [j for j in range(n) if j not in solved]
    nb = len(block)
    augmented = []
    for r in block:  # [B | I | m_S], the right half indexed by the rows of m
        rhs = [{}] * n
        rhs[r] = {(): 1}
        for j, u in solved.items():
            rhs[u] = m[r][j]
        augmented.append([m[r][j] for j in free] + rhs)
    pivots = _bareiss(augmented, reduce=True)
    if pivots and pivots[-1] >= nb:
        raise SingularMatrix("matrix has no inverse (rank deficient)")
    d = augmented[-1][nb - 1] if nb else _UNIT
    if len(d) != 1:
        det = d
        for j, u in solved.items():
            det, prev = {}, det
            _add_product(det, 1, prev, m[u][j])
        raise NotDivisible(
            f"matrix has no Laurent inverse: its determinant "
            f"±({from_int_terms(det, s**n)}) is not one term"
        )
    ((mono, c),) = d.items()
    inv = _mono_pow(mono, -1)
    p = {u: next(iter(m[u][j].items())) for j, u in solved.items()}  # p_u as (x^k, c_u)
    lcm_c = lcm(*(abs(c_u) for _, c_u in p.values()))
    g = gcd(s, abs(c) * lcm_c)
    sign = s // g if c > 0 else -(s // g)
    # each column of a⁻¹ at the free rows: (multiplier, monomial) of the right half
    factors = [(sign * lcm_c, inv)] * n
    rows = [None] * n
    for j, u in solved.items():
        x, c_u = p[u]
        x_inv = _mono_pow(x, -1)
        factors[u] = (-sign * lcm_c // c_u, _mono_mul(inv, x_inv))
        rows[j] = [{} for _ in range(n)]
        rows[j][u] = {x_inv: s // g * (abs(c) * lcm_c // c_u)}
    for j, row in zip(free, augmented):
        rows[j] = [
            {_mono_mul(x, shift): f * v for x, v in t.items()}
            for t, (f, shift) in zip(row[nb:], factors)
        ]
    return abs(c) * lcm_c // g, rows


def invert(a: Matrix) -> Matrix:
    """Exact inverse; raises :class:`SingularMatrix` if rank-deficient.

    Raises :class:`NotDivisible` when the inverse exists over rational
    functions but not over Laurent polynomials.
    """
    e, rows = _int_inverse(*_cleared(mat(a)))
    return [[from_int_terms(t, e) for t in row] for row in rows]


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of {x : a x = 0}, scaled to clear denominators."""
    n_cols = len(a[0]) if a else 0
    s, m = _cleared(mat(a))
    pivots = _bareiss(m, reduce=True)
    d = m[len(pivots) - 1][pivots[-1]] if pivots else {(): 1}
    den = from_int_terms(d, 1)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        x = [{}] * n_cols
        x[free] = d
        for r, c in enumerate(pivots):
            x[c] = {mono: -v for mono, v in m[r][free].items()}
        try:
            basis.append([poly_div_exact(from_int_terms(y, 1), den) for y in x])
        except NotDivisible:  # keep the fraction-free vector of a
            basis.append([from_int_terms(y, s ** len(pivots)) for y in x])
    return basis
