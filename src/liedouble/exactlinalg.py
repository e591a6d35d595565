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
fraction-free vector).

The elimination runs over integer terms with one scale.  The whole input
is brought to one scale once (:func:`_cleared`, over
:func:`~liedouble.exactalg.to_int_terms`): each entry's integer terms are
rescaled to the lcm s of the denominators, so it eliminates s·A for one
positive integer s, and every entry is held as a dict ``{monomial: int}``.
The integer core, :func:`_bareiss`, takes that cleared matrix, and so
does :func:`_int_inverse`, the integer entry point of :func:`invert`: it
appends the identity half as integer unit dicts, so the adapted pass of
:mod:`liedouble.homogeneous` inverts the s·A its transforms read without
clearing it again.  An update piv·a − f·b is formed by one call of
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

    The identity half is appended as integer unit dicts, and [s·a | I] is
    reduced: its right half ends as d·(s·a)⁻¹, with d the last pivot,
    ±s^n·det(a).  a⁻¹ = s·(s·a)⁻¹ is a Laurent matrix only if det(a) is a
    unit of the Laurent ring, one term c·x^k; then a⁻¹ is s times the
    reduced right half times x^-k, over e = |c|, and no coefficient is
    divided."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise SingularMatrix("matrix is not square")
    augmented = [
        row + [{(): 1} if j == i else {} for j in range(n)] for i, row in enumerate(m)
    ]
    pivots = _bareiss(augmented, reduce=True)
    if pivots and pivots[-1] >= n:
        raise SingularMatrix("matrix has no inverse (rank deficient)")
    if not m:
        return 1, []
    d = augmented[-1][n - 1]
    if len(d) != 1:
        raise NotDivisible(
            f"matrix has no Laurent inverse: its determinant "
            f"±({from_int_terms(d, s**n)}) is not one term"
        )
    ((mono, c),) = d.items()
    inv = _mono_pow(mono, -1)
    sign = s if c > 0 else -s
    return abs(c), [
        [{_mono_mul(x, inv): sign * v for x, v in t.items()} for t in row[n:]]
        for row in augmented
    ]


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
