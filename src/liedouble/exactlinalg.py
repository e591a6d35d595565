"""Exact linear algebra over the polynomial scalars.

Every routine runs one fraction-free elimination, Bareiss's (Math. Comp.
22, 1968): each update divides exactly by the previous pivot, so the
entries stay polynomials (minors of the input) and no quotient of
polynomials is ever formed.  :func:`rank` reads the forward pass.
:func:`invert`, :func:`solve_in_span` and :func:`nullspace` also clear the
entries above each pivot; every pivot then equals the last one, d, and each
answer is an entry of the reduced matrix divided exactly by d.  That
division raises :class:`NotDivisible` when an answer is a genuine rational
function rather than a Laurent polynomial (:func:`nullspace` then keeps
the undivided, fraction-free vector).

Semantics are generic in the parameters: a polynomial entry counts as
invertible unless it is identically zero.
"""

from __future__ import annotations

from .errors import NotDivisible, SingularMatrix
from .exactalg import PolyExpr, _canonical, as_poly, mul_acc, poly_div_exact

Matrix = list  # list[list[PolyExpr]]
Vector = list  # list[PolyExpr]

_ZERO, _ONE = PolyExpr.zero(), PolyExpr.one()


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


def _eliminate(rows: Matrix, reduce: bool) -> tuple[Matrix, list[int]]:
    """Bareiss elimination on a copy of ``rows``: (matrix, pivot columns).

    Row r of the result holds the pivot of column ``pivots[r]``; the rows
    after the last pivot row are zero.  Each update divides exactly by the
    previous pivot.  With ``reduce`` the entries above every pivot are
    cleared too, and every pivot ends equal to the last one.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = _ONE
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero:
                # prefer single-term pivots: their cross-multiples stay small
                if pivot_row is None or (
                    m[i][c].is_single_term and not m[pivot_row][c].is_single_term
                ):
                    pivot_row = i
                    if m[i][c].is_single_term:
                        break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow, piv = m[r], m[r][c]
        divide = prev != _ONE
        for i in range(0 if reduce else r + 1, len(m)):
            if i == r:
                continue
            row, f = m[i], m[i][c]
            for j in range(ncols):
                if j == c:
                    continue
                a, b = row[j], prow[j]
                if f.is_zero or b.is_zero:
                    if a.is_zero:
                        continue
                    num = piv * a
                else:
                    terms: dict = {}
                    mul_acc(terms, piv, a)
                    mul_acc(terms, f, b, negate=True)
                    num = _canonical(terms)
                row[j] = poly_div_exact(num, prev) if divide else num
            row[c] = _ZERO
        pivots.append(c)
        prev = piv
    return m, pivots


def rank(rows: Matrix) -> int:
    """Rank over the field of rational functions of the parameters."""
    return len(_eliminate(rows, reduce=False)[1])


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
    m, pivots = _eliminate(augmented, reduce=True)
    if pivots and pivots[-1] == k:
        return None  # a pivot in the right-hand side: inconsistent
    coeffs = [_ZERO] * k
    for r, c in enumerate(pivots):
        coeffs[c] = poly_div_exact(m[r][k], m[r][c])
    return coeffs


def invert(a: Matrix) -> Matrix:
    """Exact inverse; raises :class:`SingularMatrix` if rank-deficient.

    Raises :class:`NotDivisible` when the inverse exists over rational
    functions but not over Laurent polynomials.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise SingularMatrix("matrix is not square")
    augmented = [row + unit for row, unit in zip(mat(a), identity(n))]
    m, pivots = _eliminate(augmented, reduce=True)
    if pivots and pivots[-1] >= n:
        raise SingularMatrix("matrix has no inverse (rank deficient)")
    return [[poly_div_exact(x, row[r]) for x in row[n:]] for r, row in enumerate(m)]


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of {x : a x = 0}, scaled to clear denominators."""
    n_cols = len(a[0]) if a else 0
    m, pivots = _eliminate(mat(a), reduce=True)
    d = m[len(pivots) - 1][pivots[-1]] if pivots else _ONE
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        x = [_ZERO] * n_cols
        x[free] = d
        for r, c in enumerate(pivots):
            x[c] = -m[r][free]
        try:
            x = [poly_div_exact(y, d) for y in x]
        except NotDivisible:
            pass  # keep the fraction-free vector
        basis.append(x)
    return basis
