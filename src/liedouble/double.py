"""The classical double D(g) and the iterated double D(D(a)).

For a bialgebra with [X_i,X_j] = C_ij^k X_k and δ(X_i) = f_i^{jk} X_j⊗X_k,
the double carries the brackets

    [X_i,X_j] = C_ij^k X_k
    [x^i,x^j] = f_k^{ij} x^k
    [x^i,X_j] = C_jk^i x^k − f_j^{ik} X_k

with dual basis {x^i}, the hyperbolic pairing <X_i, x^j> = δ_i^j, and the
canonical element r = Σ_i x^i ⊗ X_i.  The exposed antisymmetric r-matrix
is the skew part (1/2) Σ_i (x^i⊗X_i − X_i⊗x^i): under the package's wedge
normalization u∧v = u⊗v − v⊗u this is the tensor whose basis transports
land exactly on the published quasitriangular r-matrices.

The canonical cocommutator of the double is
δ_D(X_i) = −f_i^{jk} X_j⊗X_k,  δ_D(x^i) = C_jk^i x^j⊗x^k; feeding it back
into the construction yields D(D(a)) on the ordered basis {X, x, y, Y},
whose algebra ``bialgebra._double_algebra`` assigns from the entries of
D(a) and δ_D as it does D(a) from C and f.

D(a) is factorizable, so D(D(a)) ≅ D(a) ⊕ D(a) (Reshetikhin and
Semenov-Tian-Shansky, 1988) by the isometry ψ onto <,> ⊕ −<,> with
ψ(u) = (u, u) for u in D(a), ψ(y^j) = (0, −x^j) and ψ(Y_j) = (X_j, 0).
:func:`double_of_double` checks ψ([e_a, e_b]) = [ψ(e_a), ψ(e_b)] for every
a < b: D(D(a)) is then D(a) ⊕ D(a) carried back by the bijection ψ, and
satisfies Jacobi because the validated D(a) does, with no 4n-dim Jacobi sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .bialgebra import CocommTensor, LieBialgebra, _double_algebra
from .errors import DimensionMismatch, NotACobracket
from .exactalg import PolyExpr, Q, _canonical, as_poly, mul_acc
from .exactlinalg import Vector
from .liealg import LieAlgebra, zero_matrix, zero_tensor3
from .rmatrix import RMatrix

HALF = PolyExpr.const(Q(1, 2))
ZERO = PolyExpr.zero()
ONE = PolyExpr.one()
MINUS_ONE = PolyExpr.const(-1)


@dataclass
class DoubleAlgebra:
    """D(g) with its split basis, canonical pairing and canonical r-matrix."""

    algebra: LieAlgebra          # dimension 2n, basis {X_i} + {x^i}
    n: int
    source: LieBialgebra
    canonical_r_skew: RMatrix    # skew part of Σ x^i ⊗ X_i

    @property
    def dim(self) -> int:
        return 2 * self.n


def build_double(B: LieBialgebra) -> DoubleAlgebra:
    """Construct D(g) for a validated bialgebra, on the algebra that
    :func:`new_bialgebra` validated."""
    n = B.dim
    algebra = B.double_algebra
    skew = zero_matrix(2 * n)
    for i in range(n):
        skew[n + i][i] = HALF
        skew[i][n + i] = -HALF
    return DoubleAlgebra(
        algebra=algebra,
        n=n,
        source=B,
        canonical_r_skew=RMatrix(algebra.labels, skew),
    )


def pairing(D: DoubleAlgebra, u: Vector, v: Vector) -> PolyExpr:
    """Symmetric bilinear pairing <u, v> on the double."""
    if len(u) != D.dim or len(v) != D.dim:
        raise DimensionMismatch("pairing arguments must have length 2n")
    n = D.n
    terms: dict = {}
    for a, b in zip(u, v[n:] + v[:n]):
        a, b = as_poly(a), as_poly(b)
        if not a.is_zero and not b.is_zero:
            mul_acc(terms, a, b)
    return _canonical(terms)


def canonical_cocommutator(D: DoubleAlgebra) -> CocommTensor:
    """δ_D from the canonical element: δ_D(X_i) = −f_i^{jk} X_j⊗X_k,
    δ_D(x^i) = C_jk^i x^j⊗x^k."""
    n = D.n
    f2 = zero_tensor3(2 * n)
    for i, j, k, coef in D.source.cocomm.nonzero():
        f2[i][j][k] = -coef
    for j, k, i, coef in D.source.algebra.nonzero():
        f2[n + i][n + j][n + k] = coef
    return CocommTensor(f2)


def second_dual_labels(n: int) -> tuple[str, ...]:
    """Default labels {y^i} (duals of X_i) and {Y_i} (duals of x^i)."""
    return tuple(f"y{i}" for i in range(n)) + tuple(f"Y{i}" for i in range(n))


def double_of_double(B: LieBialgebra) -> DoubleAlgebra:
    """D(D(a)) on the ordered basis {X_i, x^i, y^i, Y_i}.

    The second application uses the canonical cocommutator of D(a); the
    pairing of the result satisfies <Y_i, x^j> = <y^j, X_i> = δ_i^j.  Its
    Jacobi identity is proved by ψ; brackets that ψ does not preserve raise
    :class:`NotACobracket`, which names them.
    """
    inner = build_double(B)
    delta = canonical_cocommutator(inner)
    duals = second_dual_labels(B.dim)
    outer = replace(_double_algebra(inner.algebra, delta, duals), _jacobi={})
    pairs = [(a, b) for a in range(outer.dim) for b in range(a + 1, outer.dim)]
    bad = _psi_mismatches(outer, inner.algebra, pairs)
    if bad:
        sample = ", ".join(f"[{outer.labels[a]}, {outer.labels[b]}]" for a, b in bad[:4])
        raise NotACobracket(
            f"ψ is not a Lie isomorphism D(D) → D ⊕ D at {len(bad)} brackets "
            f"(first: {sample})"
        )
    return build_double(LieBialgebra(inner.algebra, delta, duals, outer))


def _psi_mismatches(outer: LieAlgebra, inner: LieAlgebra, pairs) -> list:
    """The pairs (a, b), in the order given, at which ψ([e_a, e_b]) in
    ``outer`` = D(D(a)) differs from [ψ(e_a), ψ(e_b)] in ``inner`` ⊕ ``inner``,
    with ``inner`` = D(a)."""
    m = inner.dim
    # ψ(e_a) as ((index, sign), ...), the second summand's indices offset by m
    psi = [((a, 1), (m + a, 1)) for a in range(m)]  # u to (u, u)
    psi += [((m + a, -1),) for a in range(m // 2, m)]  # y^j to (0, −x^j)
    psi += [((a, 1),) for a in range(m // 2)]  # Y_j to (X_j, 0)
    outer_rows, inner_rows = {}, {}  # (a, b): [(k, coef)]
    for rows, L in ((outer_rows, outer), (inner_rows, inner)):
        for a, b, k, coef in L.nonzero():
            rows.setdefault((a, b), []).append((k, coef))
    bad = []
    for a, b in pairs:
        # the terms (index, sign, coef) of ψ([e_a, e_b]) - [ψ(e_a), ψ(e_b)]
        parts = [(r, s, v) for k, v in outer_rows.get((a, b), ()) for r, s in psi[k]]
        parts += [
            (p - p % m + k, -s * t, v)
            for p, s in psi[a]
            for q, t in psi[b]
            if p // m == q // m  # the same summand
            for k, v in inner_rows.get((p % m, q % m), ())
        ]
        sums: tuple = ({}, {})  # the + and − terms summed apart: none is negated
        for r, s, v in parts:
            sums[s < 0][r] = sums[s < 0].get(r, ZERO) + v
        plus, minus = ({r: v for r, v in d.items() if v.terms} for d in sums)
        if plus != minus:
            bad.append((a, b))
    return bad


def crossed_bracket_mismatches(D2: DoubleAlgebra, B: LieBialgebra) -> list:
    """Check the iterated double's crossed brackets [Y_i, X_j], [y^i, x^j],
    [y^i, X_j] and [Y_i, x^j] against their closed forms ψ⁻¹[ψ(e_a), ψ(e_b)],
    read from the double of ``B``; e.g. [Y_i, X_j] = C_ij^k Y_k.

    Returns a list of human-readable mismatch descriptions (empty = pass).
    """
    n = B.dim
    blocks = ((3 * n, 0), (2 * n, n), (2 * n, 0), (3 * n, n))  # Y X, y x, y X, Y x
    pairs = [(a + i, b + j) for i in range(n) for j in range(n) for a, b in blocks]
    labels = D2.algebra.labels
    return [
        f"[{labels[a]}, {labels[b]}] differs from the closed form"
        for a, b in _psi_mismatches(D2.algebra, B.double_algebra, pairs)
    ]


# --- bracket-table emission ---------------------------------------------


def format_combo(labels: Sequence[str], coeffs: Vector) -> str:
    """Render Σ coeff_k · label_k, e.g. ``x2 + 1/2*eta*X1``."""
    pieces = []
    for lab, coef in zip(labels, coeffs):
        coef = as_poly(coef)
        if coef.is_zero:
            continue
        if coef == ONE:
            term = lab
        elif coef == MINUS_ONE:
            term = "-" + lab
        elif coef.is_single_term:
            text = str(coef)
            term = f"{text}*{lab}"
        else:
            term = f"({coef})*{lab}"
        pieces.append(term)
    if not pieces:
        return "0"
    out = pieces[0]
    for term in pieces[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def bracket_table_text(L: LieAlgebra) -> str:
    """Aligned plain-text table of all brackets [e_a, e_b] with a < b, each
    row formatted from its nonzero entries in :meth:`LieAlgebra.nonzero`."""
    labels = L.labels
    rows: dict = {}
    for a, b, k, coef in L.nonzero():
        if a < b:
            row_labels, row_coeffs = rows.setdefault((a, b), ([], []))
            row_labels.append(labels[k])
            row_coeffs.append(coef)
    heads = [
        (f"[{labels[a]}, {labels[b]}]", rows.get((a, b), ((), ())))
        for a in range(L.dim)
        for b in range(a + 1, L.dim)
    ]
    width = max(len(head) for head, _ in heads)
    return "".join(
        f"{head.ljust(width)} = {format_combo(*row)}\n" for head, row in heads
    )
