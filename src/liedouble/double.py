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
into the construction yields D(D(a)) on the ordered basis {X, x, y, Y}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bialgebra import CocommTensor, LieBialgebra, new_bialgebra
from .errors import DimensionMismatch
from .exactalg import PolyExpr, Q, _canonical, as_poly, mul_acc
from .exactlinalg import Vector
from .liealg import LieAlgebra, zero_matrix, zero_tensor3
from .rmatrix import RMatrix

HALF = PolyExpr.const(Q(1, 2))
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
    src_f = D.source.cocomm.f
    src_c = D.source.algebra.c
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not src_f[i][j][k].is_zero:
                    f2[i][j][k] = -src_f[i][j][k]
                if not src_c[j][k][i].is_zero:
                    f2[n + i][n + j][n + k] = src_c[j][k][i]
    return CocommTensor(f2)


def second_dual_labels(n: int) -> tuple[str, ...]:
    """Default labels {y^i} (duals of X_i) and {Y_i} (duals of x^i)."""
    return tuple(f"y{i}" for i in range(n)) + tuple(f"Y{i}" for i in range(n))


def double_of_double(
    B: LieBialgebra, dual_labels: Sequence[str] | None = None
) -> DoubleAlgebra:
    """D(D(a)) on the ordered basis {X_i, x^i, y^i, Y_i}.

    The second application uses the canonical cocommutator of D(a); the
    pairing of the result satisfies <Y_i, x^j> = <y^j, X_i> = δ_i^j.
    """
    inner = build_double(B)
    delta = canonical_cocommutator(inner)
    labels = (
        tuple(dual_labels) if dual_labels is not None else second_dual_labels(B.dim)
    )
    outer_bialgebra = new_bialgebra(inner.algebra, delta, dual_labels=labels)
    return build_double(outer_bialgebra)


def crossed_bracket_mismatches(D2: DoubleAlgebra, B: LieBialgebra) -> list:
    """Check the iterated double's crossed brackets against the closed forms
    assembled from the base bialgebra's tensors:

        [Y_i, X_j] = C_ij^k Y_k                 [y^i, x^j] = f_k^{ij} y^k
        [y^i, X_j] = C_jk^i y^k + f_j^{ik} (X_k - Y_k)
        [Y_i, x^j] = f_i^{jk} Y_k - C_ik^j (x^k + y^k)

    Returns a list of human-readable mismatch descriptions (empty = pass).
    """
    n = B.dim
    alg = D2.algebra
    C = B.algebra.c
    f = B.cocomm.f
    mismatches = []

    def expect(pairs):
        v = [PolyExpr.zero()] * (4 * n)
        for idx, coef in pairs:
            v[idx] = v[idx] + coef
        return v

    for i in range(n):
        for j in range(n):
            cases = (
                (3 * n + i, j, [(3 * n + k, C[i][j][k]) for k in range(n)]),
                (2 * n + i, n + j, [(2 * n + k, f[k][i][j]) for k in range(n)]),
                (
                    2 * n + i,
                    j,
                    [(2 * n + k, C[j][k][i]) for k in range(n)]
                    + [(k, f[j][i][k]) for k in range(n)]
                    + [(3 * n + k, -f[j][i][k]) for k in range(n)],
                ),
                (
                    3 * n + i,
                    n + j,
                    [(3 * n + k, f[i][j][k]) for k in range(n)]
                    + [(n + k, -C[i][k][j]) for k in range(n)]
                    + [(2 * n + k, -C[i][k][j]) for k in range(n)],
                ),
            )
            for a, b, pairs in cases:
                if alg.c[a][b] != expect(pairs):
                    mismatches.append(
                        f"[{alg.labels[a]}, {alg.labels[b]}] differs from the closed form"
                    )
    return mismatches


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
