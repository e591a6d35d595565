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
D(a) and δ_D as it does D(a) from C and f.  δ_D is built from entries too;
no dense tensor of D(a), δ_D or D(D(a)) is filled unless it is read.

D(a) is factorizable, so D(D(a)) ≅ D(a) ⊕ D(a) (Reshetikhin and
Semenov-Tian-Shansky, 1988) by the isometry ψ onto <,> ⊕ −<,> with
ψ(u) = (u, u) for u in D(a), ψ(y^j) = (0, −x^j) and ψ(Y_j) = (X_j, 0).
:func:`double_of_double` checks ψ([e_a, e_b]) = [ψ(e_a), ψ(e_b)] for every
a < b: D(D(a)) is then D(a) ⊕ D(a) carried back by the bijection ψ, and
satisfies Jacobi because the validated D(a) does, with no 4n-dim Jacobi sum.
The check runs over Python ints, on the integer form that D(D(a)) inherits
from C and f: each entry of D(a), of δ_D and of D(D(a)) is ± one entry of C
or f, so their integer forms are assigned from the scaled C and f, and
nothing is scaled again; the bracket rows of those forms are cached on the
algebras (:meth:`~liedouble.liealg.LieAlgebra.int_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .bialgebra import CocommTensor, LieBialgebra, _double_algebra
from .errors import DimensionMismatch, NotACobracket
from .exactalg import PolyExpr, Q, _canonical, as_poly, mul_acc
from .exactlinalg import Vector
from .liealg import LieAlgebra
from .rmatrix import RMatrix


@dataclass
class DoubleAlgebra:
    """D(g) with its split basis, canonical pairing and canonical r-matrix."""

    algebra: LieAlgebra          # dimension 2n, basis {X_i} + {x^i}
    n: int
    source: LieBialgebra
    _r_skew: RMatrix | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def canonical_r_skew(self) -> RMatrix:
        """The skew part (1/2) Σ x^i ∧ X_i of Σ x^i ⊗ X_i, the terms
        r^{i, n+i} = −1/2, built on first read."""
        if self._r_skew is None:
            coef, n = PolyExpr.const(Q(-1, 2)), self.n
            terms = {(i, n + i): coef for i in range(n)}
            self._r_skew = RMatrix(self.algebra.labels, terms)
        return self._r_skew


def build_double(B: LieBialgebra) -> DoubleAlgebra:
    """Construct D(g) for a validated bialgebra, on the algebra that
    :func:`new_bialgebra` validated."""
    return DoubleAlgebra(algebra=B.double_algebra, n=B.dim, source=B)


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
    δ_D(x^i) = C_jk^i x^j⊗x^k.  Its sparse view and integer form are
    assigned, the latter at the scale of D(a), as each entry is one entry
    of D(a): −f_i^{jk} = f_i^{kj} is the x^i entry of [x^k, x^j], C_jk^i
    the X_i entry of [X_j, X_k].  So no entry is negated."""
    n = D.n
    d, ints = D.algebra.int_tensor()
    entries, f_int = [], {}
    f = D.source.cocomm.nonzero()
    partner = {(i, k, j): coef for i, j, k, coef in f}  # f_i^{kj} at (i, j, k)
    for i, j, k, _ in f:
        entries.append((i, j, k, partner[i, j, k]))
        f_int[i, j, k] = ints[n + k, n + j, n + i]
    # C_jk^i in the index order of (n + i, n + j, n + k); the (i, j, k) are
    # distinct, so the sort compares no coefficient
    by_upper = sorted([(i, j, k, coef) for j, k, i, coef in D.source.algebra.nonzero()])
    for i, j, k, coef in by_upper:
        entries.append((n + i, n + j, n + k, coef))
        f_int[n + i, n + j, n + k] = ints[j, k, i]
    return CocommTensor(2 * n, entries, _int=(d, f_int))


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
    # every entry of δ_D is one of D(a), so D(D(a)) has the parameters of D(a)
    outer = _double_algebra(inner.algebra, delta, duals, inner.algebra.params)
    outer = replace(outer, _jacobi={})
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
    with ``inner`` = D(a).

    Both sides are read from the cached bracket rows of the integer forms of
    the two algebras (:meth:`LieAlgebra.int_rows`), which D(D(a)) inherits
    from C and f:
    with d_out and d_in their scales, d_in·d_out times the difference is
    summed over ints, per (index, monomial), the outer terms times d_in and
    the inner ones times d_out.  A pair is bad iff one of its sums is
    nonzero, so the check stays exact and generic in the parameters."""
    m = inner.dim
    # ψ(e_a) as ((index, sign), ...), the second summand's indices offset by m
    psi = [((a, 1), (m + a, 1)) for a in range(m)]  # u to (u, u)
    psi += [((m + a, -1),) for a in range(m // 2, m)]  # y^j to (0, −x^j)
    psi += [((a, 1),) for a in range(m // 2)]  # Y_j to (X_j, 0)
    d_out, d_in = outer.int_tensor()[0], inner.int_tensor()[0]
    outer_rows, inner_rows = outer.int_rows(), inner.int_rows()
    bad = []
    for a, b in pairs:
        # d_in·d_out·(ψ([e_a, e_b]) − [ψ(e_a), ψ(e_b)]) by (index, monomial)
        sums: dict = {}
        for k, terms in outer_rows.get((a, b), ()):
            for r, s in psi[k]:
                s *= d_in
                for mono, c in terms.items():
                    key = (r, mono)
                    sums[key] = sums.get(key, 0) + s * c
        for p, s in psi[a]:
            for q, t in psi[b]:
                if p // m != q // m:  # not the same summand
                    continue
                base, st = p - p % m, -s * t * d_out
                for k, terms in inner_rows.get((p % m, q % m), ()):
                    for mono, c in terms.items():
                        key = (base + k, mono)
                        sums[key] = sums.get(key, 0) + st * c
        if any(sums.values()):
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


def _term_prefix(coef: PolyExpr) -> str:
    """The text before the label in the term coef·label of a table row:
    ``""`` for 1, ``"-"`` for −1, ``"c*"`` for one term c and ``"(p)*"`` for
    a polynomial p of several terms."""
    terms = coef.terms
    if len(terms) != 1:
        return f"({coef})*"
    q = terms.get(())
    if q is not None and q.denominator == 1 and q.numerator in (1, -1):
        return "" if q.numerator == 1 else "-"
    return f"{coef}*"


def bracket_table_text(L: LieAlgebra) -> str:
    """Aligned plain-text table of all brackets [e_a, e_b] with a < b, e.g.
    ``[X0, X1] = 2*X1``, each row rendered from its nonzero
    entries in :meth:`LieAlgebra.nonzero`, in one pass that appends each
    term to its row (``" - "`` before a term that starts with ``-``).  A
    coefficient shared by several entries, as the entries of a double share
    those of C and f, is rendered once per call; ``""`` for dim < 2."""
    labels = L.labels
    prefixes: dict = {}  # id(coef): its term prefix; every coef lives in L
    rows: dict = {}
    for a, b, k, coef in L.nonzero():
        if a < b:
            prefix = prefixes.get(id(coef))
            if prefix is None:
                prefix = prefixes[id(coef)] = _term_prefix(coef)
            term = prefix + labels[k]
            row = rows.get((a, b))
            if row is None:
                rows[a, b] = term
            elif term[:1] == "-":
                rows[a, b] = row + " - " + term[1:]
            else:
                rows[a, b] = row + " + " + term
    heads = [
        (f"[{labels[a]}, {labels[b]}]", rows.get((a, b), "0"))
        for a in range(L.dim)
        for b in range(a + 1, L.dim)
    ]
    width = max((len(head) for head, _ in heads), default=0)
    return "".join(f"{head.ljust(width)} = {row}\n" for head, row in heads)
