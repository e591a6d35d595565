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
ψ(u) = (u, u) for u in D(a), ψ(y^j) = (0, −x^j) and ψ(Y_j) = (X_j, 0),
so ψ⁻¹(p, q) has X = q_X, x = p_x, y = p_x − q_x and Y = p_X − q_X.
:func:`double_of_double` checks [e_a, e_b] = ψ⁻¹[ψ(e_a), ψ(e_b)] for every
a < b: D(D(a)) is then D(a) ⊕ D(a) carried back by the bijection ψ, and
satisfies Jacobi because the validated D(a) does, with no 4n-dim Jacobi sum.
Each ψ(e_a) has at most one component in each summand, so
[ψ(e_a), ψ(e_b)] = (p, q) with p and q each zero or ± one bracket of D(a),
and each stored entry of D(a) lands, up to sign, on a few entries of the
right-hand sides: its own, for a, b < 2n, and relabelled ones for the pairs
with a y or a Y.  A minus sign, from ψ or from a pair stored the other way
round, is taken when the entry is read.  Those entries, keyed as the
integer form of D(D(a)), are the ψ⁻¹ image of D(a) (:func:`_psi_image`),
and the check is one ``==`` of the two integer forms, which share most of
their terms dicts; only on a mismatch are the brackets that differ named.
The forms are those that D(D(a)) inherits from C and f: each entry of D(a),
of δ_D and of D(D(a)) is ± one entry of C or f, so their integer forms are
assigned from the scaled C and f, at one scale, and nothing is scaled
again.  D(a) caches its image at its own scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import lcm

from .bialgebra import CocommTensor, LieBialgebra, _double_algebra, _rescaled
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
    assigned, the latter at the scale of D(a), as each stored entry is one
    stored entry of D(a): −f_i^{jk} = f_i^{kj} (j < k) is the X_j entry of
    [X_i, x^k], and C_jk^i the X_i entry of [X_j, X_k]."""
    n = D.n
    d, ints = D.algebra.int_tensor()
    entries, f_int = [], {}
    for a, b, c, coef in D.algebra.nonzero():
        if b < n:  # C_ab^c
            key = (n + c, n + a, n + b)
        elif a < n and c < b - n:  # f_a^{(b-n)c} = −f_a^{c(b-n)}
            key = (a, c, b - n)
        else:
            continue
        entries.append((*key, coef))
        f_int[key] = ints[a, b, c]
    entries.sort()  # the (i, j, k) are distinct, so no coefficient is compared
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
    outer._jacobi = {}
    bad = _psi_mismatches(outer, inner.algebra, combinations(range(outer.dim), 2))
    if bad:
        sample = ", ".join(f"[{outer.labels[a]}, {outer.labels[b]}]" for a, b in bad[:4])
        raise NotACobracket(
            f"ψ is not a Lie isomorphism D(D) → D ⊕ D at {len(bad)} brackets "
            f"(first: {sample})"
        )
    return build_double(LieBialgebra(inner.algebra, delta, duals, outer))


def _psi_mismatches(outer: LieAlgebra, inner: LieAlgebra, pairs) -> list:
    """The pairs (a, b), in the order given, at which the bracket [e_a, e_b]
    of ``outer`` = D(D(a)) differs from ψ⁻¹[ψ(e_a), ψ(e_b)], read from the
    brackets of ``inner`` = D(a): the integer form of ``outer`` is compared
    whole with the ψ⁻¹ image of that of ``inner`` (:func:`_psi_image`), both
    at the lcm of the two scales, and ``pairs`` is read only if they differ,
    each (a, b) as the stored pair (min, max).  ``inner`` caches its image at
    its own scale; an image at another scale is built from the rescaled form
    and not cached.  The check stays exact and generic in the parameters."""
    form, inner_form = outer.int_tensor(), inner.int_tensor()
    d = lcm(form[0], inner_form[0])
    if d != inner_form[0]:
        want = _psi_image(_rescaled(inner_form, d), inner.dim // 2)
    else:
        if inner._psi is None:
            inner._psi = _psi_image(inner_form[1], inner.dim // 2)
        want = inner._psi
    got = _rescaled(form, d)
    if got == want:
        return []
    differ = {key[:2] for key in got.keys() | want.keys() if got.get(key) != want.get(key)}
    return [(a, b) for a, b in pairs if (min(a, b), max(a, b)) in differ]


def _psi_image(ints: dict, n: int) -> dict:
    """The stored entries ``{(a, b, k): terms}``, a < b, of
    ψ⁻¹[ψ(e_a), ψ(e_b)] over the pairs of D(D(a)), from the stored entries
    ``ints`` of the integer form of D(a), of dim 2n; y^j is x^j + n and Y_j
    is X_j + 3n.  Each entry (i, j, k) = t of D(a), i < j, is copied to:

    - (i, j, k) itself: ψ(e_i) = (e_i, e_i), so p = q = [e_i, e_j];
    - for the pairs with a Y, where p = [e_i, e_j] and q = 0, the Y entry
      k + 3n if k < n (Y = p_X), else the x and y entries k and k + n;
    - for the pairs with a y, where p = 0 and q = ±[e_i, e_j] with one minus
      per y, the Y entry k + 3n and the X entry k at −t if k < n
      (Y = −q_X, X = q_X), else the y entry k + n (y = −q_x).

    A pair the relabelling puts out of order is stored negated: [Y_i, e_j]
    as [e_j, Y_i], [y^i, e_j] as [e_j, y^i] and [y^j, y^i] as [y^i, y^j].
    No entry is summed: each entry of the image has one source."""
    image = {}
    shift = 3 * n
    for (i, j, k), t in ints.items():
        image[i, j, k] = t
        m = {mono: -v for mono, v in t.items()}
        big, small = [], []  # (a, b, ±t, ∓t) with a Y_i = (X_i, 0), a y^i = (0, −x^i)
        if i < n:
            big.append((j, i + shift, m, t))
            if j < n:
                big += [(i, j + shift, t, m), (i + shift, j + shift, t, m)]
            else:
                small.append((i, j + n, t, m))
        else:
            small += [(j, i + n, m, t), (i, j + n, t, m), (i + n, j + n, m, t)]
        for a, b, v, _ in big:
            if k < n:
                image[a, b, k + shift] = v
            else:
                image[a, b, k] = image[a, b, k + n] = v
        for a, b, v, minus in small:
            if k < n:
                image[a, b, k + shift] = v
                image[a, b, k] = minus
            else:
                image[a, b, k + n] = v
    return image


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


@lru_cache(maxsize=16)
def _heads(labels: tuple) -> tuple:
    """``((a, b), "[e_a, e_b] = ")`` for a < b, padded to the widest head."""
    pairs = [(a, b) for a in range(len(labels)) for b in range(a + 1, len(labels))]
    heads = [f"[{labels[a]}, {labels[b]}]" for a, b in pairs]
    width = max(map(len, heads), default=0)
    return tuple((pair, head.ljust(width) + " = ") for pair, head in zip(pairs, heads))


def bracket_table_text(L: LieAlgebra) -> str:
    """Aligned plain-text table of all brackets [e_a, e_b] with a < b, e.g.
    ``[X0, X1] = 2*X1``, each row rendered from its nonzero
    entries in :meth:`LieAlgebra.nonzero`, in one pass that appends each
    term to its row (``" - "`` before a term that starts with ``-``).  Each
    coefficient keeps its text, so one shared by several entries or tables,
    as the entries of a double share those of C and f, is rendered once;
    ``""`` for dim < 2."""
    labels = L.labels
    rows: dict = {}
    for a, b, k, coef in L.nonzero():
        term = _term_prefix(coef) + labels[k]
        row = rows.get((a, b))
        if row is None:
            rows[a, b] = term
        elif term[:1] == "-":
            rows[a, b] = row + " - " + term[1:]
        else:
            rows[a, b] = row + " + " + term
    return "".join([head + rows.get(pair, "0") + "\n" for pair, head in _heads(labels)])
