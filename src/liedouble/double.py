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
δ_D(X_i) = −f_i^{jk} X_j⊗X_k,  δ_D(x^i) = C_jk^i x^j⊗x^k, held, as every
δ is, as the algebra it is dual to: D(g)* = (g*)ᵒᵖ ⊕ g.  Feeding it back
into the construction yields D(D(a)) on the ordered basis {X, x, y, Y},
whose brackets ``bialgebra._double_brackets`` assigns from the entries of
D(a) and D(g)* as it does those of D(a) from C and g*.  D(g)* is built from
entries too; no dense tensor of D(a), δ_D or D(D(a)) is built.

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
round, is the negation the coefficient keeps.  Those entries are the ψ⁻¹
image of D(a) (:func:`_psi_image`), which D(a) caches keyed and in index
order, and the check is one ``==`` of the keyed brackets of D(D(a)) with
it: equal canonical coefficients are equal rationals, and each entry of
D(a), δ_D and D(D(a)) is ± one entry of C or f, so the two maps share their
coefficient objects and compare them mostly by identity.  D(D(a)) then
takes a copy of the ordered image, so no build sorts; only on a mismatch
are the brackets sorted and those that differ named.  No integer form of a
double is built, and as the image has no scale, it serves every D(D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .bialgebra import LieBialgebra, _double_brackets
from .errors import DimensionMismatch, NotACobracket
from .exactalg import PolyExpr, _add_product, as_poly, from_int_terms, to_int_terms
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
            coef, n = as_poly("-1/2"), self.n
            terms = {(i, n + i): coef for i in range(n)}
            self._r_skew = RMatrix(self.algebra.labels, terms)
        return self._r_skew


def build_double(B: LieBialgebra) -> DoubleAlgebra:
    """Construct D(g) for a validated bialgebra, on the algebra that
    :func:`new_bialgebra` validated."""
    return DoubleAlgebra(algebra=B.double_algebra, n=B.dim, source=B)


def pairing(D: DoubleAlgebra, u: Vector, v: Vector) -> PolyExpr:
    """Symmetric bilinear pairing <u, v> on the double, summed over integer
    terms at one scale."""
    if len(u) != D.dim or len(v) != D.dim:
        raise DimensionMismatch("pairing arguments must have length 2n")
    n = D.n
    pairs = [(as_poly(a), as_poly(b)) for a, b in zip(u, v[n:] + v[:n])]
    d, scaled = to_int_terms(x for pair in pairs if all(pair) for x in pair)
    terms: dict = {}
    for t1, t2 in zip(scaled[::2], scaled[1::2]):
        _add_product(terms, 1, t1, t2)
    return from_int_terms(terms, d * d)


def canonical_cocommutator(D: DoubleAlgebra) -> LieAlgebra:
    """δ_D from the canonical element, δ_D(X_i) = −f_i^{jk} X_j⊗X_k and
    δ_D(x^i) = C_jk^i x^j⊗x^k, as the algebra D(g)* it is dual to,
    labelled by D(g)'s basis: [x^j, x^k] = −f_i^{jk} x^i on the X-duals and
    [x^j, x^k] = C_jk^i x^i on the x-duals, so D(g)* = (g*)ᵒᵖ ⊕ g.  Its
    sparse view is assigned, as each stored entry is one stored entry of
    D(a): −f_i^{jk} = f_i^{kj} (j < k) is the X_j entry of [X_i, x^k], and
    C_jk^i the X_i entry of [X_j, X_k]."""
    n = D.n
    entries = []
    for a, b, c, coef in D.algebra.nonzero():
        if b < n:  # C_ab^c
            entries.append((n + a, n + b, n + c, coef))
        elif a < n and c < b - n:  # f_a^{(b-n)c} = −f_a^{c(b-n)}
            entries.append((c, b - n, a, coef))
    entries.sort()  # the (i, j, k) are distinct, so no coefficient is compared
    # each entry of C and f is one of δ_D, so D(g)* has the parameters of D(a)
    return LieAlgebra(2 * n, D.algebra.labels, D.algebra.params, entries)


def second_dual_labels(n: int) -> tuple[str, ...]:
    """Default labels {y^i} (duals of X_i) and {Y_i} (duals of x^i)."""
    return tuple(f"y{i}" for i in range(n)) + tuple(f"Y{i}" for i in range(n))


def double_of_double(B: LieBialgebra) -> DoubleAlgebra:
    """D(D(a)) on the ordered basis {X_i, x^i, y^i, Y_i}.

    The second application uses the canonical cocommutator of D(a); the
    pairing of the result satisfies <Y_i, x^j> = <y^j, X_i> = δ_i^j.  Its
    Jacobi identity is proved by ψ, one ``==`` of its keyed brackets with
    D(a)'s keyed ψ⁻¹ image, and its entries are a copy of the ordered image;
    brackets that ψ does not preserve raise :class:`NotACobracket`, which
    names them.
    """
    D = build_double(B)
    inner, delta, duals = D.algebra, canonical_cocommutator(D), second_dual_labels(B.dim)
    brackets = _double_brackets(inner, delta)
    image, entries = _cached_psi(inner)
    same = brackets == image
    # the copy keeps the cache from the caller; a mismatch is sorted to be named
    entries = list(entries) if same else [(*key, brackets[key]) for key in sorted(brackets)]
    # every entry of δ_D is one of D(a), so D(D(a)) has the parameters of D(a)
    outer = LieAlgebra(2 * inner.dim, inner.labels + duals, inner.params, entries)
    outer._jacobi = {}
    if not same:
        bad = _psi_mismatches(outer, inner, combinations(range(outer.dim), 2))
        sample = ", ".join(f"[{outer.labels[a]}, {outer.labels[b]}]" for a, b in bad[:4])
        raise NotACobracket(
            f"ψ is not a Lie isomorphism D(D) → D ⊕ D at {len(bad)} brackets "
            f"(first: {sample})"
        )
    return build_double(LieBialgebra(inner, delta, duals, outer))


def _psi_mismatches(outer: LieAlgebra, inner: LieAlgebra, pairs) -> list:
    """The pairs (a, b), in the order given, at which the bracket [e_a, e_b]
    of ``outer`` = D(D(a)) differs from ψ⁻¹[ψ(e_a), ψ(e_b)], read from the
    brackets of ``inner`` = D(a): the sparse view of ``outer`` is compared
    whole with the index-ordered ψ⁻¹ image of ``inner`` (:func:`_cached_psi`),
    and only if they differ is ``outer`` keyed to be compared with the keyed
    image and ``pairs`` read, each (a, b) as the stored pair (min, max).  The
    check stays exact and generic in the parameters."""
    want, entries = _cached_psi(inner)
    if outer.nonzero() == entries:
        return []
    got = {(a, b, k): v for a, b, k, v in outer.nonzero()}
    differ = {key[:2] for key in got.keys() | want.keys() if got.get(key) != want.get(key)}
    return [(a, b) for a, b in pairs if (min(a, b), max(a, b)) in differ]


def _cached_psi(inner: LieAlgebra) -> tuple:
    """The ψ⁻¹ image of D(a) = ``inner`` (:func:`_psi_image`), cached on it."""
    if inner._psi is None:
        inner._psi = _psi_image(inner.nonzero(), inner.dim // 2)
    return inner._psi


def _psi_image(entries: list, n: int) -> tuple:
    """The stored entries (a, b, k, coef), a < b, of ψ⁻¹[ψ(e_a), ψ(e_b)] over
    the pairs of D(D(a)), keyed and as a list in index order, from the sparse
    view ``entries`` of D(a), of dim 2n; y^j is x^j + n and Y_j is X_j + 3n.
    Each entry (i, j, k, t) of D(a), i < j, is copied to:

    - (i, j, k) itself: ψ(e_i) = (e_i, e_i), so p = q = [e_i, e_j];
    - for the pairs with a Y, where p = [e_i, e_j] and q = 0, the Y entry
      k + 3n if k < n (Y = p_X), else the x and y entries k and k + n;
    - for the pairs with a y, where p = 0 and q = ±[e_i, e_j] with one minus
      per y, the Y entry k + 3n and the X entry k at −t if k < n
      (Y = −q_X, X = q_X), else the y entry k + n (y = −q_x).

    A pair the relabelling puts out of order is stored negated: [Y_i, e_j]
    as [e_j, Y_i], [y^i, e_j] as [e_j, y^i] and [y^j, y^i] as [y^i, y^j].
    Each −t is the negation t keeps.  No entry is summed: each entry of the
    image has one source."""
    image = {}
    shift = 3 * n
    for i, j, k, t in entries:
        image[i, j, k] = t
        m = -t
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
    return image, [(*key, image[key]) for key in sorted(image)]


def crossed_bracket_mismatches(D2: DoubleAlgebra, B: LieBialgebra) -> list:
    """Check the iterated double's crossed brackets [Y_i, X_j], [y^i, x^j],
    [y^i, X_j] and [Y_i, x^j] against their closed forms ψ⁻¹[ψ(e_a), ψ(e_b)],
    read from the double of ``B``; e.g. [Y_i, X_j] = C_ij^k Y_k.

    Returns a list of human-readable mismatch descriptions (empty = pass).
    """
    n = B.dim
    blocks = ((3 * n, 0), (2 * n, n), (2 * n, 0), (3 * n, n))  # Y X, y x, y X, Y x
    pairs = ((a + i, b + j) for i in range(n) for j in range(n) for a, b in blocks)
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
    text = str(coef)
    if len(coef.terms) != 1:
        return f"({text})*"
    return "" if text == "1" else "-" if text == "-1" else text + "*"


@lru_cache(maxsize=16)
def _heads(labels: tuple) -> tuple:
    """``((a, b), "[e_a, e_b] = ")`` for a < b, padded to the widest head."""
    pairs = [(a, b) for a in range(len(labels)) for b in range(a + 1, len(labels))]
    heads = [f"[{labels[a]}, {labels[b]}]" for a, b in pairs]
    width = max(map(len, heads), default=0)
    return tuple((pair, head.ljust(width) + " = ") for pair, head in zip(pairs, heads))


def bracket_table_text(L: LieAlgebra) -> str:
    """Aligned plain-text table of all brackets [e_a, e_b] with a < b, e.g.
    ``[X0, X1] = 2*X1``, in one walk over :meth:`LieAlgebra.nonzero`.  The
    walk relies on the entries being in (i, j, k) index order, as every
    :class:`LieAlgebra` keeps them: each new pair appends its cached head,
    after the heads of the pairs it skips with ``0``, and each term appends
    its pieces (``" - "`` before a term that starts with ``-``) to one list
    that is joined once.  Each coefficient keeps its text, so one shared by
    several entries or tables, as the entries of a double share those of C
    and f, is rendered once; ``""`` for dim < 2."""
    labels = L.labels
    heads = _heads(labels)
    out: list = []
    put = out.append
    at, a0, b0 = 0, -1, -1  # heads[at] is the first pair not yet written
    for a, b, k, coef in L.nonzero():
        prefix = _term_prefix(coef)
        if b != b0 or a != a0:
            if at:
                put("\n")
            while heads[at][0] != (a, b):
                put(heads[at][1])
                put("0\n")
                at += 1
            put(heads[at][1])
            put(prefix)
            at, a0, b0 = at + 1, a, b
        elif prefix[:1] == "-":
            put(" - ")
            put(prefix[1:])
        else:
            put(" + ")
            put(prefix)
        put(labels[k])
    if at:
        put("\n")
    for _, head in heads[at:]:
        put(head)
        put("0\n")
    return "".join(out)
