"""Antisymmetric classical r-matrices and Yang-Baxter verdicts.

Conventions (frozen by the chart-calibration tests):

* wedge normalization  u ∧ v := u ⊗ v − v ⊗ u,  so the standard
  sl(2,R) r-matrix 2η P1∧P2 has component r^{P1 P2} = 2η;
* cocommutator  δ(X_i) = (ad_{X_i} ⊗ 1 + 1 ⊗ ad_{X_i}) r,  giving
  constants f_i^{jk} antisymmetric in the upper pair;
* Schouten bracket  [[r,r]]^{ijk} = Σ_{l,m} ( C_lm^i r^{lj} r^{mk}
  + C_lm^j r^{il} r^{mk} + C_lm^k r^{il} r^{jm} ).

CYBE means [[r,r]] = 0; mCYBE means [[r,r]] is ad-invariant.  No Schouten
tensor is built.  Both verdicts are read from δ_r, which
:func:`cocommutator_from_r` returns as the algebra g* it is dual to,
[x^i, x^j] = f_k^{ij} x^k, and from the map r(x^i) = r^{ia} X_a, by two
identities that hold when C satisfies Jacobi, as every caller's algebra
does (Drinfel'd, 1983; Semenov-Tian-Shansky, "What is a classical
r-matrix?", 1983):

* r[x^i, x^j] − [r(x^i), r(x^j)] = −[[r,r]]^{ijm} X_m: CYBE holds iff
  r: g* → g is a homomorphism (:func:`_cybe_residual`);
* the Jacobi residual of g* is R_jkl^m = −(ad_{X_m}[[r,r]])^{jkl},
  with (ad_{X_m} T)^{jkl} = Σ_a (C_ma^j T^{akl} + C_ma^k T^{jal} + C_ma^l T^{jka}):
  mCYBE holds iff δ_r satisfies co-Jacobi, i.e. g* satisfies Jacobi.

An :class:`RMatrix` is its wedge terms, the nonzero r^{ij} with i < j, so
it is antisymmetric by construction, and it keeps no dense matrix.  δ_r is
built as its stored half, so no dense tensor is filled or scanned.  Both
are summed, as the Jacobi check is, over the integer terms of C, f and r
at one scale through ``exactalg._add_product``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ShapeError
from .exactalg import PolyLike, _add_product, as_poly, from_int_terms, to_int_terms
from .liealg import LieAlgebra, _algebra_of, _component, is_jacobi_zero


@dataclass
class RMatrix:
    """Antisymmetric contravariant 2-tensor r^{ij} over a labelled basis."""

    labels: tuple[str, ...]
    # the nonzero r^{ij} with i < j, {(i, j): coef}; r^{ji} = -r^{ij}
    terms: dict

    def __post_init__(self):
        n = len(self.labels)
        for i, j in self.terms:
            if not 0 <= i < j < n:
                raise ShapeError(f"r-matrix term ({i},{j}) needs 0 <= i < j < {n}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def wedge_terms(self) -> list:
        """Sparse upper-triangle view [(i, j, coef)] with i < j, in index order."""
        return [(i, j, self.terms[i, j]) for i, j in sorted(self.terms)]

    def substitute(self, mapping) -> "RMatrix":
        terms = {key: v.substitute(mapping) for key, v in self.terms.items()}
        return RMatrix(self.labels, {key: v for key, v in terms.items() if v.terms})

    def to_json(self) -> list:
        return [
            {"i": self.labels[i], "j": self.labels[j], "coef": str(coef)}
            for i, j, coef in self.wedge_terms()
        ]


def rmatrix_from_wedge(
    labels: Sequence[str], terms: Iterable[tuple[str, str, PolyLike]]
) -> RMatrix:
    """Assemble r = Σ coef · X_i ∧ X_j from labelled wedge terms, X_j ∧ X_i
    as −X_i ∧ X_j; duplicates are summed and terms that cancel dropped."""
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    acc: dict = {}
    for li, lj, coef in terms:
        if li not in index or lj not in index:
            raise ShapeError(f"unknown label in wedge term ({li},{lj})")
        i, j = index[li], index[lj]
        if i == j:
            raise ShapeError(f"wedge of {li} with itself is zero")
        coef = as_poly(coef)
        if i > j:
            i, j, coef = j, i, -coef
        acc[i, j] = acc[i, j] + coef if (i, j) in acc else coef
    return RMatrix(labels, {key: v for key, v in acc.items() if v.terms})


def _rows(r: RMatrix) -> tuple[int, list]:
    """The nonzero entries of r by row over ints: ``(d, rows)``, ``rows[i]``
    listing (j, sign, terms) by j with r^{ij} = sign·terms / d."""
    keys = sorted(r.terms)
    d, scaled = to_int_terms(r.terms[key] for key in keys)
    rows: list = [[] for _ in range(r.dim)]
    for (i, j), t in zip(keys, scaled):
        rows[i].append((j, 1, t))
        rows[j].append((i, -1, t))
    return d, rows


def cocommutator_from_r(L: LieAlgebra, r: RMatrix) -> LieAlgebra:
    """Coboundary cocommutator δ(X_i) = f_i^{jk} X_j⊗X_k as g*,
    [x^j, x^k] = f_i^{jk} x^i, labelled by the basis of L.

    f_i^{jk} = Σ_l ( C_il^j r^{lk} + C_il^k r^{jl} ), accumulated over the
    nonzero C_il^t, each stored C_ab^t read in both orders, and r^{lo}.  As
    r^{jl} = −r^{lj}, each such product is a term of f_i^{to} and, negated,
    of f_i^{ot}; only the stored one, to < ot, is accumulated, over the
    integer form of C and the integer rows of r, at the scale d_C·d_r.
    """
    if r.dim != L.dim:
        raise DimensionMismatch(
            f"r-matrix dimension {r.dim} does not match algebra dimension {L.dim}"
        )
    d_c, c_int = L.int_tensor()
    d_r, rows = _rows(r)
    acc: dict = {}
    for a, b, target, _ in L.nonzero():
        t = c_int[a, b, target]
        for i, l, s in ((a, b, 1), (b, a, -1)):  # s·t = d_C·C_il^target
            for other, sign, v in rows[l]:
                if target < other:
                    _add_product(acc.setdefault((target, other, i), {}), s * sign, t, v)
                elif other < target:
                    _add_product(acc.setdefault((other, target, i), {}), -s * sign, t, v)
    entries = [(*key, from_int_terms(acc[key], d_c * d_r)) for key in sorted(acc) if acc[key]]
    return _algebra_of(L.labels, entries)


def _cybe_residual(L: LieAlgebra, r: RMatrix, f: LieAlgebra) -> dict:
    """Nonzero components (i, j, m), i < j, of r[x^i, x^j] − [r(x^i), r(x^j)]
    with r(x^i) = r^{ia} X_a and [x^i, x^j] = f_k^{ij} x^k, in key order,
    for g* = δ_r (:func:`cocommutator_from_r`):

        Σ_k f_k^{ij} r^{km} − Σ_{a,b} r^{ia} r^{jb} C_ab^m  =  −[[r,r]]^{ijm}.

    Each r^{ia} r^{jb} is read from rows a and b of r, where the two signs
    of r^{ai} = −r^{ia} cancel.  A stored C_ab^m (a < b) stands for C_ba^m
    too, whose term r^{ib} r^{ja} C_ba^m is r^{ja} r^{ib} C_ab^m with its
    sign changed: the product of rows a and b at (i, j) goes to (i, j) when
    i < j, and negated to (j, i) when i > j.  Both sums run over integers,
    the first at d_f·d_r and the second at d_r²·d_C, each multiplied up to
    the common scale d_f·d_r²·d_C.
    """
    d_r, rows = _rows(r)
    d_f, f_int = f.int_tensor()
    d_c, c_int = L.int_tensor()
    f_mul, c_mul = d_r * d_c, d_f
    acc: dict = {}
    for i, j, k, _ in f.nonzero():
        t = f_int[i, j, k]
        for m, sign, v in rows[k]:
            _add_product(acc.setdefault((i, j, m), {}), sign * f_mul, t, v)
    for a, b, m, _ in L.nonzero():
        t = c_int[a, b, m]
        for i, si, v in rows[a]:
            product: dict = {}  # d_C·d_r·C_ab^m r^{ai}
            _add_product(product, si, t, v)
            for j, sj, w in rows[b]:
                if i < j:
                    _add_product(acc.setdefault((i, j, m), {}), -sj * c_mul, product, w)
                elif i > j:
                    _add_product(acc.setdefault((j, i, m), {}), sj * c_mul, product, w)
    scale = d_f * d_r * d_r * d_c
    return {key: from_int_terms(t, scale) for key, t in sorted(acc.items()) if t}


def is_cybe(L: LieAlgebra, r: RMatrix) -> bool:
    """True iff [[r,r]] = 0, i.e. r: g* → g is a homomorphism of the dual
    bracket; L must be a Lie algebra."""
    return not _cybe_residual(L, r, cocommutator_from_r(L, r))


def is_mcybe(L: LieAlgebra, r: RMatrix) -> bool:
    """True iff [[r,r]] is ad-invariant, i.e. δ_r satisfies co-Jacobi (the
    dual bracket satisfies Jacobi); L must be a Lie algebra."""
    return is_jacobi_zero(cocommutator_from_r(L, r))


def _defect_note(L: LieAlgebra, residual: dict, mcybe: bool) -> str:
    """``": first nonzero component <component> = <polynomial>"`` for the
    first key of ``residual``, :func:`_cybe_residual` or (with ``mcybe``) the
    Jacobi components of g* = δ_r, as a component of [[r,r]]
    (of ad_{X_m}[[r,r]]) by basis labels; empty if there is none."""
    if not residual:
        return ""
    key = min(residual)
    head = f"(ad_{L.labels[key[-1]]} [[r,r]])" if mcybe else "[[r,r]]"
    upper = key[:-1] if mcybe else key
    note = _component(L.labels, head, (), upper, -residual[key])
    return f": first nonzero component {note}"
