"""Antisymmetric classical r-matrices and Yang-Baxter verdicts.

Conventions (frozen by the chart-calibration tests):

* wedge normalization  u ∧ v := u ⊗ v − v ⊗ u,  so the standard
  sl(2,R) r-matrix 2η P1∧P2 has component r^{P1 P2} = 2η;
* cocommutator  δ(X_i) = (ad_{X_i} ⊗ 1 + 1 ⊗ ad_{X_i}) r,  giving
  constants f_i^{jk} antisymmetric in the upper pair;
* Schouten bracket  [[r,r]]^{ijk} = Σ_{l,m} ( C_lm^i r^{lj} r^{mk}
  + C_lm^j r^{il} r^{mk} + C_lm^k r^{il} r^{jm} ).

CYBE means [[r,r]] = 0; mCYBE means [[r,r]] is ad-invariant.  No Schouten
tensor is built.  Both verdicts are read from δ_r, through the dual bracket
[x^i, x^j] = f_k^{ij} x^k on g* and the map r(x^i) = r^{ia} X_a, by two
identities that hold when C satisfies Jacobi, as every caller's algebra
does (Drinfel'd, 1983; Semenov-Tian-Shansky, "What is a classical
r-matrix?", 1983):

* r[x^i, x^j] − [r(x^i), r(x^j)] = −[[r,r]]^{ijm} X_m: CYBE holds iff
  r: g* → g is a homomorphism (:func:`_cybe_residual`);
* the dual bracket's Jacobi residual is R_jkl^m = −(ad_{X_m}[[r,r]])^{jkl},
  with (ad_{X_m} T)^{jkl} = Σ_a (C_ma^j T^{akl} + C_ma^k T^{jal} + C_ma^l T^{jka}):
  mCYBE holds iff δ_r satisfies co-Jacobi (:func:`_dual_algebra`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ShapeError
from .exactalg import PolyLike, _canonical, _negatives, as_poly, mul_acc
from .exactlinalg import Matrix
from .liealg import (
    LieAlgebra,
    _algebra_on,
    _component,
    _nonzero_entries,
    is_jacobi_zero,
    zero_matrix,
    zero_tensor3,
)


@dataclass
class RMatrix:
    """Antisymmetric contravariant 2-tensor r^{ij} over a labelled basis."""

    labels: tuple[str, ...]
    r: Matrix

    def __post_init__(self):
        n = len(self.labels)
        if len(self.r) != n or any(len(row) != n for row in self.r):
            raise ShapeError("r-matrix shape does not match labels")
        # The first failing (i, j) has i <= j, as the condition is symmetric
        # in (i, j); pairs of zero entries are skipped, and the rest compared
        # term by term without building -r[j][i].
        for i, row in enumerate(self.r):
            for j in range(i, n):
                x, y = row[j].terms, self.r[j][i].terms
                if (x or y) and not _negatives(x, y):
                    raise ShapeError(f"r-matrix not antisymmetric at ({i},{j})")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def wedge_terms(self) -> list:
        """Sparse upper-triangle view [(i, j, coef)] with i < j."""
        return [
            (i, j, v) for i, row in enumerate(_rows(self)) for j, v in row if i < j
        ]

    def substitute(self, mapping) -> "RMatrix":
        r = [[v.substitute(mapping) for v in row] for row in self.r]
        return RMatrix(self.labels, r)

    def to_json(self) -> list:
        return [
            {"i": self.labels[i], "j": self.labels[j], "coef": str(coef)}
            for i, j, coef in self.wedge_terms()
        ]


def rmatrix_from_wedge(
    labels: Sequence[str], terms: Iterable[tuple[str, str, PolyLike]]
) -> RMatrix:
    """Assemble r = Σ coef · X_i ∧ X_j from labelled wedge terms."""
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    r = zero_matrix(n)
    for li, lj, coef in terms:
        if li not in index or lj not in index:
            raise ShapeError(f"unknown label in wedge term ({li},{lj})")
        i, j = index[li], index[lj]
        if i == j:
            raise ShapeError(f"wedge of {li} with itself is zero")
        coef = as_poly(coef)
        r[i][j] = r[i][j] + coef
        r[j][i] = r[j][i] - coef
    return RMatrix(labels, r)


def _rows(r: RMatrix) -> list:
    """The nonzero entries of r by row: ``rows[i]`` lists (j, r^{ij})."""
    return [[(j, v) for j, v in enumerate(row) if v.terms] for row in r.r]


def cocommutator_from_r(L: LieAlgebra, r: RMatrix):
    """Coboundary cocommutator constants f_i^{jk} with δ(X_i)=f_i^{jk} X_j⊗X_k.

    f_i^{jk} = Σ_l ( C_il^j r^{lk} + C_il^k r^{jl} ), accumulated with
    :func:`~liedouble.exactalg.mul_acc` over the nonzero C_il^j and r^{lk};
    as r^{jl} = −r^{lj}, each such product gives one term of each sum.
    """
    if r.dim != L.dim:
        raise DimensionMismatch(
            f"r-matrix dimension {r.dim} does not match algebra dimension {L.dim}"
        )
    rows = _rows(r)
    acc: dict = {}
    for i, l, target, coef in L.nonzero():  # coef = C_il^target
        for other, value in rows[l]:
            mul_acc(acc.setdefault((i, target, other), {}), coef, value)
            mul_acc(acc.setdefault((i, other, target), {}), coef, value, negate=True)
    f = zero_tensor3(L.dim)
    for (i, j, k), terms in acc.items():
        if terms:
            f[i][j][k] = _canonical(terms)
    return f


def _cybe_residual(L: LieAlgebra, r: RMatrix, f) -> dict:
    """Nonzero components (i, j, m), i < j, of r[x^i, x^j] − [r(x^i), r(x^j)]
    with r(x^i) = r^{ia} X_a and [x^i, x^j] = f_k^{ij} x^k, in key order,
    for f = δ_r (:func:`cocommutator_from_r`):

        Σ_k f_k^{ij} r^{km} − Σ_{a,b} r^{ia} r^{jb} C_ab^m  =  −[[r,r]]^{ijm}.

    Each r^{ia} r^{jb} is read from rows a and b of r, where the two signs
    of r^{ai} = −r^{ia} cancel.
    """
    rows = _rows(r)
    acc: dict = {}
    for k, i, j, value in _nonzero_entries(f):
        if i < j:
            for m, rkm in rows[k]:
                mul_acc(acc.setdefault((i, j, m), {}), value, rkm)
    for a, b, m, coef in L.nonzero():
        for i, rai in rows[a]:
            product = coef * rai
            for j, rbj in rows[b]:
                if i < j:
                    mul_acc(acc.setdefault((i, j, m), {}), product, rbj, negate=True)
    return {key: _canonical(terms) for key, terms in sorted(acc.items()) if terms}


def _dual_algebra(L: LieAlgebra, f) -> LieAlgebra:
    """g* with the bracket [x^i, x^j] = f_k^{ij} x^k dual to f = δ_r,
    labelled as the basis of g.  Its Jacobi residual R_jkl^m is
    −(ad_{X_m}[[r,r]])^{jkl}."""
    n = L.dim
    dual = [[[f[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)]
    return _algebra_on(L.labels, dual)


def is_cybe(L: LieAlgebra, r: RMatrix) -> bool:
    """True iff [[r,r]] = 0, i.e. r: g* → g is a homomorphism of the dual
    bracket; L must be a Lie algebra."""
    return not _cybe_residual(L, r, cocommutator_from_r(L, r))


def is_mcybe(L: LieAlgebra, r: RMatrix) -> bool:
    """True iff [[r,r]] is ad-invariant, i.e. δ_r satisfies co-Jacobi (the
    dual bracket satisfies Jacobi); L must be a Lie algebra."""
    return is_jacobi_zero(_dual_algebra(L, cocommutator_from_r(L, r)))


def _defect_note(L: LieAlgebra, residual: dict, mcybe: bool) -> str:
    """``": first nonzero component <component> = <polynomial>"`` for the
    first key of ``residual``, :func:`_cybe_residual` or (with ``mcybe``) the
    Jacobi components of :func:`_dual_algebra`, as a component of [[r,r]]
    (of ad_{X_m}[[r,r]]) by basis labels; empty if there is none."""
    if not residual:
        return ""
    key = min(residual)
    head = f"(ad_{L.labels[key[-1]]} [[r,r]])" if mcybe else "[[r,r]]"
    upper = key[:-1] if mcybe else key
    note = _component(L.labels, head, (), upper, -residual[key])
    return f": first nonzero component {note}"
