"""Antisymmetric classical r-matrices and Yang-Baxter verdicts.

Conventions (frozen by the chart-calibration tests):

* wedge normalization  u ∧ v := u ⊗ v − v ⊗ u,  so the standard
  sl(2,R) r-matrix 2η P1∧P2 has component r^{P1 P2} = 2η;
* cocommutator  δ(X_i) = (ad_{X_i} ⊗ 1 + 1 ⊗ ad_{X_i}) r,  giving
  constants f_i^{jk} antisymmetric in the upper pair;
* Schouten bracket  [[r,r]]^{ijk} = Σ_{l,m} ( C_lm^i r^{lj} r^{mk}
  + C_lm^j r^{il} r^{mk} + C_lm^k r^{il} r^{jm} ).

CYBE means [[r,r]] = 0; mCYBE means [[r,r]] is ad-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ShapeError
from .exactalg import PolyLike, _negatives, as_poly
from .exactlinalg import Matrix
from .liealg import LieAlgebra, _nonzero_entries, zero_matrix, zero_tensor3


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
            (i, j, self.r[i][j])
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
            if not self.r[i][j].is_zero
        ]

    def substitute(self, mapping) -> "RMatrix":
        n = self.dim
        return RMatrix(
            self.labels,
            [[self.r[i][j].substitute(mapping) for j in range(n)] for i in range(n)],
        )

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


@dataclass
class ThreeTensor:
    """Contravariant 3-tensor, e.g. the Schouten bracket [[r,r]]."""

    t: list  # dense n^3 of PolyExpr

    @property
    def dim(self) -> int:
        return len(self.t)

    def is_zero(self) -> bool:
        return all(
            self.t[i][j][k].is_zero
            for i in range(self.dim)
            for j in range(self.dim)
            for k in range(self.dim)
        )

    def nonzero(self) -> list:
        return _nonzero_entries(self.t)


def _check_dims(L: LieAlgebra, r: RMatrix):
    if r.dim != L.dim:
        raise DimensionMismatch(
            f"r-matrix dimension {r.dim} does not match algebra dimension {L.dim}"
        )


def cocommutator_from_r(L: LieAlgebra, r: RMatrix):
    """Coboundary cocommutator constants f_i^{jk} with δ(X_i)=f_i^{jk} X_j⊗X_k.

    f_i^{jk} = Σ_l ( C_il^j r^{lk} + C_il^k r^{jl} ).
    """
    _check_dims(L, r)
    n = L.dim
    f = zero_tensor3(n)
    for i, l, target, coef in L.nonzero():
        # coef = C_il^target
        for other in range(n):
            if not r.r[l][other].is_zero:
                # first term, j = target, k = other
                f[i][target][other] = f[i][target][other] + coef * r.r[l][other]
            if not r.r[other][l].is_zero:
                # second term, j = other, k = target
                f[i][other][target] = f[i][other][target] + coef * r.r[other][l]
    return f


def schouten(L: LieAlgebra, r: RMatrix) -> ThreeTensor:
    """[[r,r]] = [r12,r13] + [r12,r23] + [r13,r23] in components."""
    _check_dims(L, r)
    n = L.dim
    t = zero_tensor3(n)
    for l, m, i, coef in L.nonzero():
        # coef = C_lm^i contributes to all three cyclic slots
        for j in range(n):
            rlj = r.r[l][j]
            if rlj.is_zero:
                continue
            for k in range(n):
                if not r.r[m][k].is_zero:
                    t[i][j][k] = t[i][j][k] + coef * rlj * r.r[m][k]
    out = zero_tensor3(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # with S(p;q,s) = sum C_lm^p r^{lq} r^{ms} and r^{il} = -r^{li}:
                # term2 = -S(j;i,k), term3 = +S(k;i,j)
                out[i][j][k] = t[i][j][k] - t[j][i][k] + t[k][i][j]
    return ThreeTensor(out)


def is_cybe(L: LieAlgebra, r: RMatrix) -> bool:
    """True iff the Schouten bracket vanishes identically (triangular r)."""
    return schouten(L, r).is_zero()


def ad_invariance_defect(L: LieAlgebra, T: ThreeTensor):
    """(ad⊗1⊗1 + 1⊗ad⊗1 + 1⊗1⊗ad) T, one dense 3-tensor per basis index."""
    n = L.dim
    if T.dim != n:
        raise DimensionMismatch("tensor dimension does not match algebra")
    sparse = T.nonzero()
    defects = []
    for i in range(n):
        d = zero_tensor3(n)
        adi = [[L.c[i][m][j] for m in range(n)] for j in range(n)]
        for a, b, c, coef in sparse:
            for j in range(n):
                if not adi[j][a].is_zero:
                    d[j][b][c] = d[j][b][c] + adi[j][a] * coef
                if not adi[j][b].is_zero:
                    d[a][j][c] = d[a][j][c] + adi[j][b] * coef
                if not adi[j][c].is_zero:
                    d[a][b][j] = d[a][b][j] + adi[j][c] * coef
        defects.append(ThreeTensor(d))
    return defects


def is_mcybe(L: LieAlgebra, r: RMatrix) -> bool:
    """True iff [[r,r]] is ad-invariant for every basis direction."""
    T = schouten(L, r)
    return all(d.is_zero() for d in ad_invariance_defect(L, T))
