"""Lie bialgebras (g, δ) as paired structure-constant data.

Validity is operational: (C, f) is a Lie bialgebra iff the double built
from it satisfies the Jacobi identity, which simultaneously checks the
cocycle condition and co-Jacobi.  Construction goes through
:func:`new_bialgebra`, which performs that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import NotACobracket, ShapeError
from .exactalg import PolyExpr, as_poly
from .exactlinalg import Vector
from .liealg import (
    LieAlgebra,
    _nonzero_entries,
    _used_params,
    from_json as algebra_from_json,
    zero_tensor3,
)


@dataclass
class CocommTensor:
    """Cocommutator constants f_i^{jk}, antisymmetric in the upper pair."""

    f: list  # dense dim^3 of PolyExpr

    @property
    def dim(self) -> int:
        return len(self.f)

    def __post_init__(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.f[i][j][k] != -self.f[i][k][j]:
                        raise ShapeError(
                            f"cocommutator not antisymmetric at ({i},{j},{k})"
                        )

    def nonzero(self) -> list:
        return _nonzero_entries(self.f)


def cocomm_from_wedge(
    dim: int, entries, label_index: Mapping[str, int] | None = None
) -> list:
    """Dense f tensor from sparse wedge entries (i; j, k, coef) meaning
    δ(X_i) ⊇ coef · X_j ∧ X_k.  Indices may be labels when a map is given."""
    f = zero_tensor3(dim)
    for i, j, k, coef in entries:
        if label_index is not None:
            i, j, k = label_index[i], label_index[j], label_index[k]
        coef = as_poly(coef)
        if j == k and not coef.is_zero:
            raise ShapeError(f"wedge entry ({i},{j},{j}) is identically zero")
        f[i][j][k] = f[i][j][k] + coef
        f[i][k][j] = f[i][k][j] - coef
    return f


@dataclass
class LieBialgebra:
    algebra: LieAlgebra
    cocomm: CocommTensor
    dual_labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.algebra.dim


def new_bialgebra(
    L: LieAlgebra,
    f,
    dual_labels: Sequence[str] | None = None,
) -> LieBialgebra:
    """Validated bialgebra; raises :class:`NotACobracket` if the double
    built from (C, f) violates Jacobi."""
    from .double import double_structure_algebra  # deferred: cyclic module pair

    if isinstance(f, CocommTensor):
        cocomm = f
    else:
        if len(f) != L.dim:
            raise ShapeError("cocommutator dimension does not match algebra")
        cocomm = CocommTensor(f)
    if cocomm.dim != L.dim:
        raise ShapeError("cocommutator dimension does not match algebra")
    if dual_labels is None:
        dual_labels = tuple("d:" + lab for lab in L.labels)
    dual_labels = tuple(dual_labels)
    if len(dual_labels) != L.dim:
        raise ShapeError("need one dual label per basis element")

    candidate = LieBialgebra(L, cocomm, dual_labels)
    double_alg = double_structure_algebra(candidate)
    from .liealg import jacobi_violations

    violations = jacobi_violations(double_alg)
    if violations:
        sample = ", ".join(str(v) for v in violations[:4])
        raise NotACobracket(
            f"double violates Jacobi at {len(violations)} index tuples "
            f"(first: {sample})"
        )
    return candidate


def dual_bialgebra(B: LieBialgebra) -> LieBialgebra:
    """Swap the roles of C and f: brackets [x^i,x^j] = f^{ij}_k x^k and
    cocommutator given by the original structure constants."""
    n = B.dim
    c_dual = zero_tensor3(n)
    f_dual = zero_tensor3(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c_dual[i][j][k] = B.cocomm.f[k][i][j]
                f_dual[i][j][k] = B.algebra.c[j][k][i]
    dual_algebra = LieAlgebra(n, B.dual_labels, _used_params(c_dual), c_dual)
    return new_bialgebra(dual_algebra, f_dual, dual_labels=B.algebra.labels)


def cocomm_apply(B: LieBialgebra, v: Vector):
    """δ(v)^{jk} = Σ_i v^i f_i^{jk} as an antisymmetric matrix."""
    n = B.dim
    if len(v) != n:
        raise ShapeError("vector length does not match algebra dimension")
    v = [as_poly(x) for x in v]
    out = [[PolyExpr.zero()] * n for _ in range(n)]
    for i, j, k, coef in B.cocomm.nonzero():
        if not v[i].is_zero:
            out[j][k] = out[j][k] + v[i] * coef
    return out


def substitute_params(B: LieBialgebra, mapping) -> LieBialgebra:
    """Exact parameter substitution on both tensors (revalidates)."""
    from .liealg import substitute_params as sub_algebra

    n = B.dim
    f = [
        [[B.cocomm.f[i][j][k].substitute(mapping) for k in range(n)]
         for j in range(n)]
        for i in range(n)
    ]
    return new_bialgebra(sub_algebra(B.algebra, mapping), f, B.dual_labels)


def to_json(B: LieBialgebra) -> dict:
    data = B.algebra.to_json()
    entries = []
    params = set(data["params"])
    n = B.dim
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                coef = B.cocomm.f[i][j][k]
                if not coef.is_zero:
                    entries.append({"i": i, "j": j, "k": k, "coef": str(coef)})
                    params |= coef.parameters()
    data["params"] = sorted(params)
    data["cocomm"] = entries
    data["dual_labels"] = list(B.dual_labels)
    return data


def from_json(data: Mapping) -> LieBialgebra:
    L = algebra_from_json(data)
    f = cocomm_from_wedge(
        L.dim, [(e["i"], e["j"], e["k"], e["coef"]) for e in data["cocomm"]]
    )
    return new_bialgebra(L, f, dual_labels=data.get("dual_labels"))
