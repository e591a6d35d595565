"""Lie bialgebras (g, δ) as paired structure-constant data.

Validity is operational: (C, f) is a Lie bialgebra iff the double built
from it satisfies the Jacobi identity, which simultaneously checks the
cocycle condition and co-Jacobi.  Construction goes through
:func:`new_bialgebra`, which performs that check, and a bialgebra carries
the validated algebra of its double (``double_algebra``), which
:func:`liedouble.double.build_double` uses rather than rebuilding it.  Only
D(D(a)), built by :func:`liedouble.double.double_of_double`, is proved by ψ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import IndexOutOfRange, NotACobracket, ShapeError
from .exactalg import _negatives, as_poly
from .liealg import (
    LieAlgebra,
    _algebra_on,
    _json_entries,
    _json_strings,
    _nonzero_entries,
    from_json as algebra_from_json,
    jacobi_violations,
    substitute_params as substitute_algebra_params,
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
        # The first failing (i, j, k) has j <= k, as the condition is
        # symmetric in (j, k); pairs of zero entries are skipped, and the
        # rest compared term by term without building -f[i][k][j].
        n = self.dim
        for i, plane in enumerate(self.f):
            for j in range(n):
                for k in range(j, n):
                    x, y = plane[j][k].terms, plane[k][j].terms
                    if (x or y) and not _negatives(x, y):
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
        if not all(0 <= x < dim for x in (i, j, k)):
            raise IndexOutOfRange(
                f"wedge entry ({i},{j},{k}) out of range for dim {dim}"
            )
        coef = as_poly(coef)
        if j == k and not coef.is_zero:
            raise ShapeError(f"wedge entry ({i},{j},{j}) is identically zero")
        f[i][j][k] = f[i][j][k] + coef
        f[i][k][j] = f[i][k][j] - coef
    return f


def double_structure_tensor(L: LieAlgebra, cocomm: CocommTensor) -> list:
    """Dense 2n structure tensor of D(g) from the nonzero entries of C and f,
    on the basis {X_i, x^i}; each entry of one of the brackets listed in
    :mod:`liedouble.double` comes from one entry of C or f."""
    n = L.dim
    c2 = zero_tensor3(2 * n)
    for i, j, k, coef in L.nonzero():  # C_ij^k in [X_i, X_j] and [x^k, X_i]
        c2[i][j][k] = coef
        c2[n + k][i][n + j] = coef
        c2[i][n + k][n + j] = -coef
    for k, i, j, coef in cocomm.nonzero():  # f_k^{ij} in [x^i, x^j] and [x^i, X_k]
        c2[n + i][n + j][n + k] = coef
        c2[n + i][k][j] = -coef
        c2[k][n + i][j] = coef
    return c2


@dataclass
class LieBialgebra:
    """(g, δ) with the algebra of its double D(g), whose Jacobi identity
    :func:`new_bialgebra` proved (ψ, for D(D(a))); build one only that way."""

    algebra: LieAlgebra
    cocomm: CocommTensor
    dual_labels: tuple[str, ...]
    double_algebra: LieAlgebra = field(repr=False, compare=False)

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

    c2 = double_structure_tensor(L, cocomm)
    double_alg = _algebra_on(L.labels + dual_labels, c2)
    violations = jacobi_violations(double_alg)
    if violations:
        sample = ", ".join(str(v) for v in violations[:4])
        raise NotACobracket(
            f"double violates Jacobi at {len(violations)} index tuples "
            f"(first: {sample})"
        )
    return LieBialgebra(L, cocomm, dual_labels, double_alg)


def substitute_params(B: LieBialgebra, mapping) -> LieBialgebra:
    """Exact parameter substitution on both tensors (revalidates)."""
    n = B.dim
    f = [
        [[B.cocomm.f[i][j][k].substitute(mapping) for k in range(n)]
         for j in range(n)]
        for i in range(n)
    ]
    return new_bialgebra(substitute_algebra_params(B.algebra, mapping), f, B.dual_labels)


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
    f = cocomm_from_wedge(L.dim, _json_entries(data, "cocomm"))
    duals = _json_strings(data, "dual_labels") if "dual_labels" in data else None
    return new_bialgebra(L, f, dual_labels=duals)
