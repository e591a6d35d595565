"""Lie bialgebras (g, δ) as paired structure-constant data.

Validity is operational: (C, f) is a Lie bialgebra iff the double built
from it satisfies the Jacobi identity, which simultaneously checks the
cocycle condition and co-Jacobi.  Construction goes through
:func:`new_bialgebra`, which performs that check, and a bialgebra carries
the validated algebra of its double (``double_algebra``), which
:func:`liedouble.double.build_double` uses rather than rebuilding it.  Only
D(D(a)), built by :func:`liedouble.double.double_of_double`, is proved by ψ.
Both doubles come from :func:`_double_brackets`, which assigns each entry of
the double from ± one entry of C or f, so no dense tensor is filled or
scanned; :func:`_double_algebra` sorts it for D(a), and ψ compares it
unsorted for D(D(a)).  D(a)'s integer form is computed from its entries when
the Jacobi sum first reads it; that of D(D(a)) is never needed.

δ is stored as the algebra g* it is dual to (module doc of
:mod:`liedouble.liealg`): ``cocomm`` is a
:class:`~liedouble.liealg.LieAlgebra` labelled by g's basis, with
[x^j, x^k] = f_i^{jk} x^i stored as C*_jk^i for j < k.
:func:`cocomm_from_wedge` builds it from wedge entries (i; j, k) in either
order.  No dense f is kept: ``cocomm.f`` builds it on each read, and
nothing in the package reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import IndexOutOfRange, NotACobracket, ShapeError
from .exactalg import as_poly
from .liealg import (
    LieAlgebra,
    _jacobi_notes,
    _json_entries,
    _json_strings,
    _used_params,
    from_json as algebra_from_json,
    new_lie_algebra,
    substitute_params as substitute_algebra_params,
)


def cocomm_from_wedge(L: LieAlgebra, entries) -> LieAlgebra:
    """g* for the sparse wedge entries (i; j, k, coef) meaning
    δ(X_i) ⊇ coef · X_j ∧ X_k, labelled by the basis of g = L: each is the
    bracket entry [x^j, x^k] += coef x^i of :func:`new_lie_algebra`, which
    orders, sums and drops as it does for g.  Indices may be labels of L."""
    dim, brackets = L.dim, []
    for entry in entries:
        i, j, k = (x if type(x) is int else L.index(x) for x in entry[:3])
        if not all(0 <= x < dim for x in (i, j, k)):
            raise IndexOutOfRange(
                f"wedge entry ({i},{j},{k}) out of range for dim {dim}"
            )
        if j == k and not as_poly(entry[3]).is_zero:
            raise ShapeError(f"wedge entry ({i},{j},{j}) is identically zero")
        brackets.append((j, k, i, entry[3]))
    return new_lie_algebra(dim, L.labels, brackets)


def _double_brackets(L: LieAlgebra, dual: LieAlgebra) -> dict:
    """The stored entries of D(g) on the basis {X_i, x^i} as
    ``{(a, b, k): coef}``, a < b, from those of C and of g* = ``dual``,
    C*_ij^k = f_k^{ij}.  Each stored entry of the brackets listed in
    :mod:`liedouble.double` is ± exactly one entry of C or f and is assigned
    once, so none cancels: each C_ij^k or f_k^{ij} gives three, one negated
    to put its key in order, e.g. (i, n + k, n + j) = −C_ij^k, the negation
    the coefficient keeps."""
    n, out = L.dim, {}
    for i, j, k, coef in L.nonzero():  # C_ij^k: [X_i, X_j], [X_i, x^k], [X_j, x^k]
        out[i, j, k], out[i, n + k, n + j], out[j, n + k, n + i] = coef, -coef, coef
    for i, j, k, coef in dual.nonzero():  # f_k^{ij}: [x^i, x^j], [X_k, x^i], [X_k, x^j]
        out[n + i, n + j, n + k], out[k, n + i, j], out[k, n + j, i] = coef, coef, -coef
    return out


def _double_algebra(
    L: LieAlgebra,
    dual: LieAlgebra,
    dual_labels: tuple[str, ...],
    params: tuple[str, ...] | None = None,
) -> LieAlgebra:
    """The algebra of D(g) on the basis {X_i, x^i}: the entries of
    :func:`_double_brackets` in index order, and the parameters occurring in
    C or f, scanned for unless the caller knows them as ``params``.  No
    integer form is assigned: :meth:`LieAlgebra.int_tensor` computes it from
    the entries on first read."""
    brackets = _double_brackets(L, dual)
    entries = [(*key, brackets[key]) for key in sorted(brackets)]
    if params is None:
        params = _used_params([*L.nonzero(), *dual.nonzero()])
    return LieAlgebra(2 * L.dim, L.labels + dual_labels, params, entries)


@dataclass
class LieBialgebra:
    """(g, δ) with the algebra of its double D(g), whose Jacobi identity
    :func:`new_bialgebra` proved (ψ, for D(D(a))); build one only that way.
    δ is held as g* (module doc)."""

    algebra: LieAlgebra
    cocomm: LieAlgebra
    dual_labels: tuple[str, ...]
    double_algebra: LieAlgebra = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.algebra.dim


def new_bialgebra(
    L: LieAlgebra,
    cocomm: LieAlgebra,
    dual_labels: Sequence[str] | None = None,
) -> LieBialgebra:
    """Validated bialgebra for δ given as g* (module doc); raises
    :class:`NotACobracket` if the double built from (C, f) violates
    Jacobi."""
    if cocomm.dim != L.dim:
        raise ShapeError("cocommutator dimension does not match algebra")
    if dual_labels is None:
        dual_labels = tuple("d:" + lab for lab in L.labels)
    dual_labels = tuple(dual_labels)
    if len(dual_labels) != L.dim:
        raise ShapeError("need one dual label per basis element")

    double_alg = _double_algebra(L, cocomm, dual_labels)
    residual = double_alg.jacobi_components()
    if residual:
        sample = "; ".join(_jacobi_notes(double_alg, 4))
        raise NotACobracket(
            f"double violates Jacobi at {len(residual)} components (first: {sample})"
        )
    return LieBialgebra(L, cocomm, dual_labels, double_alg)


def substitute_params(B: LieBialgebra, mapping) -> LieBialgebra:
    """Exact parameter substitution on g and g* (revalidates)."""
    return new_bialgebra(
        substitute_algebra_params(B.algebra, mapping),
        substitute_algebra_params(B.cocomm, mapping),
        B.dual_labels,
    )


def to_json(B: LieBialgebra) -> dict:
    data = B.algebra.to_json()
    data["params"] = sorted({*data["params"], *B.cocomm.params})
    # f_i^{jk} in (i, j, k) order; the keys are distinct, so no coef is compared
    entries = sorted((k, i, j, coef) for i, j, k, coef in B.cocomm.nonzero())
    data["cocomm"] = [
        {"i": i, "j": j, "k": k, "coef": str(coef)} for i, j, k, coef in entries
    ]
    data["dual_labels"] = list(B.dual_labels)
    return data


def from_json(data: Mapping) -> LieBialgebra:
    L = algebra_from_json(data)
    f = cocomm_from_wedge(L, _json_entries(data, "cocomm"))
    duals = _json_strings(data, "dual_labels") if "dual_labels" in data else None
    return new_bialgebra(L, f, dual_labels=duals)
