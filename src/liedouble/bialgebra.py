"""Lie bialgebras (g, δ) as paired structure-constant data.

Validity is operational: (C, f) is a Lie bialgebra iff the double built
from it satisfies the Jacobi identity, which simultaneously checks the
cocycle condition and co-Jacobi.  Construction goes through
:func:`new_bialgebra`, which performs that check, and a bialgebra carries
the validated algebra of its double (``double_algebra``), which
:func:`liedouble.double.build_double` uses rather than rebuilding it.  Only
D(D(a)), built by :func:`liedouble.double.double_of_double`, is proved by ψ.
Both doubles come from :func:`_double_algebra`, which assigns each entry of
the double from ± one entry of C or f, so no dense tensor of the double is
filled or scanned, and assigns its integer form from theirs, so none is
scaled again.

δ takes values in g∧g, so a :class:`CocommTensor`, like a
:class:`~liedouble.liealg.LieAlgebra`, stores its nonzero f_i^{jk} with
j < k only; any other key raises :class:`ShapeError` naming it.  The dense
``f``, both signs written, is a read-only view built on first read, and
equality does not depend on whether it has been.  :func:`cocomm_from_wedge`
builds one from wedge entries in either order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Mapping, Sequence

from .errors import IndexOutOfRange, NotACobracket, ShapeError
from .exactalg import as_poly
from .liealg import (
    LieAlgebra,
    _check_keys,
    _dense,
    _int_tensor,
    _jacobi_notes,
    _json_entries,
    _json_strings,
    _used_params,
    from_json as algebra_from_json,
    substitute_params as substitute_algebra_params,
)


@dataclass
class CocommTensor:
    """Cocommutator constants f_i^{jk}, antisymmetric in the upper pair."""

    dim: int
    # the nonzero f_i^{jk} with j < k as (i, j, k, coef), in index order;
    # f_i^{kj} = -f_i^{jk} is not stored
    entries: list
    _f: list | None = field(default=None, repr=False, compare=False)
    _int: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_keys(self.entries, self.dim, "cocommutator entry", upper=True)

    @property
    def f(self) -> list:
        """Dense dim³ tensor f[i][j][k] of PolyExpr, both signs, a read-only
        view of :attr:`entries` built on first read."""
        if self._f is None:
            self._f = _dense(self.dim, self.entries, upper=True)
        return self._f

    def nonzero(self) -> list:
        """Sparse view [(i, j, k, coef)], j < k, of f: :attr:`entries`."""
        return self.entries

    def int_tensor(self) -> tuple:
        """Cached integer form of f (``liealg._int_tensor``), which the basis
        transforms and :func:`_double_algebra` read; assigned on construction
        by :func:`liedouble.double.canonical_cocommutator`."""
        if self._int is None:
            self._int = _int_tensor(self.entries)
        return self._int


def cocomm_from_wedge(
    dim: int, entries, label_index: Mapping[str, int] | None = None
) -> CocommTensor:
    """The tensor of sparse wedge entries (i; j, k, coef) meaning
    δ(X_i) ⊇ coef · X_j ∧ X_k: an entry with j > k is stored as (i, k, j) at
    −coef, entries with the same stored key are summed and those that cancel
    are dropped.  Indices may be labels when a map is given."""
    acc: dict = {}
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
        if j > k:
            j, k, coef = k, j, -coef
        acc[i, j, k] = acc[i, j, k] + coef if (i, j, k) in acc else coef
    return CocommTensor(dim, [(*key, v) for key, v in sorted(acc.items()) if v.terms])


def _rescaled(form: tuple, d: int) -> dict:
    """The entries of an integer form ``(e, entries)`` (``liealg._int_tensor``)
    at the scale d, a multiple of e; the same dict when d = e."""
    e, entries = form
    if d == e:
        return entries
    s = d // e
    return {key: {m: v * s for m, v in terms.items()} for key, terms in entries.items()}


def _double_algebra(
    L: LieAlgebra,
    cocomm: CocommTensor,
    dual_labels: tuple[str, ...],
    params: tuple[str, ...] | None = None,
) -> LieAlgebra:
    """The algebra of D(g) on the basis {X_i, x^i}, built from the stored
    entries of C and f.  Each stored entry of the brackets listed in
    :mod:`liedouble.double` is ± exactly one entry of C or f and is assigned
    once, so none cancels: each C_ij^k or f_k^{ij} gives three, one negated
    to put its key in order, e.g. (i, n + k, n + j) = −C_ij^k, the negation
    the coefficient keeps.  Those assignments, in index order, are the
    sparse view, and the parameters are those occurring in C or f, scanned
    for unless the caller knows them as ``params``.  The integer form is
    assigned the same way from those of C and f, both at the scale
    lcm(d_C, d_f), which is the lcm of the double's denominators."""
    n = L.dim
    cocomm_entries = cocomm.nonzero()
    c_form, f_form = L.int_tensor(), cocomm.int_tensor()
    d = lcm(c_form[0], f_form[0])
    c_int, f_int = _rescaled(c_form, d), _rescaled(f_form, d)
    entries, ints = [], {}
    for i, j, k, coef in L.nonzero():  # C_ij^k: [X_i, X_j], [X_i, x^k], [X_j, x^k]
        entries += [(i, j, k, coef), (i, n + k, n + j, -coef), (j, n + k, n + i, coef)]
        t = c_int[i, j, k]
        ints[i, j, k] = ints[j, n + k, n + i] = t
        ints[i, n + k, n + j] = {m: -v for m, v in t.items()}
    for k, i, j, coef in cocomm_entries:  # f_k^{ij}: [x^i, x^j], [X_k, x^i], [X_k, x^j]
        entries += [
            (n + i, n + j, n + k, coef), (k, n + i, j, coef), (k, n + j, i, -coef)
        ]
        t = f_int[k, i, j]
        ints[n + i, n + j, n + k] = ints[k, n + i, j] = t
        ints[k, n + j, i] = {m: -v for m, v in t.items()}
    entries.sort()  # the (i, j, k) are distinct, so no coefficient is compared
    if params is None:
        params = _used_params([*L.nonzero(), *cocomm_entries])
    return LieAlgebra(2 * n, L.labels + dual_labels, params, entries, _int=(d, ints))


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
    cocomm: CocommTensor,
    dual_labels: Sequence[str] | None = None,
) -> LieBialgebra:
    """Validated bialgebra; raises :class:`NotACobracket` if the double
    built from (C, f) violates Jacobi."""
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
    """Exact parameter substitution on both tensors (revalidates)."""
    entries = [(i, j, k, v.substitute(mapping)) for i, j, k, v in B.cocomm.entries]
    f = CocommTensor(B.dim, [entry for entry in entries if entry[3].terms])
    return new_bialgebra(substitute_algebra_params(B.algebra, mapping), f, B.dual_labels)


def to_json(B: LieBialgebra) -> dict:
    data = B.algebra.to_json()
    entries = B.cocomm.nonzero()
    data["params"] = sorted({*data["params"], *_used_params(entries)})
    data["cocomm"] = [
        {"i": i, "j": j, "k": k, "coef": str(coef)} for i, j, k, coef in entries
    ]
    data["dual_labels"] = list(B.dual_labels)
    return data


def from_json(data: Mapping) -> LieBialgebra:
    L = algebra_from_json(data)
    f = cocomm_from_wedge(L.dim, _json_entries(data, "cocomm"))
    duals = _json_strings(data, "dual_labels") if "dual_labels" in data else None
    return new_bialgebra(L, f, dual_labels=duals)
