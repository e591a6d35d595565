"""Lie algebras from structure constants, with exact polynomial scalars.

A :class:`LieAlgebra` stores the nonzero structure constants C_ij^k of
``[X_i, X_j] = C_ij^k X_k`` with i < j only, the half that fixes a map
g∧g → g, with basis labels and declared parameter names.  Any other key
raises :class:`ShapeError` naming it, so no tensor that is not
antisymmetric can be stored, and code that needs C_ji^k = −C_ij^k takes
the sign when it reads C_ij^k.  No dense tensor is kept: the dense
``C[i][j][k]``, both signs written, is built on each read of
:attr:`LieAlgebra.c`, which nothing in the package reads.  Validity (the
Jacobi identity) is checked by :func:`jacobi_violations` and
:func:`is_jacobi_zero`, which evaluate the residual on sorted index
triples only.

The residual is summed over the nonzero products C_ab^k C_kc^m alone, each
added with a sign into the one sorted triple it belongs to, over integers:
the algebra's integer form holds the constants' integer terms at the lcm d
of their denominators, and every product is accumulated by the kernel
:func:`~liedouble.exactalg._add_product` into the terms dict of its
component.  Only the nonzero sums are divided back by d².

The cocommutator δ(X_i) = f_i^{jk} X_j⊗X_k of a Lie bialgebra is stored
as the algebra g* it is dual to, [x^j, x^k] = f_i^{jk} x^i, labelled by
the basis of g: its C*_jk^i = f_i^{jk}, j < k, is the half C keeps, and
:attr:`LieAlgebra.f` builds the dense f from it.

The basis transform (:func:`transform_structure`) reads the same integer
form, regrouped by monomial once into layers ``{mono: {key: int}}``, and
each matrix as layers ``{mono: {x: [(y, int)]}}`` (:func:`_int_rows`): a
pair of layers multiplies its monomials once and sums its ints by plain
multiply-adds.  It contracts the stored half C_ij^k, i < j, in one step
with the 2×2 minors M_a^i M_b^j − M_a^j M_b^i, built only for the pairs
that occur, so every output pair a < b is one sum over half the entries;
then k with W.  It is a thin dense wrapper over one integer contraction
path (:func:`_structure_int`), which returns the transformed tensor in the
zero-free integer form, one entry per antisymmetric pair.  When g moves by
(M, W), g* moves by (Wᵀ, Mᵀ), so f' is the same path with the two matrices
swapped (:func:`transform_cocomm`).  The adapted pass of
:mod:`liedouble.homogeneous` feeds the path the cached tensors below and
the layers of the adapted basis, cleared once, and of its inverse from the
integer Bareiss kernel, and reads its output as it is.

An algebra is its sparse view, the stored C_ij^k as (i, j, k, coef) in
index order (:meth:`LieAlgebra.nonzero`); equality compares that view.  It
keeps what it derives from it: its integer form
(:meth:`LieAlgebra.int_tensor`) and the nonzero Jacobi components, each
computed on first use, and the ψ⁻¹ image of its sparse view once
:mod:`liedouble.double` has read the algebra as a double D(a).  So an
algebra must not be mutated after construction; build a new one instead.
Instances are then safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ParseError,
    PolyParseError,
    ShapeError,
    SymmetricEntry,
)
from .exactalg import (
    PolyExpr,
    PolyLike,
    _add_product,
    _mono_mul,
    as_poly,
    from_int_terms,
    to_int_terms,
)
from .exactlinalg import Matrix, Vector, _cleared, invert, mat, transpose

BracketEntry = tuple  # (i, j, k, coef)


def _dense(n: int, entries) -> list:
    """The dense n³ tensor of the stored half [(i, j, k, value)] of a tensor
    antisymmetric in (i, j): each value is written at its key and its
    negation at the swapped one, every other entry is zero."""
    z = PolyExpr.zero()
    t = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, value in entries:
        t[i][j][k] = value
        t[j][i][k] = -value
    return t


def _check_keys(entries, n: int) -> None:
    """Raise :class:`ShapeError` naming the first (i, j, k) of ``entries``
    that is not a stored key, i < j in [0, n)."""
    for i, j, k, _ in entries:
        if not (0 <= i < j < n and 0 <= k < n):
            raise ShapeError(
                f"structure constant ({i},{j},{k}) needs i < j and indices in [0, {n})"
            )


def _nonzero_entries(t) -> list:
    """Sparse view [(i, j, k, value)] of the nonzero entries of a dense
    3-tensor, in index order."""
    return [
        (i, j, k, value)
        for i, plane in enumerate(t)
        for j, row in enumerate(plane)
        for k, value in enumerate(row)
        if value.terms
    ]


def _used_params(entries) -> tuple[str, ...]:
    """Sorted names of the parameters occurring in a sparse view
    [(i, j, k, value)] of a 3-tensor."""
    return tuple(sorted({name for *_, v in entries for name in v.parameters()}))


def _algebra_of(labels: Sequence[str], entries: list) -> LieAlgebra:
    """The algebra with sparse view ``entries`` (in index order) and the
    parameters that occur in it."""
    return LieAlgebra(len(labels), tuple(labels), _used_params(entries), entries)


@dataclass
class LieAlgebra:
    dim: int
    labels: tuple[str, ...]
    params: tuple[str, ...]
    # the nonzero C_ij^k with i < j as (i, j, k, coef), in index order:
    # the keys (i, j, k) strictly increase, since every builder sorts its
    # entries or emits them in order, and double.bracket_table_text walks
    # them once on that invariant, which nothing checks at run time;
    # C_ji^k = -C_ij^k is not stored
    entries: list
    _jacobi: dict | None = field(default=None, repr=False, compare=False)
    _int: tuple | None = field(default=None, repr=False, compare=False)
    # the ψ⁻¹ image of the sparse view, keyed and as entries in index order,
    # that liedouble.double caches on a double D(a) it checks ψ against
    _psi: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_keys(self.entries, self.dim)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise IndexOutOfRange(f"unknown basis label {label!r}") from None

    @property
    def c(self) -> list:
        """Dense dim³ tensor C[i][j][k] of PolyExpr, both signs, built from
        :attr:`entries` on each read; nothing in the package reads it."""
        return _dense(self.dim, self.entries)

    @property
    def f(self) -> list:
        """Dense f[i][j][k] = C[j][k][i]: the cocommutator constants f_i^{jk}
        of g when this algebra is g*, built from :attr:`c` on each read."""
        c, n = self.c, range(self.dim)
        return [[[c[j][k][i] for k in n] for j in n] for i in n]

    def nonzero(self) -> list:
        """Sparse view [(i, j, k, coef)], i < j, of C: :attr:`entries`."""
        return self.entries

    def int_tensor(self) -> tuple:
        """Cached integer form ``(d, {(i, j, k): {mono: int}})``, i < j, of
        the structure tensor (:func:`_int_tensor`), computed from the
        entries on first read, which the basis transforms and the Jacobi sum
        read.  A double is assigned none: the Jacobi sum of
        :func:`~liedouble.bialgebra.new_bialgebra` computes that of D(a),
        and ψ compares sparse views, so D(D(a)) computes its form only if
        it is read."""
        if self._int is None:
            self._int = _int_tensor(self.entries)
        return self._int

    def jacobi_components(self) -> dict:
        """Cached nonzero Jacobi residuals R_ijl^m for i < j < l, keyed
        (i, j, l, m); see :func:`jacobi_violations`.  D(D(a)) from
        :func:`~liedouble.double.double_of_double` caches none: ψ proved it."""
        if self._jacobi is None:
            self._jacobi = _jacobi_components(self)
        return self._jacobi

    def basis_vector(self, label_or_index) -> Vector:
        i = (
            label_or_index
            if isinstance(label_or_index, int)
            else self.index(label_or_index)
        )
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(f"basis index {i} out of range")
        return [
            PolyExpr.one() if j == i else PolyExpr.zero() for j in range(self.dim)
        ]

    def vector(self, combo: Mapping[str, PolyLike]) -> Vector:
        """Coefficient vector of a linear combination given by label."""
        v = [PolyExpr.zero()] * self.dim
        for label, coef in combo.items():
            v[self.index(label)] = v[self.index(label)] + as_poly(coef)
        return v

    def to_json(self) -> dict:
        entries = [
            {"i": i, "j": j, "k": k, "coef": str(coef)}
            for i, j, k, coef in self.nonzero()
        ]
        return {
            "dim": self.dim,
            "labels": list(self.labels),
            "params": list(self.params),
            "brackets": entries,
        }


def new_lie_algebra(
    dim: int,
    labels: Sequence[str],
    brackets: Iterable[BracketEntry],
    params: Sequence[str] = (),
) -> LieAlgebra:
    """Build an algebra from sparse oriented entries [X_i, X_j] += coef X_k.

    An entry (j, i, k) with j > i is stored as (i, j, k) at −coef, and
    entries with the same stored key are summed; those that cancel are
    dropped.  Entries (i, i, k) with nonzero coefficient raise
    :class:`SymmetricEntry`.
    """
    if len(labels) != dim:
        raise DimensionMismatch(f"{len(labels)} labels for dimension {dim}")
    if len(set(labels)) != dim:
        raise ShapeError("basis labels must be unique")
    acc: dict = {}
    for i, j, k, coef in brackets:
        for idx in (i, j, k):
            if not 0 <= idx < dim:
                raise IndexOutOfRange(f"index {idx} out of range for dim {dim}")
        coef = as_poly(coef)
        if coef.is_zero:
            continue
        if i == j:
            raise SymmetricEntry(f"nonzero bracket entry ({i},{i},{k})")
        if i > j:
            i, j, coef = j, i, -coef
        acc[i, j, k] = acc[i, j, k] + coef if (i, j, k) in acc else coef
    entries = [(*key, acc[key]) for key in sorted(acc) if acc[key].terms]
    used = _used_params(entries)
    declared = tuple(params) or used
    undeclared = sorted(set(used) - set(declared))
    if undeclared:
        raise ShapeError(f"undeclared parameters in brackets: {undeclared}")
    return LieAlgebra(dim, tuple(labels), declared, entries)


def _json_entries(data: Mapping, key: str) -> list:
    """The ``{"i", "j", "k", "coef"}`` objects listed under ``data[key]``
    as tuples (i, j, k, coef); a malformed entry raises :class:`ParseError`
    naming it."""
    entries = data[key]
    if not isinstance(entries, list):
        raise ParseError(f"{key!r} must be a list of objects")
    out = []
    for n, e in enumerate(entries):
        try:
            i, j, k = (e[name] for name in "ijk")
            if not all(type(x) is int for x in (i, j, k)):
                raise TypeError("indices must be integers")
            out.append((i, j, k, as_poly(e["coef"])))
        except (KeyError, TypeError, PolyParseError) as exc:
            raise ParseError(
                f"{key}[{n}] must be an object with integer i, j, k and a "
                f"polynomial coef, not {e!r} ({exc})"
            ) from exc
    return out


def _json_strings(data: Mapping, key: str) -> list:
    """``data[key]``, which must be a list of strings (else
    :class:`ParseError` naming ``key``)."""
    value = data[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{key!r} must be a list of strings, not {value!r}")
    return value


def from_json(data: Mapping) -> LieAlgebra:
    dim = data["dim"]
    if type(dim) is not int:
        raise ParseError(f"'dim' must be an integer, not {dim!r}")
    return new_lie_algebra(
        dim,
        _json_strings(data, "labels"),
        _json_entries(data, "brackets"),
        params=_json_strings(data, "params") if "params" in data else (),
    )


def bracket(L: LieAlgebra, v: Vector, w: Vector) -> Vector:
    """[v, w] for coefficient vectors, bilinear in exact arithmetic."""
    if len(v) != L.dim or len(w) != L.dim:
        raise DimensionMismatch("vector length does not match algebra dimension")
    v = [as_poly(x) for x in v]
    w = [as_poly(x) for x in w]
    out = [PolyExpr.zero()] * L.dim
    for i, j, k, coef in L.nonzero():  # (v_i w_j − v_j w_i)·C_ij^k
        if v[i].terms and w[j].terms:
            out[k] = out[k] + v[i] * w[j] * coef
        if v[j].terms and w[i].terms:
            out[k] = out[k] + v[j] * w[i] * -coef
    return out


def _jacobi_components(L: LieAlgebra) -> dict:
    """Nonzero Jacobi residuals R_ijl^m for sorted triples i < j < l.

    R_ijl^m = sum_k (C_ij^k C_kl^m + C_jl^k C_ki^m + C_li^k C_kj^m) is
    alternating in (i, j, l) because C is antisymmetric in its lower pair,
    which its storage is; so these components, keyed (i, j, l, m),
    determine the whole residual.

    The sum is driven by the nonzero products only: for each stored
    t1 = C_ab^k (a < b) and each nonzero t2 = C_kc^m with c not in
    {a, b}, t1·t2 is the term of exactly one sorted triple, with a sign set
    by where c falls: +t1·t2 into (a, b, c, m) when c > b, into (c, a, b, m)
    when c < a, and -t1·t2 into (a, c, b, m) when a < c < b (there it is
    C_li^k C_kj^m with C_li^k = -C_ab^k).  The second factor is read in both
    orders: a stored C_kc^m is t2 under k, and C_ck^m = −C_kc^m under c.

    The sum runs over integers.  With d the lcm of the denominators of all
    structure constants, each d*C_ab^k has integer coefficients, read from
    :meth:`LieAlgebra.int_tensor`, and each term ±t1·t2 is added by
    :func:`~liedouble.exactalg._add_product` into the terms dict of its
    component, which stays zero-free.  The integer sum is d²·R exactly, so
    it is zero exactly when R is; only the nonzero sums are divided back by
    d², and the check stays exact and generic in the parameters.
    """
    d, ints = L.int_tensor()
    by_first: dict = {}  # k: [(c, m, sign, terms)] with C_kc^m = sign·terms
    for (k, c, m), t in ints.items():
        by_first.setdefault(k, []).append((c, m, 1, t))
        by_first.setdefault(c, []).append((k, m, -1, t))
    acc: dict = {}
    for (a, b, k), t1 in ints.items():
        for c, m, s, t2 in by_first.get(k, ()):
            if c > b:
                key = (a, b, c, m)
            elif c < a:
                key = (c, a, b, m)
            elif a < c < b:
                key, s = (a, c, b, m), -s
            else:
                continue
            _add_product(acc.setdefault(key, {}), s, t1, t2)
    scale = d * d
    return {key: from_int_terms(t, scale) for key, t in acc.items() if t}


def _component(labels, name: str, lower, upper, value) -> str:
    """One component of a residual, ``name_(lower)^(upper) = value``, each
    index k named ``labels[k]``; an empty index group is left out, as in
    ``name^(upper) = value``."""
    low = f"_({', '.join(labels[k] for k in lower)})" if lower else ""
    up = f"^({', '.join(labels[k] for k in upper)})" if upper else ""
    return f"{name}{low}{up} = {value}"


def _jacobi_notes(L: LieAlgebra, count: int) -> list:
    """The first ``count`` nonzero Jacobi residuals R_ijl^m of L, i < j < l,
    by basis labels: ``Jacobi_(X_i, X_j, X_l)^(X_m) = R_ijl^m``."""
    residual = sorted(L.jacobi_components().items())[:count]
    return [_component(L.labels, "Jacobi", key[:3], key[3:], v) for key, v in residual]


def jacobi_violations(L: LieAlgebra) -> list:
    """Index tuples (i, j, l, m) where the Jacobi residual is nonzero."""
    return sorted(
        (*triple, m)
        for (i, j, l, m) in L.jacobi_components()
        for triple in permutations((i, j, l))
    )


def is_jacobi_zero(L: LieAlgebra) -> bool:
    return not L.jacobi_components()


@dataclass
class BasisChange:
    """Invertible linear map; row a of ``m`` is the new basis vector e'_a in
    old coordinates.  The exact inverse is computed on construction."""

    m: Matrix
    labels: tuple[str, ...]
    inverse: Matrix = field(default=None, repr=False)

    def __post_init__(self):
        self.m = mat(self.m)
        self.labels = tuple(self.labels)
        if len(self.labels) != len(self.m):
            raise ShapeError("one label per basis row required")
        if self.inverse is None:
            self.inverse = invert(self.m)  # raises SingularMatrix


def _int_rows(rows: list, transpose: bool) -> dict:
    """The nonzero entries of a dense matrix of integer terms dicts as
    layers, one per monomial: ``{mono: {x: [(y, int)]}}`` over row x (over
    column x with ``transpose``), so entry (x, y) is the sum of its layers'
    ints times their monomials."""
    out: dict = {}
    for x, row in enumerate(rows):
        for y, terms in enumerate(row):
            for mono, v in terms.items():
                layer = out.setdefault(mono, {})
                if transpose:
                    layer.setdefault(y, []).append((x, v))
                else:
                    layer.setdefault(x, []).append((y, v))
    return out


def _int_matrix(m: Matrix, transpose: bool) -> tuple[int, dict]:
    """Clear the denominators of a matrix once: ``(d, layers)`` with
    ``layers`` the :func:`_int_rows` of ``d*m`` as
    :func:`~liedouble.exactlinalg._cleared` gives it.  The adapted pass
    builds the same form from the adapted basis it inverts."""
    d, scaled = _cleared(m)
    return d, _int_rows(scaled, transpose)


def _int_tensor(entries) -> tuple[int, dict]:
    """``(d, {(i, j, k): {mono: int}})`` for a sparse view [(i, j, k, value)]
    of a 3-tensor t: the nonzero entries of ``d*t``."""
    d, scaled = to_int_terms(value for *_, value in entries)
    return d, {(i, j, k): terms for (i, j, k, _), terms in zip(entries, scaled)}


def _regroup(nested: dict) -> dict:
    """``{b: {a: v}}`` for the nonzero ints v of ``{a: {b: v}}``: an integer
    tensor ``{key: {mono: int}}`` regrouped into layers ``{mono: {key:
    int}}``, or layers back into a zero-free tensor."""
    out: dict = {}
    for a, inner in nested.items():
        for b, v in inner.items():
            if v:
                out.setdefault(b, {})[a] = v
    return out


def _contract(tensor: dict, rows: dict) -> dict:
    """Contract the upper index k of an integer 3-tensor keyed (i, j, k)
    with a matrix, both as layers: out[i, j, y] = Σ_k tensor[i, j, k] ·
    rows[k][y], over Python ints, one monomial product per pair of layers.
    The layers out keep an int that cancels as 0; :func:`_regroup` drops it."""
    out: dict = {}
    for m1, t1 in tensor.items():
        for m2, r in rows.items():
            acc = out.setdefault(_mono_mul(m1, m2), {})
            for key, c1 in t1.items():
                for y, c2 in r.get(key[2], ()):
                    new = key[:2] + (y,)
                    acc[new] = acc.get(new, 0) + c1 * c2
    return out


def _minors(rows: dict, pairs) -> dict:
    """The nonzero 2×2 minors rows[x][a]·rows[y][b] − rows[y][a]·rows[x][b],
    a < b, of the pairs of rows (x, y) in ``pairs`` of a matrix in the
    layered form of :func:`_int_rows`, as layers ``{mono: {(x, y): [((a, b),
    int)]}}``.  Each product of two nonzero entries is a term of one minor:
    added at (a, b) when a < b, subtracted at (b, a) when a > b.  A minor
    that cancels is in no layer."""
    acc: dict = {}
    for m1, l1 in rows.items():
        for m2, l2 in rows.items():
            layer = acc.setdefault(_mono_mul(m1, m2), {})
            for x, y in pairs:
                xs, ys = l1.get(x), l2.get(y)
                if xs and ys:
                    lam = layer.setdefault((x, y), {})
                    for a, c1 in xs:
                        for b, c2 in ys:
                            if a < b:
                                lam[a, b] = lam.get((a, b), 0) + c1 * c2
                            elif a > b:
                                lam[b, a] = lam.get((b, a), 0) - c1 * c2
    out: dict = {}
    for mono, layer in acc.items():
        for pair, lam in layer.items():
            nonzero = [(ab, v) for ab, v in lam.items() if v]
            if nonzero:
                out.setdefault(mono, {})[pair] = nonzero
    return out


def _contract_pair(tensor: dict, rows: dict) -> dict:
    """Contract the lower pair (x, y) of an integer 3-tensor keyed (x, y,
    k), antisymmetric in it and stored with x < y, with a matrix, both as
    layers: out[a, b, k] = Σ_{x<y} tensor[x, y, k] · (rows[x][a]·rows[y][b]
    − rows[y][a]·rows[x][b]) for a < b, over Python ints, as
    :func:`_contract` sums.  The minors (:func:`_minors`) are built once for
    the pairs (x, y) that occur."""
    minors = _minors(rows, {key[:2] for t in tensor.values() for key in t})
    out: dict = {}
    for m1, t1 in tensor.items():
        for m2, lams in minors.items():
            acc = out.setdefault(_mono_mul(m1, m2), {})
            for key, c1 in t1.items():
                for ab, c2 in lams.get(key[:2], ()):
                    new = ab + key[2:]
                    acc[new] = acc.get(new, 0) + c1 * c2
    return out


def _structure_int(t: tuple, m_cols: tuple, w: tuple) -> tuple[int, dict]:
    """C' of :func:`transform_structure` in integer form, ``(d·e_M²·e_W,
    entries)`` with its entries a < b only, from the integer forms ``(scale,
    entries)`` of C (its stored half, i < j, as :func:`_int_tensor` gives
    it) and of the columns of M and the rows of W (in the layers of
    :func:`_int_matrix`)."""
    (d, c), (e_m, cols), (e_w, rows) = t, m_cols, w
    c2 = _contract(_contract_pair(_regroup(c), cols), rows)
    return d * e_m * e_m * e_w, _regroup(c2)


def transform_structure(c, m: Matrix, w: Matrix):
    """C'_ab^c = M_a^i M_b^j C_ij^k W_k^c for basis rows M, inverse W.

    The sum runs over integers: the denominators of C, M and W are each
    cleared once (:func:`~liedouble.exactalg.to_int_terms`).  C must be
    antisymmetric in (i, j), as a :class:`LieAlgebra` is by its storage;
    then so is C', and C'_ab^c for a < b is Σ_{i<j} (M_a^i M_b^j − M_a^j
    M_b^i) C_ij^k W_k^c: the pair (i, j) is contracted in one step with the
    2×2 minors of M, from the entries with i < j only, then k with W, and
    only the nonzero results are divided back by the product of the scales.
    (b, a) is the negation and the diagonal is zero.  A dense wrapper over
    :func:`_structure_int`.
    """
    d, t = _structure_int(
        _int_tensor([e for e in _nonzero_entries(c) if e[0] < e[1]]),
        _int_matrix(m, transpose=True),
        _int_matrix(w, transpose=False),
    )
    return _dense(len(m), [(*key, from_int_terms(v, d)) for key, v in t.items()])


def transform_cocomm(f, m: Matrix, w: Matrix):
    """f'_a^bc = M_a^i f_i^jk W_j^b W_k^c: the structure constants
    C*_jk^i = f_i^jk of g*, whose basis moves by (Wᵀ, Mᵀ) when that of g
    moves by (M, W), transformed by :func:`transform_structure` and read
    back as f'.  f must be antisymmetric in (j, k)."""
    n = range(len(m))
    c = transform_structure(
        [[[f[i][j][k] for i in n] for k in n] for j in n], transpose(w), transpose(m)
    )
    return [[[c[j][k][i] for k in n] for j in n] for i in n]


def change_basis(L: LieAlgebra, bc: BasisChange) -> LieAlgebra:
    """Structure constants in the new basis; bracket commutes with the map.
    Computed as :func:`transform_structure` does, from L's integer form."""
    if len(bc.m) != L.dim:
        raise DimensionMismatch("basis change dimension does not match algebra")
    d, t = _structure_int(
        L.int_tensor(),
        _int_matrix(bc.m, transpose=True),
        _int_matrix(bc.inverse, transpose=False),
    )
    return _algebra_of(bc.labels, [(*key, from_int_terms(t[key], d)) for key in sorted(t)])


def substitute_params(L: LieAlgebra, mapping: Mapping[str, PolyLike]) -> LieAlgebra:
    """Apply an exact parameter substitution to every structure constant."""
    entries = [(i, j, k, v.substitute(mapping)) for i, j, k, v in L.entries]
    return _algebra_of(L.labels, [entry for entry in entries if entry[3].terms])


def algebras_equal(a: LieAlgebra, b: LieAlgebra) -> bool:
    """Exact equality of dimension and structure tensors (labels ignored)."""
    return a.dim == b.dim and a.entries == b.entries
