"""Lagrangian subalgebras of the double and the coisotropy hierarchy.

Given a subalgebra h ⊂ g with complement {T_α} and a matrix π^{αβ}, the
candidate Lagrangian subspace of D(g) is

    l = h ⊕ span{ X^α = t^α + π^{αβ} T_β },

where {t^α} are the duals of the complement in the adapted basis (h, T).
Write T(α) = n_h + α for the adapted index of T_α, and C', f' for the
structure constants and cocommutator in the adapted basis, where the double
has [x^a, X_b] = C'_bk^a x^k − f'_b^{ak} X_k.  Every bracket of l's basis
{H_i, X^α} is then fixed in closed form, and :func:`classify` reads the
verdicts from (C', f', π) alone, in one pass, and the induced bracket table
from what that pass keeps:

* l is Lagrangian iff π^{αβ} + π^{βα} = 0: the pairing gives
  <X^α, X^β> = π^{αβ} + π^{βα}, and h pairs to zero with all of l.
* [H_i, H_j] = C'_ij^k H_k; its T-components C'_ij^{T(γ)} must vanish
  (h is a subalgebra).
* [X^α, H_i] has H-coordinates −f'_i^{αj} + π^{αβ} C'_{T(β)i}^j and
  X-coordinates C'_{iT(γ)}^{T(α)}; the components that must vanish are
  its x^j components C'_ij^{T(α)} and M^{αε}_i, for any π.
* [X^α, X^β]: with

      R_k = f'_k^{αβ} + π^{βδ} C'_{T(δ)k}^{T(α)} − π^{αγ} C'_{T(γ)k}^{T(β)},

  its x^j components R_j (j < n_h) must vanish and its X-coordinates are
  R_{T(γ)}; for antisymmetric π these are M^{αβ}_j and M^{αβ}_γ.  Its
  H-coordinates are

      −π^{βδ} f'_{T(δ)}^{αj} + π^{αγ} f'_{T(γ)}^{βj} + π^{αγ} π^{βδ} C'_{T(γ)T(δ)}^j,

  and the quadratic residual Q^{αβε}, the same expression at T(ε) minus
  Σ_γ R_{T(γ)} π^{γε}, must vanish.  Q is identically zero at π = 0.

Here M is the π-twisted cocommutator f' + (ad ⊗ 1 + 1 ⊗ ad)π in the
adapted basis:

    M^{αβ}_γ = f'_γ^{αβ} + π^{δβ} C'_{γδ}^α + π^{αδ} C'_{γδ}^β
    M^{αβ}_i = f'_i^{αβ} + π^{δβ} C'_{iδ}^α + π^{αδ} C'_{iδ}^β   (must vanish).

The adapted pass keeps, for each bracket of l's basis that leaves l, its
first nonzero component that must vanish; l is a subalgebra iff there is
none.  It also keeps the first pair α ≤ β with π^{αβ} ≠ −π^{βα}, read from
π's entries as they are given; l is Lagrangian iff there is none.
``ClosureReport.violations`` names each by basis labels, with its
polynomial: the pairing by the labels of l, the components by those of h
and the complement in g.

The pass runs over integers.  The adapted basis A = (h, T) is brought to
one scale once, the lcm s of its denominators (:func:`_adapted`), and
``exactlinalg._int_inverse`` inverts that integer matrix s·A: each unit or
single-term row of T (or of h) gives a row of A⁻¹ by substitution, and the
integer Bareiss kernel reduces only the block of the other rows, h's rows
on the columns T leaves free when T is made of unit rows.  Its columns, as
M, and the inverse, as W, are regrouped into monomial layers
(``liealg._int_rows``), which both transforms read.  C' and f' are summed
as the basis transform ``liealg._structure_int`` sums them, C' from C with
(M, W) and f' from g* with (Wᵀ, Mᵀ), scaled by d_C and d_f, with one entry
per antisymmetric pair: C'_ab^k for a < b and f'_i^{bc}, keyed (b, c, i),
for b < c; the other half is read as the negation.  π is brought to one
scale d_π the same way.  M, R and the H-part of [H_i, X^α] are then sums
over ints at the scale s1 = d_f·d_π·d_C, and the H-part of [X^α, X^β] and
Q at s2 = s1·d_π: each is exactly s1 or s2 times its rational value, summed by
:func:`~liedouble.exactalg._add_product` into a zero-free terms dict, so a
component vanishes iff its dict is empty, and the test stays generic in
the parameters.

:func:`classify` decides its four verdicts from these integer forms and
that pair alone and stores them on the :class:`ClosureReport`.  The pass
runs in three stages, each at most once, in one order whatever is read
first.  Stage 1, in every call, inverts A, contracts C's pair with M's
minors and then only W's T columns: C' with T targets, enough to see
whether h closes.  When some [H_i, H_j] has a T-component, l is no
subalgebra, so not coisotropic, h is no Poisson subgroup, and the pairing
gives ``lagrangian``: :func:`classify` returns.  Stage 2 runs in
:func:`classify` when h closes, else on the first read of a value that
needs it: f' over the pairs (b, c) with c ≥ n_h (the h∧h block is read by
nothing), M, R, the T-coordinates of [X^α, X^β] that give Q, and the
failing components; the h∧T components of f' follow on first need.  Stage
3, on the first read of the table, adds C''s h-target columns, from the
pair-contracted C that stage 1 keeps, and sums the bracket rows that only
the table reads, the H-coordinates of [H_i, X^α] and [X^α, X^β], from C',
f', π's rows, R and the h-target rows of the [X^α, X^β] sums; the
X-coordinates come from R and C'.  The polynomials the report gives, the
nonzero M^{αβ}_k keyed (α, β, k) by adapted index, the bracket table, Q,
and the failing and mixed components that ``violations`` prints, are
divided back from the integer forms
(:func:`~liedouble.exactalg.from_int_terms`) on first read and cached on
the report, so a caller that reads only the verdicts sums no bracket row
and divides nothing back.  No dense tensor is built.
:func:`lagrangian_bracket_table` is the table of :func:`classify`.

l is coisotropic when it is a Lagrangian subalgebra at π = 0, i.e. h is a
subalgebra and δ(h) ⊂ h∧g.  h is then the algebra of a Poisson subgroup,
δ(h) ⊂ h∧h, when δ(H_i) also has no h∧T part f'_i^{jT(β)}.  The T∧T part
f'_i^{T(α)T(β)} is not read: at π = 0 it is M^{αβ}_i, which coisotropy
already forces to zero.

The reference route builds l in the double with :func:`lagrangian_from_pi`
and decides the same questions there: by the pairing (:func:`is_lagrangian`),
by a rank test per bracket (:func:`is_subalgebra`) and, for the table, by
``exactlinalg.solve_in_span``; the tests check :func:`classify` against it.

Rank and membership tests are exact and generic in the parameters: a
polynomial coefficient counts as nonzero unless identically zero.
Declared parameter relations (e.g. a curvature expressed through a
deformation parameter) are applied by the caller via substitution before
these tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import NamedTuple, Sequence

from .bialgebra import LieBialgebra
from .double import DoubleAlgebra, pairing
from .errors import (
    BadPartition,
    BasisNotComplete,
    NotClosed,
    NotInFirstFactor,
    ShapeError,
    SingularMatrix,
    WrongDimension,
)
from .exactalg import _UNIT, PolyExpr, _add_product, as_poly, from_int_terms, to_int_terms
from .exactlinalg import (
    Matrix,
    _cleared,
    _int_inverse,
    identity,
    mat,
    nullspace,
    rank,
)
from .liealg import (
    LieAlgebra,
    _algebra_of,
    _component,
    _contract,
    _contract_pair,
    _int_rows,
    _regroup,
    bracket,
)


@dataclass
class Subspace:
    ambient_dim: int
    vectors: list  # list of coefficient vectors (PolyExpr)

    def __post_init__(self):
        self.vectors = [
            [as_poly(x) for x in v] for v in self.vectors
        ]
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ShapeError("subspace vector has wrong length")

    def rank(self) -> int:
        return rank(self.vectors)


@dataclass
class LagrangianSpec:
    """h-basis, complement and base-point π^{αβ}, all in g-coordinates."""

    h_basis: list
    complement: list
    pi: Matrix

    def __post_init__(self):
        self.h_basis = [[as_poly(x) for x in v] for v in self.h_basis]
        self.complement = [[as_poly(x) for x in v] for v in self.complement]
        self.pi = mat(self.pi) if self.pi else []
        m = len(self.complement)
        if len(self.pi) != m or any(len(row) != m for row in self.pi):
            raise ShapeError("pi must be square of size len(complement)")

    @property
    def n_h(self) -> int:
        return len(self.h_basis)

    @property
    def n_t(self) -> int:
        return len(self.complement)


def _adapted(spec: LagrangianSpec, n: int):
    """The adapted basis A = (h, T), cleared of its denominators once, and
    its exact inverse, both dense: ``((s, a), (e, rows))`` with A = a / s
    and A⁻¹ = rows / e, from ``exactlinalg._int_inverse`` of s·A."""
    rows = spec.h_basis + spec.complement
    if len(rows) != n:
        raise BasisNotComplete(
            f"adapted basis has {len(rows)} vectors for dimension {n}"
        )
    s, a = _cleared(rows)
    try:
        return (s, a), _int_inverse(s, a)
    except SingularMatrix:
        raise BasisNotComplete("h-basis plus complement do not span g") from None


def annihilator(D: DoubleAlgebra, h: Subspace) -> Subspace:
    """h^⊥ = {α in g* : α(X) = 0 for all X in h}, embedded in the double."""
    n = D.n
    primal_rows = []
    for v in h.vectors:
        if len(v) == n:
            primal_rows.append(list(v))
            continue
        if len(v) != 2 * n:
            raise ShapeError("subspace ambient dimension mismatch")
        if any(not x.is_zero for x in v[n:]):
            raise NotInFirstFactor("subspace has components in the dual factor")
        primal_rows.append(list(v[:n]))
    if not primal_rows:
        basis = identity(n)
    else:
        basis = nullspace(primal_rows)
    out = [[PolyExpr.zero()] * n + list(alpha) for alpha in basis]
    return Subspace(2 * n, out)


def lagrangian_from_pi(D: DoubleAlgebra, spec: LagrangianSpec) -> Subspace:
    """l = h ⊕ span{ t^α + π^{αβ} T_β } inside the double."""
    n = D.n
    e, inv_rows = _adapted(spec, n)[1]
    vectors = [list(v) + [PolyExpr.zero()] * n for v in spec.h_basis]
    for a in range(spec.n_t):
        primal = [PolyExpr.zero()] * n
        for b in range(spec.n_t):
            coef = spec.pi[a][b]
            if coef.is_zero:
                continue
            for j in range(n):
                primal[j] = primal[j] + coef * spec.complement[b][j]
        dual = [from_int_terms(inv_rows[j][spec.n_h + a], e) for j in range(n)]
        vectors.append(primal + dual)
    return Subspace(2 * n, vectors)


def is_lagrangian(D: DoubleAlgebra, l: Subspace) -> bool:
    """True iff the pairing vanishes on l × l and dim l = n."""
    if l.ambient_dim != D.dim:
        raise WrongDimension("subspace does not live in this double")
    dim = l.rank()
    if dim != D.n:
        raise WrongDimension(
            f"Lagrangian candidate must have dimension {D.n}, got {dim}"
        )
    for i, u in enumerate(l.vectors):
        for v in l.vectors[i:]:
            if not pairing(D, u, v).is_zero:
                return False
    return True


def is_subalgebra(D: DoubleAlgebra, l: Subspace) -> bool:
    """True iff [l, l] ⊆ l (generic parameters), by an exact rank test per
    bracket."""
    base = l.rank()
    for i, u in enumerate(l.vectors):
        for v in l.vectors[i + 1 :]:
            if rank(l.vectors + [bracket(D.algebra, u, v)]) != base:
                return False
    return True


def _divided(component: tuple) -> tuple:
    """``(name, lower, upper, value)`` of an integer component
    ``(name, lower, upper, terms, scale)``, its value the terms divided by
    the scale."""
    name, lower, upper, terms, scale = component
    return name, lower, upper, from_int_terms(terms, scale)


@dataclass
class ClosureReport:
    """The verdicts of :func:`classify`, decided by the adapted pass; only
    they are compared.  The polynomials the report gives read the pass's
    later stages, which sum on the first read that needs them, and are
    divided back from its integer forms then and cached on the report
    (module doc)."""

    lagrangian: bool
    subalgebra: bool
    coisotropic: bool
    poisson_subgroup: bool
    # the adapted pass the values below are read from, and (B, spec)
    _pass: _AdaptedPass = field(repr=False, compare=False)
    _source: tuple = field(repr=False, compare=False)

    @cached_property
    def m(self) -> dict:
        """The nonzero M^{αβ}_k, keyed (α, β, k) by adapted index k, in key
        order: M^{αβ}_i for k = i < n_h, M^{αβ}_γ for k = n_h + γ."""
        s1, m_int = self._pass.closure.m_int
        return {key: from_int_terms(t, s1) for key, t in sorted(m_int.items()) if t}

    @cached_property
    def table(self) -> LieAlgebra | None:
        """The induced bracket table, or None when l is not a subalgebra: the
        first read sums the bracket rows from what the adapted pass keeps,
        then divides them back (module doc)."""
        if not self.subalgebra:
            return None
        return _table(*self._source, self._pass.brackets)

    @cached_property
    def xx_residual(self) -> dict:
        """The nonzero Q^{αβε} of [X^α, X^β] (module doc), keyed (α, β, ε)
        with α < β."""
        s2, residual = self._pass.closure.xx_residual
        return {key: from_int_terms(t, s2) for key, t in residual.items()}

    @cached_property
    def failing(self) -> dict:
        """(i, j) ↦ the first nonzero (name, lower, upper, value) that must
        vanish for [l_i, l_j] ∈ l, i < j, by adapted index (module doc)."""
        return {pair: _divided(comp) for pair, comp in self._pass.closure.failing.items()}

    @cached_property
    def mixed(self) -> list:
        """The first nonzero h∧T component (name, lower, upper, value) of
        each δ(H_i) that has one."""
        return [_divided(comp) for comp in self._pass.mixed]

    @cached_property
    def violations(self) -> list:
        """The failed conditions by basis labels: the first pair of l's
        basis on which the pairing does not vanish, with its value
        π^{αβ} + π^{βα}, then each bracket of l's basis that leaves l and
        each δ(H_i) with an h∧T part, with the first nonzero component that
        must vanish (module doc)."""
        out = []
        pairing = self._pass.pairing
        if pairing or self._pass.closure.failing or self._pass.mixed:
            B, spec = self._source
            g = B.algebra.labels
            frame = _names(spec.h_basis, g, "H") + _names(spec.complement, g, "T")
            l_labels = _labels(B, spec)
            if pairing:
                a, b = pairing
                pair = (spec.n_h + a, spec.n_h + b)
                value = spec.pi[a][b] + spec.pi[b][a]
                comp = _component(l_labels, "pairing", pair, (), value)
                out.append(f"l is not Lagrangian: {comp}")
            out += [
                f"[{l_labels[i]}, {l_labels[j]}] leaves l: {_component(frame, *comp)}"
                for (i, j), comp in self.failing.items()
            ]
            out += [f"mixed h^T part {_component(frame, *comp)}" for comp in self.mixed]
        return out

    def to_json(self) -> dict:
        n_h = self._source[1].n_h

        def tensor_entries(gamma, tag):  # M split at n_h, γ = k − n_h
            return [
                {"index": [a, b, k - n_h if gamma else k], "value": str(v), "tensor": tag}
                for (a, b, k), v in self.m.items()
                if (k >= n_h) == gamma
            ]

        return {
            "lagrangian": self.lagrangian,
            "subalgebra": self.subalgebra,
            "coisotropic": self.coisotropic,
            "poisson_subgroup": self.poisson_subgroup,
            "m_gamma_nonzero": tensor_entries(True, "M^{ab}_g"),
            "m_i_nonzero": tensor_entries(False, "M^{ab}_i"),
            "violations": self.violations,
        }


class _Closure(NamedTuple):
    """Stage 2 of the adapted pass: what the verdicts of a closing h and
    the failing components read (module doc)."""

    f_int: tuple        # (d_f, {(b, c, i): terms}): f'_i^{bc} in integer form, b < c, c ≥ n_h
    pi_rows: list       # π's nonzero entries (β, d_π·π^{αβ}) by row α, at the scale d_π
    d_pi: int
    m_int: tuple        # (s1, {(α, β, k): terms}): s1·M^{αβ}_k over ints, by adapted index k
    r_acc: dict         # s1·R^{αβ}_k keyed (α, β, k), M's own dict when π is antisymmetric
    # (i, j) ↦ the first nonzero (name, lower, upper, terms, scale) that must
    # vanish for [l_i, l_j] ∈ l, i < j, in key order, by adapted index (module
    # doc), its value the terms divided by the scale
    failing: dict
    xx_residual: tuple  # (s2, {(α, β, ε): terms}): s2·Q^{αβε} over ints, nonzero, α < β


class _AdaptedPass:
    """What :func:`classify` reads from (C', f', π), summed over integers in
    three stages, each at most once (module doc).  Stage 1, on construction,
    builds the adapted basis, C' with T targets and the pairing, and decides
    whether h closes; stage 2, :attr:`closure`, sums f', M, R, Q and the
    failing components; stage 3, :attr:`brackets`, adds C''s h targets to
    ``c_int`` and sums the bracket rows of l."""

    def __init__(self, B: LieBialgebra, spec: LagrangianSpec):
        (s, a_int), (e, inv_rows) = _adapted(spec, B.dim)
        self.n_h, self.n_t, self.pi = n_h, n_t, pi = spec.n_h, spec.n_t, spec.pi
        self.g_star = B.cocomm.int_tensor()
        # both transforms read A's columns in layers, and A⁻¹ in layers of
        # its rows: C by (M, W) and g* by (Wᵀ, Mᵀ), whose columns and rows
        # those are.  C' contracts C's pair once, kept for the h targets, and
        # then k with W's T columns alone
        self.m_cols, self.inv = (s, _int_rows(a_int, transpose=True)), (e, inv_rows)
        d, c = B.algebra.int_tensor()
        self.c_pair = _contract_pair(_regroup(c), self.m_cols[1])
        w_t = _int_rows(inv_rows, False, range(n_h, B.dim))
        # (d_C, {(a, b, k): terms}): C' in integer form, a < b, k ≥ n_h; the
        # table stage adds k < n_h
        self.c_int = (d * s * s * e, _regroup(_contract(self.c_pair, w_t)))
        # the first (α, β), α ≤ β, with <X^α, X^β> = π^{αβ} + π^{βα} nonzero;
        # None when π is antisymmetric, i.e. l is Lagrangian
        self.pairing = next(
            ((a, b) for a in range(n_t) for b in range(a, n_t) if pi[a][b] != -pi[b][a]),
            None,
        )
        # h is a subalgebra iff no C'_ij^{T(γ)}, i < j < n_h, is nonzero
        self.closes = all(b >= n_h for _, b, _ in self.c_int[1])

    @cached_property
    def closure(self) -> _Closure:
        """Stage 2: f' over the pairs (b, c) with c ≥ n_h, the only ones
        read, then M, R and Q of l's basis {H_i, X^α} and the first nonzero
        component that must vanish for each bracket to lie in l, summed over
        integers at the scales s1 and s2 (module doc)."""
        n_h, n_t, pi = self.n_h, self.n_t, self.pi
        n = n_h + n_t
        (s, m_cols), (e, inv_rows) = self.m_cols, self.inv
        d_c, c = self.c_int
        d, g_star = self.g_star
        # f'_i^{bc} by (Wᵀ, Mᵀ), keyed (b, c, i), b < c, for c ≥ n_h alone:
        # no reader takes the h∧h block
        w = _int_rows(inv_rows, transpose=False)
        f = _regroup(_contract(_contract_pair(_regroup(g_star), w, n_h), m_cols))
        d_f = d * e * e * s
        keys = [(a, b) for a in range(n_t) for b in range(n_t) if pi[a][b].terms]
        d_pi, scaled = to_int_terms(pi[a][b] for a, b in keys)
        pi_nz = [(a, b, v) for (a, b), v in zip(keys, scaled)]
        pi_rows = [[(b, v) for a2, b, v in pi_nz if a2 == a] for a in range(n_t)]
        s1 = d_f * d_pi * d_c  # scale of M, R and the H-part of [H_i, X^α]
        s2 = s1 * d_pi         # scale of the H-part of [X^α, X^β] and of Q
        f_mul, c_mul = d_pi * d_c, d_f  # f'·π^j and C'·π^(j+1) to a common scale

        # signed rows of the stored halves: C'_{k T(δ)}^{T(α)} as (k, α, sign,
        # terms) under δ; f'_{T(δ)}^{T(α)T(ε)} as (ε, sign, terms) under (δ, α)
        # and C'_{T(γ)T(δ)}^{T(ε)} the same under (γ, δ), for Q
        c_kt = [[] for _ in range(n_t)]
        f_tt, c_tt = {}, {}
        for (a, b, u), t in c.items():
            if b >= n_h:
                c_kt[b - n_h].append((a, u - n_h, 1, t))
            if a >= n_h:
                c_kt[a - n_h].append((b, u - n_h, -1, t))
                c_tt.setdefault((a - n_h, b - n_h), []).append((u - n_h, 1, t))
                c_tt.setdefault((b - n_h, a - n_h), []).append((u - n_h, -1, t))
        m_acc: dict = {}  # s1·M^{αβ}_k, keyed (α, β, k)
        for (b, u, i), t in f.items():
            if b >= n_h:  # f'_i^{bc} starts M^{bc}_i and M^{cb}_i: no other entry has them
                if i >= n_h:
                    f_tt.setdefault((i - n_h, b - n_h), []).append((u - n_h, 1, t))
                    f_tt.setdefault((i - n_h, u - n_h), []).append((b - n_h, -1, t))
                m_acc[b - n_h, u - n_h, i] = {x: f_mul * v for x, v in t.items()}
                m_acc[u - n_h, b - n_h, i] = {x: -f_mul * v for x, v in t.items()}
        # R has M's f' part; it differs from M only for π not antisymmetric
        pairing = self.pairing
        r_acc = {key: dict(t) for key, t in m_acc.items()} if pairing else m_acc
        for p, q, v in pi_nz:  # v = d_π·π^{pq}
            for k, a, sign, t in c_kt[p]:  # π^{pq} C'_{kT(p)}^{T(α)} in M^{αq}
                _add_product(m_acc.setdefault((a, q, k), {}), sign * c_mul, v, t)
            for k, a, sign, t in c_kt[q]:  # π^{pq} C'_{kT(q)}^{T(α)} in M^{pα}
                x = sign * c_mul
                _add_product(m_acc.setdefault((p, a, k), {}), x, v, t)
                if pairing:  # and in R^{pα}, and −π^{pq} C'_{kT(q)}^{T(α)} in R^{αp}
                    _add_product(r_acc.setdefault((p, a, k), {}), x, v, t)
                    _add_product(r_acc.setdefault((a, p, k), {}), -x, v, t)

        failing, residual = {}, {}
        # each pair's failing component is the first nonzero (name, lower,
        # upper, terms, scale) in the order below, built once it is found
        for i in range(n_h):
            for j in range(i + 1, n_h):  # [H_i, H_j]: C'_ij^k, k in T
                k = next((k for k in range(n_h, n) if c.get((i, j, k))), None)
                if k is not None:
                    failing[i, j] = ("C'", (i, j), (k,), c[i, j, k], d_c)
            for a in range(n_t):  # [H_i, X^α]: C'_ij^{T(α)}, then M^{α·}_i
                t_a = n_h + a
                for j in range(n_h):  # C'_ij^{T(α)} from the stored half
                    if j == i:
                        continue
                    t = c.get((i, j, t_a) if i < j else (j, i, t_a))
                    if t:
                        failing[i, t_a] = ("C'", (i, j), (t_a,), t, d_c if i < j else -d_c)
                        break
                else:
                    for e in range(n_t):
                        t = m_acc.get((a, e, i))
                        if t:
                            failing[i, t_a] = ("M", (i,), (t_a, n_h + e), t, s1)
                            break
        for a in range(n_t):
            for b in range(a + 1, n_t):  # [X^α, X^β]: R_j, then Q
                acc = [{} for _ in range(n_t)]
                _xx_part(acc, a, b, pi_rows, f_tt, c_tt, f_mul, c_mul)
                for g, e, v in pi_nz:  # − R_{T(γ)} π^{γε}
                    x = r_acc.get((a, b, n_h + g))
                    if x:
                        _add_product(acc[e], -1, x, v)
                for e, t in enumerate(acc):
                    if t:
                        residual[(a, b, e)] = t
                pair = (n_h + a, n_h + b)
                j = next((j for j in range(n_h) if r_acc.get((a, b, j))), None)
                if j is not None:
                    failing[pair] = ("R", (j,), pair, r_acc[a, b, j], s1)
                    continue
                e = next((e for e, t in enumerate(acc) if t), None)
                if e is not None:
                    failing[pair] = ("Q", (), (*pair, n_h + e), acc[e], s2)
        return _Closure(
            (d_f, f), pi_rows, d_pi, (s1, m_acc), r_acc, failing, (s2, residual)
        )

    @cached_property
    def mixed(self) -> list:
        """The first nonzero h∧T component f'_i^{jk}, j < n_h ≤ k, of each
        δ(H_i) that has one, as (name, lower, upper, terms, scale)."""
        d_f, f = self.closure.f_int
        n_h, n = self.n_h, self.n_h + self.n_t
        mixed = []
        for i in range(n_h):
            for j, k in product(range(n_h), range(n_h, n)):
                if (j, k, i) in f:
                    mixed.append(("delta", (i,), (j, k), f[j, k, i], d_f))
                    break
        return mixed

    @cached_property
    def brackets(self) -> dict:
        """Stage 3: (i, j) ↦ the nonzero coordinates of [l_i, l_j] in l, i <
        j, as [(k, {mono: int}, scale)], coordinate k the terms divided by
        the scale, summed on first read after stage 2.  C' gains its h
        targets in ``c_int`` first, and the rows f'_{T(δ)}^{T(α)k} and
        C'_{T(γ)T(δ)}^k with an h target k < n_h are read from it and f'
        (module doc)."""
        closure = self.closure  # stage 2 reads c_int before the h targets join it
        d_c, c = self.c_int
        d_f, f = closure.f_int
        n_h, n_t, pi_rows, r_acc = self.n_h, self.n_t, closure.pi_rows, closure.r_acc
        n = n_h + n_t
        w_h = _int_rows(self.inv[1], False, range(n_h))
        c_h = _regroup(_contract(self.c_pair, w_h))
        c.update(c_h)
        f_tt_h, c_tt_h = {}, {}  # (δ, α) or (γ, δ) ↦ [(k, sign, terms)], k < n_h
        for (a, b, u), t in c_h.items():
            if a >= n_h:
                c_tt_h.setdefault((a - n_h, b - n_h), []).append((u, 1, t))
                c_tt_h.setdefault((b - n_h, a - n_h), []).append((u, -1, t))
        for (b, u, i), t in f.items():
            if i >= n_h > b:
                f_tt_h.setdefault((i - n_h, u - n_h), []).append((b, -1, t))
        s1, s2 = closure.m_int[0], closure.xx_residual[0]
        f_mul, c_mul = closure.d_pi * d_c, d_f
        brackets = {}
        for i in range(n_h):
            for j in range(i + 1, n_h):  # [H_i, H_j]
                brackets[(i, j)] = [
                    (k, c[i, j, k], d_c) for k in range(n_h) if (i, j, k) in c
                ]
            for a in range(n_t):  # [H_i, X^α] = −[X^α, H_i]
                t_a = n_h + a
                row = []
                for j in range(n_h):  # −f'_i^{jT(α)} + π^{αβ} C'_{iT(β)}^j
                    h = {}
                    t = f.get((j, t_a, i))
                    if t:
                        _add_product(h, -f_mul, t, _UNIT)
                    for b, v in pi_rows[a]:
                        t = c.get((i, n_h + b, j))
                        if t:
                            _add_product(h, c_mul, v, t)
                    if h:
                        row.append((j, h, s1))
                row += [
                    (k, c[i, k, t_a], -d_c) for k in range(n_h, n) if (i, k, t_a) in c
                ]
                brackets[(i, t_a)] = row
        for a in range(n_t):
            for b in range(a + 1, n_t):  # [X^α, X^β]: H-coordinates, then R_{T(γ)}
                acc = [{} for _ in range(n_h)]
                _xx_part(acc, a, b, pi_rows, f_tt_h, c_tt_h, f_mul, c_mul)
                brackets[(n_h + a, n_h + b)] = [
                    (k, t, s2) for k, t in enumerate(acc) if t
                ] + [
                    (n_h + g, r_acc[a, b, n_h + g], s1) for g in range(n_t)
                    if r_acc.get((a, b, n_h + g))
                ]
        return brackets


def _xx_part(acc: list, a: int, b: int, pi_rows, f_tt, c_tt, f_mul, c_mul) -> None:
    """Add s2 times −π^{βδ} f'_{T(δ)}^{T(α)k} + π^{αγ} f'_{T(γ)}^{T(β)k} +
    π^{αγ} π^{βδ} C'_{T(γ)T(δ)}^k to ``acc`` at the slot of each target k
    that the rows ``f_tt`` {(δ, α): [(slot, sign, terms)]} and ``c_tt``
    {(γ, δ): [...]} hold: the h rows give the H-coordinates of [X^α, X^β]
    (slot k < n_h), the T rows the part of Q before −R·π (slot ε = k − n_h)."""
    for d, v in pi_rows[b]:  # −π^{βδ} f'_{T(δ)}^{T(α)k}
        for k, sign, t in f_tt.get((d, a), ()):
            _add_product(acc[k], -sign * f_mul, v, t)
    for g, v in pi_rows[a]:
        for k, sign, t in f_tt.get((g, b), ()):  # π^{αγ} f'_{T(γ)}^{T(β)k}
            _add_product(acc[k], sign * f_mul, v, t)
        for d, u in pi_rows[b]:  # π^{αγ} π^{βδ} C'_{T(γ)T(δ)}^k
            rows = c_tt.get((g, d))
            if rows:
                vu: dict = {}
                _add_product(vu, 1, v, u)
                for k, sign, t in rows:
                    _add_product(acc[k], sign * c_mul, vu, t)


def _table(B: LieBialgebra, spec: LagrangianSpec, brackets: dict) -> LieAlgebra:
    """The induced Lie algebra on l's basis, labelled by :func:`_labels`,
    from the integer bracket rows [l_i, l_j], i < j, of the adapted pass."""
    n = B.dim
    entries = [
        (i, j, k, from_int_terms(t, s))
        for i in range(n)
        for j in range(i + 1, n)
        for k, t, s in brackets[i, j]
    ]
    return _algebra_of(_labels(B, spec), entries)


def classify(
    D: DoubleAlgebra, B: LieBialgebra, spec: LagrangianSpec
) -> ClosureReport:
    """Evaluate the Lagrangian / subalgebra / coisotropy / Poisson-subgroup
    conditions for l built from (h, complement, π) from one staged pass
    over the adapted-basis tensors, and the induced bracket table, when l
    is a subalgebra, on its first read (module doc).  When h does not
    close, stage 1 alone decides: l is no subalgebra, and ``lagrangian``
    comes from π.

    l is coisotropic when it is a Lagrangian subalgebra at π = 0, and h is
    then the algebra of a Poisson subgroup when δ(h) also has no h∧T part
    f'_i^{jT(β)}.  The T∧T part f'_i^{T(α)T(β)} of δ(H_i) is not read: at
    π = 0 it is M^{αβ}_i, which coisotropy already forces to zero."""
    if B.dim != D.n:
        raise ShapeError("bialgebra does not match the double")
    p = _AdaptedPass(B, spec)
    lagrangian = p.pairing is None
    subalg = p.closes and not p.closure.failing
    coisotropic = (
        lagrangian and subalg and not any(v.terms for row in spec.pi for v in row)
    )
    return ClosureReport(
        lagrangian=lagrangian,
        subalgebra=subalg,
        coisotropic=coisotropic,
        poisson_subgroup=coisotropic and not p.mixed,
        _pass=p,
        _source=(B, spec),
    )


def _names(vectors, names: Sequence[str], fallback: str) -> list:
    """``names[k]`` for each vector that is the unit vector e_k, else
    ``fallback`` followed by the vector's position."""
    out = []
    for i, vec in enumerate(vectors):
        hits = [(k, x) for k, x in enumerate(vec) if x.terms]
        unit = len(hits) == 1 and hits[0][1] == 1
        out.append(names[hits[0][0]] if unit else f"{fallback}{i}")
    return out


def _labels(B: LieBialgebra, spec: LagrangianSpec) -> list:
    """Labels of l's basis: a basis label for a unit H_i, else H<i>; the
    dual label of a unit T_α, else t<α>."""
    return _names(spec.h_basis, B.algebra.labels, "H") + _names(
        spec.complement, B.dual_labels, "t"
    )


def lagrangian_bracket_table(D: DoubleAlgebra, spec: LagrangianSpec) -> LieAlgebra:
    """Induced Lie algebra on the basis {H_i} ∪ {t^α + π^{αβ} T_β}: the
    :attr:`ClosureReport.table` of :func:`classify` on the source of D, read
    at once.  A caller that holds the report reads its ``table`` instead,
    which repeats no pass.

    Raises :class:`NotClosed`, naming the first bracket that leaves l, if l
    is not a subalgebra of the double.
    """
    rep = classify(D, D.source, spec)
    if not rep.subalgebra:
        labels = _labels(D.source, spec)
        i, j = min(rep.failing)
        raise NotClosed(f"[{labels[i]}, {labels[j]}] does not lie in the subspace")
    return rep.table


def is_semidirect(
    table: LieAlgebra, h_indices: Sequence[int], t_indices: Sequence[int]
) -> bool:
    """[t,t] ⊆ t, [h,h] ⊆ h and [t,h] ⊆ t on a bracket table.  A stored
    [e_i, e_j], i < j, stands for [e_j, e_i] too, so each condition is read
    in both orders: an h part breaks [t,t] ⊆ t and [t,h] ⊆ t when i or j is
    in t, and a t part breaks [h,h] ⊆ h when both are in h."""
    h_set, t_set = set(h_indices), set(t_indices)
    if h_set & t_set or h_set | t_set != set(range(table.dim)):
        raise BadPartition("h and t indices must partition the basis")
    for i, j, k, _ in table.nonzero():
        if k in h_set and (i in t_set or j in t_set):
            return False
        if k in t_set and i in h_set and j in h_set:
            return False
    return True
