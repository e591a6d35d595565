"""Lagrangian subalgebras of the double and the coisotropy hierarchy.

Given a subalgebra h ⊂ g with complement {T_α} and a matrix π^{αβ}, the
candidate Lagrangian subspace of D(g) is

    l = h ⊕ span{ X^α = t^α + π^{αβ} T_β },

where {t^α} are the duals of the complement in the adapted basis (h, T).
Write T(α) = n_h + α for the adapted index of T_α, and C', f' for the
structure constants and cocommutator in the adapted basis, where the double
has [x^a, X_b] = C'_bk^a x^k − f'_b^{ak} X_k.  Every bracket of l's basis
{H_i, X^α} is then fixed in closed form, and :func:`classify` reads the
verdicts and the induced bracket table from (C', f', π) alone, in one pass:

* l is Lagrangian iff π^{αβ} + π^{βα} = 0: the pairing gives
  <X^α, X^β> = π^{αβ} + π^{βα}, and h pairs to zero with all of l.
* [H_i, H_j] = C'_ij^k H_k; its T-components C'_ij^{T(γ)} must vanish
  (h is a subalgebra).
* [X^α, H_i] has H-coordinates −f'_i^{αj} + π^{αβ} C'_{T(β)i}^j and
  X-coordinates C'_{iT(γ)}^{T(α)}; the component that must vanish is
  M^{αε}_i, for any π.
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
from typing import Sequence

from .bialgebra import LieBialgebra
from .double import DoubleAlgebra, pairing
from .errors import (
    BadPartition,
    BasisNotComplete,
    NotClosed,
    NotInFirstFactor,
    ShapeError,
    WrongDimension,
)
from .exactalg import PolyExpr, _canonical, as_poly, mul_acc
from .exactlinalg import Matrix, Vector, identity, invert, mat, nullspace, rank
from .errors import SingularMatrix
from .liealg import (
    LieAlgebra,
    _algebra_on,
    _nonzero_entries,
    bracket,
    transform_cocomm,
    transform_structure,
    zero_tensor3,
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
    """Rows A = (h, T) of the adapted basis and its exact inverse."""
    rows = [list(v) for v in spec.h_basis] + [list(v) for v in spec.complement]
    if len(rows) != n:
        raise BasisNotComplete(
            f"adapted basis has {len(rows)} vectors for dimension {n}"
        )
    try:
        a_inv = invert(rows)
    except SingularMatrix:
        raise BasisNotComplete("h-basis plus complement do not span g") from None
    return rows, a_inv


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
    a_inv = _adapted(spec, n)[1]
    vectors = [list(v) + [PolyExpr.zero()] * n for v in spec.h_basis]
    for a in range(spec.n_t):
        primal = [PolyExpr.zero()] * n
        for b in range(spec.n_t):
            coef = spec.pi[a][b]
            if coef.is_zero:
                continue
            for j in range(n):
                primal[j] = primal[j] + coef * spec.complement[b][j]
        dual = [a_inv[j][spec.n_h + a] for j in range(n)]
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


@dataclass
class ClosureReport:
    lagrangian: bool
    subalgebra: bool
    coisotropic: bool
    poisson_subgroup: bool
    m_gamma: list = field(repr=False)  # M^{αβ}_γ, indexed [α][β][γ]
    m_i: list = field(repr=False)      # M^{αβ}_i, indexed [α][β][i]
    violations: list = field(default_factory=list)
    # the induced bracket table, or None when l is not a subalgebra
    table: LieAlgebra | None = field(default=None, repr=False, compare=False)
    # nonzero Q^{αβε} of [X^α, X^β] (module doc), keyed (α, β, ε) with α < β
    xx_residual: dict = field(default_factory=dict, repr=False, compare=False)

    def to_json(self) -> dict:
        def tensor_entries(t, tag):
            return [
                {"index": [a, b, c], "value": str(val), "tensor": tag}
                for a, b, c, val in _nonzero_entries(t)
            ]

        return {
            "lagrangian": self.lagrangian,
            "subalgebra": self.subalgebra,
            "coisotropic": self.coisotropic,
            "poisson_subgroup": self.poisson_subgroup,
            "m_gamma_nonzero": tensor_entries(self.m_gamma, "M^{ab}_g"),
            "m_i_nonzero": tensor_entries(self.m_i, "M^{ab}_i"),
            "violations": list(self.violations),
        }


def _twisted(c, f, left, right, n_h: int):
    """[α][β][k] ↦ f_k^{T(α)T(β)} + Σ v C_{k T(δ)}^{T(α)} over (δ, β, v) in
    ``left`` + Σ v C_{k T(δ)}^{T(β)} over (α, δ, v) in ``right``, for every
    adapted index k, in the adapted basis (module doc)."""
    n = len(c)
    n_t = n - n_h
    acc = [
        [[dict(f[k][n_h + a][n_h + b].terms) for k in range(n)] for b in range(n_t)]
        for a in range(n_t)
    ]
    for d, b, v in left:
        for a in range(n_t):
            row = acc[a][b]
            for k in range(n):
                x = c[k][n_h + d][n_h + a]
                if x.terms:
                    mul_acc(row[k], v, x)
    for a, d, v in right:
        for b in range(n_t):
            row = acc[a][b]
            for k in range(n):
                x = c[k][n_h + d][n_h + b]
                if x.terms:
                    mul_acc(row[k], v, x)
    return [[[_canonical(t) for t in row] for row in plane] for plane in acc]


@dataclass
class _AdaptedPass:
    """Everything :func:`classify` and :func:`lagrangian_bracket_table` read
    from (C', f', π), computed once (module doc)."""

    c: list             # C' in the adapted basis
    f: list             # f' in the adapted basis
    lagrangian: bool    # π antisymmetric
    m: list             # M^{αβ}_k, indexed [α][β][k] by adapted index k
    brackets: dict      # (i, j) ↦ coordinates of [l_i, l_j] in l, for i < j
    failing: list       # pairs (i, j), i < j, whose bracket leaves l, in order
    xx_residual: dict   # nonzero Q^{αβε}, keyed (α, β, ε) with α < β


def _adapted_pass(B: LieBialgebra, spec: LagrangianSpec) -> _AdaptedPass:
    """The brackets of l's basis {H_i, X^α} from the adapted-basis tensors,
    with the components that must vanish for each to lie in l."""
    n = B.dim
    a_rows, a_inv = _adapted(spec, n)
    c = transform_structure(B.algebra.c, a_rows, a_inv)
    f = transform_cocomm(B.cocomm.f, a_rows, a_inv)
    n_h, n_t = spec.n_h, spec.n_t
    pi = spec.pi
    pi_nz = [
        (a, b, pi[a][b]) for a in range(n_t) for b in range(n_t) if pi[a][b].terms
    ]
    pi_rows = [[(b, v) for a2, b, v in pi_nz if a2 == a] for a in range(n_t)]
    lagrangian = all(
        (pi[a][b] + pi[b][a]).is_zero for a in range(n_t) for b in range(a, n_t)
    )
    m = _twisted(c, f, pi_nz, pi_nz, n_h)
    if lagrangian:
        r = m
    else:  # the x-components of [X^α, X^β] differ from M (module doc)
        r = _twisted(c, f, [(d, b, -v) for b, d, v in pi_nz], pi_nz, n_h)

    brackets, failing, residual = {}, [], {}
    for i in range(n_h):
        for j in range(i + 1, n_h):  # [H_i, H_j]
            brackets[(i, j)] = c[i][j][:n_h] + [PolyExpr.zero()] * n_t
            if any(c[i][j][n_h + g].terms for g in range(n_t)):
                failing.append((i, j))
        for a in range(n_t):  # [H_i, X^α] = −[X^α, H_i]
            h_part = [dict(f[i][n_h + a][j].terms) for j in range(n_h)]
            for b, v in pi_rows[a]:
                for j in range(n_h):
                    x = c[i][n_h + b][j]
                    if x.terms:
                        mul_acc(h_part[j], v, x)
            brackets[(i, n_h + a)] = [_canonical(t) for t in h_part] + [
                -c[i][n_h + g][n_h + a] for g in range(n_t)
            ]
            if any(c[i][j][n_h + a].terms for j in range(n_h)) or any(
                m[a][e][i].terms for e in range(n_t)
            ):
                failing.append((i, n_h + a))
    for a in range(n_t):
        for b in range(a + 1, n_t):  # [X^α, X^β]
            acc = [{} for _ in range(n)]
            for d, v in pi_rows[b]:
                for k in range(n):
                    x = f[n_h + d][n_h + a][k]
                    if x.terms:
                        mul_acc(acc[k], v, x, negate=True)
            for g, v in pi_rows[a]:
                for k in range(n):
                    x = f[n_h + g][n_h + b][k]
                    if x.terms:
                        mul_acc(acc[k], v, x)
                for d, w in pi_rows[b]:
                    vw = v * w
                    for k in range(n):
                        x = c[n_h + g][n_h + d][k]
                        if x.terms:
                            mul_acc(acc[k], vw, x)
            x_coords = r[a][b][n_h:]
            for g, e, v in pi_nz:
                if x_coords[g].terms:
                    mul_acc(acc[n_h + e], x_coords[g], v, negate=True)
            for e in range(n_t):
                if acc[n_h + e]:
                    residual[(a, b, e)] = _canonical(acc[n_h + e])
            brackets[(n_h + a, n_h + b)] = [
                _canonical(t) for t in acc[:n_h]
            ] + x_coords
            if any(r[a][b][j].terms for j in range(n_h)) or any(
                (a, b, e) in residual for e in range(n_t)
            ):
                failing.append((n_h + a, n_h + b))
    failing.sort()
    return _AdaptedPass(c, f, lagrangian, m, brackets, failing, residual)


def _table(B: LieBialgebra, spec: LagrangianSpec, brackets: dict) -> LieAlgebra:
    """The induced Lie algebra on l's basis, labelled by :func:`_labels`."""
    c = zero_tensor3(B.dim)
    for (i, j), row in brackets.items():
        c[i][j] = row
        c[j][i] = [-x for x in row]
    return _algebra_on(_labels(B, spec), c)


def classify(
    D: DoubleAlgebra, B: LieBialgebra, spec: LagrangianSpec
) -> ClosureReport:
    """Evaluate the Lagrangian / subalgebra / coisotropy / Poisson-subgroup
    conditions for l built from (h, complement, π), and the induced bracket
    table when l is a subalgebra, in one pass over the adapted-basis
    tensors (module doc)."""
    n = D.n
    if B.dim != n:
        raise ShapeError("bialgebra does not match the double")
    p = _adapted_pass(B, spec)
    c_ad, f_ad = p.c, p.f
    n_h, n_t = spec.n_h, spec.n_t

    lagr = p.lagrangian
    subalg = not p.failing
    violations = []
    if not lagr:
        violations.append("pairing does not vanish on l (pi not antisymmetric?)")
    if not subalg:
        violations.append("[l, l] is not contained in l")

    pi_zero = not any(v.terms for row in spec.pi for v in row)
    for i in range(n_h):
        for j in range(n_h):
            for al in range(n_t):
                if not c_ad[i][j][n_h + al].is_zero:
                    violations.append(
                        f"h is not a subalgebra: C[{i}][{j}] has T-component {al}"
                    )

    # cocommutator blocks on h, adapted basis: δ(H_i) = f_i^{jk} H_j∧H_k
    # + f_i^{jβ} H_j∧T_β + f_i^{βγ} T_β∧T_γ
    mixed_zero = True
    tt_zero = True
    for i in range(n_h):
        for j in range(n_h):
            for b in range(n_t):
                if not f_ad[i][j][n_h + b].is_zero:
                    mixed_zero = False
                    violations.append(
                        f"delta(H_{i}) has H_{j}^T_{b} mixed component"
                    )
        for a in range(n_t):
            for b in range(n_t):
                if not f_ad[i][n_h + a][n_h + b].is_zero:
                    tt_zero = False
                    violations.append(
                        f"delta(H_{i}) has T_{a}^T_{b} component"
                    )

    m_gamma = [[row[n_h:] for row in plane] for plane in p.m]
    m_i = [[row[:n_h] for row in plane] for plane in p.m]
    for a in range(n_t):
        for b in range(n_t):
            for i in range(n_h):
                if not m_i[a][b][i].is_zero:
                    violations.append(f"M^({a},{b})_{i} != 0")

    coisotropic = lagr and subalg and pi_zero
    poisson_subgroup = coisotropic and mixed_zero and tt_zero
    return ClosureReport(
        lagrangian=lagr,
        subalgebra=subalg,
        coisotropic=coisotropic,
        poisson_subgroup=poisson_subgroup,
        m_gamma=m_gamma,
        m_i=m_i,
        violations=violations,
        table=_table(B, spec, p.brackets) if subalg else None,
        xx_residual=p.xx_residual,
    )


def _unit_vector_label(vec: Vector, labels: Sequence[str]) -> str | None:
    hits = [
        (j, coef)
        for j, coef in enumerate(vec)
        if not as_poly(coef).is_zero
    ]
    if len(hits) == 1 and as_poly(hits[0][1]) == 1:
        return labels[hits[0][0]]
    return None


def _labels(B: LieBialgebra, spec: LagrangianSpec) -> list:
    """Labels of l's basis: a basis label for a unit H_i, else H<i>; the
    dual label of a unit T_α, else t<α>."""
    g_labels = B.algebra.labels
    labels = []
    for i, v in enumerate(spec.h_basis):
        labels.append(_unit_vector_label(v, g_labels) or f"H{i}")
    for a, v in enumerate(spec.complement):
        base = _unit_vector_label(v, g_labels)
        if base is not None:
            labels.append(B.dual_labels[g_labels.index(base)])
        else:
            labels.append(f"t{a}")
    return labels


def lagrangian_bracket_table(D: DoubleAlgebra, spec: LagrangianSpec) -> LieAlgebra:
    """Induced Lie algebra on the basis {H_i} ∪ {t^α + π^{αβ} T_β}, from the
    same adapted pass as :func:`classify`.

    Raises :class:`NotClosed`, naming the first bracket that leaves l, if l
    is not a subalgebra of the double.
    """
    B = D.source
    p = _adapted_pass(B, spec)
    if p.failing:
        labels = _labels(B, spec)
        i, j = p.failing[0]
        raise NotClosed(f"[{labels[i]}, {labels[j]}] does not lie in the subspace")
    return _table(B, spec, p.brackets)


def is_semidirect(
    table: LieAlgebra, h_indices: Sequence[int], t_indices: Sequence[int]
) -> bool:
    """[t,t] ⊆ t, [h,h] ⊆ h and [t,h] ⊆ t on a bracket table."""
    h_set, t_set = set(h_indices), set(t_indices)
    if h_set & t_set or h_set | t_set != set(range(table.dim)):
        raise BadPartition("h and t indices must partition the basis")
    for i, j, k, _ in table.nonzero():
        if i in t_set and j in t_set and k in h_set:
            return False
        if i in h_set and j in h_set and k in t_set:
            return False
        if i in t_set and j in h_set and k in h_set:
            return False
    return True
