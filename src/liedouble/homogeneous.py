"""Lagrangian subalgebras of the double and the coisotropy hierarchy.

Given a subalgebra h ⊂ g with complement {T_α} and an antisymmetric matrix
π^{αβ}, the candidate Lagrangian subspace of D(g) is

    l = h ⊕ span{ t^α + π^{αβ} T_β },

where {t^α} are the duals of the complement in the adapted basis.  This
module builds l, decides Lagrangian / subalgebra / coisotropic /
Poisson-subgroup, extracts the induced bracket table, and reports the
first-order compatibility tensors

    M^{αβ}_γ = f^{αβ}_γ + π^{δβ} C_{γδ}^α + π^{αδ} C_{γδ}^β
    M^{αβ}_i = f_i^{αβ} + π^{δβ} C_{iδ}^α + π^{αδ} C_{iδ}^β   (must vanish),

i.e. the π-twisted cocommutator f + (ad ⊗ 1 + 1 ⊗ ad)π in the adapted
basis, antisymmetric in (α, β).

Membership in l is read from a dual frame.  With m = span{T_α}, the
complementary Lagrangian m ⊕ m^⊥ of the double has the basis

    φ_i = (0, column i of A⁻¹)  for i < n_h,      φ_{n_h+α} = (T_α, 0),

where A is the adapted basis (h, T) as rows.  Since A A⁻¹ = 1, the pairing
gives ⟨l_j, φ_k⟩ = δ_jk exactly, whatever π is.  So the vectors of l are
independent, and the coordinates of any w in l are c_k = ⟨w, φ_k⟩; w lies
in l iff Σ c_k l_k == w.  :func:`lagrangian_from_pi` keeps this frame on
the :class:`Subspace` it returns.  A subspace built any other way has no
frame, and its rank and membership tests run Bareiss elimination.

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
from .exactalg import PolyExpr, as_poly, mul_acc
from .exactlinalg import Matrix, Vector, invert, mat, nullspace, rank
from .errors import SingularMatrix
from .liealg import (
    LieAlgebra,
    _algebra_on,
    _nonzero_entries,
    bracket,
    transform_cocomm,
    transform_structure,
)


@dataclass
class Subspace:
    ambient_dim: int
    vectors: list  # list of coefficient vectors (PolyExpr)
    # dual frame φ_k with <vectors[j], φ_k> = δ_jk, when known (module doc)
    _frame: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vectors = [
            [as_poly(x) for x in v] for v in self.vectors
        ]
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ShapeError("subspace vector has wrong length")

    @property
    def n_vectors(self) -> int:
        return len(self.vectors)

    def rank(self) -> int:
        if self._frame is not None:
            return len(self.vectors)  # the frame proves independence
        return rank(self.vectors)


def subspace_in_g(D: DoubleAlgebra, vectors: Sequence[Vector]) -> Subspace:
    """Embed vectors given in g-coordinates (length n) into the double."""
    out = []
    for v in vectors:
        v = [as_poly(x) for x in v]
        if len(v) != D.n:
            raise ShapeError("expected vectors of the primal factor")
        out.append(v + [PolyExpr.zero()] * D.n)
    return Subspace(D.dim, out)


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


def spec_with_zero_pi(h_basis, complement) -> LagrangianSpec:
    m = len(complement)
    zero = PolyExpr.zero()
    return LagrangianSpec(h_basis, complement, [[zero] * m for _ in range(m)])


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
        basis = [[PolyExpr.one() if j == i else PolyExpr.zero() for j in range(n)]
                 for i in range(n)]
    else:
        basis = nullspace(primal_rows)
    out = [[PolyExpr.zero()] * n + list(alpha) for alpha in basis]
    return Subspace(2 * n, out)


def lagrangian_from_pi(D: DoubleAlgebra, spec: LagrangianSpec) -> Subspace:
    """l = h ⊕ span{ t^α + π^{αβ} T_β } inside the double."""
    return _lagrangian(D, spec, _adapted(spec, D.n)[1])


def _lagrangian(D: DoubleAlgebra, spec: LagrangianSpec, a_inv: Matrix) -> Subspace:
    """:func:`lagrangian_from_pi` given the inverse of the adapted basis."""
    n = D.n
    vectors = [list(v) + [PolyExpr.zero()] * n for v in spec.h_basis]
    n_h = spec.n_h
    for a in range(spec.n_t):
        primal = [PolyExpr.zero()] * n
        for b in range(spec.n_t):
            coef = spec.pi[a][b]
            if coef.is_zero:
                continue
            for j in range(n):
                primal[j] = primal[j] + coef * spec.complement[b][j]
        dual = [a_inv[j][n_h + a] for j in range(n)]
        vectors.append(primal + dual)
    l = Subspace(2 * n, vectors)
    zero = [PolyExpr.zero()] * n
    l._frame = [zero + [a_inv[j][i] for j in range(n)] for i in range(n_h)] + [
        list(t) + zero for t in spec.complement
    ]
    return l


def _coordinates(D: DoubleAlgebra, l: Subspace, w: Vector) -> Vector | None:
    """Coordinates c with Σ c_k l_k == w, read from the frame of l, or None
    if w is not in l."""
    coords = [pairing(D, w, phi) for phi in l._frame]
    acc = [{} for _ in range(l.ambient_dim)]
    for c, v in zip(coords, l.vectors):
        if c.is_zero:
            continue
        for terms, x in zip(acc, v):
            if not x.is_zero:
                mul_acc(terms, c, x)
    if any(terms != x.terms for terms, x in zip(acc, w)):
        return None
    return coords


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
    """True iff [l, l] ⊆ l (generic parameters): read from the frame of l
    when it has one, else an exact rank test per bracket."""
    base = l.rank()
    for i, u in enumerate(l.vectors):
        for v in l.vectors[i + 1 :]:
            w = bracket(D.algebra, u, v)
            if l._frame is not None:
                if _coordinates(D, l, w) is None:
                    return False
            elif rank(l.vectors + [w]) != base:
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


def classify(
    D: DoubleAlgebra, B: LieBialgebra, spec: LagrangianSpec
) -> ClosureReport:
    """Evaluate the Lagrangian / subalgebra / coisotropy / Poisson-subgroup
    conditions for l built from (h, complement, π)."""
    n = D.n
    if B.dim != n:
        raise ShapeError("bialgebra does not match the double")
    a_rows, a_inv = _adapted(spec, n)
    c_ad = transform_structure(B.algebra.c, a_rows, a_inv)
    f_ad = transform_cocomm(B.cocomm.f, a_rows, a_inv)
    n_h, n_t = spec.n_h, spec.n_t

    l = _lagrangian(D, spec, a_inv)
    lagr = is_lagrangian(D, l)
    subalg = is_subalgebra(D, l)
    violations = []
    if not lagr:
        violations.append("pairing does not vanish on l (pi not antisymmetric?)")
    if not subalg:
        violations.append("[l, l] is not contained in l")

    pi_zero = all(
        spec.pi[a][b].is_zero for a in range(n_t) for b in range(n_t)
    )
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

    zero = PolyExpr.zero()
    m_gamma = [
        [[zero for _ in range(n_t)] for _ in range(n_t)] for _ in range(n_t)
    ]
    m_i = [[[zero for _ in range(n_h)] for _ in range(n_t)] for _ in range(n_t)]
    for a in range(n_t):
        for b in range(n_t):
            for g in range(n_t):
                val = f_ad[n_h + g][n_h + a][n_h + b]
                for d in range(n_t):
                    val = val + spec.pi[d][b] * c_ad[n_h + g][n_h + d][n_h + a]
                    val = val + spec.pi[a][d] * c_ad[n_h + g][n_h + d][n_h + b]
                m_gamma[a][b][g] = val
            for i in range(n_h):
                val = f_ad[i][n_h + a][n_h + b]
                for d in range(n_t):
                    val = val + spec.pi[d][b] * c_ad[i][n_h + d][n_h + a]
                    val = val + spec.pi[a][d] * c_ad[i][n_h + d][n_h + b]
                m_i[a][b][i] = val
                if not val.is_zero:
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


def lagrangian_bracket_table(D: DoubleAlgebra, spec: LagrangianSpec) -> LieAlgebra:
    """Induced Lie algebra on the basis {H_i} ∪ {t^α + π^{αβ} T_β}.

    Raises :class:`NotClosed` if l is not a subalgebra of the double.
    """
    n = D.n
    l = lagrangian_from_pi(D, spec)
    g_labels = D.source.algebra.labels
    dual_labels = D.source.dual_labels
    labels = []
    for i, v in enumerate(spec.h_basis):
        labels.append(_unit_vector_label(v, g_labels) or f"H{i}")
    for a, v in enumerate(spec.complement):
        base = _unit_vector_label(v, g_labels)
        if base is not None:
            labels.append(dual_labels[g_labels.index(base)])
        else:
            labels.append(f"t{a}")
    c = [[[PolyExpr.zero()] * n for _ in range(n)] for _ in range(n)]
    for i, u in enumerate(l.vectors):
        for j in range(i + 1, n):
            w = bracket(D.algebra, u, l.vectors[j])
            coords = _coordinates(D, l, w)
            if coords is None:
                raise NotClosed(
                    f"[{labels[i]}, {labels[j]}] does not lie in the subspace"
                )
            for k in range(n):
                c[i][j][k] = coords[k]
                c[j][i][k] = -coords[k]
    return _algebra_on(labels, c)


def is_semidirect(
    table: LieAlgebra, h_indices: Sequence[int], t_indices: Sequence[int]
) -> bool:
    """[t,t] ⊆ t, [h,h] ⊆ h and [t,h] ⊆ t on a bracket table."""
    h_set, t_set = set(h_indices), set(t_indices)
    if h_set & t_set or h_set | t_set != set(range(table.dim)):
        raise BadPartition("h and t indices must partition the basis")
    for i in range(table.dim):
        for j in range(table.dim):
            for k in range(table.dim):
                if table.c[i][j][k].is_zero:
                    continue
                if i in t_set and j in t_set and k in h_set:
                    return False
                if i in h_set and j in h_set and k in t_set:
                    return False
                if i in t_set and j in h_set and k in h_set:
                    return False
    return True
