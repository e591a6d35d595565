import collections
import random
import re
from itertools import combinations
from fractions import Fraction as Q

import numpy as np
import pytest
from dense import dense_c, dense_f
from hypothesis import assume, given, settings, strategies as st

from liedouble import catalog, exactlinalg, homogeneous, liealg
from liedouble.charts import CK, generator_matrix
from liedouble.double import build_double, double_of_double
from liedouble.errors import (
    BadPartition,
    BasisNotComplete,
    NotClosed,
    NotDivisible,
    NotInFirstFactor,
    SingularMatrix,
    WrongDimension,
)
from liedouble.exactalg import PolyExpr, from_int_terms
from liedouble.exactlinalg import _cleared, _int_inverse, mat, rank, solve_in_span
from liedouble.homogeneous import (
    LagrangianSpec,
    Subspace,
    _adapted,
    _labels,
    annihilator,
    classify,
    is_lagrangian,
    is_semidirect,
    is_subalgebra,
    lagrangian_bracket_table,
    lagrangian_from_pi,
)
from liedouble.liealg import _int_matrix, _int_rows, bracket
from test_charts import expm
from test_liealg import (
    dense_of_half,
    dense_of_layers,
    full_transform_cocomm,
    full_transform_structure,
    star,
)

P = PolyExpr.parse


def spec_with_zero_pi(h_basis, complement):
    """The spec of (h, complement) with π = 0."""
    m = len(complement)
    return LagrangianSpec(h_basis, complement, [[0] * m for _ in range(m)])


def subspace_in_g(D, vectors):
    """Vectors given in g-coordinates, embedded in the first factor of D."""
    return Subspace(D.dim, [list(v) + [0] * D.n for v in vectors])


def spec_for(B, h_labels, pi=None):
    """Spec with h spanned by basis labels and the remaining basis vectors,
    in basis order, as the complement."""
    L = B.algebra
    h = [L.basis_vector(lab) for lab in h_labels]
    rest = [L.basis_vector(lab) for lab in L.labels if lab not in h_labels]
    if pi is None:
        return spec_with_zero_pi(h, rest)
    return LagrangianSpec(h, rest, pi)


def table_as_dict(table):
    out = {}
    c = dense_c(table)
    for i, a in enumerate(table.labels):
        for j, b in enumerate(table.labels):
            if i >= j:
                continue
            entry = {
                table.labels[k]: c[i][j][k]
                for k in range(table.dim)
                if not c[i][j][k].is_zero
            }
            out[(a, b)] = {k: str(v) for k, v in entry.items()}
    return out


# --- annihilator -----------------------------------------------------------


def test_annihilator_of_rotation_subalgebra(sl2_hyp):
    D = build_double(sl2_hyp)
    h = subspace_in_g(D, [sl2_hyp.algebra.basis_vector("J12")])
    ann = annihilator(D, h)
    assert len(ann.vectors) == 2
    expect = {tuple(str(x) for x in v) for v in ann.vectors}
    a1 = ("0",) * 3 + ("1", "0", "0")
    a2 = ("0",) * 3 + ("0", "1", "0")
    assert expect == {a1, a2}


def test_annihilator_of_full_algebra(sl2_hyp):
    D = build_double(sl2_hyp)
    h = subspace_in_g(
        D, [sl2_hyp.algebra.basis_vector(i) for i in range(3)]
    )
    assert annihilator(D, h).vectors == []


def test_annihilator_of_null_generator(sl2_par_j):
    D = build_double(sl2_par_j)
    h = subspace_in_g(D, [sl2_par_j.algebra.basis_vector("J+")])
    ann = annihilator(D, h)
    labels = D.algebra.labels
    spanned = set()
    for v in ann.vectors:
        for i, x in enumerate(v):
            if not x.is_zero:
                spanned.add(labels[i])
    assert spanned == {"chi", "a-"}


def test_annihilator_rejects_dual_components(sl2_hyp):
    D = build_double(sl2_hyp)
    bad = Subspace(6, [[0, 0, 0, 1, 0, 0]])
    with pytest.raises(NotInFirstFactor):
        annihilator(D, bad)


# --- lagrangian_from_pi / is_lagrangian -------------------------------------


def test_zero_pi_gives_h_plus_annihilator(sl2_hyp):
    D = build_double(sl2_hyp)
    spec = spec_for(sl2_hyp, ["J12"])
    l = lagrangian_from_pi(D, spec)
    assert len(l.vectors) == 3
    flat = [tuple(str(x) for x in v) for v in l.vectors]
    assert flat[0] == ("0", "0", "1", "0", "0", "0")  # J12
    assert flat[1] == ("0", "0", "0", "1", "0", "0")  # a1
    assert flat[2] == ("0", "0", "0", "0", "1", "0")  # a2
    assert is_lagrangian(D, l)


def test_pi_block_appears_in_primal_part(sl2_hyp):
    D = build_double(sl2_hyp)
    spec = spec_for(sl2_hyp, ["J12"], pi=[[0, 1], [-1, 0]])
    l = lagrangian_from_pi(D, spec)
    # first T-vector: t^{P1} + pi^{01} T_{P2} = a1 + P2
    assert [str(x) for x in l.vectors[1]] == ["0", "1", "0", "1", "0", "0"]
    assert is_lagrangian(D, l)


def test_nonantisymmetric_pi_is_not_lagrangian(sl2_hyp):
    D = build_double(sl2_hyp)
    spec = spec_for(sl2_hyp, ["J12"], pi=[[0, 1], [0, 0]])
    l = lagrangian_from_pi(D, spec)
    assert not is_lagrangian(D, l)


@pytest.mark.parametrize("pi, named", [
    ([[0, "1/3 + eta"], ["1/2", 0]], "pairing_(a1, a2) = 5/6 + eta"),
    ([["eta", "1/3"], ["1/2*eta", 0]], "pairing_(a1, a1) = 2*eta"),  # the diagonal first
])
def test_classify_reads_lagrangian_from_pi(sl2_hyp, pi, named):
    # classify names the first α ≤ β with π^{αβ} + π^{βα} nonzero, and its
    # verdict is the pairing route's
    D = build_double(sl2_hyp)
    spec = spec_for(sl2_hyp, ["J12"], pi=pi)
    rep = classify(D, sl2_hyp, spec)
    assert rep.violations[0] == f"l is not Lagrangian: {named}"
    assert rep.lagrangian == is_lagrangian(D, lagrangian_from_pi(D, spec))


def test_pi_antisymmetry_iff_lagrangian_random(sl2_ell):
    D = build_double(sl2_ell)
    rng = random.Random(77)
    for _ in range(12):
        x = Q(rng.randint(-5, 5), rng.randint(1, 4))
        anti = [[0, x], [-x, 0]]
        spec = spec_for(sl2_ell, ["P1"], pi=anti)
        assert is_lagrangian(D, lagrangian_from_pi(D, spec))
        y = x + 1
        skewless = [[0, x], [-y, 0]]
        spec = spec_for(sl2_ell, ["P1"], pi=skewless)
        assert not is_lagrangian(D, lagrangian_from_pi(D, spec))


def test_first_factor_is_lagrangian(sl2_hyp):
    D = build_double(sl2_hyp)
    g_itself = subspace_in_g(
        D, [sl2_hyp.algebra.basis_vector(i) for i in range(3)]
    )
    assert is_lagrangian(D, g_itself)


def test_dual_pair_span_is_not_lagrangian(sl2_hyp):
    D = build_double(sl2_hyp)
    bad = Subspace(
        6,
        [
            D.algebra.basis_vector("P1"),
            D.algebra.basis_vector("a1"),
            D.algebra.basis_vector("a2"),
        ],
    )
    assert not is_lagrangian(D, bad)


def test_wrong_dimension_rejected(sl2_hyp):
    D = build_double(sl2_hyp)
    with pytest.raises(WrongDimension):
        is_lagrangian(D, Subspace(6, [D.algebra.basis_vector("P1")]))


def test_incomplete_basis_rejected(sl2_hyp):
    D = build_double(sl2_hyp)
    h = [sl2_hyp.algebra.basis_vector("J12")]
    comp = [sl2_hyp.algebra.basis_vector("J12")]  # not a complement
    with pytest.raises(BasisNotComplete):
        lagrangian_from_pi(D, LagrangianSpec(h, comp, [[0]]))


# --- is_subalgebra ----------------------------------------------------------


def test_rotation_lagrangian_is_subalgebra(sl2_hyp):
    D = build_double(sl2_hyp)
    l = lagrangian_from_pi(D, spec_for(sl2_hyp, ["J12"]))
    assert is_subalgebra(D, l)


def test_wrong_pairing_partner_is_not_subalgebra(sl2_hyp):
    D = build_double(sl2_hyp)
    jplus = [1, 1, 0, 0, 0, 0]  # P1 + P2 in double coordinates
    a1 = D.algebra.basis_vector("a1")
    got = bracket(D.algebra, jplus, a1)
    # [J+, a1] = 2η J12 + theta, which leaves span{J+, a1}
    assert [str(x) for x in got] == ["0", "0", "2*eta", "0", "0", "1"]
    assert not is_subalgebra(D, Subspace(6, [jplus, a1]))


# --- classify ---------------------------------------------------------------


def test_classify_poisson_subgroup_case(sl2_hyp):
    D = build_double(sl2_hyp)
    rep = classify(D, sl2_hyp, spec_for(sl2_hyp, ["J12"]))
    assert rep.lagrangian and rep.subalgebra
    assert rep.coisotropic and rep.poisson_subgroup
    assert rep.violations == []
    assert all(k >= 1 for _, _, k in rep.m)  # every M^{αβ}_i, n_h = 1, is zero


def test_classify_coisotropic_only_case(sl2_hyp):
    D = build_double(sl2_hyp)
    rep = classify(D, sl2_hyp, spec_for(sl2_hyp, ["P1"]))
    assert rep.coisotropic and not rep.poisson_subgroup
    assert any("mixed" in v for v in rep.violations)


def test_classify_twisted_lorentz_subalgebra(so22_twisted):
    D = build_double(so22_twisted)
    rep = classify(D, so22_twisted, spec_for(so22_twisted, ["J", "K1", "K2"]))
    assert rep.lagrangian and rep.subalgebra
    assert rep.coisotropic and not rep.poisson_subgroup


def test_classify_report_json(sl2_hyp):
    D = build_double(sl2_hyp)
    rep = classify(D, sl2_hyp, spec_for(sl2_hyp, ["P1"]))
    data = rep.to_json()
    assert data["coisotropic"] is True
    assert data["poisson_subgroup"] is False
    assert data["m_i_nonzero"] == []
    assert data["violations"]


# --- bracket tables ---------------------------------------------------------


def test_table_hyperbolic_rotation(sl2_hyp):
    D = build_double(sl2_hyp)
    table = lagrangian_bracket_table(D, spec_for(sl2_hyp, ["J12"]))
    assert table.labels == ("J12", "a1", "a2")
    assert table_as_dict(table) == {
        ("J12", "a1"): {"a2": "-1"},
        ("J12", "a2"): {"a1": "-1"},
        ("a1", "a2"): {},
    }


def test_table_elliptic_rotation(sl2_ell):
    D = build_double(sl2_ell)
    table = lagrangian_bracket_table(D, spec_for(sl2_ell, ["P1"]))
    assert table.labels == ("P1", "a2", "theta")
    assert table_as_dict(table) == {
        ("P1", "a2"): {"theta": "1"},
        ("P1", "theta"): {"a2": "-1"},
        ("a2", "theta"): {},
    }


def test_table_parabolic_null_generator(sl2_par_j):
    D = build_double(sl2_par_j)
    table = lagrangian_bracket_table(D, spec_for(sl2_par_j, ["J+"]))
    assert table.labels == ("J+", "chi", "a-")
    assert table_as_dict(table) == {
        ("J+", "chi"): {"a-": "-1"},
        ("J+", "a-"): {},
        ("chi", "a-"): {},
    }


LINEAR_TABLE = {
    ("J", "K1"): {"K2": "1"},
    ("J", "K2"): {"K1": "-1"},
    ("K1", "K2"): {"J": "-1"},
    ("p0", "p1"): {"p2": "-1"},
    ("p0", "p2"): {"p1": "1"},
    ("p1", "p2"): {"p0": "1"},
    ("J", "p0"): {},
    ("K2", "p0"): {"p2": "-1"},
    ("K1", "p0"): {"p1": "-1"},
    ("J", "p1"): {"p2": "1"},
    ("K2", "p1"): {},
    ("K1", "p1"): {"p0": "-1"},
    ("J", "p2"): {"p1": "-1"},
    ("K2", "p2"): {"p0": "-1"},
    ("K1", "p2"): {},
}


def reorder(expected):
    """Expected tables are written with the double's pair orientation
    [x, y]; normalise to the table's label order with antisymmetry."""
    return expected


def test_table_linear_six_dimensional(so22_r1):
    D = build_double(so22_r1)
    table = lagrangian_bracket_table(D, spec_for(so22_r1, ["J", "K1", "K2"]))
    assert table.labels == ("J", "K1", "K2", "p0", "p1", "p2")
    got = table_as_dict(table)
    for (a, b), entry in LINEAR_TABLE.items():
        i, j = table.labels.index(a), table.labels.index(b)
        if i < j:
            assert got[(a, b)] == entry, (a, b)
        else:
            flipped = {
                k: str(-PolyExpr.parse(v)) for k, v in entry.items()
            }
            assert got[(b, a)] == flipped, (a, b)


TWISTED_TABLE = {
    ("J", "K1"): {"K2": "1"},
    ("J", "K2"): {"K1": "-1"},
    ("K1", "K2"): {"J": "-1"},
    ("p0", "p1"): {},
    ("p0", "p2"): {"p0": "-1/2", "p1": "-1/2"},
    ("p1", "p2"): {"p0": "-1/2", "p1": "-1/2"},
    ("p0", "J"): {"K1": "1/2"},
    ("p0", "K2"): {"p2": "1", "K1": "1/2"},
    ("p0", "K1"): {"p1": "1"},
    ("p1", "J"): {"p2": "-1", "K1": "-1/2"},
    ("p1", "K2"): {"K1": "-1/2"},
    ("p1", "K1"): {"p0": "1"},
    ("p2", "J"): {"p1": "1", "J": "-1/2", "K2": "1/2"},
    ("p2", "K2"): {"p0": "1", "J": "1/2", "K2": "-1/2"},
    ("p2", "K1"): {},
}


def test_table_twisted_six_dimensional(so22_twisted):
    D = build_double(so22_twisted)
    table = lagrangian_bracket_table(
        D, spec_for(so22_twisted, ["J", "K1", "K2"])
    )
    assert table.labels == ("J", "K1", "K2", "p0", "p1", "p2")
    got = table_as_dict(table)
    for (a, b), entry in TWISTED_TABLE.items():
        i, j = table.labels.index(a), table.labels.index(b)
        if i < j:
            assert got[(a, b)] == entry, (a, b)
        else:
            flipped = {k: str(-PolyExpr.parse(v)) for k, v in entry.items()}
            assert got[(b, a)] == flipped, (a, b)
    from liedouble.liealg import is_jacobi_zero

    assert is_jacobi_zero(table)


def test_null_generator_table_in_ck_basis(sl2_hyp):
    # h = span{P1 + P2} is coisotropic for the hyperbolic structure; the
    # reduced bracket closes even though h is not spanned by a basis vector
    D = build_double(sl2_hyp)
    L = sl2_hyp.algebra
    h = [[1, 1, 0]]
    comp = [L.basis_vector("P2"), L.basis_vector("J12")]
    spec = LagrangianSpec(h, comp, [[0, 0], [0, 0]])
    rep = classify(D, sl2_hyp, spec)
    assert rep.coisotropic and not rep.poisson_subgroup
    table = lagrangian_bracket_table(D, spec)
    assert table.dim == 3


def test_table_not_closed(so22_twisted):
    # h = span{P1, K1} is not a subalgebra ([P1,K1] = -P0 leaves the span),
    # so the candidate l = h ⊕ h^perp cannot carry an induced bracket
    D = build_double(so22_twisted)
    L = so22_twisted.algebra
    h = [L.basis_vector("P1"), L.basis_vector("K1")]
    comp = [L.basis_vector(lab) for lab in ("J", "P0", "P2", "K2")]
    zero = [[0] * 4 for _ in range(4)]
    spec = LagrangianSpec(h, comp, zero)
    rep = classify(D, so22_twisted, spec)
    assert not rep.subalgebra
    with pytest.raises(NotClosed):
        lagrangian_bracket_table(D, spec)


def test_classify_tables_keep_the_entries_in_strict_index_order(so22_r1, so22_twisted):
    # bracket_table_text walks ClosureReport.table's entries once, in order
    for B in (so22_r1, so22_twisted):
        rep = classify(build_double(B), B, spec_for(B, ["J", "K1", "K2"]))
        keys = [entry[:3] for entry in rep.table.nonzero()]
        assert keys and all(p < q for p, q in zip(keys, keys[1:]))


# --- iterated double: l = a ⊕ a^⊥ -------------------------------------------


def test_double_of_double_lagrangian_is_semidirect(sl2_eta, iso11_eta):
    for B in (sl2_eta, iso11_eta):
        D2 = double_of_double(B)
        B2 = D2.source
        spec = spec_for(B2, ["X0", "X1", "X2"])
        rep = classify(D2, B2, spec)
        assert rep.lagrangian and rep.subalgebra
        assert rep.coisotropic and rep.poisson_subgroup
        table = lagrangian_bracket_table(D2, spec)
        assert table.labels == ("X0", "X1", "X2", "Y0", "Y1", "Y2")
        # [X_i, X_j] = C_ij^k X_k, [Y_i, Y_j] = C_ij^k Y_k, [Y_i, X_j] = C_ij^k Y_k
        n = 3
        t, c = dense_c(table), dense_c(B.algebra)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert t[i][j][k] == c[i][j][k]
                    assert t[n + i][n + j][n + k] == c[i][j][k]
                    assert t[n + i][j][n + k] == c[i][j][k]
                    assert t[i][j][n + k].is_zero
                    assert t[n + i][n + j][k].is_zero
                    assert t[n + i][j][k].is_zero
        assert is_semidirect(table, [0, 1, 2], [3, 4, 5])


def test_semidirect_verdicts(so22_r1, so22_twisted):
    D = build_double(so22_r1)
    table = lagrangian_bracket_table(D, spec_for(so22_r1, ["J", "K1", "K2"]))
    assert is_semidirect(table, [0, 1, 2], [3, 4, 5])
    D = build_double(so22_twisted)
    table = lagrangian_bracket_table(
        D, spec_for(so22_twisted, ["J", "K1", "K2"])
    )
    assert not is_semidirect(table, [0, 1, 2], [3, 4, 5])


def test_semidirect_abelian_and_partition_errors():
    from liedouble.liealg import new_lie_algebra

    abelian = new_lie_algebra(4, ("a", "b", "c", "d"), [])
    assert is_semidirect(abelian, [0, 1], [2, 3])
    with pytest.raises(BadPartition):
        is_semidirect(abelian, [0, 1], [1, 2, 3])
    with pytest.raises(BadPartition):
        is_semidirect(abelian, [0], [2, 3])


# One small Lie algebra per condition of is_semidirect that breaks it, as
# (h labels, t labels, [a, b] = c that breaks it, [a, b] = c that keeps it)
SEMIDIRECT_BREAKS = {
    "[t,t] in t": (("h0",), ("t0", "t1"), ("t0", "t1", "h0"), ("t0", "t1", "t0")),
    "[h,h] in h": (("h0", "h1"), ("t0",), ("h0", "h1", "t0"), ("h0", "h1", "h0")),
    "[t,h] in t": (("h0",), ("t0",), ("t0", "h0", "h0"), ("t0", "h0", "t0")),
}


@pytest.mark.parametrize("h_first", [True, False], ids=["h-then-t", "t-then-h"])
@pytest.mark.parametrize("condition", sorted(SEMIDIRECT_BREAKS))
def test_is_semidirect_fails_each_condition_in_either_index_order(condition, h_first):
    # the table stores [e_i, e_j] at i < j only, so with h before t the
    # broken [t, h] is stored as [h, t] at the negated value, and with t
    # before h the broken [t, t] or [h, h] has its indices the other way
    from liedouble.liealg import is_jacobi_zero, new_lie_algebra

    h, t, bad, good = SEMIDIRECT_BREAKS[condition]
    labels = h + t if h_first else t + h
    index = {label: i for i, label in enumerate(labels)}
    h_idx, t_idx = [index[x] for x in h], [index[x] for x in t]
    for bracket_, verdict in ((bad, False), (good, True)):
        a, b, c = (index[x] for x in bracket_)
        table = new_lie_algebra(len(labels), labels, [(a, b, c, "2/3")])
        assert is_jacobi_zero(table)
        assert is_semidirect(table, h_idx, t_idx) is verdict, (bracket_, labels)


def test_poisson_subgroup_implies_semidirect_catalog(sl2_hyp, sl2_ell, sl2_par_j):
    cases = [(sl2_hyp, ["J12"]), (sl2_ell, ["P1"]), (sl2_par_j, ["J+"])]
    for B, h_labels in cases:
        D = build_double(B)
        spec = spec_for(B, h_labels)
        rep = classify(D, B, spec)
        assert rep.poisson_subgroup
        table = lagrangian_bracket_table(D, spec)
        h_idx = [table.labels.index(lab) for lab in h_labels]
        t_idx = [i for i in range(table.dim) if i not in h_idx]
        assert is_semidirect(table, h_idx, t_idx)


def test_coisotropic_table_pattern(sl2_ell, sl2_hyp):
    # with π = 0 the reduced bracket is
    #   [t^a, t^b] = f^{ab}_g t^g,
    #   [t^a, H_i] = C^a_{i b} t^b + f_i^{j a} H_j,
    #   [H_i, H_j] = C_ij^k H_k
    for B, h_label in ((sl2_ell, "J12"), (sl2_hyp, "P1")):
        D = build_double(B)
        spec = spec_for(B, [h_label])
        rep = classify(D, B, spec)
        assert rep.coisotropic and not rep.poisson_subgroup
        t = dense_c(lagrangian_bracket_table(D, spec))
        L = B.algebra
        c, f = dense_c(L), dense_f(B.cocomm)
        hi = L.index(h_label)
        comp = [i for i in range(3) if i != hi]
        # table basis order: (H, t^0, t^1)
        for a in range(2):
            for b in range(2):
                got = t[1 + a][1 + b]
                assert got[0].is_zero  # no H component in [t,t]
                for g in range(2):
                    assert got[1 + g] == f[comp[g]][comp[a]][comp[b]]
            got = t[1 + a][0]  # [t^a, H]
            assert got[0] == f[hi][hi][comp[a]]  # f_i^{j a} with j = i = h
            for b in range(2):
                assert got[1 + b] == c[hi][comp[b]][comp[a]]  # C^a_{i b}


def _twisted_cocommutator_oracle(B, spec):
    """f + (ad ⊗ 1 + 1 ⊗ ad)π in the adapted basis (h, T), built from the
    basis-change and r-matrix routines, with π embedded on the T block."""
    from liedouble.liealg import BasisChange, change_basis, transform_cocomm
    from liedouble.rmatrix import RMatrix, cocommutator_from_r

    n, n_h = B.dim, spec.n_h
    labels = tuple(f"e{k}" for k in range(n))
    bc = BasisChange(spec.h_basis + spec.complement, labels)
    f_ad = transform_cocomm(dense_f(B.cocomm), bc.m, bc.inverse)
    r = {
        (n_h + a, n_h + b): spec.pi[a][b]
        for a in range(spec.n_t)
        for b in range(a + 1, spec.n_t)
        if spec.pi[a][b].terms
    }
    twist = dense_f(cocommutator_from_r(change_basis(B.algebra, bc), RMatrix(labels, r)))
    return [
        [[f_ad[i][j][k] + twist[i][j][k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def test_m_tensor_is_the_twisted_cocommutator():
    from liedouble import catalog

    cat = catalog.load()
    zero = PolyExpr.zero()
    n_subalgebra = 0
    for key in cat.list("bialgebra"):
        B = cat.bialgebra(key)
        if B.dim != 3:
            continue
        D = build_double(B)
        for h_label in B.algebra.labels:
            for p in ("1", "-2", "eta", "1/2*z"):
                spec = spec_for(B, [h_label], pi=[[0, P(p)], [-P(p), 0]])
                rep = classify(D, B, spec)
                full = _twisted_cocommutator_oracle(B, spec)
                m = [[[rep.m.get((a, b, k), zero) for k in range(3)] for b in range(2)]
                     for a in range(2)]  # k = 0 is H, k = 1 + γ is T_γ
                for a in range(2):
                    for b in range(2):
                        assert m[a][b] == [full[k][1 + a][1 + b] for k in range(3)], (
                            key, h_label, p
                        )
                        assert m[a][b][1:] == [-x for x in m[b][a][1:]]
                if rep.subalgebra:
                    n_subalgebra += 1
                    assert all(k >= 1 for _, _, k in rep.m), (key, h_label, p)
                    assert not any(v.startswith("M^") for v in rep.violations)
    assert n_subalgebra == 96


# --- classify against the double route ------------------------------------

CATALOG = catalog.load()
BIALGEBRAS = CATALOG.list("bialgebra")
ETA_VALUES = ["0", "1", "-1", "1/2", "eta", "-eta", "2*eta", "eta + 1"]


def unit_complement(B, h):
    """Unit vectors, in basis order, that complete h to a basis of g."""
    out = []
    for i in range(B.dim):
        e = B.algebra.basis_vector(i)
        if rank(h + out + [e]) > len(h) + len(out):
            out.append(e)
    return out


def check_against_double(B, h, pi, complement=None):
    """classify's verdicts and table, and lagrangian_bracket_table, against
    l built in the double: the pairing, and each bracket of l's basis solved
    in its span by elimination.  The complement defaults to the unit
    vectors that complete h."""
    D = build_double(B)
    h = mat(h)
    if complement is None:
        complement = unit_complement(B, h)
    spec = LagrangianSpec(h, complement, mat(pi))
    rep = classify(D, B, spec)
    l = lagrangian_from_pi(D, spec)
    assert rank(l.vectors) == B.dim
    assert rep.lagrangian == is_lagrangian(D, l)
    coords = {}
    for i in range(B.dim):
        for j in range(i + 1, B.dim):
            w = bracket(D.algebra, l.vectors[i], l.vectors[j])
            coords[(i, j)] = solve_in_span(l.vectors, w)
    closed = all(c is not None for c in coords.values())
    assert rep.subalgebra == closed == is_subalgebra(D, l)
    if not closed:
        assert rep.table is None
        i, j = min(key for key, c in coords.items() if c is None)
        labels = _labels(B, spec)
        with pytest.raises(NotClosed) as err:
            lagrangian_bracket_table(D, spec)
        assert str(err.value) == f"[{labels[i]}, {labels[j]}] does not lie in the subspace"
        return rep
    assert rep.table == lagrangian_bracket_table(D, spec)
    assert not rep.xx_residual
    table = dense_c(rep.table)
    for (i, j), c in coords.items():
        assert table[i][j] == c
        assert table[j][i] == [-x for x in c]
    return rep


@st.composite
def frame_cases(draw):
    """A catalog bialgebra; h dense, or spanned by recombined basis vectors
    (sometimes a subalgebra), of any dimension from 0 to n; π antisymmetric
    or not, with constant and eta entries."""
    # the 6-dim so(2,2) bialgebras are drawn more often: they carry the sweep
    so22 = st.sampled_from(["so22-r1", "so22-twisted"])
    B = CATALOG.bialgebra(draw(st.one_of(st.sampled_from(BIALGEBRAS), so22)))
    n = B.dim
    n_h = draw(st.integers(0, n))
    ints = st.integers(-2, 2)
    mix = draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n_h, max_size=n_h))
    if draw(st.booleans()):
        h = mix
    else:
        support = draw(st.permutations(range(n)))[:n_h]
        h = [[row[support.index(j)] if j in support else 0 for j in range(n)]
             for row in mix]
    assume(rank(mat(h)) == n_h)
    m = n - n_h
    values = st.sampled_from(ETA_VALUES)
    pi = mat(draw(st.lists(st.lists(values, min_size=m, max_size=m),
                           min_size=m, max_size=m)))
    if draw(st.booleans()):
        pi = [[pi[a][b] if a < b else -pi[b][a] if a > b else PolyExpr.zero()
               for b in range(m)] for a in range(m)]
    return B, h, pi


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(frame_cases())
def test_classify_matches_double_route(case):
    check_against_double(*case)


SO22_LABEL_SUBALGEBRAS = [
    ("J", "K1", "K2"), ("J", "P1", "P2"), ("P0", "P1", "K1"), ("P0", "P2", "K2"),
]
PARAMETRIC_ENTRIES = ["0", "1", "-1", "eta", "-eta", "eta^-1"]


@st.composite
def parametric_so22_specs(draw):
    """so22-r1 or so22-twisted, h with rows over 0, ±1, ±eta and eta^-1, the
    unit vectors off three pivot columns as the complement, and π zero or
    antisymmetric.  On the pivot columns h is triangular with a nonzero
    diagonal, so det A is one term and A⁻¹ is a Laurent matrix; M and W then
    have several monomial layers.  Half the time h is confined to the pivot
    columns, and when those are a label subalgebra's, h spans it."""
    B = CATALOG.bialgebra(draw(st.sampled_from(["so22-r1", "so22-twisted"])))
    L = B.algebra
    n = B.dim
    pivots = draw(st.one_of(
        st.sampled_from(SO22_LABEL_SUBALGEBRAS).map(lambda labels: [L.index(x) for x in labels]),
        st.permutations(range(n)).map(lambda cols: cols[:3]),
    ))
    confined = draw(st.booleans())
    entry = st.sampled_from(PARAMETRIC_ENTRIES)
    h = []
    for r, p in enumerate(pivots):
        row = []
        for col in range(n):
            if col == p:
                row.append(draw(entry.filter(lambda x: x != "0")))
            elif col in pivots[:r] or (confined and col not in pivots):
                row.append("0")
            else:
                row.append(draw(entry))
        h.append(row)
    h = mat([h[r] for r in draw(st.permutations(range(3)))])
    complement = [L.basis_vector(i) for i in range(n) if i not in pivots]
    pi = [[0] * 3 for _ in range(3)]
    if draw(st.booleans()):
        for a, b in combinations(range(3), 2):
            pi[a][b] = draw(st.sampled_from(ETA_VALUES))
            pi[b][a] = -P(pi[a][b])
    return B, h, complement, mat(pi)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(parametric_so22_specs())
def test_adapted_pass_on_parametric_bases(case):
    """C' and f' of the adapted pass equal the full-plane contraction, and
    classify's verdicts and table the reference route, on adapted bases
    whose M and W have several monomial layers and Laurent entries."""
    B, h, complement, pi = case
    a = h + complement
    w = exactlinalg.invert(a)
    p = homogeneous._adapted_pass(B, LagrangianSpec(h, complement, pi))
    c_full = full_transform_structure(dense_c(B.algebra), a, w)
    assert dense_of_half(p.c_int, (0, 1), B.dim) == c_full
    f_full = full_transform_cocomm(dense_f(B.cocomm), a, w)
    assert dense_of_half(p.f_int, (0, 1), B.dim) == star(f_full)  # keyed (b, c, i)
    check_against_double(B, h, pi, complement)


@pytest.mark.parametrize("key", BIALGEBRAS)
def test_frame_at_the_boundary_dimensions(key):
    # the adapted frame (h, complement) at n_h = 0, where l is the graph of
    # a dense, non-antisymmetric π over the dual factor, and at n_h = n,
    # where l is g itself
    B = CATALOG.bialgebra(key)
    n = B.dim
    rng = random.Random(7)
    pi = [[rng.choice(ETA_VALUES) for _ in range(n)] for _ in range(n)]
    full = [[int(i == j) + (i < j) for j in range(n)] for i in range(n)]
    check_against_double(B, [], pi)
    anti = [[pi[a][b] if a < b else P(pi[b][a]) * -1 if a > b else 0
             for b in range(n)] for a in range(n)]
    check_against_double(B, [], anti)
    rep = check_against_double(B, full, [])
    assert rep.lagrangian and rep.subalgebra


def test_pi_tables_match_double_route():
    # every 3-dim catalog bialgebra, h one basis vector, π antisymmetric or
    # one diagonal entry (l closes but is not Lagrangian)
    closed = collections.Counter()
    for key in BIALGEBRAS:
        B = CATALOG.bialgebra(key)
        if B.dim != 3:
            continue
        for label in B.algebra.labels:
            h = [B.algebra.basis_vector(label)]
            for p in ("1", "eta"):
                for pi in ([[0, p], [P(p) * -1, 0]], [[p, 0], [0, 0]]):
                    rep = check_against_double(B, h, pi)
                    closed[rep.lagrangian] += rep.subalgebra
    assert closed == {True: 48, False: 14}


def test_xx_residual_vanishes_at_zero_pi():
    for key in BIALGEBRAS:
        B = CATALOG.bialgebra(key)
        D = build_double(B)
        for i in range(B.dim):
            h = [B.algebra.basis_vector(i)]
            rep = classify(D, B, spec_with_zero_pi(h, unit_complement(B, h)))
            assert rep.xx_residual == {}, (key, i)
        rep = classify(D, B, spec_for(B, []))  # l is the dual factor
        assert rep.subalgebra and rep.xx_residual == {}


def test_quadratic_residual_alone_breaks_closure(so22_twisted):
    # h = span{K1} with π^{J,K2} = -1 and π^{P0,P1} = eta: every M^{αβ}_i
    # vanishes, so only the quadratic [X, X] condition fails; found by
    # searching specs with check_against_double
    B = so22_twisted
    pi = [[PolyExpr.zero()] * 5 for _ in range(5)]
    pi[0][4], pi[4][0] = P("-1"), P("1")
    pi[1][2], pi[2][1] = P("eta"), P("-eta")
    rep = check_against_double(B, [B.algebra.basis_vector("K1")], pi)
    assert rep.lagrangian and not rep.subalgebra
    assert all(k >= 1 for _, _, k in rep.m)  # n_h = 1
    assert not any(v.startswith("h is not") for v in rep.violations)
    assert rep.xx_residual == {
        (0, 2, 3): P("eta"), (0, 3, 2): P("-eta"), (0, 3, 4): P("-1"),
        (0, 4, 3): P("1"), (1, 2, 3): P("-eta"), (1, 3, 2): P("eta"),
        (1, 3, 4): P("eta"), (1, 4, 3): P("-eta"), (2, 3, 0): P("eta"),
        (2, 3, 1): P("-eta"), (3, 4, 0): P("-1"), (3, 4, 1): P("eta"),
    }


# --- the integer pass against the module formulas --------------------------


def formula_oracle(B, spec):
    """M^{αβ}_k, R^{αβ}_k and Q^{αβε} of the module doc, summed over PolyExpr
    from the dense adapted-basis tensors of the public transforms."""
    from liedouble.exactlinalg import invert
    from liedouble.liealg import transform_cocomm, transform_structure

    n, n_h, n_t = B.dim, spec.n_h, spec.n_t
    rows = spec.h_basis + spec.complement
    w = invert(rows)
    c = transform_structure(dense_c(B.algebra), rows, w)
    f = transform_cocomm(dense_f(B.cocomm), rows, w)
    pi = spec.pi

    def total(terms):
        return sum(terms, PolyExpr.zero())

    ts = range(n_t)
    m, r, q = {}, {}, {}
    for a in ts:
        for b in ts:
            for k in range(n):
                m[a, b, k] = f[k][n_h + a][n_h + b] + total(
                    pi[d][b] * c[k][n_h + d][n_h + a] + pi[a][d] * c[k][n_h + d][n_h + b]
                    for d in ts
                )
                r[a, b, k] = f[k][n_h + a][n_h + b] + total(
                    pi[b][d] * c[n_h + d][k][n_h + a] - pi[a][d] * c[n_h + d][k][n_h + b]
                    for d in ts
                )
    for a in ts:
        for b in ts:
            for e in ts:
                h_part = total(
                    -pi[b][d] * f[n_h + d][n_h + a][n_h + e]
                    + pi[a][d] * f[n_h + d][n_h + b][n_h + e]
                    + total(pi[a][g] * pi[b][d] * c[n_h + g][n_h + d][n_h + e] for g in ts)
                    for d in ts
                )
                q[a, b, e] = h_part - total(r[a, b, n_h + g] * pi[g][e] for g in ts)
    return m, r, q


def check_against_formulas(B, h, pi):
    """classify's M, xx_residual and the failing component of each
    [X^α, X^β] against :func:`formula_oracle`, and its verdicts and table
    against the double route."""
    rep = check_against_double(B, h, pi)
    h = mat(h)
    spec = LagrangianSpec(h, unit_complement(B, h), mat(pi))
    m, r, q = formula_oracle(B, spec)
    n_h, n_t = spec.n_h, spec.n_t
    assert rep.m == {key: v for key, v in m.items() if v.terms}
    assert rep.xx_residual == {
        (a, b, e): v for (a, b, e), v in q.items() if a < b and v.terms
    }
    table = dense_c(rep.table) if rep.table is not None else None
    for a in range(n_t):
        for b in range(a + 1, n_t):
            pair = (n_h + a, n_h + b)
            components = [("R", (j,), pair, r[a, b, j]) for j in range(n_h)]
            components += [("Q", (), (*pair, n_h + e), q[a, b, e]) for e in range(n_t)]
            first = next((comp for comp in components if comp[3].terms), None)
            assert rep.failing.get(pair) == first, pair
            if table is not None:
                assert table[pair[0]][pair[1]][n_h:] == [
                    r[a, b, n_h + g] for g in range(n_t)
                ]
    return rep


FRACTIONAL_PI = ["1/2", "-2/3*eta", "3/4", "1/3*eta - 1/2"]


def fractional_pi(m: int, antisymmetric: bool) -> list:
    """An m×m π over FRACTIONAL_PI, so its denominators do not clear at 1;
    antisymmetric, or with a nonzero diagonal and (0, 1) entry not the
    negative of the (1, 0) one."""
    entries = iter(FRACTIONAL_PI * m * m)
    pi = [[PolyExpr.zero()] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            pi[a][b] = P(next(entries))
            pi[b][a] = -pi[a][b]
    if not antisymmetric:
        pi[m - 1][m - 1] = P(next(entries))
        if m > 1:
            pi[1][0] = pi[1][0] + P("1/5")
    return pi


def pi_cases(B):
    """h, in basis order, of one basis vector for the 3-dim bialgebras, and
    the basis-label subalgebras and a dense h for so(2,2)."""
    if B.dim == 3:
        return [[B.algebra.basis_vector(i)] for i in range(3)]
    return [[B.algebra.basis_vector(lab) for lab in labels]
            for labels in SO22_SUBALGEBRAS] + [mat(SO22_DENSE_H[0])]


def test_integer_pass_at_fractional_pi_matches_the_double_route():
    # π with denominators 2, 3 and 4 and eta entries, so the pass's scale
    # d_π is 12 and s2 = s1·d_π differs from s1
    from liedouble.exactalg import to_int_terms

    closed = collections.Counter()
    for key in BIALGEBRAS:
        B = CATALOG.bialgebra(key)
        for h in pi_cases(B):
            pi = fractional_pi(B.dim - len(h), antisymmetric=True)
            assert to_int_terms(x for row in pi for x in row)[0] > 1
            rep = check_against_formulas(B, h, pi)
            assert rep.lagrangian
            closed[B.dim] += rep.subalgebra
    assert closed == {3: 24, 6: 0}


def test_non_antisymmetric_pi_reads_r_apart_from_m():
    # the x-components R of [X^α, X^β] differ from M when π is not
    # antisymmetric; the pass then sums them apart
    differ = 0
    for key in BIALGEBRAS:
        B = CATALOG.bialgebra(key)
        for h in pi_cases(B):
            pi = fractional_pi(B.dim - len(h), antisymmetric=False)
            rep = check_against_formulas(B, h, pi)
            assert not rep.lagrangian
            m, r, _ = formula_oracle(B, LagrangianSpec(
                mat(h), unit_complement(B, mat(h)), pi))
            differ += any(m[key] != r[key] for key in m if key[0] < key[1])
    assert differ == 32


def test_so22_twisted_pass_at_cocommutator_scale_two():
    # so22-twisted has d_f = 2 and d_C = 1, so f' and C' reach the pass at
    # different scales; zero, antisymmetric and non-antisymmetric π
    B = CATALOG.bialgebra("so22-twisted")
    assert (B.algebra.int_tensor()[0], B.cocomm.int_tensor()[0]) == (1, 2)
    verdicts = collections.Counter()
    for h in pi_cases(B) + [mat(SO22_DENSE_H[1])]:
        for pi in ([[0] * 3] * 3, SO22_PI, fractional_pi(3, True), fractional_pi(3, False)):
            rep = check_against_formulas(B, h, pi)
            verdicts[rep.lagrangian, rep.subalgebra] += 1
    assert verdicts == {(True, True): 2, (True, False): 16, (False, False): 6}


# --- the adapted basis, cleared of its denominators once -------------------


def test_adapted_returns_the_integer_basis_and_its_inverse():
    """_adapted clears A = (h, T) once, to s·A, whose columns in layers are
    those of _int_matrix(A, transpose=True), one layer per monomial that
    together hold s·A, and its inverse is that of the integer Bareiss
    kernel on A cleared by _cleared."""
    # upper triangular, det = 1/6*eta^-1: cleared at s = 6, Laurent inverse
    laurent = spec_with_zero_pi([["1/2", "eta", 0]], [[0, "1/3", 0], [0, 0, "eta^-1"]])
    cases = [(B.dim, spec) for _, B, spec in cost_guard_cases()] + [(3, laurent)]
    for n, spec in cases:
        rows = spec.h_basis + spec.complement
        (s, a), a_inv = _adapted(spec, n)
        assert (s, a) == _cleared(rows)
        m_cols = (s, _int_rows(a, transpose=True))
        assert m_cols == _int_matrix(rows, transpose=True)
        assert dense_of_layers(m_cols[1], n, transpose=True) == a
        assert a_inv == _int_inverse(*_cleared(mat(rows)))
    assert m_cols[0] == 6
    assert set(m_cols[1]) == {(), (("eta", 1),), (("eta", -1),)}


ADAPTED_ERRORS = [
    # not a basis: T repeats h
    ([[1, 0, 0]], [[1, 0, 0], [0, 1, 0]],
     BasisNotComplete, "h-basis plus complement do not span g",
     SingularMatrix, "matrix has no inverse (rank deficient)"),
    # det = 1/2*eta^-1 - 1/3 has two terms: A⁻¹ is not a Laurent matrix
    ([["1/2", "eta", 0]], [["1/3", 1, 0], [0, 0, "eta^-1"]],
     NotDivisible,
     "matrix has no Laurent inverse: its determinant ±(-1/3 + 1/2*eta^-1) is not one term",
     NotDivisible,
     "matrix has no Laurent inverse: its determinant ±(-1/3 + 1/2*eta^-1) is not one term"),
    # too many vectors
    ([[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 1, 1]],
     BasisNotComplete, "adapted basis has 4 vectors for dimension 3",
     SingularMatrix, "matrix is not square"),
]


@pytest.mark.parametrize("h, comp, error, message, inv_error, inv_message", ADAPTED_ERRORS)
def test_adapted_basis_errors(sl2_hyp, h, comp, error, message, inv_error, inv_message):
    spec = spec_with_zero_pi(h, comp)
    for call in (
        lambda: _adapted(spec, 3),
        lambda: classify(build_double(sl2_hyp), sl2_hyp, spec),
    ):
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message
    with pytest.raises(inv_error) as exc:
        _int_inverse(*_cleared(mat(spec.h_basis + spec.complement)))
    assert str(exc.value) == inv_message


@pytest.mark.parametrize("h, comp, message", [
    # short: two vectors for dimension 3
    ([[1, 0, 0]], [[0, 1, 0]], "adapted basis has 2 vectors for dimension 3"),
    # singular: T repeats h
    ([[1, 0, 0]], [[1, 0, 0], [0, 1, 0]], "h-basis plus complement do not span g"),
])
def test_both_routes_reject_a_short_or_singular_basis_alike(sl2_hyp, h, comp, message):
    # lagrangian_from_pi reads A⁻¹ from _adapted, the adapted pass also s·A:
    # both raise the same BasisNotComplete, as does the table
    D = build_double(sl2_hyp)
    spec = spec_with_zero_pi(h, comp)
    for call in (
        lambda: lagrangian_from_pi(D, spec),
        lambda: classify(D, sl2_hyp, spec),
        lambda: lagrangian_bracket_table(D, spec),
    ):
        with pytest.raises(BasisNotComplete) as exc:
            call()
        assert str(exc.value) == message


# --- the paper's sl(2,R) table ----------------------------------------------

# h in the CK basis: compact (the hyperbolic plane H2), a boost (AdS2) and
# null (the lightcone)
SL2_SPACES = {"H2": {"P1": 1}, "AdS2": {"J12": 1}, "lightcone": {"P1": 1, "P2": 1}}
# the one bialgebra under which each h is a Poisson subgroup
SL2_DIAGONAL = {"sl2-ell": "H2", "sl2-hyp": "AdS2", "sl2-par": "lightcone"}


@pytest.mark.parametrize("space", SL2_SPACES)
@pytest.mark.parametrize("key", SL2_DIAGONAL)
def test_sl2_table_cell(key, space):
    """Each cell of the 3×3 table of the paper's sl(2,R) case: h at π = 0
    is coisotropic under each of sl2-ell, sl2-hyp and sl2-par, and a
    Poisson subgroup exactly on the diagonal."""
    B = CATALOG.bialgebra(key)
    h = [B.algebra.vector(SL2_SPACES[space])]
    rep = classify(build_double(B), B, spec_with_zero_pi(h, unit_complement(B, h)))
    assert rep.lagrangian and rep.subalgebra and rep.coisotropic
    assert rep.poisson_subgroup == (SL2_DIAGONAL[key] == space)


@pytest.mark.parametrize("space", SL2_SPACES)
@pytest.mark.parametrize("key", SL2_DIAGONAL)
def test_sl2_table_cell_on_the_group(key, space):
    """classify's verdicts on each sl(2,R) table cell agree with the group.
    H = exp(h) is coisotropic iff the Sklyanin bivector π(k) = r − Ad_{k⁻¹} r
    (left-trivialised, up to normalisation) lies in h ∧ g for k in H, and a
    Poisson subgroup iff it lies in h ∧ h (J.-H. Lu, PhD thesis, Berkeley
    1990).  r is the bialgebra's generating r-matrix at z = η = 7/10, ρ the
    CK chart's generator matrices, and k = exp(tX) for 15 random t, X ∈ h;
    π(k) is read in the adapted basis (h, T) of classify's spec."""
    B = CATALOG.bialgebra(key)
    labels = B.algebra.labels
    h = [B.algebra.vector(SL2_SPACES[space])]
    spec = spec_with_zero_pi(h, unit_complement(B, h))
    rep = classify(build_double(B), B, spec)
    r = np.zeros((3, 3))
    for i, j, coef in CATALOG.rmatrix(CATALOG.get(key).raw["r_matrix"]).wedge_terms():
        r[i, j] = float(coef.evaluate({"z": 0.7, "eta": 0.7}))
        r[j, i] = -r[i, j]
    rho = np.array([generator_matrix(CK, label) for label in labels])
    adapted = np.array(
        [[float(x.evaluate({})) for x in v] for v in spec.h_basis + spec.complement]
    ).T
    x = np.tensordot(adapted[:, 0], rho, 1)
    rng = random.Random(1990)
    tt = ht = 0.0
    for _ in range(15):
        t = rng.uniform(-1.5, 1.5)
        k, k_inv = expm(t * x), expm(-t * x)
        ad = np.linalg.lstsq(  # column i: Ad_{k⁻¹} X_i in the basis X
            rho.reshape(3, -1).T, (k_inv @ rho @ k).reshape(3, -1).T, rcond=None
        )[0]
        pi = np.linalg.solve(adapted, np.linalg.solve(adapted, r - ad @ r @ ad.T).T).T
        tt, ht = max(tt, abs(pi[1, 2])), max(ht, np.abs(pi[0, 1:]).max())
    assert (tt <= 1e-12) == rep.coisotropic
    assert (ht <= 1e-12) == rep.poisson_subgroup


def test_m_is_nonzero_and_to_json_splits_it_at_n_h():
    """ClosureReport.m holds exactly the nonzero M^{αβ}_k of the module
    formulas, keyed (α, β, k) by adapted index in key order, and to_json
    lists it split at n_h: M^{αβ}_i as m_i_nonzero, M^{αβ}_{n_h+γ} as
    m_gamma_nonzero at index γ.  On the nine sl(2,R) table cells, so22-r1
    with π ≠ 0, and sl2-hyp with a π that is not antisymmetric."""
    cases = []
    for key in SL2_DIAGONAL:
        B = CATALOG.bialgebra(key)
        for combo in SL2_SPACES.values():
            h = [B.algebra.vector(combo)]
            cases.append((B, spec_with_zero_pi(h, unit_complement(B, h))))
    r1, hyp = CATALOG.bialgebra("so22-r1"), CATALOG.bialgebra("sl2-hyp")
    cases.append((r1, spec_for(r1, ["J", "K1", "K2"], SO22_PI)))
    cases.append((hyp, spec_for(hyp, ["J12"], [["eta", 1], [0, 0]])))
    split = collections.Counter()
    for B, spec in cases:
        rep = classify(build_double(B), B, spec)
        n_h = spec.n_h
        assert all(v.terms for v in rep.m.values())
        assert list(rep.m) == sorted(rep.m)
        assert rep.m == {key: v for key, v in formula_oracle(B, spec)[0].items() if v.terms}
        data = rep.to_json()
        rebuilt = {}
        for name, tag, shift in (("m_i_nonzero", "M^{ab}_i", 0),
                                 ("m_gamma_nonzero", "M^{ab}_g", n_h)):
            indices = [tuple(e["index"]) for e in data[name]]
            assert indices == sorted(indices)
            for e, (a, b, k) in zip(data[name], indices):
                assert e["tensor"] == tag and (k < n_h if shift == 0 else k < spec.n_t)
                rebuilt[a, b, shift + k] = e["value"]
            split[name] += len(indices)
        assert rebuilt == {key: str(v) for key, v in rep.m.items()}
    assert not rep.lagrangian  # the last π is not antisymmetric
    assert split["m_i_nonzero"] and split["m_gamma_nonzero"]


# --- the Poisson-subgroup test and the violations --------------------------


def dot(alpha, v):
    return sum((a * x for a, x in zip(alpha, v) if a.terms and x.terms), PolyExpr.zero())


def delta_against(B, x, alpha):
    """The vector k ↦ <δ(x), α ⊗ x^k> = Σ x^i f_i^{jk} α_j, each stored
    f_i^{jk} (j < k) read in both orders, f_i^{kj} = −f_i^{jk}."""
    out = [PolyExpr.zero()] * B.dim
    for j, k, i, v in B.cocomm.nonzero():  # f_i^{jk} as C*_jk^i
        for a, b, value in ((j, k, v), (k, j, -v)):
            if x[i].terms and alpha[a].terms:
                out[b] = out[b] + x[i] * alpha[a] * value
    return out


def test_poisson_subgroup_matches_the_annihilator_route():
    # every catalog bialgebra and every span h of 1 to n - 1 basis labels,
    # at π = 0.  From h^⊥ alone: coisotropy is [h, h] ⊂ h and δ(h) ⊂ h∧g,
    # i.e. no T∧T block in δ(h), which is why classify does not read that
    # block; a Poisson subgroup has [h, h] ⊂ h and δ(h) ⊂ h∧h.
    kinds = collections.Counter()
    for key in BIALGEBRAS:
        B = CATALOG.bialgebra(key)
        D = build_double(B)
        for k in range(1, B.dim):
            for labels in combinations(B.algebra.labels, k):
                spec = spec_for(B, list(labels))
                rep = classify(D, B, spec)
                h = spec.h_basis
                perp = [v[B.dim:] for v in annihilator(D, Subspace(B.dim, h)).vectors]
                closed = all(
                    dot(alpha, bracket(B.algebra, x, y)).is_zero
                    for x in h for y in h for alpha in perp
                )
                against = [delta_against(B, x, alpha) for x in h for alpha in perp]
                no_tt = all(dot(w, beta).is_zero for w in against for beta in perp)
                in_h_wedge_h = all(x.is_zero for w in against for x in w)
                if rep.coisotropic:
                    assert no_tt, (key, labels)
                assert rep.coisotropic == (closed and no_tt), (key, labels)
                assert rep.poisson_subgroup == (closed and in_h_wedge_h), (key, labels)
                kinds[rep.coisotropic, rep.poisson_subgroup] += 1
    assert kinds == {(False, False): 128, (True, False): 23, (True, True): 21}


LABEL_LISTS = re.compile(r"[\[(]([^\])]*)[\])]")


@pytest.mark.parametrize("labels", [["P0", "P1", "K2"], ["P0", "K1"]])
def test_violations_name_each_failing_pair_once_by_label(labels):
    B = CATALOG.bialgebra("so22-twisted")
    D = build_double(B)
    spec = spec_for(B, labels)
    rep = classify(D, B, spec)
    l = lagrangian_from_pi(D, spec).vectors
    names = _labels(B, spec)
    leaving = [
        (names[i], names[j])
        for i, j in combinations(range(B.dim), 2)
        if solve_in_span(l, bracket(D.algebra, l[i], l[j])) is None
    ]
    assert len(set(rep.violations)) == len(rep.violations)
    pairs = []
    known = set(B.algebra.labels) | set(B.dual_labels)
    for v in rep.violations:
        head, value = v.split(" = ")
        assert not P(value).is_zero
        for group in LABEL_LISTS.findall(head):
            assert set(group.split(", ")) <= known, v
        if not v.startswith("mixed"):
            pairs.append(tuple(LABEL_LISTS.match(v).group(1).split(", ")))
    assert pairs == leaving


def test_violations_pin_the_components():
    B = CATALOG.bialgebra("so22-twisted")
    rep = classify(build_double(B), B, spec_for(B, ["P0", "K1"]))
    assert rep.violations == [
        "[P0, K1] leaves l: C'_(P0, K1)^(P1) = -1",
        "[P0, p1] leaves l: C'_(P0, K1)^(P1) = -1",
        "[P0, p2] leaves l: M_(P0)^(P2, P1) = 1/2",
        "[K1, p1] leaves l: C'_(K1, P0)^(P1) = 1",
        "[p1, p2] leaves l: R_(P0)^(P1, P2) = -1/2",
        "mixed h^T part delta_(P0)^(P0, P2) = -1/2",
    ]
    assert rep.to_json()["violations"] == rep.violations


# --- report values, divided back on first read ------------------------------

REPORT_VALUES = ("m", "table", "xx_residual", "failing", "mixed", "violations")


def first_read_cases():
    """A spec that fails closure, a π ≠ 0 Lagrangian and a closing spec, with
    their verdicts (lagrangian, subalgebra, coisotropic, poisson_subgroup)."""
    twisted, r1 = CATALOG.bialgebra("so22-twisted"), CATALOG.bialgebra("so22-r1")
    return [
        (twisted, spec_for(twisted, ["P0", "K1"]), (True, False, False, False)),
        (r1, spec_for(r1, ["J", "K1", "K2"], SO22_PI), (True, False, False, False)),
        (r1, spec_for(r1, ["J", "K1", "K2"]), (True, True, True, True)),
    ]


def test_classify_divides_nothing_back_until_a_value_is_read(monkeypatch):
    calls = []

    def counted(terms, scale):
        calls.append(scale)
        return from_int_terms(terms, scale)

    for module in (homogeneous, exactlinalg, liealg):
        monkeypatch.setattr(module, "from_int_terms", counted)
    for B, spec, verdicts in first_read_cases():
        rep = classify(build_double(B), B, spec)
        got = (rep.lagrangian, rep.subalgebra, rep.coisotropic, rep.poisson_subgroup)
        assert got == verdicts
        assert calls == []
        for name in REPORT_VALUES:
            getattr(rep, name)
        assert calls  # each case has a polynomial to divide back
        calls.clear()


@pytest.mark.parametrize("name", REPORT_VALUES)
def test_a_second_read_returns_the_same_object(name):
    for B, spec, _ in first_read_cases():
        rep = classify(build_double(B), B, spec)
        assert getattr(rep, name) is getattr(rep, name)


def test_classify_sums_the_bracket_rows_on_the_first_read_of_table(monkeypatch):
    # every report value but table reads only what classify summed; the
    # first read of table sums the H-coordinates of the bracket rows, and
    # adds no kernel call only where they hold no sum: on a non-closing l,
    # at h = 0, and on a Poisson subgroup at π = 0, where f'_i^{jT(α)} and π
    # vanish.  The closing l of sl2-hyp at h = 0 and π^{22} = eta is not
    # Lagrangian, and the X-coordinates R of its [X^α, X^β] differ from M.
    calls = []
    real = homogeneous._add_product

    def counted(*args):
        calls.append(args)
        real(*args)

    hyp = CATALOG.bialgebra("sl2-hyp")
    pi = [[0, 0, 0], [0, 0, 0], [0, 0, "eta"]]
    diagonal = LagrangianSpec([], unit_complement(hyp, []), mat(pi))
    m, r, _ = formula_oracle(hyp, diagonal)
    assert any(m[key] != r[key] for key in m if key[0] < key[1])
    cases = [(build_double(B), B, spec) for B, spec, _ in first_read_cases()]
    cases += cost_guard_cases() + [(build_double(hyp), hyp, diagonal)]
    monkeypatch.setattr(homogeneous, "_add_product", counted)
    summed = 0  # specs whose first table read sums
    for D, B, spec in cases:
        rep = classify(D, B, spec)
        before = len(calls)
        for name in REPORT_VALUES:
            if name != "table":
                getattr(rep, name)
        rep.to_json()
        assert len(calls) == before
        table = rep.table
        added = len(calls) > before
        assert added == (rep.subalgebra and spec.n_h > 0 and not rep.poisson_subgroup)
        summed += added
        if rep.subalgebra:
            assert table == lagrangian_bracket_table(D, spec)
        else:
            assert table is None
    assert summed == 4
    rep = check_against_double(hyp, [], pi)
    assert rep.subalgebra and not rep.lagrangian


def test_classify_leaves_the_input_terms_as_they_are():
    # the adapted pass reads the terms dicts of C, g* and the spec themselves
    # where their den is the pass's scale, and the report values share the
    # pass's dicts: reading every value and running the pass again changes none
    def terms(B, spec) -> list:
        polys = [c for *_, c in (*B.algebra.nonzero(), *B.cocomm.nonzero())]
        polys += [x for m in (spec.h_basis, spec.complement, spec.pi) for row in m for x in row]
        return [(dict(p.terms), p.den) for p in polys]

    cases = [(build_double(B), B, spec) for B, spec, _ in first_read_cases()]
    for D, B, spec in cost_guard_cases()[::3] + cases:
        before = terms(B, spec)
        rep = classify(D, B, spec)
        for name in REPORT_VALUES:
            getattr(rep, name)
        if rep.subalgebra:
            lagrangian_bracket_table(D, spec)
        assert terms(B, spec) == before


# --- cost guard -------------------------------------------------------------

SO22_SUBALGEBRAS = (("J", "K1", "K2"), ("J", "P1", "P2"), ("P0", "P1", "K1"), ("P0", "P2", "K2"))
SO22_PI = [[0, "eta", "1/2"], ["-eta", 0, "-2*eta"], ["-1/2", "2*eta", 0]]
SO22_DENSE_H = (
    [[1, 2, 0, -1, 1, 0], [0, 1, 1, 2, -1, 1], [2, 0, -1, 1, 0, 1]],
    [[1, 1, 1, 0, 0, 1], [-1, 0, 2, 1, 1, 0], [0, 2, 0, -1, 1, 1]],
)


def cost_guard_cases():
    """(double, bialgebra, spec) for so22-r1 and so22-twisted: each
    basis-label subalgebra with π = 0 and with SO22_PI, and two dense h."""
    cases = []
    for key in ("so22-r1", "so22-twisted"):
        B = CATALOG.bialgebra(key)
        D = build_double(B)
        for labels in SO22_SUBALGEBRAS:
            h = [B.algebra.basis_vector(lab) for lab in labels]
            comp = unit_complement(B, h)
            cases.append((D, B, spec_with_zero_pi(h, comp)))
            cases.append((D, B, LagrangianSpec(h, comp, SO22_PI)))
        for h in SO22_DENSE_H:
            h = mat(h)
            cases.append((D, B, spec_with_zero_pi(h, unit_complement(B, h))))
    return cases


def fraction_constructions(work) -> int:
    """Fraction objects built while ``work()`` runs; ``Fraction.__new__`` is
    patched for the duration, as the benchmark's traced pass does."""
    new = Q.__dict__["__new__"]
    count = 0

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new.__func__(cls, *args, **kwargs)

    Q.__new__ = staticmethod(counted)
    try:
        work()
    finally:
        Q.__new__ = new
    return count


def test_classify_fraction_cost_guard():
    # classify plus the bracket table of every subalgebra l on this list
    # builds 214 Fractions, all in the bracket tables; 1,155 when classify
    # divided M, Q, the failing components and the table back as it ran,
    # and 1.3k earlier; 4.2k when the adapted pass summed M, R, Q and
    # the bracket rows over PolyExpr from dense C' and f', and 8.1k when the
    # adapted basis was inverted over
    # Fractions and read back into integers for the transforms, 13.3k when
    # the transforms summed Fractions and
    # subalgebras were read through a dual frame in the double.  It built
    # 27.9k when each bracket ran its own elimination and the transforms
    # filled both halves; 18.0k with only the full-plane transforms back,
    # 23.2k with only the eliminations back.
    cases = cost_guard_cases()

    def work():
        for D, B, spec in cases:
            if classify(D, B, spec).subalgebra:
                lagrangian_bracket_table(D, spec)

    work()  # fill the algebras' cached sparse views first
    assert fraction_constructions(work) <= 2_000


def test_adapted_pass_calls_the_kernel_with_nonempty_operands(monkeypatch):
    # a product with an empty terms dict adds nothing, so the pass skips it
    calls = []
    real = homogeneous._add_product

    def checked(out, s, t1, t2):
        calls.append((bool(t1), bool(t2)))
        real(out, s, t1, t2)

    monkeypatch.setattr(homogeneous, "_add_product", checked)
    for D, B, spec in cost_guard_cases():
        if classify(D, B, spec).subalgebra:
            lagrangian_bracket_table(D, spec)
    assert calls and set(calls) == {(True, True)}


def test_invert_fraction_cost_guard():
    # Inverting the 20 adapted bases of cost_guard_cases builds 288
    # Fractions, only in dividing A⁻¹ back once; eliminating over Fractions
    # built 3,634.
    from liedouble.exactlinalg import invert

    rows = [spec.h_basis + spec.complement for _, _, spec in cost_guard_cases()]
    assert fraction_constructions(lambda: [invert(r) for r in rows]) <= 600


def test_transform_fraction_cost_guard():
    # transform_structure + transform_cocomm on both SO22_DENSE_H adapted
    # bases under so22-r1 and so22-twisted build 1,810 Fractions, only in
    # dividing the nonzero integer sums back.  Summed over Fractions they
    # built 5,411.
    from liedouble.exactlinalg import invert
    from liedouble.liealg import transform_cocomm, transform_structure

    cases = []
    for key in ("so22-r1", "so22-twisted"):
        B = CATALOG.bialgebra(key)
        for h in SO22_DENSE_H:
            rows = mat(h) + unit_complement(B, mat(h))
            cases.append((dense_c(B.algebra), dense_f(B.cocomm), rows, invert(rows)))

    def work():
        for c, f, rows, w in cases:
            transform_structure(c, rows, w)
            transform_cocomm(f, rows, w)

    assert fraction_constructions(work) <= 2_500
