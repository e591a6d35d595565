"""Metamorphic relations: a verdict does not depend on the basis it is
computed in.

A change of basis of g with rows M (the new basis vectors in old
coordinates) and inverse W moves C by (M, W) and g* by (Wᵀ, Mᵀ).  A vector
with old coordinates v has new coordinates vW, so h and the complement move
that way, and π, which is given in the complement's own basis, stays.  The
adapted basis is then the same set of vectors, so :func:`classify` must
give the same report except for the names it gives basis vectors.  In the
catalog basis an adapted basis of coordinate vectors is a permutation
matrix, for which (M, W) and (Wᵀ, Mᵀ) coincide; a random rational M tells
them apart.
"""

from hypothesis import given, settings, strategies as st

from liedouble import catalog
from liedouble.bialgebra import new_bialgebra
from liedouble.double import build_double
from liedouble.exactalg import PolyExpr
from liedouble.exactlinalg import mat, rank, transpose
from liedouble.homogeneous import LagrangianSpec, classify
from liedouble.liealg import BasisChange, change_basis

CATALOG = catalog.load()
BIALGEBRAS = sorted(
    key for key in CATALOG.list("bialgebra") if CATALOG.bialgebra(key).dim == 3
) + ["so22-twisted"]
ENTRIES = ["0", "0", "0", "1", "-1", "2", "1/2", "-2/3"]
PI_ENTRIES = ["0", "1", "-1/2", "3", "eta"]


@st.composite
def moved_specs(draw):
    """(B, spec, M): a catalog bialgebra, a spec with a coordinate subset h
    and any π over its complement, and an invertible rational M."""
    B = CATALOG.bialgebra(draw(st.sampled_from(BIALGEBRAS)))
    n = B.dim
    # a sparser M in dimension 6 keeps the 12-dim Jacobi check of B2 short
    entries = ENTRIES if n == 3 else ["0"] * 9 + ENTRIES
    row = st.lists(st.sampled_from(entries), min_size=n, max_size=n)
    m = mat(draw(st.lists(row, min_size=n, max_size=n).filter(
        lambda rows: rank(mat(rows)) == n)))
    h = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    units = [B.algebra.basis_vector(i) for i in range(n)]
    n_t = n - len(h)
    pi = mat(draw(st.lists(st.lists(st.sampled_from(PI_ENTRIES), min_size=n_t,
                                    max_size=n_t), min_size=n_t, max_size=n_t)))
    kind = draw(st.sampled_from(["zero", "antisymmetric", "any"]))
    if kind != "any":  # l is Lagrangian
        zero = PolyExpr.zero()
        pi = [[zero if kind == "zero" or a == b else pi[a][b] if a < b else -pi[b][a]
               for b in range(n_t)] for a in range(n_t)]
    spec = LagrangianSpec([units[i] for i in sorted(h)],
                          [units[i] for i in range(n) if i not in h], pi)
    return B, spec, m


def moved(B, m):
    """B in the basis with rows m: C by (M, W), g* by (Wᵀ, Mᵀ)."""
    labels = tuple(f"e{a}" for a in range(B.dim))
    bc = BasisChange(m, labels)
    algebra = change_basis(B.algebra, bc)
    moved_dual = BasisChange(transpose(bc.inverse), labels, transpose(bc.m))
    dual = change_basis(B.cocomm, moved_dual)
    return new_bialgebra(algebra, dual, B.dual_labels), bc.inverse


def times(v, w):
    """The row vector v·W."""
    zero = PolyExpr.zero()
    return [sum((v[i] * w[i][a] for i in range(len(v)) if v[i].terms), zero)
            for a in range(len(w[0]))]


def report(rep):
    """Everything a report holds by adapted index: its verdicts, M, Q, the
    first failing component of each bracket that leaves l, and the table's
    entries."""
    table = rep.table.nonzero() if rep.table is not None else None
    verdicts = (rep.lagrangian, rep.subalgebra, rep.coisotropic, rep.poisson_subgroup)
    return verdicts, rep.m, rep.xx_residual, rep.failing, table


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(moved_specs())
def test_classify_is_unchanged_by_a_change_of_basis(case):
    B, spec, m = case
    B2, w = moved(B, m)
    spec2 = LagrangianSpec([times(v, w) for v in spec.h_basis],
                           [times(v, w) for v in spec.complement], spec.pi)
    assert report(classify(build_double(B2), B2, spec2)) == report(
        classify(build_double(B), B, spec)
    )
