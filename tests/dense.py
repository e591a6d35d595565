"""Dense tensors for the tests, built from the sparse views the package
keeps.

The package stores C, f and r as one antisymmetric half and keeps no dense
tensor.  A test that reads components by index densifies each object once
here, from :meth:`LieAlgebra.nonzero` or :meth:`RMatrix.wedge_terms`, and
indexes the result; the views ``LieAlgebra.c`` and ``LieAlgebra.f`` are
read only by the test that checks them against these.
"""

from liedouble.exactalg import PolyExpr


def zeros3(n: int) -> list:
    """The dense n³ tensor of zeros."""
    z = PolyExpr.zero()
    return [[[z] * n for _ in range(n)] for _ in range(n)]


def dense_c(L) -> list:
    """C[i][j][k] of a Lie algebra, both signs written."""
    c = zeros3(L.dim)
    for i, j, k, v in L.nonzero():
        c[i][j][k], c[j][i][k] = v, -v
    return c


def dense_f(g_star) -> list:
    """f[i][j][k] = f_i^{jk}, both signs written, of the cocommutator whose
    dual algebra g* is given: C*_jk^i = f_i^{jk}."""
    f = zeros3(g_star.dim)
    for j, k, i, v in g_star.nonzero():
        f[i][j][k], f[i][k][j] = v, -v
    return f


def dense_r(r) -> list:
    """r[i][j] of an r-matrix, both signs written."""
    z = PolyExpr.zero()
    out = [[z] * r.dim for _ in range(r.dim)]
    for i, j, v in r.wedge_terms():
        out[i][j], out[j][i] = v, -v
    return out
