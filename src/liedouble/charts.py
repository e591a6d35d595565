"""Numerical chart layer: group charts, invariant vector fields, Sklyanin
brackets and the closed-form Poisson bracket library.

Charts
------
CK    coordinates (theta, a1, a2) with group element
      g = exp(a1 P1) exp(a2 P2) exp(theta J12) in the 3x3 representation;
PM    coordinates (a+, a-, chi) with 2x2 element
      T = exp(a- J-) exp(a+ J+) exp(chi J3);
ADS3  coordinates (x0, x1, x2) on AdS3 = SO(2,2)/SO(2,1), carrying only
      closed-form brackets.

A matrix chart is data: its factors (generator, coordinate, matrix) in
product order.  :func:`group_matrix` multiplies the factors'
exponentials, and :func:`invariant_fields` derives both sides of the
invariant fields from them.  With g = E_1 ... E_n and E_k = exp(c_k X_k),
the right frame is ∂_k g·g⁻¹ = Ad(H_k) X_k, H_k = E_1 ... E_{k-1}, and the
left frame is g⁻¹∂_k g = Ad(T_k⁻¹) X_k = Ad(g⁻¹)(∂_k g·g⁻¹),
T_k = E_{k+1} ... E_n; each is read in the generator basis and inverted.

Coordinate functions are the chart projections, so the directional
derivative of a coordinate along an invariant field is literally a field
component; no symbolic differentiation is needed.

Every bracket is evaluated whole: at a point p it is the 3x3 matrix
P(p)_{ij} = {x_i, x_j}(p) of all coordinate brackets, row i the first
argument, so P is antisymmetric with a zero diagonal.  The Sklyanin
bracket is
    {f, g} = r^{kl} (X^L_k.f X^L_l.g − X^R_k.f X^R_l.g),
with the left-invariant fields generating right translations
(d/dt coords(g·exp(tX)) at t=0) and the right-invariant fields left
translations.  With r = Σ_{a<b} r^{ab} X_a ∧ X_b, r^{ba} = −r^{ab}, its
matrix is
    P = A − Aᵀ,  A = Lᵀ U L − Rᵀ U R,
where row a of L (of R) holds the components of the left (right) field of
X_a and U_{ab} = r^{ab} for a < b, zero elsewhere.  The wedge
normalization of the r-matrices is fixed in :mod:`liedouble.rmatrix`; the
hyperbolic family on the CK chart is the calibration case.

The ADS3 brackets have no Sklyanin route here; :func:`linearize`,
:func:`jacobi_numeric` and :func:`flat_limit_check` give the numbers their
property checks compare, each from central differences or an eta ladder
of whole matrices.  The targets are not stored in this module: the
linear part at the origin and the eta -> 0 limit both come from the exact
layer (``classify``'s M^{ab}_c, see :mod:`liedouble.cli`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import OutOfChart, UnknownBracket, WrongChart
from .rmatrix import RMatrix

CK, PM, ADS3 = "CK", "PM", "ADS3"

CHART_COORDS = {
    CK: ("theta", "a1", "a2"),
    PM: ("a+", "a-", "chi"),
    ADS3: ("x0", "x1", "x2"),
}

# The matrix charts: g = exp(c_1 X_1) exp(c_2 X_2) exp(c_3 X_3) over the
# factors (generator, coordinate, matrix of X), in product order.  In the
# CK chart a1 is a rotation angle, a2 and theta are rapidities.
_FACTORS = {
    CK: (
        ("P1", "a1", [[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
        ("P2", "a2", [[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
        ("J12", "theta", [[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
    ),
    PM: (
        ("J-", "a-", [[0, 0], [1, 0]]),
        ("J+", "a+", [[0, 1], [0, 0]]),
        ("J3", "chi", [[1, 0], [0, -1]]),
    ),
}


class _MatrixChart(NamedTuple):
    """A matrix chart in factor order: ``x`` stacks the generator matrices,
    a flattened matrix times ``read`` gives its components in that basis,
    and idx[k] is the chart index of factor k's coordinate."""

    labels: tuple
    x: np.ndarray
    read: np.ndarray
    idx: list


def _factor_table(chart_id: str) -> _MatrixChart:
    labels, names, mats = zip(*_FACTORS[chart_id])
    x = np.array(mats, dtype=float)
    idx = [CHART_COORDS[chart_id].index(name) for name in names]
    return _MatrixChart(labels, x, np.linalg.pinv(x.reshape(len(x), -1)), idx)


_MATRIX_CHARTS = {chart_id: _factor_table(chart_id) for chart_id in _FACTORS}


@dataclass(frozen=True)
class ChartPoint:
    chart_id: str
    coords: tuple

    def __post_init__(self):
        if self.chart_id not in CHART_COORDS:
            raise WrongChart(f"unknown chart {self.chart_id!r}")
        if len(self.coords) != 3:
            raise WrongChart("chart points have three coordinates")
        object.__setattr__(self, "coords", tuple(float(x) for x in self.coords))


def _require(p: ChartPoint, chart_id: str):
    if p.chart_id != chart_id:
        raise WrongChart(f"expected a {chart_id} point, got {p.chart_id}")


def _matrix_chart(chart_id: str) -> _MatrixChart:
    if chart_id not in _MATRIX_CHARTS:
        raise WrongChart(f"chart {chart_id} has no matrix representation")
    return _MATRIX_CHARTS[chart_id]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack (m, n, n), by scaling and squaring:
    the degree-16 Taylor polynomial of b = a/2^s, with 2^s chosen so that
    every row-sum norm of b is at most 1/2, in Horner form
    I + b/1 (I + b/2 (... (I + b/16))), squared s times."""
    s = max(0, math.frexp(np.abs(a).sum(axis=-1).max())[1] + 1)
    eye = np.eye(a.shape[-1])
    steps = a / (2.0**s * np.arange(16, 0, -1.0)[:, None, None, None])
    result = eye + steps[0]
    for step in steps[1:]:
        result = eye + result @ step
    for _ in range(s):
        result = result @ result
    return result


def _factor_exponentials(p: ChartPoint) -> tuple:
    """p's matrix chart, and its factors exp(c_k X_k), then their inverses
    exp(-c_k X_k), stacked in factor order."""
    chart = _matrix_chart(p.chart_id)
    cx = np.array(p.coords)[chart.idx, None, None] * chart.x
    return chart, _expm(np.concatenate([cx, -cx]))


def group_matrix(p: ChartPoint) -> np.ndarray:
    """The group element at p: the product of the chart's factors
    exp(c_k X_k) in product order."""
    chart, e = _factor_exponentials(p)
    return functools.reduce(np.matmul, e[: len(chart.x)])


def ck_chart_inverse(m: np.ndarray) -> ChartPoint:
    """Invert :func:`group_matrix` on the CK chart.

    a2 = asinh m31, a1 = atan2(m21, m11), theta = atanh(m32/m33); raises
    :class:`OutOfChart` when the formulas are singular or the matrix does
    not reproduce."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise OutOfChart("expected a 3x3 matrix")
    if m[2][2] <= 0 or abs(m[2][1]) >= abs(m[2][2]):
        raise OutOfChart("matrix lies outside the chart image (theta branch)")
    a2 = math.asinh(m[2][0])
    a1 = math.atan2(m[1][0], m[0][0])
    theta = math.atanh(m[2][1] / m[2][2])
    p = ChartPoint(CK, (theta, a1, a2))
    if not np.allclose(group_matrix(p), m, rtol=1e-8, atol=1e-8):
        raise OutOfChart("matrix is not in the image of the chart")
    return p


def pm_chart_inverse(m: np.ndarray) -> ChartPoint:
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise OutOfChart("expected a 2x2 matrix")
    if m[0][0] <= 0:
        raise OutOfChart("chart requires a positive upper-left entry")
    chi = math.log(m[0][0])
    am = m[1][0] / m[0][0]
    ap = m[0][1] * m[0][0]
    p = ChartPoint(PM, (ap, am, chi))
    if not np.allclose(group_matrix(p), m, rtol=1e-8, atol=1e-8):
        raise OutOfChart("matrix is not in the image of the chart")
    return p


def chart_inverse(chart_id: str, m: np.ndarray) -> ChartPoint:
    _matrix_chart(chart_id)  # raises WrongChart off a matrix chart
    return {CK: ck_chart_inverse, PM: pm_chart_inverse}[chart_id](m)


def generator_matrix(chart_id: str, label: str) -> np.ndarray:
    """Representation matrix of one generator of the chart's Lie algebra."""
    chart = _matrix_chart(chart_id)
    if label not in chart.labels:
        raise WrongChart(f"{label!r} is not a generator of chart {chart_id}")
    return chart.x[chart.labels.index(label)].copy()


# --- invariant vector fields ------------------------------------------------


def invariant_fields(p: ChartPoint) -> tuple:
    """The left and right invariant fields at p: two dicts of component
    vectors, keyed by generator.

    Components are with respect to the chart's coordinate order.  Left
    fields generate right translations g exp(tX), right fields left
    translations exp(tX) g."""
    (labels, x, read, idx), e = _factor_exponentials(p)
    n = len(x)
    heads = [np.eye(x.shape[-1])]  # H_k, then g
    head_invs = [heads[0]]
    for k in range(n):
        heads.append(heads[-1] @ e[k])
        head_invs.append(e[n + k] @ head_invs[-1])
    right = np.array(heads[:n]) @ x @ np.array(head_invs[:n])  # Ad(H_k) X_k
    left = head_invs[n] @ right @ heads[n]  # Ad(g⁻¹) ∂_k g·g⁻¹
    frames = np.array([left, right]).reshape(2, n, -1) @ read
    fields = np.empty((2, n, n))
    fields[..., idx] = np.linalg.inv(frames)  # row a: the field of X_a
    return tuple(dict(zip(labels, side)) for side in fields)


def sklyanin_numeric(
    chart_id: str, r: RMatrix, params: Mapping[str, float], p: ChartPoint
) -> np.ndarray:
    """The matrix P(p) of the Sklyanin bracket of r (module doc).

    The r-matrix labels must be the chart's generator labels."""
    _require(p, chart_id)
    labels = _matrix_chart(chart_id).labels
    if set(r.labels) != set(labels):
        raise WrongChart(
            f"r-matrix labels {r.labels} do not match chart generators {labels}"
        )
    left, right = invariant_fields(p)
    fl = np.array([left[label] for label in r.labels])
    fr = np.array([right[label] for label in r.labels])
    u = np.zeros((r.dim, r.dim))
    for key, coef in r.terms.items():
        u[key] = float(coef.evaluate(params))
    a = fl.T @ u @ fl - fr.T @ u @ fr
    return a - a.T


# --- closed-form bracket library --------------------------------------------


@dataclass(frozen=True)
class BracketFn:
    """A named closed-form Poisson bracket on one chart.

    ``pairs`` maps each unordered coordinate pair, in one orientation, to
    a function (params, coords) -> value; the other orientation follows by
    antisymmetry."""

    id: str
    chart_id: str
    pairs: Mapping


def bracket_fn(bracket_id: str) -> BracketFn:
    if bracket_id not in _BRACKETS:
        raise UnknownBracket(f"no closed-form bracket named {bracket_id!r}")
    return _BRACKETS[bracket_id]


def closed_form(bracket_id: str, p: ChartPoint, params: Mapping) -> np.ndarray:
    """The matrix P(p) of the published closed form (module doc)."""
    fn = bracket_fn(bracket_id)
    _require(p, fn.chart_id)
    names = CHART_COORDS[fn.chart_id]
    m = np.zeros((3, 3))
    for (x, y), value in fn.pairs.items():
        m[names.index(x), names.index(y)] = value(params, p.coords)
    return m - m.T


def _ratio(fn, eta: float, x: float) -> float:
    """fn(eta·x)/eta, which tends to x as eta -> 0 for fn = sin, sinh, tan
    and tanh."""
    return fn(eta * x) / eta if eta != 0.0 else x


def _upsilon(eta: float, x0: float, x1: float) -> float:
    c = math.cos(eta * x0)
    return c * (c * math.cosh(eta * x1) + math.sinh(eta * x1))


def _tw01(q, c):
    eta, xi = q["eta"], q["xi"]
    if eta == 0.0:
        return 0.0
    cos0 = math.cos(eta * c[0])
    sin0 = math.sin(eta * c[0])
    sinh1 = math.sinh(eta * c[1])
    return (
        0.5
        * xi
        * _ratio(math.tanh, eta, c[2])
        / math.cosh(eta * c[1])
        * (cos0 * cos0 * sinh1 * sinh1 - sin0 * sin0)
    )


def _tw02(q, c):
    eta, xi = q["eta"], q["xi"]
    cos0 = math.cos(eta * c[0])
    return -0.5 * _ratio(math.sin, eta, c[0]) * math.cosh(eta * c[1]) + (
        _ratio(math.sinh, eta, c[1]) / 2.0
    ) * (
        math.sin(eta * c[0]) * math.tanh(eta * c[1]) - xi * cos0 * cos0
    )


def _tw12(q, c):
    eta, xi = q["eta"], q["xi"]
    cos0 = math.cos(eta * c[0])
    return -0.5 * _ratio(math.sinh, eta, c[1]) * cos0 - 0.5 * xi * _ratio(
        math.sin, eta, c[0]
    ) * cos0 * math.cosh(eta * c[1])


_BRACKETS = {
    fn.id: fn
    for fn in (
        # hyperbolic family, CK chart
        BracketFn(
            "hyp-CK",
            CK,
            {
                ("theta", "a1"): lambda q, c: -2
                * q["eta"]
                * math.sin(c[1])
                / math.cosh(c[2]),
                ("theta", "a2"): lambda q, c: -2 * q["eta"] * math.tanh(c[2]),
                ("a1", "a2"): lambda q, c: 2
                * q["eta"]
                * (1.0 / math.cosh(c[2]) - math.cos(c[1])),
            },
        ),
        # hyperbolic family, PM chart
        BracketFn(
            "hyp-PM",
            PM,
            {
                ("a+", "a-"): lambda q, c: -2 * q["eta"] * c[0] * c[1],
                ("chi", "a+"): lambda q, c: -q["eta"] * c[0],
                ("chi", "a-"): lambda q, c: -q["eta"] * c[1],
            },
        ),
        # elliptic family, CK chart
        BracketFn(
            "ell-CK",
            CK,
            {
                ("theta", "a1"): lambda q, c: 2
                * q["z"]
                * math.sinh(c[0])
                / math.cosh(c[2]),
                ("theta", "a2"): lambda q, c: -2
                * q["z"]
                * (1.0 / math.cosh(c[2]) - math.cosh(c[0])),
                ("a1", "a2"): lambda q, c: -2 * q["z"] * math.tanh(c[2]),
            },
        ),
        # elliptic family, PM chart (published with the J-basis normalization)
        BracketFn(
            "ell-PM",
            PM,
            {
                ("a+", "a-"): lambda q, c: -2
                * q["z"]
                * (c[1] * (1.0 + c[0] * c[1]) + c[0]),
                ("chi", "a+"): lambda q, c: -q["z"] * (1.0 - math.exp(2 * c[2]))
                + q["z"] * c[0] * c[0] * math.exp(-2 * c[2]),
                ("chi", "a-"): lambda q, c: -q["z"] * (1.0 - math.exp(-2 * c[2]))
                - q["z"] * c[1] * c[1],
            },
        ),
        # parabolic family, PM chart
        BracketFn(
            "par-PM",
            PM,
            {
                ("a+", "a-"): lambda q, c: -c[1] * (1.0 + c[0] * c[1]),
                ("chi", "a+"): lambda q, c: -0.5 * (1.0 - math.exp(2 * c[2])),
                ("chi", "a-"): lambda q, c: -0.5 * c[1] * c[1],
            },
        ),
        # parabolic family, CK chart
        BracketFn(
            "par-CK",
            CK,
            {
                ("theta", "a1"): lambda q, c: (math.exp(c[0]) - math.cos(c[1]))
                / math.cosh(c[2]),
                ("theta", "a2"): lambda q, c: math.exp(c[0])
                - 1.0 / math.cosh(c[2]),
                ("a1", "a2"): lambda q, c: math.sin(c[1]) - math.tanh(c[2]),
            },
        ),
        # first double structure on the 3d anti-de Sitter chart
        BracketFn(
            "ads3-double1",
            ADS3,
            {
                ("x0", "x1"): lambda q, c: -_ratio(math.tanh, q["eta"], c[2])
                * _upsilon(q["eta"], c[0], c[1]),
                ("x0", "x2"): lambda q, c: _ratio(math.tanh, q["eta"], c[1])
                * _upsilon(q["eta"], c[0], c[1]),
                ("x1", "x2"): lambda q, c: _ratio(math.tan, q["eta"], c[0])
                * _upsilon(q["eta"], c[0], c[1]),
            },
        ),
        # twisted (space-like) family on the same chart
        BracketFn(
            "ads3-twisted",
            ADS3,
            {("x0", "x1"): _tw01, ("x0", "x2"): _tw02, ("x1", "x2"): _tw12},
        ),
    )
}


# --- derived numerics: linearization, Jacobi, flat limits --------------------


_STEP = 1e-5  # the central-difference step of linearize and jacobi_numeric


def _gradient(bracket_id: str, p: ChartPoint, params: Mapping, step: float):
    """grad[a][b][d] = d{x_a, x_b}/dx_d at p, by central differences of
    whole matrices."""
    x = np.array(p.coords)
    return np.stack([
        closed_form(bracket_id, ChartPoint(p.chart_id, x + h), params)
        - closed_form(bracket_id, ChartPoint(p.chart_id, x - h), params)
        for h in step * np.eye(3)
    ], axis=-1) / (2 * step)


def linearize(bracket_id: str, params: Mapping) -> np.ndarray:
    """lin[a][b][c] = d{x_a, x_b}/dx_c at the origin.

    Central differences with one Richardson extrapolation level."""
    origin = ChartPoint(bracket_fn(bracket_id).chart_id, (0.0,) * 3)
    half, full = (_gradient(bracket_id, origin, params, h) for h in (_STEP / 2, _STEP))
    return (4 * half - full) / 3


def jacobi_numeric(bracket_id: str, params: Mapping, p: ChartPoint) -> float:
    """|cyclic sum of {{x_a, x_b}, x_c}| with finite-difference outer
    derivatives: {g, x_c} = sum_d {x_d, x_c} dg/dx_d."""
    outer = np.einsum(
        "dc,abd->abc", closed_form(bracket_id, p, params),
        _gradient(bracket_id, p, params, _STEP),
    )
    return float(abs(outer[0, 1, 2] + outer[1, 2, 0] + outer[2, 0, 1]))


def flat_limit_check(
    bracket_id: str, p: ChartPoint, params: Mapping | None = None
) -> np.ndarray:
    """The matrix P(p) at eta = 0, Richardson-extrapolated from the matrices
    at eta = 0.1 / 2^k, k = 0..7.

    The ladder eliminates successive integer powers of eta (the brackets
    are generally not even in eta), as the sequence halves."""
    params = dict(params or {})
    row = [closed_form(bracket_id, p, {**params, "eta": 0.1 / 2**k})
           for k in range(8)]
    for level in range(1, 8):
        factor = 2.0**level
        row = [(factor * row[i + 1] - row[i]) / (factor - 1.0)
               for i in range(len(row) - 1)]
    return row[0]


# --- verification harness ----------------------------------------------------


@dataclass
class SklyaninCell:
    """One (closed-form family, chart, r-matrix) verification cell."""

    bracket_id: str
    chart_id: str
    r: RMatrix
    param_ranges: Mapping  # name -> (lo, hi)


def _sample_point(rng, chart_id) -> ChartPoint:
    return ChartPoint(chart_id, tuple(rng.uniform(-1.0, 1.0) for _ in range(3)))


def verify_sklyanin_cell(
    cell: SklyaninCell,
    rng,
    n_points: int,
    tol_rel: float,
    tol_abs: float,
) -> list:
    """Compare Sklyanin numerics against the closed forms on random points,
    reading every coordinate pair at each point.

    Returns one result dict per coordinate pair."""
    params = {
        name: rng.uniform(lo, hi) for name, (lo, hi) in cell.param_ranges.items()
    }
    names = CHART_COORDS[cell.chart_id]
    upper = np.triu_indices(3, 1)
    sk, cf = [], []
    for _ in range(n_points):
        p = _sample_point(rng, cell.chart_id)
        sk.append(sklyanin_numeric(cell.chart_id, cell.r, params, p)[upper])
        cf.append(closed_form(cell.bracket_id, p, params)[upper])
    size = np.abs(cf)
    err = np.abs(np.array(sk) - cf)
    rel = err / np.maximum(size, 1e-300)
    ok = (err <= tol_abs + tol_rel * size).all(axis=0)
    return [
        {
            "bracket_id": cell.bracket_id,
            "chart": cell.chart_id,
            "pair": [names[a], names[b]],
            "n_points": n_points,
            "params": {k: params[k] for k in sorted(params)},
            "max_abs_err": float(err[:, k].max()),
            "max_rel_err": float(rel[:, k].max()),
            "pass": bool(ok[k]),
        }
        for k, (a, b) in enumerate(zip(*upper))
    ]
