"""Shared fixtures: hand-built reference algebras used across the suite.

These builders are deliberately independent of the shipped catalog files;
test_catalog cross-checks that the catalog payloads agree with them.
"""

import pytest

from liedouble.liealg import new_lie_algebra


@pytest.fixture(scope="session")
def sl2_std():
    # basis (J3, J+, J-): [J3,J+]=2J+, [J3,J-]=-2J-, [J+,J-]=J3
    return new_lie_algebra(
        3,
        ("J3", "J+", "J-"),
        [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)],
    )


@pytest.fixture(scope="session")
def sl2_ck():
    # basis (P1, P2, J12): [J12,P1]=P2, [J12,P2]=P1, [P1,P2]=J12
    return new_lie_algebra(
        3,
        ("P1", "P2", "J12"),
        [(2, 0, 1, 1), (2, 1, 0, 1), (0, 1, 2, 1)],
    )


@pytest.fixture(scope="session")
def ck2d():
    # two-parameter Cayley-Klein family g_(k1,k2)
    return new_lie_algebra(
        3,
        ("P1", "P2", "J12"),
        [(2, 0, 1, 1), (2, 1, 0, "-k2"), (0, 1, 2, "k1")],
        params=("k1", "k2"),
    )


@pytest.fixture(scope="session")
def sl2_x():
    # sl(2,R) in the (X0, X1, X2) naming used by the six-dimensional doubles
    return new_lie_algebra(
        3,
        ("X0", "X1", "X2"),
        [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)],
    )


@pytest.fixture(scope="session")
def iso11():
    return new_lie_algebra(
        3,
        ("X0", "X1", "X2"),
        [(0, 1, 2, -1), (0, 2, 1, -1)],
    )


GLAMBDA_BRACKETS = [
    (0, 2, 3, 1),        # [J,P1]=P2
    (0, 3, 2, -1),       # [J,P2]=-P1
    (0, 4, 5, 1),        # [J,K1]=K2
    (0, 5, 4, -1),       # [J,K2]=-K1
    (2, 4, 1, -1),       # [P1,K1]=-P0
    (3, 5, 1, -1),       # [P2,K2]=-P0
    (1, 4, 2, -1),       # [P0,K1]=-P1
    (1, 5, 3, -1),       # [P0,K2]=-P2
    (4, 5, 0, -1),       # [K1,K2]=-J
    (1, 2, 4, "kappa"),  # [P0,P1]=kappa*K1
    (1, 3, 5, "kappa"),  # [P0,P2]=kappa*K2
    (2, 3, 0, "-kappa"),  # [P1,P2]=-kappa*J
]

GLAMBDA_LABELS = ("J", "P0", "P1", "P2", "K1", "K2")


@pytest.fixture(scope="session")
def glambda():
    return new_lie_algebra(6, GLAMBDA_LABELS, GLAMBDA_BRACKETS, params=("kappa",))


# --- reference r-matrices -------------------------------------------------

CK_LABELS = ("P1", "P2", "J12")
J_LABELS = ("J3", "J+", "J-")

R_TERMS = {
    "hyp_ck": (CK_LABELS, [("P1", "P2", "2*eta")]),
    "ell_ck": (CK_LABELS, [("J12", "P2", "2*z")]),
    "par_ck": (CK_LABELS, [("J12", "P1", 1), ("J12", "P2", 1)]),
    "hyp_j": (J_LABELS, [("J+", "J-", "eta")]),
    "ell_j": (J_LABELS, [("J3", "J+", "z"), ("J3", "J-", "z")]),
    "par_j": (J_LABELS, [("J3", "J+", "1/2")]),
    "r1": (
        GLAMBDA_LABELS,
        [
            ("J", "K1", "eta"),
            ("J", "P0", "1/2"),
            ("K2", "P1", "1/2"),
            ("K1", "P2", "-1/2"),
        ],
    ),
    "twisted": (
        GLAMBDA_LABELS,
        [("K2", "P0", "-1/2"), ("J", "P1", "-1/2"), ("K1", "P2", "1/2*xi")],
    ),
    "carrier345": (
        GLAMBDA_LABELS,
        [("J", "K1", 3), ("J", "K2", 4), ("K1", "K2", 5)],
    ),
    "generic": (
        GLAMBDA_LABELS,
        [
            ("J", "P1", "a1"),
            ("J", "K1", "a2"),
            ("P0", "P1", "a3"),
            ("P0", "K1", "a4"),
            ("P1", "K1", "a5"),
            ("P1", "K2", "a6"),
            ("J", "P2", "b1"),
            ("J", "K2", "b2"),
            ("P0", "P2", "b3"),
            ("P0", "K2", "b4"),
            ("P2", "K2", "b5"),
            ("P2", "K1", "b6"),
            ("J", "P0", "c1"),
            ("K1", "K2", "c2"),
            ("P1", "P2", "c3"),
        ],
    ),
    "psc": (
        GLAMBDA_LABELS,
        [
            ("J", "K1", "a2"),
            ("J", "K2", "b2"),
            ("K1", "K2", "c2"),
            ("J", "P0", "-a6"),
            ("P1", "K2", "a6"),
            ("K1", "P2", "a6"),
        ],
    ),
}


@pytest.fixture(scope="session")
def rmats():
    from liedouble.rmatrix import rmatrix_from_wedge

    return {key: rmatrix_from_wedge(*spec) for key, spec in R_TERMS.items()}


# --- reference bialgebras ---------------------------------------------------

# cocommutators as wedge entries (i; j, k, coef): δ(X_i) ⊇ coef X_j ∧ X_k
COCOMM_TERMS = {
    "sl2_hyp": [("P1", "P1", "J12", "2*eta"), ("P2", "P2", "J12", "2*eta")],
    "sl2_ell": [("J12", "J12", "P1", "2*z"), ("P2", "P2", "P1", "2*z")],
    "sl2_par": [
        ("J12", "J12", "P1", 1),
        ("J12", "J12", "P2", 1),
        ("P1", "P1", "P2", 1),
        ("P2", "P2", "P1", 1),
    ],
    "sl2_hyp_j": [("J+", "J+", "J3", "eta"), ("J-", "J-", "J3", "eta")],
    "sl2_par_j": [("J3", "J3", "J+", 1), ("J-", "J-", "J+", 1)],
    "sl2_eta": [("X1", "X1", "X0", "1/2*eta"), ("X2", "X2", "X0", "1/2*eta")],
    "iso11_eta": [("X1", "X0", "X1", "eta"), ("X2", "X0", "X2", "eta")],
}

DUAL_LABELS = {
    "ck": ("a1", "a2", "theta"),
    "j": ("chi", "a+", "a-"),
    "x": ("x0", "x1", "x2"),
    "glambda": ("j", "p0", "p1", "p2", "k1", "k2"),
}


def build_bialgebra(algebra, key, duals):
    from liedouble.bialgebra import cocomm_from_wedge, new_bialgebra

    f = cocomm_from_wedge(algebra, COCOMM_TERMS[key])
    return new_bialgebra(algebra, f, dual_labels=duals)


@pytest.fixture(scope="session")
def sl2_hyp(sl2_ck):
    return build_bialgebra(sl2_ck, "sl2_hyp", DUAL_LABELS["ck"])


@pytest.fixture(scope="session")
def sl2_ell(sl2_ck):
    return build_bialgebra(sl2_ck, "sl2_ell", DUAL_LABELS["ck"])


@pytest.fixture(scope="session")
def sl2_par(sl2_ck):
    return build_bialgebra(sl2_ck, "sl2_par", DUAL_LABELS["ck"])


@pytest.fixture(scope="session")
def sl2_hyp_j(sl2_std):
    return build_bialgebra(sl2_std, "sl2_hyp_j", DUAL_LABELS["j"])


@pytest.fixture(scope="session")
def sl2_par_j(sl2_std):
    return build_bialgebra(sl2_std, "sl2_par_j", DUAL_LABELS["j"])


@pytest.fixture(scope="session")
def sl2_eta(sl2_x):
    return build_bialgebra(sl2_x, "sl2_eta", DUAL_LABELS["x"])


@pytest.fixture(scope="session")
def iso11_eta(iso11):
    return build_bialgebra(iso11, "iso11_eta", DUAL_LABELS["x"])


def coboundary_bialgebra(algebra, r, duals):
    from liedouble.bialgebra import new_bialgebra
    from liedouble.rmatrix import cocommutator_from_r

    return new_bialgebra(algebra, cocommutator_from_r(algebra, r), dual_labels=duals)


@pytest.fixture(scope="session")
def so22_eta(glambda):
    from liedouble.liealg import substitute_params

    return substitute_params(glambda, {"kappa": "eta^2"})


@pytest.fixture(scope="session")
def so22_r1(so22_eta, rmats):
    return coboundary_bialgebra(so22_eta, rmats["r1"], DUAL_LABELS["glambda"])


@pytest.fixture(scope="session")
def so22_twisted(so22_eta, rmats):
    r = rmats["twisted"].substitute({"xi": 1})
    return coboundary_bialgebra(so22_eta, r, DUAL_LABELS["glambda"])


# --- published six-dimensional double tables --------------------------------

# basis (X0, X1, X2, x0, x1, x2)
D_SL2_ETA_BRACKETS = [
    (0, 1, 1, 2),
    (0, 2, 2, -2),
    (1, 2, 0, 1),
    (3, 4, 4, "-1/2*eta"),
    (3, 5, 5, "-1/2*eta"),
    (3, 1, 5, 1),
    (3, 1, 1, "1/2*eta"),
    (3, 2, 4, -1),
    (3, 2, 2, "1/2*eta"),
    (4, 0, 4, 2),
    (4, 1, 3, -2),
    (4, 1, 0, "-1/2*eta"),
    (5, 0, 5, -2),
    (5, 2, 3, 2),
    (5, 2, 0, "-1/2*eta"),
]

D_ISO11_ETA_BRACKETS = [
    (0, 1, 2, -1),
    (0, 2, 1, -1),
    (3, 4, 4, "eta"),
    (3, 5, 5, "eta"),
    (3, 1, 1, "-eta"),
    (3, 2, 2, "-eta"),
    (4, 0, 5, -1),
    (4, 1, 0, "eta"),
    (4, 2, 3, 1),
    (5, 0, 4, -1),
    (5, 1, 3, 1),
    (5, 2, 0, "eta"),
]

D_LABELS_X = ("X0", "X1", "X2", "x0", "x1", "x2")


@pytest.fixture(scope="session")
def d_sl2_eta_published():
    return new_lie_algebra(6, D_LABELS_X, D_SL2_ETA_BRACKETS, params=("eta",))


@pytest.fixture(scope="session")
def d_iso11_eta_published():
    return new_lie_algebra(6, D_LABELS_X, D_ISO11_ETA_BRACKETS, params=("eta",))
