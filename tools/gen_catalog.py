"""One-off generator for the shipped catalog JSON files.

Run from the repository root:  python3 tools/gen_catalog.py
Everything is assembled through the library itself so the files cannot
drift from the validated in-memory objects.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from liedouble.bialgebra import cocomm_from_wedge, new_bialgebra, to_json
from liedouble.liealg import new_lie_algebra
from liedouble.rmatrix import cocommutator_from_r, rmatrix_from_wedge

ROOT = Path(__file__).resolve().parents[1] / "src" / "liedouble" / "data" / "catalog"

# ---------------------------------------------------------------- algebras

SL2_STD = ("sl2.std", ("J3", "J+", "J-"), [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)], (),
           "sl(2,R) in the standard (J3, J+, J-) basis")
SL2_CK = ("sl2.ck", ("P1", "P2", "J12"), [(2, 0, 1, 1), (2, 1, 0, 1), (0, 1, 2, 1)], (),
          "sl(2,R) in the Lorentzian Cayley-Klein basis (P1, P2, J12)")
CK2D = ("ck2d", ("P1", "P2", "J12"),
        [(2, 0, 1, 1), (2, 1, 0, "-k2"), (0, 1, 2, "k1")], ("k1", "k2"),
        "two-parameter family of 2d Cayley-Klein isometry algebras")
GLAMBDA = ("gLambda", ("J", "P0", "P1", "P2", "K1", "K2"), [
    (0, 2, 3, 1), (0, 3, 2, -1), (0, 4, 5, 1), (0, 5, 4, -1),
    (2, 4, 1, -1), (3, 5, 1, -1), (1, 4, 2, -1), (1, 5, 3, -1),
    (4, 5, 0, -1), (1, 2, 4, "kappa"), (1, 3, 5, "kappa"), (2, 3, 0, "-kappa"),
], ("kappa",), "3d Cayley-Klein isometry family; kappa is minus the cosmological constant")
SL2_X = ("sl2.x", ("X0", "X1", "X2"), [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)], (),
         "sl(2,R) relabelled (X0, X1, X2) as the base of the first 6d double")
ISO11 = ("iso11", ("X0", "X1", "X2"), [(0, 1, 2, -1), (0, 2, 1, -1)], (),
         "2d Poincare algebra iso(1,1)")

ALGEBRAS = {}
for key, labels, entries, params, prov in (SL2_STD, SL2_CK, CK2D, GLAMBDA, SL2_X, ISO11):
    ALGEBRAS[key] = (new_lie_algebra(len(labels), labels, entries, params), prov)

# the two six-dimensional doubles ship as explicit algebra entries too
COC = {
    "sl2_hyp": [("P1", "P1", "J12", "2*eta"), ("P2", "P2", "J12", "2*eta")],
    "sl2_ell": [("J12", "J12", "P1", "2*z"), ("P2", "P2", "P1", "2*z")],
    "sl2_par": [("J12", "J12", "P1", 1), ("J12", "J12", "P2", 1),
                ("P1", "P1", "P2", 1), ("P2", "P2", "P1", 1)],
    "sl2_hyp_j": [("J+", "J+", "J3", "eta"), ("J-", "J-", "J3", "eta")],
    "sl2_par_j": [("J3", "J3", "J+", 1), ("J-", "J-", "J+", 1)],
    "sl2_eta": [("X1", "X1", "X0", "1/2*eta"), ("X2", "X2", "X0", "1/2*eta")],
    "iso11_eta": [("X1", "X0", "X1", "eta"), ("X2", "X0", "X2", "eta")],
}


def bial(algebra, coc_key, duals):
    f = cocomm_from_wedge(algebra, COC[coc_key])
    return new_bialgebra(algebra, f, dual_labels=duals)


B_SL2_HYP = bial(ALGEBRAS["sl2.ck"][0], "sl2_hyp", ("a1", "a2", "theta"))
B_SL2_ELL = bial(ALGEBRAS["sl2.ck"][0], "sl2_ell", ("a1", "a2", "theta"))
B_SL2_PAR = bial(ALGEBRAS["sl2.ck"][0], "sl2_par", ("a1", "a2", "theta"))
B_SL2_HYP_J = bial(ALGEBRAS["sl2.std"][0], "sl2_hyp_j", ("chi", "a+", "a-"))
B_SL2_PAR_J = bial(ALGEBRAS["sl2.std"][0], "sl2_par_j", ("chi", "a+", "a-"))
B_SL2_ETA = bial(ALGEBRAS["sl2.x"][0], "sl2_eta", ("x0", "x1", "x2"))
B_ISO11_ETA = bial(ALGEBRAS["iso11"][0], "iso11_eta", ("x0", "x1", "x2"))

from liedouble.double import build_double
from liedouble.liealg import substitute_params

D_SL2 = build_double(B_SL2_ETA).algebra
D_ISO11 = build_double(B_ISO11_ETA).algebra
ALGEBRAS["d-sl2-eta"] = (
    D_SL2,
    "first classical-double bracket table on (X, x); equals so(2,2) for eta != 0",
)
ALGEBRAS["d-iso11-eta"] = (
    D_ISO11,
    "second classical-double bracket table on (X, x), base iso(1,1)",
)

# ---------------------------------------------------------------- r-matrices

GL = ("J", "P0", "P1", "P2", "K1", "K2")
RMATS = {
    "sl2.hyperbolic": dict(
        algebra="sl2.ck", terms=[("P1", "P2", "2*eta")], params=["eta"],
        verdicts=dict(cybe=False, mcybe=True),
        provenance="standard (hyperbolic) family on sl(2,R), CK basis"),
    "sl2.elliptic": dict(
        algebra="sl2.ck", terms=[("J12", "P2", "2*z")], params=["z"],
        verdicts=dict(cybe=False, mcybe=True),
        provenance="elliptic family on sl(2,R), CK-basis normalization"),
    "sl2.parabolic": dict(
        algebra="sl2.ck", terms=[("J12", "P1", "1"), ("J12", "P2", "1")], params=[],
        verdicts=dict(cybe=True, mcybe=True),
        provenance="triangular (parabolic) family on sl(2,R), CK basis"),
    "sl2.hyperbolic.j": dict(
        algebra="sl2.std", terms=[("J+", "J-", "eta")], params=["eta"],
        verdicts=dict(cybe=False, mcybe=True),
        provenance="standard (hyperbolic) family, (J3, J+, J-) basis"),
    "sl2.elliptic.j": dict(
        algebra="sl2.std", terms=[("J3", "J+", "z"), ("J3", "J-", "z")], params=["z"],
        verdicts=dict(cybe=False, mcybe=True),
        provenance="elliptic family, (J3, J+, J-)-basis normalization "
                   "(differs from the CK-basis one by a factor 2)"),
    "sl2.parabolic.j": dict(
        algebra="sl2.std", terms=[("J3", "J+", "1/2")], params=[],
        verdicts=dict(cybe=True, mcybe=True),
        provenance="triangular (parabolic) family, (J3, J+, J-) basis"),
    "so22.generic": dict(
        algebra="gLambda",
        terms=[("J", "P1", "a1"), ("J", "K1", "a2"), ("P0", "P1", "a3"),
               ("P0", "K1", "a4"), ("P1", "K1", "a5"), ("P1", "K2", "a6"),
               ("J", "P2", "b1"), ("J", "K2", "b2"), ("P0", "P2", "b3"),
               ("P0", "K2", "b4"), ("P2", "K2", "b5"), ("P2", "K1", "b6"),
               ("J", "P0", "c1"), ("K1", "K2", "c2"), ("P1", "P2", "c3")],
        params=["a1", "a2", "a3", "a4", "a5", "a6",
                "b1", "b2", "b3", "b4", "b5", "b6", "c1", "c2", "c3"],
        verdicts=dict(cybe=False, mcybe=False),
        provenance="generic antisymmetric element, 15 free coefficients"),
    "so22.psc": dict(
        algebra="gLambda",
        terms=[("J", "K1", "a2"), ("J", "K2", "b2"), ("K1", "K2", "c2"),
               ("J", "P0", "-a6"), ("P1", "K2", "a6"), ("K1", "P2", "a6")],
        params=["a2", "b2", "c2", "a6"],
        verdicts=dict(cybe=False, mcybe=False),
        constraint="a2^2 + b2^2 - c2^2 - 4*kappa*a6^2",
        provenance="family whose Lorentz sector is a sub-bialgebra; solves the "
                   "mCYBE exactly on the constraint variety"),
    "so22.carrier": dict(
        algebra="gLambda",
        terms=[("J", "K1", "3"), ("J", "K2", "4"), ("K1", "K2", "5")], params=[],
        verdicts=dict(cybe=True, mcybe=True),
        provenance="boost-sector triangular point (3,4,5) of the Lorentz family"),
    "so22.r1": dict(
        algebra="gLambda", algebra_subs={"kappa": "eta^2"},
        terms=[("J", "K1", "eta"), ("J", "P0", "1/2"),
               ("K2", "P1", "1/2"), ("K1", "P2", "-1/2")],
        params=["eta"],
        verdicts=dict(cybe=False, mcybe=True),
        provenance="classical-double r-matrix transported from the first 6d double"),
    "so22.twisted": dict(
        algebra="gLambda",
        terms=[("K2", "P0", "-1/2"), ("J", "P1", "-1/2"), ("K1", "P2", "1/2*xi")],
        params=["xi"],
        verdicts=dict(cybe=False, mcybe=True),
        provenance="twisted space-like deformation family; xi scales the twist"),
}

# ---------------------------------------------------------------- bialgebras

BIALS = {
    "sl2-hyp": (B_SL2_HYP, "sl2.hyperbolic",
                "hyperbolic bialgebra on sl(2,R), CK basis; duals (a1, a2, theta)"),
    "sl2-ell": (B_SL2_ELL, "sl2.elliptic", "elliptic bialgebra on sl(2,R), CK basis"),
    "sl2-par": (B_SL2_PAR, "sl2.parabolic",
                "parabolic bialgebra on sl(2,R), CK basis (z = 1)"),
    "sl2-hyp-j": (B_SL2_HYP_J, "sl2.hyperbolic.j",
                  "hyperbolic bialgebra, (J3, J+, J-) basis"),
    "sl2-par-j": (B_SL2_PAR_J, "sl2.parabolic.j",
                  "parabolic bialgebra, (J3, J+, J-) basis (z = 1); duals (chi, a+, a-)"),
    "sl2-eta": (B_SL2_ETA, None,
                "self-dual-pair base of the first 6d double; cobracket from "
                "(eta/2) X1^X2"),
    "iso11-eta": (B_ISO11_ETA, None,
                  "iso(1,1) bialgebra base of the second 6d double (not coboundary)"),
    "sl2-trivial": (new_bialgebra(ALGEBRAS["sl2.std"][0],
                                  cocomm_from_wedge(ALGEBRAS["sl2.std"][0], []),
                                  dual_labels=("chi", "a+", "a-")), None,
                    "sl(2,R) with the zero cocommutator"),
}

glam_eta = substitute_params(ALGEBRAS["gLambda"][0], {"kappa": "eta^2"})
r_r1 = rmatrix_from_wedge(GL, RMATS["so22.r1"]["terms"])
B_SO22_R1 = new_bialgebra(
    glam_eta, cocommutator_from_r(glam_eta, r_r1),
    dual_labels=("j", "p0", "p1", "p2", "k1", "k2"))
r_tw = rmatrix_from_wedge(GL, RMATS["so22.twisted"]["terms"]).substitute({"xi": 1})
B_SO22_TW = new_bialgebra(
    glam_eta, cocommutator_from_r(glam_eta, r_tw),
    dual_labels=("j", "p0", "p1", "p2", "k1", "k2"))
BIALS["so22-r1"] = (B_SO22_R1, "so22.r1",
                    "so(2,2) with the first classical-double cobracket (kappa = eta^2)")
BIALS["so22-twisted"] = (B_SO22_TW, "so22.twisted",
                         "so(2,2) with the twisted space-like cobracket at xi = 1 "
                         "(kappa = eta^2)")

# ---------------------------------------------------------------- basis changes

BASIS_CHANGES = {
    "csbasis6": dict(
        source="d-sl2-eta",
        labels=["J", "P0", "P1", "P2", "K1", "K2"],
        rows=[
            ["0", "-1/2", "1/2", "0", "0", "0"],
            ["0", "-1/2*eta", "-1/2*eta", "0", "1", "-1"],
            ["0", "0", "0", "2", "0", "0"],
            ["0", "1/2*eta", "-1/2*eta", "0", "1", "1"],
            ["0", "1/2", "1/2", "0", "0", "0"],
            ["-1/2", "0", "0", "0", "0", "0"],
        ],
        target="gLambda", target_subs={"kappa": "eta^2"},
        provenance="maps the first 6d double onto the Cayley-Klein basis"),
    "csbasis7": dict(
        source="d-iso11-eta",
        source_subs={"eta": "2*seta^2"},
        labels=["J", "P0", "P1", "P2", "K1", "K2"],
        rows=[
            ["0", "0", "1/2*seta^-1", "0", "-1/2*seta^-1", "0"],
            ["0", "seta", "0", "0", "0", "-seta"],
            ["0", "seta", "0", "0", "0", "seta"],
            ["-2*seta^2", "0", "0", "0", "0", "0"],
            ["0", "0", "0", "-1/2*seta^-2", "0", "0"],
            ["0", "0", "-1/2*seta^-1", "0", "-1/2*seta^-1", "0"],
        ],
        target="gLambda", target_subs={"kappa": "4*seta^4"},
        provenance="maps the second 6d double onto the Cayley-Klein basis; "
                   "seta^2 = eta/2 clears the square roots"),
    "bchange-JK": dict(
        source="gLambda",
        labels=["J0", "J1", "J2", "P0", "P1", "P2"],
        rows=[
            ["1", "0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "-1"],
            ["0", "0", "0", "0", "1", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "0", "0", "1", "0", "0"],
        ],
        provenance="relabels the Lorentz sector: J0 = J, J1 = -K2, J2 = K1"),
    "PJ-from-Jpm": dict(
        source="sl2.std",
        labels=["P1", "P2", "J12"],
        rows=[
            ["0", "1/2", "-1/2"],
            ["0", "1/2", "1/2"],
            ["1/2", "0", "0"],
        ],
        target="sl2.ck",
        provenance="standard-to-Cayley-Klein change on sl(2,R)"),
}

# ---------------------------------------------------------------- bracket fns

BRACKETS = {
    "hyp-CK": dict(chart="CK", rmatrix="sl2.hyperbolic", param_ranges={"eta": [0.3, 0.9]},
                   provenance="hyperbolic family in Cayley-Klein coordinates"),
    "hyp-PM": dict(chart="PM", rmatrix="sl2.hyperbolic.j", param_ranges={"eta": [0.3, 0.9]},
                   provenance="hyperbolic family in (a+, a-, chi) coordinates"),
    "ell-CK": dict(chart="CK", rmatrix="sl2.elliptic", param_ranges={"z": [0.3, 0.9]},
                   provenance="elliptic family in Cayley-Klein coordinates"),
    "ell-PM": dict(chart="PM", rmatrix="sl2.elliptic.j", param_ranges={"z": [0.3, 0.9]},
                   provenance="elliptic family in (a+, a-, chi) coordinates "
                              "(J-basis normalization)"),
    "par-CK": dict(chart="CK", rmatrix="sl2.parabolic", param_ranges={},
                   provenance="parabolic family in Cayley-Klein coordinates"),
    "par-PM": dict(chart="PM", rmatrix="sl2.parabolic.j", param_ranges={},
                   provenance="parabolic family in (a+, a-, chi) coordinates"),
    # the ADS3 chart (x0, x1, x2) is the complement (P0, P1, P2) of the isotropy
    "ads3-double1": dict(chart="ADS3", rmatrix="so22.r1", isotropy=["J", "K1", "K2"],
                         param_ranges={"eta": [0.3, 0.8]},
                         provenance="3d anti-de Sitter bracket of the first double "
                                    "structure; verified by Jacobi, linearization "
                                    "and flat-limit properties"),
    "ads3-twisted": dict(chart="ADS3", rmatrix="so22.twisted", isotropy=["J", "K1", "K2"],
                         param_ranges={"eta": [0.3, 0.8], "xi": [0.0, 1.0]},
                         provenance="twisted space-like 3d anti-de Sitter bracket"),
}

def catalog_files() -> dict:
    """Every catalog file as {path relative to the catalog root: JSON data}."""
    files = {}
    for key, (alg, prov) in ALGEBRAS.items():
        data = {"key": key, "kind": "algebra", "provenance": prov}
        data.update(alg.to_json())
        files[f"algebras/{key}.json"] = data

    for key, (B, rkey, prov) in BIALS.items():
        data = {"key": key, "kind": "bialgebra", "provenance": prov}
        data.update(to_json(B))
        if rkey:
            data["r_matrix"] = rkey
            if rkey == "so22.twisted":
                data["r_matrix_subs"] = {"xi": "1"}
        files[f"bialgebras/{key}.json"] = data

    for key, spec in RMATS.items():
        data = {"key": key, "kind": "rmatrix", "provenance": spec["provenance"],
                "algebra": spec["algebra"], "params": spec["params"],
                "terms": [{"i": i, "j": j, "coef": str(c)} for i, j, c in spec["terms"]],
                "verdicts": spec["verdicts"]}
        if "algebra_subs" in spec:
            data["algebra_subs"] = spec["algebra_subs"]
        if "constraint" in spec:
            data["constraint"] = spec["constraint"]
        files[f"rmatrices/{key}.json"] = data

    for key, spec in BASIS_CHANGES.items():
        data = {"key": key, "kind": "basis_change",
                "provenance": spec["provenance"], "source": spec["source"],
                "labels": spec["labels"], "rows": spec["rows"]}
        for opt in ("source_subs", "target", "target_subs"):
            if opt in spec:
                data[opt] = spec[opt]
        files[f"basis_changes/{key}.json"] = data

    for key, spec in BRACKETS.items():
        data = {"key": key, "kind": "bracket_fn", "bracket_id": key, **spec}
        files[f"brackets/{key}.json"] = data
    return files


def file_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def main():
    for rel, data in catalog_files().items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(file_text(data))
        print("wrote", path.relative_to(ROOT.parents[2]))

if __name__ == "__main__":
    main()
