import importlib.util
from importlib import resources
from pathlib import Path

import pytest
from dense import dense_f, dense_r

from liedouble import catalog
from liedouble.double import build_double
from liedouble.errors import ParseError, UnknownKey
from liedouble.exactalg import PolyExpr
from liedouble.liealg import algebras_equal, change_basis, substitute_params


@pytest.fixture(scope="module")
def cat():
    return catalog.load()


def test_load_validates_everything(cat):
    # reaching here means every entry passed its validator; spot check counts
    assert len(cat.list("algebra")) >= 7
    assert len(cat.list("bialgebra")) >= 9
    assert len(cat.list("rmatrix")) >= 10
    assert len(cat.list("basis_change")) >= 4
    assert len(cat.list("bracket_fn")) == 8


def test_get_known_keys(cat):
    entry = cat.get("sl2.hyperbolic")
    assert entry.kind == "rmatrix"
    r = entry.payload
    i = r.labels.index("P1")
    j = r.labels.index("P2")
    assert str(dense_r(r)[i][j]) == "2*eta"
    assert cat.get("so22.generic").raw["params"] == [
        "a1", "a2", "a3", "a4", "a5", "a6",
        "b1", "b2", "b3", "b4", "b5", "b6", "c1", "c2", "c3",
    ]


def test_unknown_key(cat):
    with pytest.raises(UnknownKey):
        cat.get("nosuchkey")
    with pytest.raises(UnknownKey):
        cat.list("nosuchkind")


def test_list_kinds(cat):
    rmats = cat.list("rmatrix")
    for key in (
        "sl2.hyperbolic", "sl2.elliptic", "sl2.parabolic",
        "so22.generic", "so22.psc", "so22.r1", "so22.twisted",
    ):
        assert key in rmats
    basis = cat.list("basis_change")
    for key in ("bchange-JK", "csbasis6", "csbasis7", "PJ-from-Jpm"):
        assert key in basis
    algebras = cat.list("algebra")
    for key in ("sl2.std", "ck2d", "gLambda", "d-sl2-eta", "d-iso11-eta"):
        assert key in algebras
    bials = cat.list("bialgebra")
    for key in ("sl2-hyp", "sl2-ell", "sl2-par", "sl2-eta", "iso11-eta",
                "so22-r1", "so22-twisted", "sl2-trivial"):
        assert key in bials


def test_catalog_matches_reference_builders(cat, sl2_std, sl2_ck, ck2d, glambda,
                                            iso11, d_sl2_eta_published,
                                            d_iso11_eta_published):
    pairs = [
        ("sl2.std", sl2_std),
        ("sl2.ck", sl2_ck),
        ("ck2d", ck2d),
        ("gLambda", glambda),
        ("iso11", iso11),
        ("d-sl2-eta", d_sl2_eta_published),
        ("d-iso11-eta", d_iso11_eta_published),
    ]
    for key, reference in pairs:
        assert algebras_equal(cat.algebra(key), reference), key
        assert cat.algebra(key).labels == reference.labels


def test_catalog_bialgebras_match_reference(cat, sl2_hyp, sl2_eta, iso11_eta,
                                            so22_r1, so22_twisted):
    for key, reference in (
        ("sl2-hyp", sl2_hyp),
        ("sl2-eta", sl2_eta),
        ("iso11-eta", iso11_eta),
        ("so22-r1", so22_r1),
        ("so22-twisted", so22_twisted),
    ):
        B = cat.bialgebra(key)
        assert algebras_equal(B.algebra, reference.algebra), key
        assert dense_f(B.cocomm) == dense_f(reference.cocomm), key
        assert B.dual_labels == reference.dual_labels, key


@pytest.mark.parametrize(
    "key", [k for k in catalog.load().list("basis_change") if "target" in catalog.get(k).raw]
)
def test_basis_change_maps_source_to_target(cat, key):
    raw = cat.get(key).raw
    source = substitute_params(cat.algebra(raw["source"]), raw.get("source_subs", {}))
    target = substitute_params(cat.algebra(raw["target"]), raw.get("target_subs", {}))
    assert algebras_equal(change_basis(source, cat.basis_change(key)), target)


@pytest.mark.parametrize(
    "key, bialgebra, rmatrix, subs",
    [
        ("csbasis6", "sl2-eta", "so22.r1", {}),
        ("csbasis7", "iso11-eta", "so22.twisted", {"xi": 1}),
    ],
)
def test_basis_change_carries_the_canonical_r_onto_the_so22_rmatrix(
    cat, key, bialgebra, rmatrix, subs
):
    # the paper's two Drinfel'd doubles on SO(2,2): the canonical r of D(g),
    # written in the Cayley-Klein basis, is the catalog r-matrix, exactly
    change, raw = cat.basis_change(key), cat.get(key).raw
    D = build_double(cat.bialgebra(bialgebra))
    assert D.algebra.labels == cat.algebra(raw["source"]).labels
    source_subs = raw.get("source_subs", {})
    r = [[v.substitute(source_subs) for v in row] for row in dense_r(D.canonical_r_skew)]
    W = change.inverse
    n = len(W)
    carried = [
        [sum((W[i][a] * r[i][j] * W[j][b] for i in range(n) for j in range(n)),
             PolyExpr.zero()) for b in range(n)]
        for a in range(n)
    ]
    target = cat.rmatrix(rmatrix)
    assert target.labels == change.labels
    assert carried == [[v.substitute(subs) for v in row] for row in dense_r(target)]


def test_rmatrix_algebra_applies_substitution(cat):
    alg = cat.rmatrix_algebra("so22.r1")
    assert "kappa" not in alg.params
    reference = substitute_params(cat.algebra("gLambda"), {"kappa": "eta^2"})
    assert algebras_equal(alg, reference)


def test_default_verification_cells(cat):
    cells = catalog.default_verification_cells(cat)
    assert sorted(c.bracket_id for c in cells) == [
        "ell-CK", "ell-PM", "hyp-CK", "hyp-PM", "par-CK", "par-PM",
    ]
    assert catalog.property_check_ids(cat) == ["ads3-double1", "ads3-twisted"]


def test_generator_reproduces_the_shipped_catalog():
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_catalog.py"
    spec = importlib.util.spec_from_file_location("gen_catalog", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    root = resources.files("liedouble").joinpath("data", "catalog")
    shipped = {
        f"{folder.name}/{item.name}": item.read_text()
        for folder in root.iterdir()
        if folder.is_dir()
        for item in folder.iterdir()
        if item.name.endswith(".json")
    }
    generated = {rel: gen.file_text(data) for rel, data in gen.catalog_files().items()}
    assert generated == shipped


def test_catalog_load_is_cached():
    a = catalog.load()
    b = catalog.load()
    assert a is b


def test_every_entry_builds(cat):
    # load() only reads the JSON; this is the full validation pass
    for key in cat.list():
        entry = cat.get(key)
        assert entry.key == key
        assert entry.kind == entry.raw["kind"]


def test_broken_entry_fails_only_where_referenced():
    raw = catalog._load_raw()
    raw["so22.r1"]["verdicts"]["mcybe"] = not raw["so22.r1"]["verdicts"]["mcybe"]
    broken = catalog.Catalog(raw)
    with pytest.raises(ParseError, match="'so22.r1' fails its declared mCYBE"):
        broken.get("so22.r1")
    with pytest.raises(ParseError, match="'so22.r1' fails its declared mCYBE"):
        broken.get("so22-r1")  # its generating r-matrix is the broken entry
    assert broken.get("sl2-hyp").kind == "bialgebra"
    assert broken.list() == catalog.load().list()


@pytest.mark.parametrize(
    "key, verdict, message",
    [
        ("sl2.hyperbolic", "cybe",
         "CYBE verdict: first nonzero component [[r,r]]^(P1, P2, J12) = 4*eta^2"),
        ("so22.psc", "mcybe",
         "mCYBE verdict: first nonzero component (ad_P2 [[r,r]])^(J, P0, K1) = "
         "a2^2 - 4*a6^2*kappa + b2^2 - c2^2"),
        ("so22.r1", "mcybe", "mCYBE verdict"),  # declared false, holds: no residual
    ],
)
def test_wrong_declared_verdict_names_the_residual(key, verdict, message):
    raw = catalog._load_raw()
    raw[key]["verdicts"][verdict] = not raw[key]["verdicts"][verdict]
    with pytest.raises(ParseError) as err:
        catalog.Catalog(raw).get(key)
    assert str(err.value) == f"r-matrix {key!r} fails its declared {message}"


def test_rmatrix_verdicts_share_one_cocommutator(monkeypatch):
    calls = []
    real = catalog.cocommutator_from_r

    def counting(L, r):
        calls.append(r)
        return real(L, r)

    monkeypatch.setattr(catalog, "cocommutator_from_r", counting)
    fresh = catalog.Catalog(catalog._load_raw())
    for key in fresh.list("rmatrix"):
        calls.clear()
        fresh.get(key)
        assert len(calls) == 1, key


def test_missing_reference_is_a_parse_error():
    raw = catalog._load_raw()
    raw["sl2.hyperbolic"]["algebra"] = "no-such-algebra"
    raw["hyp-CK"]["rmatrix"] = "sl2.ck"  # an algebra, not an r-matrix
    broken = catalog.Catalog(raw)
    with pytest.raises(ParseError, match="'sl2.hyperbolic' references missing algebra"):
        broken.get("sl2.hyperbolic")
    with pytest.raises(ParseError, match="'hyp-CK' references missing r-matrix"):
        broken.get("hyp-CK")


def test_entries_built_once_after_their_references(monkeypatch):
    built = []

    def recording(builder):
        def build(cat, data):
            payload = builder(cat, data)
            built.append(data["key"])
            return payload

        return build

    monkeypatch.setattr(
        catalog, "_BUILDERS",
        {kind: recording(b) for kind, b in catalog._BUILDERS.items()},
    )
    fresh = catalog.Catalog(catalog._load_raw())
    assert built == []
    first = fresh.get("so22-r1")
    assert fresh.get("so22-r1") is first
    assert fresh.bialgebra("so22-r1") is first.payload
    fresh.get("so22.r1")
    fresh.get("gLambda")
    assert built == ["gLambda", "so22.r1", "so22-r1"]


def test_typed_accessors_check_kind_before_building():
    fresh = catalog.Catalog(catalog._load_raw())
    for accessor, key in (
        (fresh.bialgebra, "so22.generic"),
        (fresh.rmatrix, "gLambda"),
        (fresh.basis_change, "sl2-hyp"),
        (fresh.algebra, "so22.generic"),
    ):
        with pytest.raises(UnknownKey, match="is not an? .* entry"):
            accessor(key)
    assert fresh._entries == {}
    assert fresh.algebra("sl2-hyp") is fresh.bialgebra("sl2-hyp").algebra


def test_wrong_generating_rmatrix_names_the_first_differing_component():
    raw = catalog._load_raw()
    raw["so22-twisted"]["r_matrix_subs"] = {"xi": "2"}
    with pytest.raises(ParseError) as err:
        catalog.Catalog(raw).get("so22-twisted")
    assert str(err.value) == (
        "bialgebra 'so22-twisted' disagrees with its generating r-matrix: "
        "f_(J)^(P1, K1) = 1/2, but δ_r gives 1"
    )
    # that is the first (i, j, k) with j < k where the dense tensors differ
    from liedouble.rmatrix import cocommutator_from_r

    B = catalog.load().bialgebra("so22-twisted")
    r = catalog.load().rmatrix("so22.twisted").substitute({"xi": 2})
    shipped = dense_f(B.cocomm)
    generated = dense_f(cocommutator_from_r(B.algebra, r))
    n = B.dim
    first = next(
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(j + 1, n)
        if shipped[i][j][k] != generated[i][j][k]
    )
    i, j, k = first
    assert [B.algebra.labels[x] for x in first] == ["J", "P1", "K1"]
    assert (str(shipped[i][j][k]), str(generated[i][j][k])) == ("1/2", "1")


def test_catalog_double_and_classify_fill_no_dense_view(monkeypatch):
    # every builder works on entries: building the catalog, the doubles and
    # their tables, and one classify read no LieAlgebra.c, of g or of g*,
    # and so no LieAlgebra.f, which is built from it
    from liedouble.double import bracket_table_text, build_double, double_of_double
    from liedouble.homogeneous import LagrangianSpec, classify
    from liedouble.liealg import LieAlgebra

    filled = []
    view = LieAlgebra.c

    def recording(self):
        filled.append(self.labels)
        return view.fget(self)

    monkeypatch.setattr(LieAlgebra, "c", property(recording))
    fresh = catalog.Catalog(catalog._load_raw())
    for key in fresh.list():
        fresh.get(key)
    for key in fresh.list("bialgebra"):
        B = fresh.bialgebra(key)
        D2 = double_of_double(B)
        bracket_table_text(B.double_algebra)
        bracket_table_text(D2.algebra)
    B = fresh.bialgebra("sl2-hyp")
    h = [B.algebra.vector({"J12": 1})]
    complement = [B.algebra.basis_vector("P1"), B.algebra.basis_vector("P2")]
    rep = classify(build_double(B), B, LagrangianSpec(h, complement, [[0, 0], [0, 0]]))
    assert rep.poisson_subgroup
    rep.table, rep.to_json()  # nor do the report's table and M
    assert filled == []
