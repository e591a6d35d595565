"""Built-in registry of algebras, bialgebras, r-matrices, basis changes and
closed-form brackets, shipped as JSON data files.

:func:`load` only reads the JSON.  Each entry is validated on first access,
after the entries it references, by the builder of its kind: algebras must
satisfy Jacobi; bialgebras must build a Jacobi-clean double and agree with
their generating r-matrix, if any; r-matrices must match their declared
CYBE/mCYBE verdicts (after any declared parameter substitution of their
carrier algebra); basis changes must be exactly invertible; bracket entries
must point at a registered closed form and at the r-matrix it comes from.
:data:`CHECKS` names these checks.

A bracket entry's ``rmatrix`` is its exact origin.  An entry without
``isotropy`` is a Sklyanin bracket on the group and is checked against the
r-matrix numerically; one with ``isotropy`` (the generators of h) is a
Poisson homogeneous bracket on G/H, checked by properties whose targets
:mod:`liedouble.cli` derives from the r-matrix and h.

The files live under ``liedouble/data/catalog/<kind>s/`` and use the same
JSON schemas as the modules' external interfaces, so they can be diffed
and extended by hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .bialgebra import LieBialgebra, from_json as bialgebra_from_json
from .errors import ParseError, UnknownKey
from .exactalg import PolyExpr
from .liealg import (
    BasisChange,
    LieAlgebra,
    _component,
    from_json as algebra_from_json,
    is_jacobi_zero,
    substitute_params,
)
from .rmatrix import (
    RMatrix,
    _cybe_residual,
    _defect_note,
    cocommutator_from_r,
    rmatrix_from_wedge,
)

_KIND_DIRS = {
    "algebra": "algebras",
    "bialgebra": "bialgebras",
    "rmatrix": "rmatrices",
    "basis_change": "basis_changes",
    "bracket_fn": "brackets",
}
KINDS = tuple(_KIND_DIRS)

# The checks an entry has passed once :meth:`Catalog.get` returns it.
CHECKS = {
    "algebra": ("jacobi",),
    "bialgebra": ("double-jacobi",),
    "rmatrix": ("cybe-verdict", "mcybe-verdict"),
    "basis_change": ("invertible",),
    "bracket_fn": ("registered-bracket",),
}

_NOUNS = {"algebra": "algebra", "bialgebra": "bialgebra", "rmatrix": "r-matrix",
          "bracket_fn": "bracket"}


@dataclass
class CatalogEntry:
    key: str
    kind: str
    payload: object
    provenance: str
    raw: dict


class Catalog:
    """Read-only registry over the parsed JSON; load once and share.  An
    entry is built and validated on its first :meth:`get`, after the
    entries it references, and kept."""

    def __init__(self, raw: dict):
        self._raw = raw
        self._entries: dict[str, CatalogEntry] = {}

    def get(self, key: str) -> CatalogEntry:
        if key not in self._entries:
            if key not in self._raw:
                raise UnknownKey(f"no catalog entry named {key!r}")
            data = self._raw[key]
            payload = _BUILDERS[data["kind"]](self, data)
            self._entries[key] = CatalogEntry(
                key, data["kind"], payload, data.get("provenance", ""), data
            )
        return self._entries[key]

    def list(self, kind: str | None = None) -> list:
        if kind is not None and kind not in KINDS:
            raise UnknownKey(f"unknown catalog kind {kind!r}")
        return sorted(
            k for k, d in self._raw.items() if kind is None or d["kind"] == kind
        )

    def _payload(self, key: str, kinds: tuple, what: str):
        if key in self._raw and self._raw[key]["kind"] not in kinds:
            raise UnknownKey(f"{key!r} is not {what} entry")
        return self.get(key).payload

    def algebra(self, key: str) -> LieAlgebra:
        payload = self._payload(key, ("algebra", "bialgebra"), "an algebra")
        return payload.algebra if isinstance(payload, LieBialgebra) else payload

    def bialgebra(self, key: str) -> LieBialgebra:
        return self._payload(key, ("bialgebra",), "a bialgebra")

    def rmatrix(self, key: str) -> RMatrix:
        return self._payload(key, ("rmatrix",), "an r-matrix")

    def rmatrix_algebra(self, key: str) -> LieAlgebra:
        """Carrier algebra of an r-matrix entry, with its declared
        substitutions applied."""
        self.rmatrix(key)
        return self._carrier(self._raw[key])

    def basis_change(self, key: str) -> BasisChange:
        return self._payload(key, ("basis_change",), "a basis-change")

    def _ref(self, data: dict, field: str, kind: str):
        """Payload of the ``kind`` entry named by ``data[field]``, built
        before the entry that references it."""
        ref = self._raw.get(data[field])
        if ref is None or ref["kind"] != kind:
            raise ParseError(
                f"{_NOUNS[data['kind']]} {data['key']!r} references missing "
                f"{_NOUNS[kind]}"
            )
        return self.get(data[field]).payload

    def _carrier(self, data: dict) -> LieAlgebra:
        """The algebra an r-matrix entry lives on, after its
        ``algebra_subs``."""
        alg = self._ref(data, "algebra", "algebra")
        if data.get("algebra_subs"):
            alg = substitute_params(alg, data["algebra_subs"])
        return alg


def _build_algebra(cat: Catalog, data: dict) -> LieAlgebra:
    alg = algebra_from_json(data)
    if not is_jacobi_zero(alg):
        raise ParseError(f"catalog algebra {data['key']!r} violates Jacobi")
    return alg


def _build_bialgebra(cat: Catalog, data: dict) -> LieBialgebra:
    r = cat._ref(data, "r_matrix", "rmatrix") if data.get("r_matrix") else None
    bial = bialgebra_from_json(data)  # validates via the double
    if r is not None:
        if data.get("r_matrix_subs"):
            r = r.substitute(data["r_matrix_subs"])
        mismatch = _first_difference(bial.cocomm, cocommutator_from_r(bial.algebra, r))
        if mismatch:
            raise ParseError(
                f"bialgebra {data['key']!r} disagrees with its generating "
                f"r-matrix: {mismatch}"
            )
    return bial


def _first_difference(f: LieAlgebra, g: LieAlgebra) -> str:
    """``"f_(X_i)^(X_j, X_k) = <f value>, but δ_r gives <g value>"`` at the
    first f_i^{jk} in (i, j, k) order, j < k, where two cocommutators, held
    as g* with C*_jk^i = f_i^{jk}, differ; empty if they agree."""
    ours, theirs = ({(i, j, k): v for j, k, i, v in t.nonzero()} for t in (f, g))
    for key in sorted(ours.keys() | theirs.keys()):
        mine, other = (t.get(key, PolyExpr.zero()) for t in (ours, theirs))
        if mine != other:
            note = _component(f.labels, "f", key[:1], key[1:], mine)
            return f"{note}, but δ_r gives {other}"
    return ""


def _build_rmatrix(cat: Catalog, data: dict) -> RMatrix:
    key = data["key"]
    alg = cat._carrier(data)
    r = rmatrix_from_wedge(
        alg.labels, [(t["i"], t["j"], t["coef"]) for t in data["terms"]]
    )
    f = cocommutator_from_r(alg, r)
    residuals = {
        "CYBE": _cybe_residual(alg, r, f),
        "mCYBE": f.jacobi_components(),
    }
    for name, residual in residuals.items():
        if (not residual) != data["verdicts"][name.lower()]:
            raise ParseError(
                f"r-matrix {key!r} fails its declared {name} verdict"
                + _defect_note(alg, residual, name == "mCYBE")
            )
    return r


def _build_basis_change(cat: Catalog, data: dict) -> BasisChange:
    return BasisChange(data["rows"], data["labels"])  # inverts exactly or raises


def _build_bracket_fn(cat: Catalog, data: dict):
    from . import charts  # deferred: charts imports numpy

    cat._ref(data, "rmatrix", "rmatrix")
    fn = charts.bracket_fn(data["bracket_id"])  # raises UnknownBracket
    if fn.chart_id != data["chart"]:
        raise ParseError(f"bracket {data['key']!r} declares the wrong chart")
    return fn


_BUILDERS = {
    "algebra": _build_algebra,
    "bialgebra": _build_bialgebra,
    "rmatrix": _build_rmatrix,
    "basis_change": _build_basis_change,
    "bracket_fn": _build_bracket_fn,
}


def _load_raw() -> dict:
    root = resources.files("liedouble").joinpath("data", "catalog")
    raw = {}
    for kind, dirname in _KIND_DIRS.items():
        for item in sorted(root.joinpath(dirname).iterdir(), key=lambda f: f.name):
            if not item.name.endswith(".json"):
                continue
            try:
                data = json.loads(item.read_text())
            except json.JSONDecodeError as exc:
                raise ParseError(f"{item.name}: {exc}") from exc
            if data.get("kind") != kind:
                raise ParseError(f"{item.name}: kind mismatch")
            key = data["key"]
            if key in raw:
                raise ParseError(f"duplicate catalog key {key!r}")
            raw[key] = data
    return raw


_CATALOG: Catalog | None = None


def load() -> Catalog:
    """The shared catalog instance.  The JSON is read once per process;
    entries are validated on first access."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = Catalog(_load_raw())
    return _CATALOG


def get(key: str) -> CatalogEntry:
    return load().get(key)


def default_verification_cells(catalog: Catalog) -> list:
    """The Sklyanin verification matrix: one cell per published 2d family."""
    from . import charts  # deferred: charts imports numpy

    cells = []
    for key in catalog.list("bracket_fn"):
        if "isotropy" in catalog._raw[key]:
            continue
        data = catalog.get(key).raw
        cells.append(
            charts.SklyaninCell(
                bracket_id=data["bracket_id"],
                chart_id=data["chart"],
                r=catalog.rmatrix(data["rmatrix"]),
                param_ranges={
                    name: tuple(rng) for name, rng in data["param_ranges"].items()
                },
            )
        )
    return cells


def property_check_ids(catalog: Catalog) -> list:
    """Bracket entries on a homogeneous space G/H, verified by property
    checks instead of Sklyanin; selected unbuilt, as building one builds
    its r-matrix."""
    return [key for key in catalog.list("bracket_fn") if "isotropy" in catalog._raw[key]]
