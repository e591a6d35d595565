"""Built-in registry of algebras, bialgebras, r-matrices, basis changes and
closed-form brackets, shipped as JSON data files.

Every payload is validated on load: algebras must satisfy Jacobi,
bialgebras must build a Jacobi-clean double, r-matrices must match their
declared CYBE/mCYBE verdicts (after any declared parameter substitution of
their carrier algebra), basis changes must be exactly invertible, and
bracket entries must point at a registered closed form.

The files live under ``liedouble/data/catalog/<kind>s/`` and use the same
JSON schemas as the modules' external interfaces, so they can be diffed
and extended by hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from . import charts
from .bialgebra import LieBialgebra, from_json as bialgebra_from_json
from .errors import ParseError, UnknownKey
from .liealg import (
    BasisChange,
    LieAlgebra,
    from_json as algebra_from_json,
    is_jacobi_zero,
    substitute_params,
)
from .rmatrix import RMatrix, is_cybe, is_mcybe, rmatrix_from_wedge

KINDS = ("algebra", "bialgebra", "rmatrix", "basis_change", "bracket_fn")

_KIND_DIRS = {
    "algebra": "algebras",
    "bialgebra": "bialgebras",
    "rmatrix": "rmatrices",
    "basis_change": "basis_changes",
    "bracket_fn": "brackets",
}


@dataclass
class CatalogEntry:
    key: str
    kind: str
    payload: object
    provenance: str
    raw: dict


class Catalog:
    """Validated, read-only registry; load once and share."""

    def __init__(self, entries: dict):
        self._entries = entries

    def get(self, key: str) -> CatalogEntry:
        if key not in self._entries:
            raise UnknownKey(f"no catalog entry named {key!r}")
        return self._entries[key]

    def list(self, kind: str | None = None) -> list:
        if kind is not None and kind not in KINDS:
            raise UnknownKey(f"unknown catalog kind {kind!r}")
        return sorted(
            k for k, e in self._entries.items() if kind is None or e.kind == kind
        )

    def algebra(self, key: str) -> LieAlgebra:
        entry = self.get(key)
        if entry.kind == "algebra":
            return entry.payload
        if entry.kind == "bialgebra":
            return entry.payload.algebra
        raise UnknownKey(f"{key!r} is not an algebra entry")

    def bialgebra(self, key: str) -> LieBialgebra:
        entry = self.get(key)
        if entry.kind != "bialgebra":
            raise UnknownKey(f"{key!r} is not a bialgebra entry")
        return entry.payload

    def rmatrix(self, key: str) -> RMatrix:
        entry = self.get(key)
        if entry.kind != "rmatrix":
            raise UnknownKey(f"{key!r} is not an r-matrix entry")
        return entry.payload

    def rmatrix_algebra(self, key: str) -> LieAlgebra:
        """Carrier algebra of an r-matrix entry, with its declared
        substitutions applied."""
        entry = self.get(key)
        alg = self.algebra(entry.raw["algebra"])
        subs = entry.raw.get("algebra_subs")
        if subs:
            alg = substitute_params(alg, subs)
        return alg

    def basis_change(self, key: str) -> BasisChange:
        entry = self.get(key)
        if entry.kind != "basis_change":
            raise UnknownKey(f"{key!r} is not a basis-change entry")
        return entry.payload


def _iter_kind_files(kind: str) -> Iterable:
    root = resources.files("liedouble").joinpath("data", "catalog")
    directory = root.joinpath(_KIND_DIRS[kind])
    for item in sorted(directory.iterdir(), key=lambda f: f.name):
        if item.name.endswith(".json"):
            yield item


def _load_raw() -> dict:
    raw = {}
    for kind in KINDS:
        for item in _iter_kind_files(kind):
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


def _build_entries(raw: dict) -> dict:
    entries: dict[str, CatalogEntry] = {}

    def entry(key, kind, payload, data):
        entries[key] = CatalogEntry(
            key=key,
            kind=kind,
            payload=payload,
            provenance=data.get("provenance", ""),
            raw=data,
        )

    for key, data in raw.items():
        if data["kind"] == "algebra":
            alg = algebra_from_json(data)
            if not is_jacobi_zero(alg):
                raise ParseError(f"catalog algebra {key!r} violates Jacobi")
            entry(key, "algebra", alg, data)

    for key, data in raw.items():
        if data["kind"] == "bialgebra":
            bial = bialgebra_from_json(data)  # validates via the double
            entry(key, "bialgebra", bial, data)

    for key, data in raw.items():
        if data["kind"] == "rmatrix":
            alg_data = raw.get(data["algebra"])
            if alg_data is None or alg_data["kind"] != "algebra":
                raise ParseError(f"r-matrix {key!r} references missing algebra")
            alg = entries[data["algebra"]].payload
            if data.get("algebra_subs"):
                alg = substitute_params(alg, data["algebra_subs"])
            r = rmatrix_from_wedge(
                alg.labels, [(t["i"], t["j"], t["coef"]) for t in data["terms"]]
            )
            verdicts = data["verdicts"]
            if is_cybe(alg, r) != verdicts["cybe"]:
                raise ParseError(f"r-matrix {key!r} fails its declared CYBE verdict")
            if is_mcybe(alg, r) != verdicts["mcybe"]:
                raise ParseError(f"r-matrix {key!r} fails its declared mCYBE verdict")
            entry(key, "rmatrix", r, data)

    for key, data in raw.items():
        if data["kind"] == "basis_change":
            bc = BasisChange(
                [[c for c in row] for row in data["rows"]], tuple(data["labels"])
            )  # construction computes the exact inverse or raises
            entry(key, "basis_change", bc, data)

    for key, data in raw.items():
        if data["kind"] == "bracket_fn":
            fn = charts.bracket_fn(data["bracket_id"])  # raises UnknownBracket
            if fn.chart_id != data["chart"]:
                raise ParseError(f"bracket {key!r} declares the wrong chart")
            if data["rmatrix"] is not None and data["rmatrix"] not in entries:
                raise ParseError(f"bracket {key!r} references missing r-matrix")
            entry(key, "bracket_fn", fn, data)

    # cross-check: bialgebras that declare a generating r-matrix must agree
    # with its coboundary cocommutator
    from .rmatrix import cocommutator_from_r

    for key, data in raw.items():
        if data["kind"] == "bialgebra" and data.get("r_matrix"):
            bial = entries[key].payload
            r = entries[data["r_matrix"]].payload
            if data.get("r_matrix_subs"):
                r = r.substitute(data["r_matrix_subs"])
            derived = cocommutator_from_r(bial.algebra, r)
            if derived != bial.cocomm.f:
                raise ParseError(
                    f"bialgebra {key!r} disagrees with its generating r-matrix"
                )
    return entries


_CATALOG: Catalog | None = None


def load(force: bool = False) -> Catalog:
    """The validated shared catalog instance (loaded once per process)."""
    global _CATALOG
    if _CATALOG is None or force:
        _CATALOG = Catalog(_build_entries(_load_raw()))
    return _CATALOG


def get(key: str) -> CatalogEntry:
    return load().get(key)


def default_verification_cells(catalog: Catalog | None = None) -> list:
    """The Sklyanin verification matrix: one cell per published 2d family."""
    cat = catalog or load()
    cells = []
    for key in cat.list("bracket_fn"):
        data = cat.get(key).raw
        if data["rmatrix"] is None:
            continue
        cells.append(
            charts.SklyaninCell(
                bracket_id=data["bracket_id"],
                chart_id=data["chart"],
                r=cat.rmatrix(data["rmatrix"]),
                param_ranges={
                    name: tuple(rng) for name, rng in data["param_ranges"].items()
                },
            )
        )
    return cells


def property_check_ids(catalog: Catalog | None = None) -> list:
    """Bracket entries verified by property checks instead of Sklyanin."""
    cat = catalog or load()
    return [
        key
        for key in cat.list("bracket_fn")
        if cat.get(key).raw["rmatrix"] is None
    ]
