"""Built-in manifold charts used throughout the verification suite.

Every entry is defined only by its manifold file ``CHARTS/<name>.manifold``,
shipped as package data, so ``builtin(name)`` and ``--file`` load the same
bytes.  Only the names of ``catalog_names()`` are entries.  They are:

* ``euclidean3``, ``euclidean4``, ``euclidean5`` and ``euclidean8``: flat
  space with a constant unit field.  Flat charts are where the closed forms
  that require flatness are exercised, and the four dimensions give the
  dimension scaling of the nullity constant.
* ``cylinder_s2xr``: unit round sphere times a line, field along the line
  factor.  Parallel unit field with non-vanishing curvature.
* ``gssf_c1`` / ``gssf_c4``: the cylinder metric (curvature c of the sphere
  factor 1 resp. 4) dressed with the 90-degree rotation tensor on the sphere
  factor; the product is cosymplectic and its curvature has the three-term
  space-form-like shape with coefficient functions f1 = f2 = f3 = c/4.
* ``polar_r2xr2``: the plane in polar coordinates times a plane, with the
  tilted constant field 0.6 d_z + 0.8 d_w.  Flat, but its Christoffel
  symbols do not vanish, so the flat closed forms see non-zero connection
  data and rounding.
* ``warped_r3xr``: a curved 3-metric times a line, field along the line;
  the 3x3 block mixes exp, cosh, sinh, sqrt, log and sin, off-diagonal
  entries included, and depends on all three coordinates.  It is the
  catalog's curved chart of dimension above 3, where a coefficient that
  depends on n but is right at n = 3 shows, and its mixed partials are not
  symmetric by accident.
* ``sphere3_bad_xi``: round 3-sphere with a normalized coordinate field, the
  negative control: the field is unit but not parallel, so gated checks must
  skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .geometry import ManifoldSpec, load_spec

__all__ = [
    "CatalogEntry",
    "builtin",
    "catalog_names",
    "entry_document",
]

CHARTS = Path(__file__).with_name("charts")


@dataclass
class CatalogEntry:
    """A built-in chart: its name, its spec and where its data come from."""

    name: str
    spec: ManifoldSpec
    provenance: str


_PROVENANCE = {
    "euclidean3": "flat space, constant unit field along the first axis",
    "cylinder_s2xr": (
        "unit round 2-sphere times a line; the line field is parallel and "
        "unit, curvature lives on the sphere factor"
    ),
    "gssf_c1": (
        "cylinder metric with the sphere-factor rotation tensor; "
        "cosymplectic, space-form-shaped curvature with f1=f2=f3=1/4"
    ),
    "gssf_c4": (
        "sphere factor of curvature 4 (radius 1/2) times a line, same "
        "rotation tensor; f1=f2=f3=1"
    ),
    "polar_r2xr2": (
        "flat plane in polar coordinates times a flat plane, constant unit "
        "field 0.6 d_z + 0.8 d_w; flat with non-vanishing Christoffel symbols"
    ),
    "warped_r3xr": (
        "curved 3-metric of transcendental entries times a line, field along "
        "the line; parallel and unit, curvature depends on x, y and z"
    ),
    "sphere3_bad_xi": (
        "round 3-sphere with a normalized coordinate field: unit but not "
        "parallel (negative control for the gate)"
    ),
}

_CORE_NAMES = (
    "euclidean3",
    "euclidean4",
    "euclidean5",
    "euclidean8",
    "cylinder_s2xr",
    "gssf_c1",
    "gssf_c4",
    "polar_r2xr2",
    "warped_r3xr",
    "sphere3_bad_xi",
)


def catalog_names() -> tuple[str, ...]:
    return _CORE_NAMES


def entry_document(name: str) -> str:
    """The key/value document of a built-in entry, as shipped in ``CHARTS``."""
    if name not in _CORE_NAMES:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(_CORE_NAMES)}")
    return (CHARTS / f"{name}.manifold").read_text(encoding="utf-8")


def builtin(name: str) -> CatalogEntry:
    """Load a built-in chart by one of the names of ``catalog_names()``."""
    spec = load_spec(entry_document(name))
    provenance = _PROVENANCE.get(
        name, f"flat space of dimension {spec.n}, constant unit field"
    )
    return CatalogEntry(name=name, spec=spec, provenance=provenance)
