"""Built-in manifold charts used throughout the verification suite.

Every entry is defined by its key/value document text, so the builtin and
file-loading paths share one source and can be byte-compared.  The entries:

* ``euclidean3`` and the ``euclideanN`` family (N >= 3): flat space with a
  constant unit field.  Flat charts are where the closed forms that require
  flatness are exercised, and the family gives the dimension scaling of the
  nullity constant.
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
* ``sphere3_bad_xi``: round 3-sphere with a normalized coordinate field, the
  negative control: the field is unit but not parallel, so gated checks must
  skip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .geometry import ManifoldSpec, load_spec

__all__ = [
    "CatalogEntry",
    "builtin",
    "catalog_names",
    "entry_document",
    "write_catalog_files",
]


@dataclass
class CatalogEntry:
    name: str
    spec: ManifoldSpec
    provenance: str


def _euclidean_document(n: int) -> str:
    if n == 3:
        coords = ("x", "y", "z")
        name = "euclidean3"
    else:
        coords = tuple(f"x{i}" for i in range(n))
        name = f"euclidean{n}"
    lines = [
        f"name = {name}",
        f"dim = {n}",
        f"coords = {', '.join(coords)}",
        "parallel_xi_expected = true",
    ]
    for i in range(n):
        for j in range(i, n):
            lines.append(f"g[{i}][{j}] = {1 if i == j else 0}")
    for i in range(n):
        lines.append(f"xi[{i}] = {1 if i == 0 else 0}")
    for i in range(n):
        lines.append(f"box[{i}] = -1, 1")
    return "\n".join(lines) + "\n"


_THETA_HI = repr(math.pi - 0.3)


def _cylinder_document() -> str:
    return f"""name = cylinder_s2xr
dim = 3
coords = theta, phi, t
parallel_xi_expected = true
g[0][0] = 1
g[0][1] = 0
g[0][2] = 0
g[1][1] = sin(theta)^2
g[1][2] = 0
g[2][2] = 1
xi[0] = 0
xi[1] = 0
xi[2] = 1
box[0] = 0.3, {_THETA_HI}
box[1] = 0.1, 6.1
box[2] = -1, 1
"""


def _gssf_document(c: int) -> str:
    # Sphere factor of curvature c has metric (1/c) d(sphere); the rotation
    # tensor below squares to -1 on that factor and kills the line direction.
    if c == 1:
        g00, g11 = "1", "sin(theta)^2"
        f = "0.25"
    elif c == 4:
        g00, g11 = "0.25", "sin(theta)^2/4"
        f = "1"
    else:
        raise ValueError(f"no catalog construction for curvature {c}")
    return f"""name = gssf_c{c}
dim = 3
coords = theta, phi, t
parallel_xi_expected = true
g[0][0] = {g00}
g[0][1] = 0
g[0][2] = 0
g[1][1] = {g11}
g[1][2] = 0
g[2][2] = 1
xi[0] = 0
xi[1] = 0
xi[2] = 1
box[0] = 0.3, {_THETA_HI}
box[1] = 0.1, 6.1
box[2] = -1, 1
phi[0][0] = 0
phi[0][1] = -sin(theta)
phi[0][2] = 0
phi[1][0] = 1/sin(theta)
phi[1][1] = 0
phi[1][2] = 0
phi[2][0] = 0
phi[2][1] = 0
phi[2][2] = 0
f1 = {f}
f2 = {f}
f3 = {f}
"""


def _polar_document() -> str:
    return """name = polar_r2xr2
dim = 4
coords = r, theta, z, w
parallel_xi_expected = true
g[0][0] = 1
g[0][1] = 0
g[0][2] = 0
g[0][3] = 0
g[1][1] = r^2
g[1][2] = 0
g[1][3] = 0
g[2][2] = 1
g[2][3] = 0
g[3][3] = 1
xi[0] = 0
xi[1] = 0
xi[2] = 0.6
xi[3] = 0.8
box[0] = 0.5, 2
box[1] = 0.1, 6.1
box[2] = -1, 1
box[3] = -1, 1
"""


def _sphere_document() -> str:
    return f"""name = sphere3_bad_xi
dim = 3
coords = chi, theta, phi
parallel_xi_expected = false
g[0][0] = 1
g[0][1] = 0
g[0][2] = 0
g[1][1] = sin(chi)^2
g[1][2] = 0
g[2][2] = sin(chi)^2*sin(theta)^2
xi[0] = 0
xi[1] = 0
xi[2] = 1/(sin(chi)*sin(theta))
box[0] = 0.3, {_THETA_HI}
box[1] = 0.3, {_THETA_HI}
box[2] = 0.1, 6.1
"""


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
    "sphere3_bad_xi": (
        "round 3-sphere with a normalized coordinate field: unit but not "
        "parallel (negative control for the gate)"
    ),
}

_EUCLIDEAN_N = re.compile(r"^euclidean(\d+)$")

_CORE_NAMES = (
    "euclidean3",
    "euclidean4",
    "euclidean5",
    "euclidean8",
    "cylinder_s2xr",
    "gssf_c1",
    "gssf_c4",
    "polar_r2xr2",
    "sphere3_bad_xi",
)


def catalog_names() -> tuple[str, ...]:
    return _CORE_NAMES


def entry_document(name: str) -> str:
    """The deterministic key/value document for a built-in entry."""
    m = _EUCLIDEAN_N.match(name)
    if m:
        n = int(m.group(1))
        if n < 3:
            raise KeyError(f"euclidean entries need dimension >= 3, got {n}")
        return _euclidean_document(n)
    if name == "cylinder_s2xr":
        return _cylinder_document()
    if name == "gssf_c1":
        return _gssf_document(1)
    if name == "gssf_c4":
        return _gssf_document(4)
    if name == "polar_r2xr2":
        return _polar_document()
    if name == "sphere3_bad_xi":
        return _sphere_document()
    raise KeyError(f"unknown catalog entry {name!r}")


def builtin(name: str) -> CatalogEntry:
    """Load a built-in chart.  Besides the listed names, any ``euclideanN``
    with N >= 3 is generated on demand."""
    document = entry_document(name)
    spec = load_spec(document)
    provenance = _PROVENANCE.get(
        name, f"flat space of dimension {spec.n}, constant unit field"
    )
    return CatalogEntry(name=name, spec=spec, provenance=provenance)


def write_catalog_files(directory: str | Path) -> list[Path]:
    """Emit every core entry as a manifold file under the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in _CORE_NAMES:
        path = directory / f"{name}.manifold"
        path.write_text(entry_document(name), encoding="utf-8")
        written.append(path)
    return written
