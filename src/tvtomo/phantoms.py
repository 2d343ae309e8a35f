"""Synthetic phantoms and reproducible noise injection.

Phantoms are analytic descriptions on (0,1)^2 rendered by pixel-center
sampling: a pixel takes a shape's value iff its center lies inside the
shape.  For a centered disc of radius r this makes the discrete TV norm
exactly 8r (Manhattan perimeter) whenever r*n is an integer and the disc
stays away from the boundary.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, check_count, check_real
from .geometry import Sinogram
from .grid import ImageGrid

__all__ = ["Phantom", "NoiseSpec", "render_phantom", "add_noise"]

# each kind and the keys of its params; a disc is a one-shell nested-shells
_KINDS = {"disc": {"shells", "center"}, "nested-shells": {"shells", "center"},
          "piecewise-polygon": {"vertices", "value"}}


@dataclass(frozen=True, eq=False)
class Phantom:
    """Analytic phantom: disc, nested shells, or polygonal region."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown phantom kind {self.kind!r}")
        keys = _KINDS[self.kind]
        if set(self.params) != keys:
            raise ParameterError(
                f"a {self.kind} phantom takes params {sorted(keys)}, got {list(self.params)}"
            )

    @property
    def analytic_tv(self):
        """Exact TV of the shells, sum 8 r_i |v_i - v_{i-1}| with v_{-1} = 0 outside
        (a Manhattan perimeter 8 r_i per unit jump); None for a polygon."""
        if "shells" not in self.params:
            return None
        tv, outer = 0.0, 0.0
        for r, v in self.params["shells"]:
            tv += 8.0 * r * abs(v - outer)
            outer = v
        return tv

    @classmethod
    def disc(cls, r=0.25, value=1.0, center=(0.5, 0.5)):
        """A nested-shells phantom with one shell, kept as kind "disc"."""
        shell = cls.nested_shells([(r, value)], center)
        return cls(kind="disc", params=shell.params)

    @classmethod
    def nested_shells(cls, shells, center=(0.5, 0.5)):
        """shells: [(radius, value), ...]; value applies to the innermost
        shell containing a point.  Radii must be strictly decreasing."""
        if len(shells) == 0:
            raise ParameterError("nested shells need at least one (radius, value) pair")
        radii = [r for r, _ in shells]
        for r, v in shells:
            check_real("shell radius", r, ParameterError)
            check_real("shell value", v, ParameterError, strict=False)
        for c in center:
            check_real("center", c, ParameterError)
        if any(np.diff(radii) >= 0):
            raise ParameterError("shell radii must be strictly decreasing")
        cx, cy = center
        r0 = radii[0]
        if not (r0 < cx < 1 - r0 and r0 < cy < 1 - r0):
            raise ParameterError("outermost shell must be contained in (0,1)^2")
        return cls(
            kind="nested-shells",
            params={"shells": [(float(r), float(v)) for r, v in shells],
                    "center": (float(cx), float(cy))},
        )

    @classmethod
    def polygon(cls, vertices, value=1.0):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
            raise ParameterError("polygon needs at least 3 (x, y) vertices")
        if not np.all((verts > 0) & (verts < 1)):
            raise ParameterError("polygon vertices must be finite and inside (0,1)^2")
        check_real("value", value, ParameterError, strict=False)
        return cls(
            kind="piecewise-polygon",
            params={"vertices": [(float(x), float(y)) for x, y in verts],
                    "value": float(value)},
        )


def _points_in_polygon(px, py, verts):
    """Even-odd rule point-in-polygon test, vectorized over points."""
    inside = np.zeros(px.shape, dtype=bool)
    nv = verts.shape[0]
    for i in range(nv):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % nv]
        crosses = (y0 > py) != (y1 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (px < np.where(crosses, x_int, np.inf))
    return inside


def render_phantom(p, n):
    """Sample the phantom at pixel centers onto an n x n grid."""
    check_count("n", n, 1, ParameterError)
    centers = (np.arange(n) + 0.5) / n
    # matrix[r, c]: row r <-> y = centers[r], col c <-> x = centers[c]
    y = np.broadcast_to(centers[:, None], (n, n))
    x = np.broadcast_to(centers[None, :], (n, n))

    if p.kind in ("disc", "nested-shells"):
        cx, cy = p.params["center"]
        dist2 = (x - cx) ** 2 + (y - cy) ** 2
        mat = np.zeros((n, n))
        for r, v in p.params["shells"]:  # radii decreasing: innermost wins
            mat = np.where(dist2 < r * r, v, mat)
        return ImageGrid.from_matrix(mat)
    # piecewise-polygon
    verts = np.asarray(p.params["vertices"])
    mat = np.where(_points_in_polygon(x, y, verts), p.params["value"], 0.0)
    return ImageGrid.from_matrix(mat)


@dataclass(frozen=True)
class NoiseSpec:
    """I.i.d. Gaussian noise, relative to the clean data maximum."""

    relative_level: float
    seed: int = 0

    def __post_init__(self):
        check_real("relative_level", self.relative_level, ParameterError, strict=False)
        check_count("seed", self.seed, 0, ParameterError)


def add_noise(s, spec):
    """Return g~ + e with e ~ N(0, sigma^2 I), sigma = level * max(g~).

    Deterministic per seed (numpy PCG64 generator); the clean maximum sets
    the scale.  A zero level returns the data unchanged.
    """
    if spec.relative_level == 0.0:
        return Sinogram(geometry=s.geometry, data=s.data.copy())
    peak = float(np.max(s.data))
    if peak < 0:
        raise ParameterError(f"noise scale level * max(g) needs max(g) >= 0, got {peak!r}")
    sigma = spec.relative_level * peak
    rng = np.random.default_rng(spec.seed)
    e = rng.normal(0.0, sigma, size=s.data.size)
    return Sinogram(geometry=s.geometry, data=s.data + e)
