"""Scan geometry, ray tracing and the sparse tomographic system matrix.

The pencil-beam model: each detector reading is the line integral of the
attenuation image along one ray.  Rays are traced through the pixel lattice
of [0,1]^2 with a Siddon-style parametric traversal, and the system matrix
collects the exact ray/pixel intersection lengths.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InvalidGeometryError, ShapeMismatchError
from .grid import ImageGrid

__all__ = [
    "ScanGeometry",
    "SparseSystemMatrix",
    "Sinogram",
    "trace_ray",
    "assemble_system_matrix",
    "forward_project",
    "adjoint_project",
]

_CENTER = np.array([0.5, 0.5])


@dataclass(frozen=True)
class ScanGeometry:
    """Source/detector layout; parallel-beam or fan-beam."""

    mode: str = "parallel"
    num_angles: int = 90
    num_detector_pixels: int = 96
    detector_extent: float = float(np.sqrt(2.0))
    angles: np.ndarray = None
    source_radius: float = None
    detector_radius: float = None

    def __post_init__(self):
        if self.mode not in ("parallel", "fan"):
            raise InvalidGeometryError(f"unknown scan mode {self.mode!r}")
        if self.num_angles < 1 or self.num_detector_pixels < 1:
            raise InvalidGeometryError("need at least one angle and one detector pixel")
        if not 0 < self.detector_extent < np.inf:
            raise InvalidGeometryError("detector extent must be positive and finite")
        angles = self.angles
        if angles is None:
            angles = np.arange(self.num_angles) * np.pi / self.num_angles
        angles = np.asarray(angles, dtype=float)
        if angles.size != self.num_angles:
            raise InvalidGeometryError(
                f"got {angles.size} angles for num_angles={self.num_angles}"
            )
        if not np.all(np.isfinite(angles)):
            raise InvalidGeometryError("angles must be finite")
        object.__setattr__(self, "angles", angles)
        self.angles.setflags(write=False)
        if self.mode == "fan":
            if self.source_radius is None or self.detector_radius is None:
                raise InvalidGeometryError("fan mode needs source and detector radii")
            if not (0 < self.source_radius < np.inf and 0 < self.detector_radius < np.inf):
                raise InvalidGeometryError("fan radii must be positive and finite")

    @property
    def num_rays(self):
        return self.num_angles * self.num_detector_pixels

    @classmethod
    def default_parallel(cls, n, num_angles=90):
        """Parallel beam, uniform angles on [0, pi), diagonal-spanning detector."""
        return cls(
            mode="parallel",
            num_angles=num_angles,
            num_detector_pixels=int(np.ceil(1.5 * n)),
            detector_extent=float(np.sqrt(2.0)),
        )

    def detector_offsets(self):
        """Detector pixel-center coordinates along the detector line."""
        k = np.arange(self.num_detector_pixels)
        return ((k + 0.5) / self.num_detector_pixels - 0.5) * self.detector_extent

    def rays(self):
        """Yield (origin, direction) for every ray, angle-major order."""
        offs = self.detector_offsets()
        for theta in self.angles:
            d = np.array([np.cos(theta), np.sin(theta)])
            perp = np.array([-np.sin(theta), np.cos(theta)])
            if self.mode == "parallel":
                for t in offs:
                    yield _CENTER + t * perp, d
            else:
                src = _CENTER - self.source_radius * d
                det_c = _CENTER + self.detector_radius * d
                for t in offs:
                    yield src, det_c + t * perp - src


@dataclass(frozen=True)
class SparseSystemMatrix:
    """CSR matrix of ray/pixel intersection lengths, rows = rays."""

    geometry: ScanGeometry
    n: int
    matrix: sp.csr_matrix = field(repr=False)

    @property
    def shape(self):
        return self.matrix.shape


@dataclass(frozen=True)
class Sinogram:
    """Projection data, one value per (angle, detector pixel) ray."""

    geometry: ScanGeometry
    data: np.ndarray
    noise_meta: dict = None

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float).ravel()
        if self.geometry is not None and d.size != self.geometry.num_rays:
            raise ShapeMismatchError(
                f"sinogram length {d.size} != M={self.geometry.num_rays}"
            )
        if not np.all(np.isfinite(d)):
            raise ShapeMismatchError("sinogram contains non-finite values")
        object.__setattr__(self, "data", d)
        self.data.setflags(write=False)


def clip_to_unit_square(origin, direction):
    """Slab-clip the line origin + t*direction to [0,1]^2.

    Returns (t0, t1) with t0 <= t1, or None when the line misses the square.
    """
    t0, t1 = -np.inf, np.inf
    for k in range(2):
        if direction[k] != 0.0:
            ta = (0.0 - origin[k]) / direction[k]
            tb = (1.0 - origin[k]) / direction[k]
            t0 = max(t0, min(ta, tb))
            t1 = min(t1, max(ta, tb))
        elif not (0.0 <= origin[k] <= 1.0):
            return None
    if t0 >= t1:
        return None
    return t0, t1


def trace_ray(origin, direction, n):
    """Intersection lengths of one ray with the n x n pixel lattice.

    Returns (indices, lengths): column-major pixel indices and the exact
    chord lengths inside each crossed pixel.  Both arrays are empty when
    the ray misses the unit square.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm = np.hypot(direction[0], direction[1])
    if norm == 0.0 or not np.all(np.isfinite(direction)):
        raise InvalidGeometryError("ray direction must be a nonzero finite vector")
    d = direction / norm

    span = clip_to_unit_square(origin, d)
    if span is None:
        return np.empty(0, dtype=np.int64), np.empty(0)
    t0, t1 = span

    # all parameter values where the ray crosses a grid line
    ts = [np.array([t0, t1])]
    for k in range(2):
        if d[k] != 0.0:
            planes = np.arange(n + 1) / n
            tk = (planes - origin[k]) / d[k]
            ts.append(tk[(tk > t0) & (tk < t1)])
    ts = np.unique(np.concatenate(ts))

    lengths = np.diff(ts)
    keep = lengths > 1e-15
    if not np.any(keep):
        return np.empty(0, dtype=np.int64), np.empty(0)
    mids = origin[None, :] + (0.5 * (ts[:-1] + ts[1:]))[:, None] * d[None, :]
    mids = mids[keep]
    lengths = lengths[keep]

    cols = np.clip((mids[:, 0] * n).astype(np.int64), 0, n - 1)
    rows = np.clip((mids[:, 1] * n).astype(np.int64), 0, n - 1)
    return rows + n * cols, lengths


def assemble_system_matrix(geom, n):
    """Build the M x N system matrix by tracing every ray of the geometry."""
    if n < 1:
        raise InvalidGeometryError(f"grid size must be positive, got n={n}")
    N = n * n
    row_idx, col_idx, vals = [], [], []
    for j, (origin, direction) in enumerate(geom.rays()):
        idx, lengths = trace_ray(origin, direction, n)
        if idx.size:
            row_idx.append(np.full(idx.size, j, dtype=np.int64))
            col_idx.append(idx)
            vals.append(lengths)
    if row_idx:
        mat = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(row_idx), np.concatenate(col_idx))),
            shape=(geom.num_rays, N),
        )
    else:
        mat = sp.csr_matrix((geom.num_rays, N))
    return SparseSystemMatrix(geometry=geom, n=n, matrix=mat)


def forward_project(A, f):
    """Sinogram of an image: g = A f."""
    if A.matrix.shape[1] != f.values.size:
        raise ShapeMismatchError(
            f"system matrix has N={A.matrix.shape[1]}, image has {f.values.size} pixels"
        )
    return Sinogram(geometry=A.geometry, data=A.matrix @ f.values)


def adjoint_project(A, s):
    """Backprojection A^T s as an image on the matrix's grid."""
    if A.matrix.shape[0] != s.data.size:
        raise ShapeMismatchError(
            f"system matrix has M={A.matrix.shape[0]}, sinogram has {s.data.size} rays"
        )
    return ImageGrid(A.n, A.matrix.T @ s.data)
