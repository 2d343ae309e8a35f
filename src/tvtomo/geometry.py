"""Scan geometry, ray tracing and the sparse tomographic system matrix.

The pencil-beam model: each detector reading is the line integral of the
attenuation image along one ray.  Rays are traced through the pixel lattice
of [0,1]^2 with Siddon's parametric traversal, and the system matrix
collects the exact ray/pixel intersection lengths.

`trace_ray` traces one ray.  `assemble_system_matrix` traces a batch of
rays at once with array operations: each ray's row holds its clipped span
and the crossings of every grid line, the crossings outside the span are
set to inf, and a sort and a difference per row give the segments.  Rays
go in batches of at most `_CHUNK_ENTRIES` crossing slots, so memory stays
bounded for any geometry, and in angle-major order with segments in
increasing t, so the matrix is the same, bit for bit, as stacking
`trace_ray` rows.
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

# (ray, crossing) slots per batch, 2 MB per float temporary: on a 2-core Xeon
# this ran no slower than 16 MB batches and kept small geometries' peak low
_CHUNK_ENTRIES = 1 << 18


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

    def ray_arrays(self):
        """(origins, directions), each of shape (num_rays, 2), angle-major order."""
        d = np.stack([np.cos(self.angles), np.sin(self.angles)], axis=-1)[:, None, :]
        perp = np.stack([-d[..., 1], d[..., 0]], axis=-1)
        t = self.detector_offsets()[None, :, None]
        if self.mode == "parallel":
            origins = _CENTER + t * perp
            directions = np.broadcast_to(d, origins.shape)
        else:
            src = _CENTER - self.source_radius * d
            det_c = _CENTER + self.detector_radius * d
            directions = det_c + t * perp - src
            origins = np.broadcast_to(src, directions.shape)
        return origins.reshape(-1, 2), directions.reshape(-1, 2)

    def rays(self):
        """Yield (origin, direction) for every ray, angle-major order."""
        yield from zip(*self.ray_arrays())


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


def _trace_rays(origins, directions, n):
    """trace_ray for a batch of rays, shaped (R, 2), with array operations.

    Returns (counts, indices, lengths): the number of kept segments of each
    ray, then the segments ray by ray in increasing t.  The arithmetic is
    trace_ray's, so the values are identical to its.
    """
    norm = np.hypot(directions[:, 0], directions[:, 1])
    if not (np.all(norm > 0.0) and np.all(np.isfinite(directions))):
        raise InvalidGeometryError("ray direction must be a nonzero finite vector")
    d = directions / norm[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # slab clipping; an axis the ray does not move along only decides a miss
        t0 = np.full(len(d), -np.inf)
        t1 = np.full(len(d), np.inf)
        missed = np.zeros(len(d), dtype=bool)
        for k in range(2):
            moving = d[:, k] != 0.0
            ta = (0.0 - origins[:, k]) / d[:, k]
            tb = (1.0 - origins[:, k]) / d[:, k]
            t0 = np.where(moving, np.maximum(t0, np.minimum(ta, tb)), t0)
            t1 = np.where(moving, np.minimum(t1, np.maximum(ta, tb)), t1)
            missed |= ~moving & ((origins[:, k] < 0.0) | (origins[:, k] > 1.0))
        hit = np.flatnonzero(~missed & (t0 < t1))
        o, d, t0, t1 = origins[hit], d[hit], t0[hit, None], t1[hit, None]

        # row r: t0, t1 and the crossings of all n + 1 planes per axis, those
        # not inside (t0, t1) (all of them on an axis the ray does not move
        # along) set to inf; sorted, the finite steps are the segments
        planes = np.arange(n + 1) / n
        ts = np.empty((hit.size, 2 * n + 4))
        ts[:, :1], ts[:, 1:2] = t0, t1
        for k in range(2):
            tk = ts[:, 2 + k * (n + 1):2 + (k + 1) * (n + 1)]
            np.divide(planes - o[:, k, None], d[:, k, None], out=tk)
            np.copyto(tk, np.inf, where=~((tk > t0) & (tk < t1)))
        ts.sort(axis=1)
        lengths = np.diff(ts, axis=1)
        keep = (lengths > 1e-15) & np.isfinite(lengths)

    kept = np.count_nonzero(keep, axis=1)
    counts = np.zeros(len(directions), dtype=np.int64)
    counts[hit] = kept
    # flat position in ts of each kept segment's start (ts rows are one wider
    # than keep rows); b - a is the segment's length as diff computed it
    start = np.flatnonzero(keep) + np.repeat(np.arange(hit.size), kept)
    a, b = ts.ravel()[start], ts.ravel()[start + 1]
    mid = 0.5 * (a + b)
    x, y = (np.repeat(o[:, k], kept) + mid * np.repeat(d[:, k], kept) for k in range(2))
    cols = np.clip((x * n).astype(np.int64), 0, n - 1)
    rows = np.clip((y * n).astype(np.int64), 0, n - 1)
    return counts, rows + n * cols, b - a


def assemble_system_matrix(geom, n):
    """Build the M x N system matrix by tracing every ray of the geometry."""
    if n < 1:
        raise InvalidGeometryError(f"grid size must be positive, got n={n}")
    origins, directions = geom.ray_arrays()
    step = max(1, _CHUNK_ENTRIES // (2 * n + 4))
    counts, indices, lengths = zip(*(
        _trace_rays(origins[lo:lo + step], directions[lo:lo + step], n)
        for lo in range(0, geom.num_rays, step)
    ))
    # segments come ray by ray, so these are the rows of the CSR matrix in
    # order; sum_duplicates sorts and merges each row as COO -> CSR does
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    mat = sp.csr_matrix((np.concatenate(lengths), np.concatenate(indices), indptr),
                        shape=(geom.num_rays, n * n))
    mat.sum_duplicates()
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
