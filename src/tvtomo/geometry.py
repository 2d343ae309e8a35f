"""Scan geometry, ray tracing and the sparse tomographic system matrix.

The pencil-beam model: each detector reading is the line integral of the
attenuation image along one ray.  Rays are traced through the pixel lattice
of [0,1]^2 with Siddon's parametric traversal, and the system matrix
collects the exact ray/pixel intersection lengths.

`assemble_system_matrix` traces rays in batches with array operations:
each ray's row holds its clipped span and the crossings of the grid lines
in a window around that span on each axis (the plane-range step of Jacobs
et al., 1998), the crossings outside the span are set to inf, and a sort
and a difference per row give the segments.  Rays go in batches of at most
`_CHUNK_ENTRIES` crossing slots, so memory stays bounded for any geometry.
Batches run on one thread per usable CPU (at most one per batch),
independent of the BLAS thread variables: assembly calls no BLAS, and
numpy's array kernels and scipy's sparse routines release the GIL.  Each
thread sorts and merges its own batch's rows, and the batches are stacked
in angle-major order with segments in increasing t, so the matrix does not
depend on the batch size or the thread count.  `pool_map` makes the one
choice between a pool and the calling thread, for these batches and for a
sweep's cells.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidGeometryError, ShapeMismatchError, check_count, check_real
from .grid import ImageGrid

__all__ = [
    "ScanGeometry",
    "SparseSystemMatrix",
    "Sinogram",
    "assemble_system_matrix",
    "forward_project",
    "adjoint_project",
]

_CENTER = np.array([0.5, 0.5])

# (ray, crossing) slots per batch if every ray crossed every grid line, so at
# most 2 MB per float temporary: on a 2-core Xeon this ran no slower than
# 16 MB batches and kept small geometries' peak low
_CHUNK_ENTRIES = 1 << 18


def usable_cpus():
    """The CPUs this process may run on (all of them where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def pool_map(pool, workers, fn, *iterables):
    """``list(map(fn, *iterables))``, on the executor ``pool(workers)`` when
    ``workers > 1`` and in the calling thread otherwise.  The executor is
    shut down before this returns, and the first error of ``fn`` is raised."""
    if workers <= 1:
        return list(map(fn, *iterables))
    with pool(workers) as executor:
        return list(executor.map(fn, *iterables))


@dataclass(frozen=True, eq=False)
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
        check_count("num_angles", self.num_angles, 1, InvalidGeometryError)
        check_count("num_detector_pixels", self.num_detector_pixels, 1, InvalidGeometryError)
        check_real("detector_extent", self.detector_extent, InvalidGeometryError)
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
            check_real("source_radius", self.source_radius, InvalidGeometryError)
            check_real("detector_radius", self.detector_radius, InvalidGeometryError)

    @property
    def num_rays(self):
        return self.num_angles * self.num_detector_pixels

    @classmethod
    def default_parallel(cls, n):
        """The default 90-angle parallel beam with ceil(1.5 n) detector pixels."""
        return cls(num_detector_pixels=int(np.ceil(1.5 * n)))

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


@dataclass(frozen=True, eq=False)
class SparseSystemMatrix:
    """CSR matrix of ray/pixel intersection lengths, rows = rays."""

    geometry: ScanGeometry
    n: int
    matrix: sp.csr_matrix = field(repr=False)


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Projection data, one value per (angle, detector pixel) ray."""

    geometry: ScanGeometry
    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float).ravel()
        if d.size != self.geometry.num_rays:
            raise ShapeMismatchError(
                f"sinogram length {d.size} != M={self.geometry.num_rays}"
            )
        if not np.all(np.isfinite(d)):
            raise ShapeMismatchError("sinogram contains non-finite values")
        object.__setattr__(self, "data", d)
        self.data.setflags(write=False)


def _trace_rays(origins, directions, n):
    """Siddon traversal of a batch of rays, shaped (R, 2), with array operations.

    Returns (counts, indices, lengths): the number of kept segments of each
    ray, then the segments ray by ray in increasing t, each with its
    column-major pixel index and its exact chord length in that pixel.
    Segments shorter than 1e-15 are dropped.
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

        # window per axis: the planes from one below the clipped span's lower
        # end to one above its upper end, none on an axis the ray does not
        # move along; a batch's rows are as wide as its widest windows
        ends = o[:, None] + np.stack([t0, t1], axis=1) * d[:, None]
        lo = np.clip(np.floor(ends.min(axis=1) * n) - 1, 0, n)
        hi = np.clip(np.ceil(ends.max(axis=1) * n) + 1, 0, n)
        wx, wy = np.where(d != 0.0, hi - lo + 1, 0).max(axis=0, initial=0).astype(np.intp)
        lo = lo.astype(np.intp)
        # planes i / n, then inf where a window runs past plane n
        planes = np.concatenate([np.arange(n + 1) / n, np.full(max(wx, wy), np.inf)])

        # row r: t0, t1 and the crossings of its windows' planes, those not
        # inside (t0, t1) set to inf; sorted, the finite steps are the segments
        ts = np.empty((hit.size, 2 + wx + wy))
        ts[:, :1], ts[:, 1:2] = t0, t1
        for k, (start, w) in enumerate([(2, wx), (2 + wx, wy)]):
            tk = ts[:, start:start + w]
            np.subtract(sliding_window_view(planes, w)[lo[:, k]], o[:, k, None], out=tk)
            np.divide(tk, d[:, k, None], out=tk)
            np.copyto(tk, np.inf, where=~((tk > t0) & (tk < t1)))
        ts.sort(axis=1)
        # lengths has ts's layout: one flat position gives a segment's start and length
        lengths = np.empty_like(ts)
        np.subtract(ts[:, 1:], ts[:, :-1], out=lengths[:, :-1])
        lengths[:, -1] = np.inf
        keep = (lengths > 1e-15) & np.isfinite(lengths)

    kept = np.count_nonzero(keep, axis=1)
    # int32 indices unless n * n exceeds them, as scipy chooses
    index = np.intc if n * n <= np.iinfo(np.intc).max else np.int64
    counts = np.zeros(len(directions), dtype=index)
    counts[hit] = kept
    start = np.flatnonzero(keep)
    mid = 0.5 * (ts.ravel()[start] + ts.ravel()[1:][start])
    x, y = (np.repeat(o[:, k], kept) + mid * np.repeat(d[:, k], kept) for k in range(2))
    cols = (x * n).astype(index)
    rows = (y * n).astype(index)
    np.clip(cols, 0, n - 1, out=cols)
    np.clip(rows, 0, n - 1, out=rows)
    cols *= n
    cols += rows
    return counts, cols, lengths.ravel()[start]


def _trace_block(origins, directions, n):
    """One batch of rays as CSR rows, each row sorted and its duplicates
    merged as COO -> CSR does."""
    counts, indices, lengths = _trace_rays(origins, directions, n)
    indptr = np.zeros(len(counts) + 1, dtype=counts.dtype)
    np.cumsum(counts, out=indptr[1:])
    block = sp.csr_matrix((lengths, indices, indptr), shape=(len(directions), n * n))
    block.sum_duplicates()
    return block


def assemble_system_matrix(geom, n):
    """Build the M x N system matrix by tracing every ray of the geometry."""
    check_count("n", n, 1, InvalidGeometryError)
    origins, directions = geom.ray_arrays()
    step = max(1, _CHUNK_ENTRIES // (2 * n + 4))
    lows = range(0, geom.num_rays, step)
    blocks = pool_map(ThreadPoolExecutor, min(usable_cpus(), len(lows)), _trace_block,
                      [origins[lo:lo + step] for lo in lows],
                      [directions[lo:lo + step] for lo in lows], [n] * len(lows))
    mat = sp.vstack(blocks, format="csr")
    # linear on canonical rows; sets the canonical-format flags
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
