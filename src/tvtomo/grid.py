"""Image grids on the unit square and the discrete TV machinery.

An image is an n-by-n array of pixel values on [0,1]^2 stored as a flat
vector in column-major order: pixel (row r, column c) sits at index
``r + n*c``.  Pixel (r, c) covers the square
``[c/n, (c+1)/n] x [r/n, (r+1)/n]`` (row index increases with y).

The difference operators carry periodic boundary conditions and a 1/n
scaling folded into their entries, so the discrete TV norm is simply
``|D_h f|_1 + |D_v f|_1``.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InvalidDimensionError, ResolutionMismatchError, ShapeMismatchError, check_count

__all__ = [
    "ImageGrid",
    "DifferenceOperators",
    "build_difference_operators",
    "tv_norm",
    "project_average",
]


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """n x n pixel image on the unit square, column-major flat storage."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        check_count("n", self.n, 1, InvalidDimensionError)
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.n * self.n:
            raise ShapeMismatchError(
                f"expected {self.n * self.n} values for n={self.n}, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ShapeMismatchError("image contains non-finite values")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)

    @classmethod
    def from_matrix(cls, mat):
        """Build from an (n, n) array indexed [row, col]."""
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatchError(f"expected a square matrix, got shape {mat.shape}")
        return cls(mat.shape[0], mat.ravel(order="F"))

    def to_matrix(self):
        """Return the (n, n) array view, [row, col] indexing."""
        return self.values.reshape(self.n, self.n, order="F")


@dataclass(frozen=True, eq=False)
class DifferenceOperators:
    """Periodic horizontal/vertical difference matrices for one grid size."""

    d_h: sp.csr_matrix = field(repr=False)
    d_v: sp.csr_matrix = field(repr=False)


def build_difference_operators(n):
    """Assemble the N x N sparse difference matrices (N = n^2).

    Row ``n*r + c`` of d_h takes the forward horizontal difference
    ``(f[r, c+1 mod n] - f[r, c]) / n``; d_v is the vertical analogue with
    rows in column-major pixel order.  Entries are exactly +-1/n and every
    row sums to zero because of the periodic wrap.
    """
    check_count("n", n, 2, InvalidDimensionError)
    N = n * n
    scale = 1.0 / n

    r, c = np.divmod(np.arange(N), n)  # row-major pixel order (r, c)
    rows = np.repeat(np.arange(N), 2)

    # horizontal: pixel (r, c) -> (r, c+1 mod n), row index n*r + c
    cols_h = np.column_stack([r + n * c, r + n * ((c + 1) % n)]).ravel()
    data = np.tile([-scale, scale], N)
    d_h = sp.csr_matrix((data, (rows, cols_h)), shape=(N, N))

    # vertical: pixel (r, c) -> (r+1 mod n, c), rows in column-major order
    rc, cc = np.arange(N) % n, np.arange(N) // n
    cols_v = np.column_stack([rc + n * cc, (rc + 1) % n + n * cc]).ravel()
    d_v = sp.csr_matrix((data, (rows, cols_v)), shape=(N, N))

    return DifferenceOperators(d_h=d_h, d_v=d_v)


def tv_norm(f):
    """Anisotropic discrete TV norm |D_h f|_1 + |D_v f|_1."""
    ops = build_difference_operators(f.n)
    return float(np.abs(ops.d_h @ f.values).sum() + np.abs(ops.d_v @ f.values).sum())


def project_average(f, target_n):
    """Coarsen by averaging over aligned square blocks of pixels."""
    check_count("target_n", target_n, 1, InvalidDimensionError)
    if f.n % target_n != 0:
        raise ResolutionMismatchError(
            f"cannot average n={f.n} down to {target_n}: not an integer multiple"
        )
    k = f.n // target_n
    mat = f.to_matrix()
    coarse = mat.reshape(target_n, k, target_n, k).sum(axis=(1, 3)) / (k * k)
    return ImageGrid.from_matrix(coarse)
