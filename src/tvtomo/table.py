"""The (alpha, resolution) sweep table, built by `run_sweep` and
`read_sweep_csv` alike through `SweepTable.from_cells`; each checks its
cells with `check_cell`.  It imports only numpy and `errors`, so file I/O
does not depend on the solver modules."""

from dataclasses import dataclass

import numpy as np

from .errors import (NoSelectionError, ResolutionMismatchError, ShapeMismatchError,
                     check_count, check_real)

__all__ = ["SweepTable"]

# every status a sweep cell can have: a ConvergenceReport reason or "absent"
CELL_STATUSES = ("converged", "max_iterations", "solver_failure", "absent")


def check_cell(alpha, n, tv, residual, iterations, status, error):
    """Raise ``error`` unless this is a sweep cell: alpha a finite real > 0,
    n an integer >= 1, tv and residual finite reals >= 0 or NaN (a failed or
    absent cell), iterations an integer >= 0 and status in CELL_STATUSES."""
    check_real("alpha", alpha, error)
    check_count("n", n, 1, error)
    for name, value in (("tv", tv), ("residual", residual)):
        if not np.isnan(value):
            check_real(name, value, error, strict=False)
    check_count("iterations", iterations, 0, error)
    if status not in CELL_STATUSES:
        raise error(f"status {status!r} is not one of {', '.join(CELL_STATUSES)}")


@dataclass(eq=False)
class SweepTable:
    """(alpha, resolution) grid of TV norms and data residuals.

    Failed or missing cells are NaN; selection rules reject tables with
    NaN or not-converged cells inside the range they need.
    """

    alphas: np.ndarray
    resolutions: list
    tv: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray = None
    status: np.ndarray = None  # object array of CELL_STATUSES

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.resolutions = [int(r) for r in self.resolutions]
        self.tv = np.asarray(self.tv, dtype=float)
        self.residual = np.asarray(self.residual, dtype=float)
        shape = (self.alphas.size, len(self.resolutions))
        if self.iterations is None:
            self.iterations = np.zeros(shape, dtype=int)
        if self.status is None:
            self.status = np.where(np.isnan(self.tv), "absent", "converged")
        # as objects, so a float or bool count is refused, not truncated
        iterations = np.asarray(self.iterations, dtype=object)
        self.status = np.asarray(self.status, dtype=object)
        arrays = {"tv": self.tv, "residual": self.residual, "iterations": iterations,
                  "status": self.status}
        if 0 in shape or any(values.shape != shape for values in arrays.values()):
            shapes = ", ".join(f"{name} {values.shape}" for name, values in arrays.items())
            raise ShapeMismatchError(f"a table needs an alpha, a resolution and arrays of "
                                     f"shape {shape}, got {shapes}")
        if np.any(np.diff(self.alphas) <= 0) or np.any(np.diff(self.resolutions) <= 0):
            raise ShapeMismatchError("alphas and resolutions must be sorted strictly ascending")
        for i, j in np.ndindex(shape):
            check_cell(self.alphas[i], self.resolutions[j],
                       *(values[i, j] for values in arrays.values()), ShapeMismatchError)
        self.iterations = iterations.astype(int)

    @classmethod
    def from_cells(cls, cells):
        """Table from ``{(alpha, n): (tv, residual, iterations, status)}``.

        The axes are the sorted distinct alphas and resolutions of the keys;
        a cell with no key is NaN with status ``"absent"``.
        """
        alphas = sorted({a for a, _ in cells})
        resolutions = sorted({n for _, n in cells})
        shape = (len(alphas), len(resolutions))
        tv, residual = np.full(shape, np.nan), np.full(shape, np.nan)
        iterations, status = np.zeros(shape, dtype=object), np.full(shape, "absent", dtype=object)
        for (alpha, n), cell in cells.items():
            ij = alphas.index(alpha), resolutions.index(n)
            tv[ij], residual[ij], iterations[ij], status[ij] = cell
        # built last, so __post_init__ checks the cells' values too
        return cls(alphas, resolutions, tv, residual, iterations, status)

    def column(self, n):
        if n not in self.resolutions:
            raise ResolutionMismatchError(f"resolution {n} not in table {self.resolutions}")
        return self.resolutions.index(n)

    def require_complete(self, cols=slice(None)):
        bad = np.isnan(self.tv) | np.isnan(self.residual) | (self.status != "converged")
        if np.any(bad[:, cols]):
            raise NoSelectionError(
                "sweep table has absent or not-converged cells in the requested range",
                diagnostics={"rejected": np.argwhere(bad)},
            )
