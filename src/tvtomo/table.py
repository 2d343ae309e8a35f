"""The (alpha, resolution) sweep table and `Cell`, the record of one cell,
whose fields are the sweep CSV's columns after alpha and n.  Both `run_sweep`
and `read_sweep_csv` build a table with `SweepTable.from_cells`.  It imports
only numpy and `errors`, so file I/O does not depend on the solver modules."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (NoSelectionError, ResolutionMismatchError, ShapeMismatchError,
                     check_count, check_real)

__all__ = ["SweepTable"]

# every status a sweep cell can have: a ConvergenceReport reason or "absent"
CELL_STATUSES = ("converged", "max_iterations", "solver_failure", "absent")


class Cell(NamedTuple):
    """One (alpha, n) cell of a sweep; each field is a `SweepTable` array."""

    tv: float
    residual: float
    iterations: int
    status: str


def check_cell(key, cell):
    """Raise ShapeMismatchError unless this is a sweep cell: in ``key`` alpha
    a finite real > 0 and n an integer >= 1, in the `Cell` tv and residual
    finite reals >= 0 or NaN (a failed or absent cell), iterations an
    integer >= 0 and status in CELL_STATUSES."""
    check_real("alpha", key[0], ShapeMismatchError)
    check_count("n", key[1], 1, ShapeMismatchError)
    for name, value in (("tv", cell.tv), ("residual", cell.residual)):
        if not np.isnan(value):
            check_real(name, value, ShapeMismatchError, strict=False)
    check_count("iterations", cell.iterations, 0, ShapeMismatchError)
    if cell.status not in CELL_STATUSES:
        raise ShapeMismatchError(f"status {cell.status!r} is not one of {', '.join(CELL_STATUSES)}")


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
        # the raw axes, so a str or bool alpha and a float or bool n are refused, not converted
        for alpha in self.alphas:
            check_real("alpha", alpha, ShapeMismatchError)
        for n in self.resolutions:
            check_count("n", n, 1, ShapeMismatchError)
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
        self.iterations = np.asarray(self.iterations, dtype=object)
        self.status = np.asarray(self.status, dtype=object)
        if 0 in shape or any(getattr(self, name).shape != shape for name in Cell._fields):
            shapes = ", ".join(f"{name} {getattr(self, name).shape}" for name in Cell._fields)
            raise ShapeMismatchError(f"a table needs an alpha, a resolution and arrays of "
                                     f"shape {shape}, got {shapes}")
        if np.any(np.diff(self.alphas) <= 0) or np.any(np.diff(self.resolutions) <= 0):
            raise ShapeMismatchError("alphas and resolutions must be sorted strictly ascending")
        for key, cell in self.cells():
            check_cell(key, cell)
        self.iterations = self.iterations.astype(int)

    @classmethod
    def from_cells(cls, cells):
        """Table from ``{(alpha, n): Cell}``, or tuples of its fields, on the
        sorted distinct alphas and resolutions of the keys; a cell with no key
        is NaN with status ``"absent"``."""
        alphas = sorted({a for a, _ in cells})
        resolutions = sorted({n for _, n in cells})
        absent = Cell(np.nan, np.nan, 0, "absent")
        grid = [[Cell._make(cells.get((a, n), absent)) for n in resolutions] for a in alphas]
        # one object array per field, so __post_init__ checks the cells' values as given
        return cls(alphas, resolutions, *np.array(grid, dtype=object).transpose(2, 0, 1))

    def cells(self):
        """``((alpha, n), Cell)`` for every cell, row by row: the sweep CSV's row order."""
        for i, j in np.ndindex(self.tv.shape):
            yield ((self.alphas[i], self.resolutions[j]),
                   Cell._make(getattr(self, name)[i, j] for name in Cell._fields))

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
