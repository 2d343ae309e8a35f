"""Regularization parameter selection: multi-resolution, S-curve, L-curve.

`run_sweep` reconstructs the same data at every (alpha, resolution) pair
into a `SweepTable` (from `tvtomo.table`) of TV norms and residuals; the
three rules and the stability test `stable_rows` read such a table.  The
grid is one call of `_solve_cells`, which solves any set of cells in forked
workers or in this process, as `geometry.pool_map` chooses.
"""

import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DegeneratePriorError,
    NoCornerWarning,
    NoSelectionError,
    OutOfRangeError,
    ParameterError,
    ResolutionMismatchError,
    SolverFailureError,
    check_count,
    check_real,
)
from .geometry import assemble_system_matrix, pool_map, usable_cpus
from .grid import tv_norm
from .pdip import reconstruct
from .table import SweepTable

__all__ = [
    "SweepTable",
    "SCurvePrior",
    "run_sweep",
    "select_multiresolution",
    "estimate_s_hat",
    "select_scurve",
    "select_lcurve",
]


@dataclass(frozen=True)
class SCurvePrior:
    """A-priori TV sparsity level estimated from scaled prior images."""

    s_hat: float

    def __post_init__(self):
        check_real("s_hat", self.s_hat, DegeneratePriorError)


def _solve_cell(g_tilde, alpha, A):
    """One cell's (tv, residual, iterations, reason) and the warnings its
    solve raised, as picklable (message, category, filename, lineno)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            f, report = reconstruct(A, g_tilde, alpha)
            tv = tv_norm(f)
            res = float(np.linalg.norm(A.matrix @ f.values - g_tilde.data))
            cell = tv, res, report.iterations, report.reason
        except SolverFailureError:
            cell = np.nan, np.nan, 0, "solver_failure"
    return cell, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _reissue(caught):
    """Warn here what a cell's solve warned, under this process's filters.

    A worker's warnings would otherwise stop at its stderr.  Each is warned
    from the module that raised it, with that module's registry, as
    `warnings.warn` there would, so a filter on the module name still holds.
    """
    for message, category, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
        else:
            warnings.warn_explicit(message, category, filename, lineno, module.__name__,
                                   module.__dict__.setdefault("__warningregistry__", {}))


# OpenBLAS, the BLAS numpy ships, reads its thread count once, when numpy
# loads it: OPENBLAS_NUM_THREADS first, then OMP_NUM_THREADS.  The values
# are read here, after numpy's import, for the same reason; MKL_NUM_THREADS
# is recorded in sweep manifests but does not set OpenBLAS's thread count.
BLAS_THREAD_ENV = {var: os.environ.get(var, "unset")
                   for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _default_jobs():
    """One sweep worker per CPU the BLAS leaves free: ``cpus // blas_threads``.

    ``blas_threads`` is OpenBLAS's thread count, else every CPU: an unpinned
    BLAS spins a thread per core, and a second worker beside it makes a
    sweep slower, not faster.  Serial where workers cannot be forked:
    forked workers need no ``__main__`` guard in the calling script, which
    spawned or forkserver workers (the default on macOS, and on Linux from
    Python 3.14) do.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = usable_cpus()
    blas_threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = BLAS_THREAD_ENV[var]
        if value.isdigit() and int(value) > 0:
            blas_threads = int(value)
            break
    return max(1, cpus // blas_threads)


def _solve_cells(g_tilde, keys, matrices):
    """``{(alpha, n): (tv, residual, iterations, status)}`` for each key, with
    ``matrices[n]`` the system matrix at resolution n.

    The cells start in the order of ``keys``, in forked worker processes,
    one per CPU the BLAS threads leave free and at most one per cell, or in
    this process when that is one; either way gives the same cells and the
    same warnings, which are warned here after the last cell returns.
    """
    results = pool_map(
        lambda jobs: ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork")),
        min(_default_jobs(), len(keys)), partial(_solve_cell, g_tilde),
        [a for a, _ in keys], [matrices[n] for _, n in keys])
    for _, caught in results:
        _reissue(caught)
    return {key: cell for key, (cell, _) in zip(keys, results)}


def run_sweep(geom, g_tilde, alphas, resolutions):
    """Reconstruct over the full (alpha, resolution) grid.

    The sinogram is resolution-independent data: the same g_tilde feeds
    every column, while the system matrix is re-assembled per resolution.
    Solver failures are NaN cells with status ``"solver_failure"``, not
    raised.  The cells are solved by `_solve_cells`, costliest first: the
    finest grid, and within it the smallest alpha.
    """
    alphas = list(alphas)
    for alpha in alphas:
        check_real("alphas", alpha, ParameterError)
    alphas = np.sort(np.asarray(alphas, dtype=float))
    resolutions = list(resolutions)
    for n in resolutions:
        check_count("resolutions", n, 2, ParameterError)
    resolutions = sorted(map(int, resolutions))
    if not (alphas.size and resolutions) or 0 in np.diff(alphas) or 0 in np.diff(resolutions):
        raise ParameterError(f"a sweep needs distinct alphas and resolutions, at least one of "
                             f"each; got {alphas.tolist()} and {resolutions}")

    matrices = {n: assemble_system_matrix(geom, n) for n in resolutions}
    keys = [(alpha, n) for n in reversed(resolutions) for alpha in alphas]
    return SweepTable.from_cells(_solve_cells(g_tilde, keys, matrices))


def spread_profile(table):
    """Relative cross-resolution spread (max - min) / mean of TV norms per alpha
    row: inf for every row of a table with fewer than two resolutions and for
    a row with TV 0 at every resolution, which have nothing to compare and so
    are never stable, and NaN for a row with a failed cell."""
    mean = table.tv.mean(axis=1)
    return np.divide(np.ptp(table.tv, axis=1), mean, out=np.full(mean.shape, np.inf),
                     where=(mean != 0) & (len(table.resolutions) > 1))


def stable_rows(table, tol):
    """Spread profile of the table and which rows have spread <= tol."""
    check_real("tol", tol, ParameterError, strict=False)
    spreads = spread_profile(table)
    return spreads, spreads <= tol


def select_multiresolution(table, stability_tol=0.05):
    """Smallest alpha whose TV norms are stable across resolutions.

    Stability of a row is `spread_profile`, (max - min) / mean over the
    resolution columns; the rule returns the smallest alpha with spread <=
    stability_tol, never a row with TV 0 at every resolution and nothing
    from a table with one resolution (spread inf).
    """
    spreads, stable = stable_rows(table, stability_tol)
    table.require_complete()
    diagnostics = {
        "alphas": table.alphas.copy(),
        "spreads": spreads,
        "stable": stable,
        "stability_tol": stability_tol,
    }
    if not np.any(stable):
        raise NoSelectionError(
            f"no alpha has cross-resolution spread <= {stability_tol}",
            diagnostics=diagnostics,
        )
    idx = int(np.argmax(stable))
    diagnostics["selected_index"] = idx
    return float(table.alphas[idx]), diagnostics


def estimate_s_hat(prior_images, A, g_tilde):
    """Estimate the target TV level from prior images of similar objects.

    Each prior is rescaled so its forward projection has the same norm as
    the measured data; the estimate is the mean TV norm of the rescaled
    priors.  The result is invariant to the original scaling of each prior.
    """
    if not prior_images:
        raise DegeneratePriorError("need at least one prior image")
    n = A.n
    g_norm = float(np.linalg.norm(g_tilde.data))
    per_image = []
    for f_p in prior_images:
        if f_p.n != n:
            raise ResolutionMismatchError(
                f"prior image at n={f_p.n}, system matrix at n={n}"
            )
        proj_norm = float(np.linalg.norm(A.matrix @ f_p.values))
        if proj_norm == 0.0:
            raise DegeneratePriorError("prior image has zero forward projection")
        per_image.append((g_norm / proj_norm) * tv_norm(f_p))
    return SCurvePrior(s_hat=float(np.mean(per_image)))


def select_scurve(table, prior, n):
    """Solve S(alpha) = S_hat on the chosen resolution column.

    The (log10 alpha, TV) samples are interpolated piecewise-linearly;
    exact grid hits are returned exactly.
    """
    j = table.column(n)
    table.require_complete(cols=[j])
    s = table.tv[:, j]
    log_a = np.log10(table.alphas)
    s_hat = prior.s_hat

    diagnostics = {"alphas": table.alphas.copy(), "s": s.copy(), "s_hat": s_hat}

    hits = np.flatnonzero(s == s_hat)
    if hits.size:
        # smallest alpha on an exact hit
        diagnostics["exact_hit"] = True
        return float(table.alphas[hits[0]]), diagnostics

    if not (s.min() < s_hat < s.max()):
        raise OutOfRangeError(
            f"target level {s_hat} outside the S-curve range "
            f"[{s.min()}, {s.max()}] at n={n}: no bracketing segment"
        )
    # S is non-increasing in alpha; find the bracketing segment
    for i in range(s.size - 1):
        s0, s1 = s[i], s[i + 1]
        if (s0 >= s_hat >= s1) and s0 != s1:
            frac = (s0 - s_hat) / (s0 - s1)
            log_alpha = log_a[i] + frac * (log_a[i + 1] - log_a[i])
            diagnostics["exact_hit"] = False
            diagnostics["bracket"] = (float(table.alphas[i]), float(table.alphas[i + 1]))
            return float(10.0 ** log_alpha), diagnostics
    raise OutOfRangeError(
        f"could not bracket target level {s_hat}: S-curve not monotone at n={n}"
    )


def _curvature_samples(x, y, t):
    """Signed curvature at interior samples of the polyline (x(t), y(t)).

    Derivatives come from the local quadratic through each consecutive
    point triple (three-point finite differences on non-uniform t).
    """
    kappa = np.full(x.size, np.nan)
    for i in range(1, x.size - 1):
        h0 = t[i] - t[i - 1]
        h1 = t[i + 1] - t[i]
        # quadratic-fit first/second derivatives at t[i]
        def deriv(v):
            d1 = (
                -h1 / (h0 * (h0 + h1)) * v[i - 1]
                + (h1 - h0) / (h0 * h1) * v[i]
                + h0 / (h1 * (h0 + h1)) * v[i + 1]
            )
            d2 = 2.0 * (
                v[i - 1] / (h0 * (h0 + h1)) - v[i] / (h0 * h1) + v[i + 1] / (h1 * (h0 + h1))
            )
            return d1, d2

        x1, x2 = deriv(x)
        y1, y2 = deriv(y)
        denom = (x1 * x1 + y1 * y1) ** 1.5
        kappa[i] = (x1 * y2 - y1 * x2) / denom if denom > 0 else 0.0
    return kappa


def select_lcurve(table, n):
    """Corner of the log-log (residual, TV) curve by maximum curvature.

    Only samples with positive residual and TV enter the polyline, which
    is parametrized by log10 alpha, so rows in the TV-zero regime leave it.
    Curvature needs a sample on each side, so at least 3 must remain.
    Degenerate curves without a convex corner trigger a NoCornerWarning
    and fall back to max |curvature|.
    """
    j = table.column(n)
    table.require_complete(cols=[j])
    mask = (table.residual[:, j] > 0) & (table.tv[:, j] > 0)
    if mask.sum() < 3:
        raise NoSelectionError(
            f"L-curve needs >= 3 samples with positive residual and TV at n={n}, "
            f"got {int(mask.sum())}"
        )
    alphas = table.alphas[mask]
    x = np.log10(table.residual[mask, j])
    y = np.log10(table.tv[mask, j])
    t = np.log10(alphas)

    kappa = _curvature_samples(x, y, t)
    diagnostics = {
        "alphas": alphas, "log_residual": x, "log_tv": y, "curvature": kappa,
    }
    interior = kappa[1:-1]
    if np.all(np.isnan(interior)):
        raise NoSelectionError("curvature undefined on all interior samples")
    if np.nanmax(interior) > 0:
        idx = 1 + int(np.nanargmax(interior))
    else:
        warnings.warn(
            "L-curve has no convex corner; using max |curvature| sample",
            NoCornerWarning,
        )
        idx = 1 + int(np.nanargmax(np.abs(interior)))
    diagnostics["selected_index"] = idx
    return float(alphas[idx]), diagnostics
