"""Regularization parameter selection: multi-resolution, S-curve, L-curve.

`run_sweep` reconstructs the same data at every (alpha, resolution) pair
into a `SweepTable` (from `tvtomo.table`) of TV norms and residuals; the
three rules and the stability test `stable_rows` read such a table.
"""

import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
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
from .geometry import assemble_system_matrix
from .grid import build_difference_operators, tv_norm
from .pdip import SolverConfig, reconstruct
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

_SPREAD_FLOOR = 1e-12


@dataclass(frozen=True)
class SCurvePrior:
    """A-priori TV sparsity level estimated from scaled prior images."""

    s_hat: float

    def __post_init__(self):
        check_real("s_hat", self.s_hat, DegeneratePriorError)


def _solve_cell(g_tilde, config, alpha, system):
    A, ops = system
    try:
        f, report = reconstruct(A, g_tilde, alpha, config=config, ops=ops)
    except SolverFailureError:
        return np.nan, np.nan, 0, "solver_failure"
    tv = tv_norm(f, ops)
    res = float(np.linalg.norm(A.matrix @ f.values - g_tilde.data))
    return tv, res, report.iterations, report.reason


def run_sweep(geom, g_tilde, alphas, resolutions, config=None, jobs=1):
    """Reconstruct over the full (alpha, resolution) grid.

    The sinogram is resolution-independent data: the same g_tilde feeds
    every column, while the system matrix is re-assembled per resolution.
    Solver failures are NaN cells with status ``"solver_failure"``, not
    raised.  ``jobs > 1`` worker processes (at most one per cell) give the
    same table as one.
    """
    config = config or SolverConfig()
    alphas = np.sort(np.asarray(alphas, dtype=float))
    resolutions = list(resolutions)
    for n in resolutions:  # n < 2 is refused later, by assembly and the operators
        check_count("resolutions", n, -np.inf, ParameterError)
    resolutions = sorted(map(int, resolutions))
    if np.unique(alphas).size != alphas.size:
        raise ParameterError(f"duplicate alphas in {alphas.tolist()}")
    if len(set(resolutions)) != len(resolutions):
        raise ParameterError(f"duplicate resolutions in {resolutions}")
    if alphas.size == 0 or not resolutions:
        raise ParameterError("a sweep needs at least one alpha and one resolution")
    check_count("jobs", jobs, 1, ParameterError)

    systems = {n: (assemble_system_matrix(geom, n), build_difference_operators(n))
               for n in resolutions}
    keys = [(alpha, n) for n in resolutions for alpha in alphas]
    solve = partial(_solve_cell, g_tilde, config)
    # the pool forks all its workers at the first submit: no more than cells
    workers = min(jobs, len(keys))
    with ExitStack() as stack:
        mapper = (stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
                  if workers > 1 else map)
        results = list(mapper(solve, [a for a, _ in keys], [systems[n] for _, n in keys]))
    return SweepTable.from_cells(dict(zip(keys, results)))


def spread_profile(table):
    """Relative cross-resolution spread of TV norms per alpha row."""
    mx = table.tv.max(axis=1)
    mn = table.tv.min(axis=1)
    mean = table.tv.mean(axis=1)
    return (mx - mn) / np.maximum(mean, _SPREAD_FLOOR)


def stable_rows(table, tol):
    """Spread profile of the table and which rows have spread <= tol."""
    check_real("tol", tol, ParameterError, strict=False)
    spreads = spread_profile(table)
    return spreads, spreads <= tol


def select_multiresolution(table, stability_tol=0.05):
    """Smallest alpha whose TV norms are stable across resolutions.

    Stability of a row is measured by (max - min) / max(mean, floor) over
    the resolution columns; the rule returns the smallest alpha with
    spread <= stability_tol.
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
    ops = build_difference_operators(n)
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
        per_image.append((g_norm / proj_norm) * tv_norm(f_p, ops))
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
    is parametrized by log10 alpha.  Degenerate curves without a convex
    corner trigger a NoCornerWarning and fall back to max |curvature|.
    """
    j = table.column(n)
    table.require_complete(cols=[j])
    mask = (table.residual[:, j] > 0) & (table.tv[:, j] > 0)
    if mask.sum() < 4:
        raise NoSelectionError(
            f"L-curve needs >= 4 samples with positive residual and TV at n={n}, "
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
