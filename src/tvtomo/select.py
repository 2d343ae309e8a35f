"""Regularization parameter selection: multi-resolution, S-curve, L-curve.

All three rules operate on a SweepTable of TV norms and residuals obtained
by reconstructing the same data at several (alpha, resolution) pairs.
"""

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePriorError,
    NoCornerWarning,
    NoSelectionError,
    OutOfRangeError,
    ParameterError,
    ResolutionMismatchError,
    ShapeMismatchError,
    SolverFailureError,
)
from .geometry import assemble_system_matrix
from .grid import build_difference_operators, tv_norm
from .pdip import SolverConfig, reconstruct

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


@dataclass
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
    status: np.ndarray = None  # string array: converged/...
    reports: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.resolutions = [int(r) for r in self.resolutions]
        self.tv = np.asarray(self.tv, dtype=float)
        self.residual = np.asarray(self.residual, dtype=float)
        shape = (self.alphas.size, len(self.resolutions))
        if self.tv.shape != shape or self.residual.shape != shape:
            raise ShapeMismatchError(
                f"table arrays must have shape {shape}, got {self.tv.shape}/{self.residual.shape}"
            )
        if np.any(self.alphas <= 0):
            raise ShapeMismatchError("alphas must be positive")
        if np.any(np.diff(self.alphas) <= 0):
            raise ShapeMismatchError("alphas must be sorted strictly ascending")
        if self.iterations is None:
            self.iterations = np.zeros(shape, dtype=int)
        if self.status is None:
            self.status = np.where(np.isnan(self.tv), "absent", "converged").astype(object)

    def column(self, n):
        if n not in self.resolutions:
            raise ResolutionMismatchError(f"resolution {n} not in table {self.resolutions}")
        return self.resolutions.index(n)

    def require_complete(self, cols=slice(None)):
        bad = np.isnan(self.tv) | (self.status != "converged")
        if np.any(bad[:, cols]):
            raise NoSelectionError(
                "sweep table has absent or not-converged cells in the requested range",
                diagnostics={"rejected": np.argwhere(bad)},
            )


@dataclass(frozen=True)
class SCurvePrior:
    """A-priori TV sparsity level estimated from scaled prior images."""

    s_hat: float
    per_image: np.ndarray = None
    resolution: int = None

    def __post_init__(self):
        if self.s_hat <= 0:
            raise DegeneratePriorError(f"sparsity level must be positive, got {self.s_hat}")


def _solve_cell(A, g_tilde, alpha, config, ops):
    try:
        f, report = reconstruct(A, g_tilde, alpha, config=config, ops=ops)
    except SolverFailureError as exc:
        return np.nan, np.nan, 0, "solver_failure", exc.report
    tv = tv_norm(f, ops)
    res = float(np.linalg.norm(A.matrix @ f.values - g_tilde.data))
    return tv, res, report.iterations, report.reason, report


def run_sweep(geom, g_tilde, alphas, resolutions, config=None, jobs=1):
    """Reconstruct over the full (alpha, resolution) grid.

    The sinogram is resolution-independent data: the same g_tilde feeds
    every column, while the system matrix is re-assembled per resolution.
    Solver failures are recorded as absent cells, not raised.
    """
    config = config or SolverConfig()
    alphas = np.sort(np.asarray(alphas, dtype=float))
    resolutions = sorted(int(r) for r in resolutions)
    shape = (alphas.size, len(resolutions))
    tv = np.full(shape, np.nan)
    residual = np.full(shape, np.nan)
    iterations = np.zeros(shape, dtype=int)
    status = np.full(shape, "absent", dtype=object)
    reports = [[None] * shape[1] for _ in range(shape[0])]

    tasks = []
    for j, n in enumerate(resolutions):
        A = assemble_system_matrix(geom, n)
        ops = build_difference_operators(n)
        for i, alpha in enumerate(alphas):
            tasks.append((i, j, A, ops, alpha))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                (i, j, pool.submit(_solve_cell, A, g_tilde, alpha, config, ops))
                for i, j, A, ops, alpha in tasks
            ]
            results = [(i, j, fut.result()) for i, j, fut in futures]
    else:
        results = [
            (i, j, _solve_cell(A, g_tilde, alpha, config, ops))
            for i, j, A, ops, alpha in tasks
        ]

    for i, j, (tv_ij, res_ij, iters, reason, report) in results:
        tv[i, j] = tv_ij
        residual[i, j] = res_ij
        iterations[i, j] = iters
        status[i, j] = reason
        reports[i][j] = report

    return SweepTable(
        alphas=alphas, resolutions=resolutions, tv=tv, residual=residual,
        iterations=iterations, status=status, reports=reports,
    )


def spread_profile(table):
    """Relative cross-resolution spread of TV norms per alpha row."""
    mx = table.tv.max(axis=1)
    mn = table.tv.min(axis=1)
    mean = table.tv.mean(axis=1)
    return (mx - mn) / np.maximum(mean, _SPREAD_FLOOR)


def select_multiresolution(table, stability_tol=0.05):
    """Smallest alpha whose TV norms are stable across resolutions.

    Stability of a row is measured by (max - min) / max(mean, floor) over
    the resolution columns; the rule returns the smallest alpha with
    spread <= stability_tol.
    """
    if not 0 <= stability_tol < np.inf:
        raise ParameterError(
            f"stability tolerance must be nonnegative and finite, got {stability_tol}"
        )
    table.require_complete()
    spreads = spread_profile(table)
    stable = spreads <= stability_tol
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


def estimate_s_hat(prior_images, A, g_tilde, ops=None):
    """Estimate the target TV level from prior images of similar objects.

    Each prior is rescaled so its forward projection has the same norm as
    the measured data; the estimate is the mean TV norm of the rescaled
    priors.  The result is invariant to the original scaling of each prior.
    """
    if not prior_images:
        raise DegeneratePriorError("need at least one prior image")
    n = A.n
    if ops is None:
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
    per_image = np.asarray(per_image)
    return SCurvePrior(s_hat=float(per_image.mean()), per_image=per_image, resolution=n)


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
