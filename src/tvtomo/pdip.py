"""Mehrotra predictor-corrector primal-dual interior-point QP solver.

Solves  min 1/2 z^T Q z + c^T z + d  s.t.  B z = b, z >= 0  by following
the central path of the perturbed KKT map

    F(z, x~, y; mu) = [ Q z - B^T y - x~ + c ;  B z - b ;  Z X~ 1 - mu 1 ].

Each iteration solves the reduced saddle system

    [ -(Q + Z^-1 X~)  B^T ] [ dz ]   [ p1 - Z^-1 X~ p3 ]
    [       B          0  ] [ dy ] = [       p2        ]

twice (predictor with mu = 0, corrector with the Mehrotra target) and
recovers dx~ = Z^-1 X~ (p3 - dz).  For the TV problem the saddle system is
condensed onto the image block: eliminating the split variables and the
equality duals leaves an SPD system

    (A^T A + diag(d_f) + D_h^T W_h D_h + D_v^T W_v D_v) df = rhs

solved by conjugate gradients (at most 2000 iterations), preconditioned
by an exact splu factorization of the banded part G + diag(A^T A), with
A^T A applied matrix-free as f -> A^T (A f).
G + diag(A^T A) is symmetric, so splu orders its columns by minimum degree
on A^T+A (MMD_AT_PLUS_A), which fills about half as much as the default
COLAMD, and runs with relax=1, panel_size=10 in place of SuperLU's default
supernode relaxation (relax=10, panel_size=20): at the same fill, both the
factorization and its solves as the preconditioner measured faster on
this 5-point, minimum-degree-ordered matrix.
`_tv_newton` builds once per solve A^T, D_h^T, D_v^T, diag(A^T A), G as CSR
on its fixed pattern with a map scattering [d_f; w_h; w_v] into G.data, the
CSC matrix splu factors on that pattern (G is symmetric), and the CG
operator A^T A + G, typed so that scipy does not probe it with a zero
vector.  Each iterate's factor(d) refills both matrices, adds diag(A^T A)
and the shift at the diagonal, and factors once for both solves.  The
preconditioner's operator stays untyped and per CG call: benchmarks/tests
counts scipy's probe of it, one SuperLU solve per call.
`_newton_step` wraps each solve in the barrier algebra with d = x~/z.  The
solves are inexact (Eisenstat and Walker 1996; Gondzio 2013): the predictor
only sets the centering sigma and the second-order term, so its CG stops at
relative tolerance 1e-5, and the corrector's at 3e-7, which keeps every
measured cell's outer iterations and moves TV by at most about 5e-8 relative
against 1e-8.  The corrector step must solve the reduced system to a
relative residual of 1e-6, or the solve fails with SolverFailureError.  Each
history row records the CG iterations of its predictor and corrector solves
and that residual, newton_residual.  The solver has no settings: the outer
iteration cap, 100, is a constant like every tolerance above.

`reconstruct` first checks the TV-zero regime.  With a1 = A 1, the best
constant fit is c* = <a1, g> / |a1|^2, and r = A^T (g - c* a1) sums to 0.
The periodic Poisson problem (D_h^T D_h + D_v^T D_v) u = r is solved with
one fft2/ifft2 pair, and p = (D_h u, D_v u) satisfies D^T p = r.  For
alpha >= max|p|, p / alpha is a subgradient of the TV term at c* 1, so
c* 1 is optimal: `reconstruct` returns it with a converged report of 0
iterations, and runs `pdip_solve` only below that bound (or when c* <= 0).
This is the discrete form of Meyer's G-norm test for ROF (Meyer 2001).
`pdip_solve` itself is always the plain interior-point method.
"""

import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ShapeMismatchError, SolverFailureError
from .grid import ImageGrid
from .qp import QpProblem, build_qp

__all__ = [
    "SolverConfig",
    "ConvergenceReport",
    "HISTORY_COLUMNS",
    "GenericQp",
    "pdip_solve",
    "reconstruct",
]

_ETA = 0.995  # fraction-to-boundary
_CENTERING_EXPONENT = 3.0  # Mehrotra: sigma = (mu_aff / mu) ** 3
_PREDICTOR_RTOL = 1e-5  # CG tolerance of the predictor solve
_CORRECTOR_RTOL = 3e-7  # CG tolerance of the corrector solve
_NEWTON_RTOL = 1e-6  # limit of the corrector's reduced-system residual
_CG_MAX_ITERATIONS = 2000  # cap of each CG solve; a hit warns, and the residual check decides
_TOL = 1e-8  # relative primal and dual residuals and the gap mu at convergence
_MAX_ITERATIONS = 100  # outer iterations; at the cap the report's reason is max_iterations


@dataclass(frozen=True)
class SolverConfig:
    # no fields, and `reconstruct` ignores it: the benchmark's workloads and
    # tests still pass SolverConfig(backend=...) as its config, and both go
    # when they stop
    backend: InitVar[str] = "auto"


# the fields of each ConvergenceReport.history row, in order
HISTORY_COLUMNS = ("iteration", "mu", "r_primal", "r_dual", "step_primal", "step_dual",
                   "cg_predictor", "cg_corrector", "newton_residual")


@dataclass
class ConvergenceReport:
    iterations: int
    reason: str  # converged | max_iterations | solver_failure
    r_primal: float
    r_dual: float
    mu: float
    objective: float
    history: list = field(default_factory=list)  # rows of HISTORY_COLUMNS


@dataclass(frozen=True, eq=False)
class GenericQp:
    """Small dense QP in the same canonical form, for tests and toys."""

    Q: np.ndarray
    c: np.ndarray
    b: np.ndarray = None
    B: np.ndarray = None

    def __post_init__(self):
        Q, c = np.asarray(self.Q, dtype=float), np.asarray(self.c, dtype=float)
        nz = c.size
        B = np.zeros((0, nz)) if self.B is None else np.asarray(self.B, dtype=float)
        b = np.zeros(B.shape[:1]) if self.b is None else np.asarray(self.b, dtype=float)
        if (Q.shape, c.shape, B.shape[1:], b.shape) != ((nz, nz), (nz,), (nz,), B.shape[:1]):
            raise ShapeMismatchError(
                f"a QP in {nz} variables takes Q ({nz}, {nz}), c ({nz},), B (ny, {nz}) and "
                f"b (ny,); got Q {Q.shape}, c {c.shape}, B {B.shape} and b {b.shape}")
        for name, value in (("Q", Q), ("c", c), ("B", B), ("b", b)):
            object.__setattr__(self, name, value)

    @property
    def z_dim(self):
        return self.c.size

    @property
    def y_dim(self):
        return self.B.shape[0]

    def apply_Q(self, z):
        return self.Q @ z

    def objective(self, z):
        return float(0.5 * z @ self.apply_Q(z) + self.c @ z)


def _step_to_boundary(v, dv):
    """Largest step a with v + a*dv >= 0 (inf when unconstrained)."""
    return float(np.min(np.divide(-v, dv, where=dv < 0, out=np.full_like(v, np.inf))))


def _dense_newton(problem):
    """factor(d) -> solve(r1, p2, rtol) -> (dz, dy, 0) on the dense reduced
    saddle matrix; the direct solve ignores rtol and runs no CG."""
    nz, ny, Q, B = problem.z_dim, problem.y_dim, problem.Q, problem.B

    def factor(d):
        K = np.zeros((nz + ny, nz + ny))
        K[:nz, :nz] = -(Q + np.diag(d))
        K[:nz, nz:] = B.T
        K[nz:, :nz] = B

        def solve(r1, p2, rtol):
            try:
                sol = np.linalg.solve(K, np.concatenate([r1, p2]))
            except np.linalg.LinAlgError as exc:
                raise SolverFailureError(f"Newton system is singular: {exc}") from exc
            return sol[:nz], sol[nz:], 0

        return solve

    return factor


def _weighted_laplacian(d_h, d_v):
    """(G, diagonal, scatter): G = diag(d_f) + D_h^T W_h D_h + D_v^T W_v D_v as
    a CSR matrix on its fixed pattern with zero values, the positions of its
    diagonal in G.data, and the sparse map whose product with [d_f; w_h; w_v]
    is G.data.

    Row k of D has two entries, D[k, a] and D[k, b], so it adds w[k] D[k, i] D[k, j]
    at (i, j) for i, j in {a, b}.  At n=2 a pixel's two periodic neighbours
    along an axis are one pixel, and the scatter map sums both rows there.
    """
    N = d_h.shape[0]
    pixels = np.arange(N)
    rows, cols, coefs, sources = [pixels], [pixels], [np.ones(N)], [pixels]
    for block, D in enumerate((d_h, d_v), start=1):
        ends = D.indices.reshape(N, 2)
        values = D.data.reshape(N, 2)
        for p in (0, 1):
            for q in (0, 1):
                rows.append(ends[:, p])
                cols.append(ends[:, q])
                coefs.append(values[:, p] * values[:, q])
                sources.append(block * N + pixels)
    # column-major keys order the entries as CSC stores them, and G is
    # symmetric, so its CSC arrays are also its CSR arrays
    keys, position = np.unique(np.concatenate(cols) * N + np.concatenate(rows),
                               return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(N + 1) * N).astype(np.intc)
    G = sp.csr_matrix((np.zeros(keys.size), (keys % N).astype(np.intc), indptr), shape=(N, N))
    scatter = sp.csr_matrix((np.concatenate(coefs), (position, np.concatenate(sources))),
                            shape=(keys.size, 3 * N))
    return G, position[:N], scatter


def _tv_newton(problem):
    """factor(d) -> solve(r1, p2, rtol) -> (dz, dy, cg_iterations) for the
    split-variable TV problem.

    With d split into blocks (d_f, d_hp, d_hm, d_vp, d_vm) and harmonic
    weights w = 1/(1/d+ + 1/d-), all split variables and equality duals
    reduce to closed forms around the image-block SPD solve
    (A^T A + G) df = rhs, run by CG to relative tolerance rtol with the
    iterate's splu factor of G + diag(A^T A) as preconditioner.
    """
    N, d_h, d_v = problem.N, problem.ops.d_h, problem.ops.d_v
    d_hT, d_vT = d_h.T, d_v.T
    A = problem.A.matrix
    # the CSC view A^T, once per solve rather than per CG iteration; a CSR
    # copy measured slower, as each iteration then reads two copies of A
    AT = A.T
    ata_diag = np.asarray(A.multiply(A).sum(axis=0)).ravel()
    G, diagonal, scatter = _weighted_laplacian(d_h, d_v)
    # G + diag(A^T A) + shift, on G's pattern read as CSC
    P = sp.csc_matrix((G.data.copy(), G.indices, G.indptr), shape=(N, N))
    op = spla.LinearOperator((N, N), matvec=lambda v: AT @ (A @ v) + G @ v, dtype=float)

    def factor(d):
        d_f, d_hp, d_hm, d_vp, d_vm = (d[k * N : (k + 1) * N] for k in range(5))
        w_h = 1.0 / (1.0 / d_hp + 1.0 / d_hm)
        w_v = 1.0 / (1.0 / d_vp + 1.0 / d_vm)
        G.data[:] = scatter @ np.concatenate([d_f, w_h, w_v])
        # A^T A enters only through its diagonal.  TV weights near 1e14 round the sum to a
        # singular Laplacian; 10 eps max(diag), twice a 5-point row's rounding, keeps it regular
        P.data[:] = G.data
        P.data[diagonal] += ata_diag + 10 * np.finfo(float).eps * (
            G.data[diagonal] + ata_diag).max()
        try:
            # symmetric 5-point pattern: minimum degree on A^T+A halves COLAMD's fill;
            # unrelaxed supernodes factor and apply faster at the same fill (measured)
            lu = spla.splu(P, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=10)
        except RuntimeError as exc:
            raise SolverFailureError(f"preconditioner factorization failed: {exc}") from exc

        def solve(r1, p2, rtol):
            r1_f, r1_hp, r1_hm, r1_vp, r1_vm = (r1[k * N : (k + 1) * N] for k in range(5))
            rhs_h = p2[:N] - r1_hp / d_hp + r1_hm / d_hm
            rhs_v = p2[N:] - r1_vp / d_vp + r1_vm / d_vm
            rhs_f = -r1_f + d_hT @ (w_h * rhs_h) + d_vT @ (w_v * rhs_v)
            # untyped, so scipy probes it once per call (see the module docstring)
            pre = spla.LinearOperator((N, N), matvec=lu.solve)
            iterates = []  # cg calls back once per iteration
            df, info = spla.cg(op, rhs_f, rtol=rtol, atol=0.0,
                               maxiter=_CG_MAX_ITERATIONS, M=pre, callback=iterates.append)
            if info > 0:
                # accept the iterate; pdip_solve checks the Newton residual
                warnings.warn(f"inner CG hit the iteration cap ({info})")
            dy_h = w_h * (rhs_h - d_h @ df)
            dy_v = w_v * (rhs_v - d_v @ df)
            dz = np.concatenate([df, -(r1_hp + dy_h) / d_hp, -(r1_hm - dy_h) / d_hm,
                                 -(r1_vp + dy_v) / d_vp, -(r1_vm - dy_v) / d_vm])
            return dz, np.concatenate([dy_h, dy_v]), len(iterates)

        return solve

    return factor


def _newton_builder(problem):
    """The problem's factor(d) -> solve(r1, p2, rtol) -> (dz, dy, cg_iterations);
    see `_newton_step`."""
    return (_tv_newton if isinstance(problem, QpProblem) else _dense_newton)(problem)


def _newton_step(solve, d, p1, p2, p3, rtol):
    """(dz, dy, dx~, cg_iterations) of the reduced saddle system at the barrier
    diagonal d = x~/z, its image block solved by CG to relative tolerance rtol."""
    dz, dy, iterations = solve(p1 - d * p3, p2, rtol)
    return dz, dy, d * (p3 - dz), iterations


def pdip_solve(problem):
    """Run the predictor-corrector iteration to optimality.

    Returns (solution, ConvergenceReport).  For the TV QpProblem the
    solution is the reconstructed ImageGrid (first N entries of z); for a
    GenericQp it is the full primal vector z.
    """
    nz, ny = problem.z_dim, problem.y_dim

    data = problem.g if isinstance(problem, QpProblem) else problem.c
    start = max(1.0, float(np.max(np.abs(data))))
    z = np.full(nz, start)
    x = np.full(nz, start)
    y = np.zeros(ny)

    c, b, B, BT = problem.c, problem.b, problem.B, problem.B.T
    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(c)

    history = []
    factor = _newton_builder(problem)

    def report(reason, objective):
        return ConvergenceReport(
            iterations=it, reason=reason, r_primal=r_primal, r_dual=r_dual,
            mu=mu, objective=objective, history=history,
        )

    for it in range(_MAX_ITERATIONS + 1):
        Qz = problem.apply_Q(z)
        r_dual_vec = Qz + c - BT @ y - x
        r_primal_vec = B @ z - b
        r_dual = float(np.linalg.norm(r_dual_vec))
        r_primal = float(np.linalg.norm(r_primal_vec))
        mu = float(z @ x) / nz

        converged = (
            r_primal / norm_b <= _TOL
            and r_dual / norm_c <= _TOL
            and mu <= _TOL
        )
        if converged or it == _MAX_ITERATIONS:
            history.append((it, mu, r_primal, r_dual, 0.0, 0.0, 0, 0, 0.0))
            break

        p1 = r_dual_vec  # c + Qz - B^T y - x~
        p2 = -r_primal_vec  # b - Bz

        try:
            d = x / z
            solve = factor(d)
            # predictor: mu = 0, no second-order term
            dz_a, dy_a, dx_a, cg_predictor = _newton_step(solve, d, p1, p2, -z,
                                                          _PREDICTOR_RTOL)
            a_p = min(1.0, _step_to_boundary(z, dz_a))
            a_d = min(1.0, _step_to_boundary(x, dx_a))
            mu_aff = float((z + a_p * dz_a) @ (x + a_d * dx_a)) / nz
            sigma = min(1.0, (max(mu_aff, 0.0) / mu) ** _CENTERING_EXPONENT)
            # corrector with Mehrotra second-order term
            p3 = sigma * mu / x - z - dz_a * dx_a / x
            dz, dy, dx, cg_corrector = _newton_step(solve, d, p1, p2, p3, _CORRECTOR_RTOL)
            # relative residual of the reduced system
            r1 = p1 - d * p3
            res1 = -(problem.apply_Q(dz) + d * dz) + BT @ dy - r1
            res2 = B @ dz - p2
            rel = np.sqrt(np.linalg.norm(res1) ** 2 + np.linalg.norm(res2) ** 2) / (
                1.0 + np.sqrt(np.linalg.norm(r1) ** 2 + np.linalg.norm(p2) ** 2))
            if not np.isfinite(rel) or rel > _NEWTON_RTOL:
                raise SolverFailureError(f"Newton solve residual {rel:.3e} above tolerance",
                                         residual=rel)
        except SolverFailureError as exc:
            exc.report = report("solver_failure", problem.objective(z))
            raise

        lam_p = min(1.0, _ETA * _step_to_boundary(z, dz))
        lam_d = min(1.0, _ETA * _step_to_boundary(x, dx))
        z = z + lam_p * dz
        y = y + lam_d * dy
        x = x + lam_d * dx
        history.append((it, mu, r_primal, r_dual, lam_p, lam_d, cg_predictor, cg_corrector,
                        float(rel)))

        if not (np.all(z > 0) and np.all(x > 0) and np.all(np.isfinite(z))):
            raise SolverFailureError(
                "iterate left the strict interior", report=report("solver_failure", float("nan"))
            )

    final = report("converged" if converged else "max_iterations", problem.objective(z))

    if isinstance(problem, QpProblem):
        # the strict-interior check keeps z > 0; copy so the image does not hold z alive
        return ImageGrid(problem.n, z[: problem.N].copy()), final
    return z, final


def _solve_periodic_poisson(r, n):
    """u with (D_h^T D_h + D_v^T D_v) u = r, for an image r whose entries sum to 0.

    The 2-D DFT diagonalizes the periodic Laplacian, with eigenvalues
    (2 - 2 cos(2 pi k / n)) / n^2 per axis; the zero mode of u is set to 0.
    """
    k = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    eig = (k[:, None] + k[None, :]) / n**2
    eig[0, 0] = np.inf
    u = np.fft.ifft2(np.fft.fft2(r.reshape(n, n, order="F")) / eig).real
    return u.ravel(order="F")


def _constant_image_certificate(problem):
    """(c*, bound, r_dual) of the TV-zero test in the module docstring:
    c* 1 minimizes the TV problem for every alpha >= bound = max|p|.

    There the duals y = -p, x~ = [0; alpha - p_h; alpha + p_h; alpha - p_v;
    alpha + p_v] >= 0 make z = [c* 1; 0; 0; 0; 0] a KKT point of the QP, and
    r_dual = |D^T p - r| is their dual residual.  bound is inf where c* 1 is
    not strictly feasible: c* <= 0, or A 1 = 0.
    """
    A, g, ops = problem.A.matrix, problem.g, problem.ops
    a1 = A @ np.ones(problem.N)
    a1_sq = float(a1 @ a1)
    c_star = float(a1 @ g) / a1_sq if a1_sq > 0 else 0.0
    if not c_star > 0:
        return c_star, np.inf, np.nan
    r = A.T @ (g - c_star * a1)
    u = _solve_periodic_poisson(r, problem.n)
    p_h, p_v = ops.d_h @ u, ops.d_v @ u
    bound = max(float(np.abs(p_h).max()), float(np.abs(p_v).max()))
    r_dual = float(np.linalg.norm(ops.d_h.T @ p_h + ops.d_v.T @ p_v - r))
    return c_star, bound, r_dual


def reconstruct(A, g_tilde, alpha, config=None):
    """build_qp -> pdip_solve on one system matrix, or, when alpha is at or
    above `_constant_image_certificate`'s bound, the constant image c* 1 in
    closed form: a converged report of 0 iterations and TV exactly 0.

    ``config`` is accepted and ignored, as `SolverConfig` is."""
    problem = build_qp(A, g_tilde, alpha)
    c_star, bound, r_dual = _constant_image_certificate(problem)
    if not problem.alpha >= bound:
        return pdip_solve(problem)
    f = np.full(problem.N, c_star)
    residual = problem.A.matrix @ f - problem.g
    # D (c* 1) is exactly 0: each row of D_h and D_v is one -1/n and one +1/n
    report = ConvergenceReport(
        iterations=0, reason="converged", r_primal=0.0, r_dual=r_dual, mu=0.0,
        objective=0.5 * float(residual @ residual),
        history=[(0, 0.0, 0.0, r_dual, 0.0, 0.0, 0, 0, 0.0)],
    )
    return ImageGrid(problem.n, f), report
