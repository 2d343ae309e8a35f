import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import tvtomo as tv
from tvtomo import pdip
from tvtomo.errors import ParameterError, SolverFailureError
from tvtomo.pdip import (
    _TOL,
    _constant_image_certificate,
    _newton_builder,
    _newton_step,
    _solve_periodic_poisson,
    _step_to_boundary,
)

from conftest import make_tv_instance, projected_subgradient


def split_variables(problem, f_values):
    """Lift an image to the split vector [f; h+; h-; v+; v-]."""
    dh = problem.ops.d_h @ f_values
    dv = problem.ops.d_v @ f_values
    return np.concatenate(
        [f_values, np.maximum(dh, 0), np.maximum(-dh, 0), np.maximum(dv, 0), np.maximum(-dv, 0)]
    )


class TestBuildQp:
    def test_zero_data_zero_objective(self, small_geom):
        A = tv.assemble_system_matrix(small_geom, 4)
        problem = tv.build_qp(A, tv.Sinogram(small_geom, np.zeros(small_geom.num_rays)), 1.0)
        z = np.zeros(problem.z_dim)
        assert problem.objective(z) == 0.0

    def test_split_objective_matches_direct(self, rng):
        img, A, g, ops, problem = make_tv_instance(n=4, num_angles=6, alpha=0.37, seed=5)
        for _ in range(10):
            f = rng.uniform(size=16)
            z = split_variables(problem, f)
            direct = problem.objective_of_image(f)
            assert problem.objective(z) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_block_shapes(self):
        _, _, _, _, problem = make_tv_instance(n=3, num_angles=4, alpha=1.0, seed=1)
        N = 9
        assert problem.z_dim == 5 * N and problem.y_dim == 2 * N
        assert problem.B.shape == (2 * N, 5 * N)
        assert problem.c.size == 5 * N
        assert np.all(problem.b == 0)

    def test_equality_constraint_consistency(self, rng):
        _, _, _, _, problem = make_tv_instance(n=4, num_angles=5, alpha=2.0, seed=9)
        f = rng.normal(size=16)
        z = split_variables(problem, f)
        assert np.allclose(problem.B @ z, 0.0, atol=1e-14)

    def test_q_positive_semidefinite(self, rng):
        _, _, _, _, problem = make_tv_instance(n=4, num_angles=5, alpha=1.0, seed=2)
        for _ in range(50):
            z = rng.normal(size=problem.z_dim)
            assert z @ problem.apply_Q(z) >= -1e-12

    def test_nonpositive_alpha_rejected(self, small_geom):
        A = tv.assemble_system_matrix(small_geom, 4)
        g = tv.Sinogram(small_geom, np.zeros(small_geom.num_rays))
        for alpha in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                tv.build_qp(A, g, alpha)


def assemble_full_kkt(problem, z, x_tilde):
    """Dense oracle: the full 3-block Newton matrix."""
    nz, ny = problem.z_dim, problem.y_dim
    N = problem.N
    A = problem.A.matrix.toarray()
    Q = np.zeros((nz, nz))
    Q[:N, :N] = A.T @ A
    B = problem.B.toarray()
    Z = np.diag(z)
    X = np.diag(x_tilde)
    K = np.zeros((2 * nz + ny, 2 * nz + ny))
    K[:nz, :nz] = -Q
    K[:nz, nz : nz + ny] = B.T
    K[:nz, nz + ny :] = np.eye(nz)
    K[nz : nz + ny, :nz] = B
    K[nz + ny :, :nz] = np.eye(nz)
    K[nz + ny :, nz + ny :] = np.linalg.inv(X) @ Z
    return K


def newton_step(problem, z, x_tilde, p1, p2, p3):
    """(dz, dy, dx~) of the reduced KKT system at (z, x~), as pdip_solve takes it."""
    d = x_tilde / z
    return _newton_step(_newton_builder(problem)(d), d, p1, p2, p3, pdip._CORRECTOR_RTOL)[:3]


class TestNewtonSystem:
    def test_diagonal_no_equalities_closed_form(self, rng):
        # Q = 0, B empty, barrier diag = 1: the reduced system is
        # -dz = p1 - p3 and dx = p3 - dz
        problem = tv.GenericQp(Q=np.zeros((5, 5)), c=rng.normal(size=5))
        p1, p3 = rng.normal(size=5), rng.normal(size=5)
        dz, dy, dx = newton_step(problem, np.ones(5), np.ones(5), p1, np.zeros(0), p3)
        assert np.allclose(dz, -(p1 - p3), atol=1e-12)
        assert np.allclose(dx, p3 - dz, atol=1e-12)
        assert dy.size == 0

    def test_full_system_residual_against_dense_oracle(self, rng):
        _, _, _, _, problem = make_tv_instance(n=2, num_angles=4, alpha=0.5, seed=3)
        nz, ny = problem.z_dim, problem.y_dim
        z, x_tilde = rng.uniform(0.5, 2.0, nz), rng.uniform(0.5, 2.0, nz)
        p1, p2, p3 = rng.normal(size=nz), rng.normal(size=ny), rng.normal(size=nz)
        dz, dy, dx = newton_step(problem, z, x_tilde, p1, p2, p3)
        K = assemble_full_kkt(problem, z, x_tilde)
        sol = np.concatenate([dz, dy, dx])
        rhs = np.concatenate([p1, p2, p3])
        residual = np.linalg.norm(K @ sol - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-10

    def test_one_newton_step_from_centered_point(self):
        # min 1/2(z1^2+z2^2) - z1 - z2 s.t. z1+z2=1: solution (0.5, 0.5).
        # From a centered interior point a single mu=0 Newton step lands on
        # the analytic KKT solution of the unperturbed problem.
        Q = np.eye(2)
        c = np.array([-1.0, -1.0])
        B = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        problem = tv.GenericQp(Q=Q, c=c, B=B, b=b)
        # analytic: z*=(0.5,0.5), y*=-0.5, x*=0 -> take a strictly interior
        # state on the central path-ish and check the Newton direction
        # solves the full linearized system exactly (dense verification)
        z, y, x_tilde = np.array([0.5, 0.5]), np.array([-0.5]), np.array([1e-8, 1e-8])
        p1 = c + Q @ z - B.T @ y - x_tilde
        p2 = b - B @ z
        p3 = -z
        dz, dy, dx = newton_step(problem, z, x_tilde, p1, p2, p3)
        z_next = z + dz
        assert np.allclose(z_next, [0.5, 0.5], atol=1e-7)


class TestPdipSolve:
    def test_symmetric_qp(self):
        problem = tv.GenericQp(
            Q=np.eye(2), c=np.array([-1.0, -1.0]),
            B=np.array([[1.0, 1.0]]), b=np.array([1.0]),
        )
        z, report = tv.pdip_solve(problem)
        assert report.reason == "converged"
        assert np.allclose(z, [0.5, 0.5], atol=1e-9)

    def test_bound_active_scalar_qp(self):
        problem = tv.GenericQp(Q=np.array([[1.0]]), c=np.array([1.0]))
        z, report = tv.pdip_solve(problem)
        assert report.reason == "converged"
        assert abs(z[0]) <= 1e-9

    def test_small_tv_instance_beats_subgradient_oracle(self):
        _, _, _, _, problem = make_tv_instance(n=4, num_angles=6, alpha=0.1, seed=11)
        img, report = tv.pdip_solve(problem)
        assert report.reason == "converged"
        assert report.r_dual <= 1e-7 * (1 + np.linalg.norm(problem.c))
        assert report.r_primal <= 1e-7
        oracle = projected_subgradient(problem, iterations=3000)
        pdip_obj = problem.objective_of_image(img.values)
        assert pdip_obj <= oracle + 1e-5

    def test_strict_interiority_and_mu_decrease(self):
        _, _, _, _, problem = make_tv_instance(n=3, num_angles=5, alpha=1.0, seed=4)
        img, report = tv.pdip_solve(problem)
        mus = [row[1] for row in report.history]
        assert all(m > 0 for m in mus[:-1])
        # monotone complementarity: >=10x decrease over any 20 iterations
        for i in range(len(mus) - 21):
            assert mus[i + 20] <= mus[i] / 10 + 1e-16

    def test_kkt_certificate_at_termination(self):
        _, _, _, _, problem = make_tv_instance(n=4, num_angles=6, alpha=0.5, seed=8)
        img, report = tv.pdip_solve(problem)
        assert report.reason == "converged"
        assert report.r_primal / (1 + np.linalg.norm(problem.b)) <= 10 * _TOL
        assert report.r_dual / (1 + np.linalg.norm(problem.c)) <= 10 * _TOL
        assert report.mu <= 10 * _TOL

    def test_never_returns_nan(self, monkeypatch):
        _, _, _, _, problem = make_tv_instance(n=4, num_angles=4, alpha=10.0, seed=6)
        img, _ = tv.pdip_solve(problem)
        assert np.all(np.isfinite(img.values))
        assert np.all(img.values > 0)
        # no iteration: the starting point, max(1, max|g|) in every pixel
        monkeypatch.setattr(pdip, "_MAX_ITERATIONS", 0)
        img, report = tv.pdip_solve(problem)
        assert (report.reason, report.iterations) == ("max_iterations", 0)
        start = max(1.0, float(np.abs(problem.g).max()))
        assert start == 1.0 and np.all(img.values == start)

    def test_singular_newton_system_fails_with_report(self):
        # two identical equality rows: the reduced saddle matrix is singular
        problem = tv.GenericQp(Q=np.eye(2), c=np.array([-1.0, -1.0]),
                               B=np.array([[1.0, 1.0], [1.0, 1.0]]), b=np.array([1.0, 1.0]))
        with pytest.raises(SolverFailureError, match="singular") as info:
            tv.pdip_solve(problem)
        assert info.value.report.reason == "solver_failure"

    def test_step_to_boundary(self):
        assert _step_to_boundary(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == np.inf
        assert _step_to_boundary(np.array([1.0, 2.0]), np.array([-2.0, -1.0])) == 0.5

    def test_step_to_boundary_matches_the_masked_formula(self, rng):
        """Against min(-v[dv < 0] / dv[dv < 0]); zeros and -0.0 in dv bound nothing."""
        for _ in range(50):
            v = rng.uniform(1e-12, 1e3, size=40)
            dv = rng.normal(scale=10.0 ** rng.uniform(-6, 6), size=40)
            dv[rng.integers(40, size=5)] = 0.0
            dv[rng.integers(40, size=5)] = -0.0
            neg = dv < 0
            assert _step_to_boundary(v, dv) == np.min(-v[neg] / dv[neg])
        v = np.ones(4)
        assert _step_to_boundary(v, np.array([0.0, -0.0, 1.0, 0.0])) == np.inf
        assert _step_to_boundary(v, np.array([-0.0, -0.0, -0.0, -0.0])) == np.inf
        assert _step_to_boundary(v, np.array([-0.0, -4.0, 0.0, 2.0])) == 0.25


class TestReconstruct:
    def test_cg_cap_hit_fails_with_report(self, small_geom, monkeypatch):
        A = tv.assemble_system_matrix(small_geom, 8)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.3), 8))
        monkeypatch.setattr(pdip, "_CG_MAX_ITERATIONS", 1)
        with pytest.warns(UserWarning, match=r"inner CG hit the iteration cap \(1\)"):
            with pytest.raises(SolverFailureError) as info:
                tv.reconstruct(A, g, 0.1)
        assert info.value.residual is not None
        assert info.value.report.reason == "solver_failure"

    def test_iteration_cap_stops_with_max_iterations(self, small_geom, monkeypatch):
        A = tv.assemble_system_matrix(small_geom, 8)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.3), 8))
        monkeypatch.setattr(pdip, "_MAX_ITERATIONS", 3)
        _, report = tv.reconstruct(A, g, 0.1)
        assert (report.iterations, report.reason) == (3, "max_iterations")

    @staticmethod
    def record_calls(monkeypatch, name, **forced):
        """Wrap ``spla.<name>``, forcing ``forced`` keyword arguments; returns
        the list each call's result is appended to."""
        results = []
        real = getattr(spla, name)

        def recording(*args, **kwargs):
            results.append(real(*args, **{**kwargs, **forced}))
            return results[-1]

        monkeypatch.setattr(spla, name, recording)
        return results

    @pytest.mark.parametrize("cap, reason", [(2000, "converged"), (5, "solver_failure")])
    def test_one_factor_and_two_cg_solves_per_iteration(self, small_geom, monkeypatch,
                                                         cap, reason):
        A = tv.assemble_system_matrix(small_geom, 8)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.3), 8))
        factors = self.record_calls(monkeypatch, "splu")
        cg_calls = self.record_calls(monkeypatch, "cg")
        monkeypatch.setattr(pdip, "_CG_MAX_ITERATIONS", cap)
        if reason == "converged":
            _, report = tv.reconstruct(A, g, 0.1)
            # the last iterate only checks convergence and solves nothing
            solved = report.iterations
            rows = report.iterations + 1
        else:
            with pytest.warns(UserWarning, match=r"inner CG hit the iteration cap"):
                with pytest.raises(SolverFailureError) as info:
                    tv.reconstruct(A, g, 0.1)
            report = info.value.report
            assert report.iterations >= 1  # fails after a completed step
            # the failing iterate factors and solves, but adds no row
            solved = report.iterations + 1
            rows = report.iterations
        assert report.reason == reason
        assert len(factors) == solved
        assert len(cg_calls) == 2 * solved
        assert [row[0] for row in report.history] == list(range(rows))

    def test_history_counts_each_cg_iteration(self, small_geom, monkeypatch):
        """The history's CG columns agree with a counting callback wrapped
        around the solver's own, as a tracer installs it."""
        A = tv.assemble_system_matrix(small_geom, 8)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.3), 8))
        counts, real = [], spla.cg

        def counting_cg(*args, callback=None, **kwargs):
            counts.append(0)

            def outer(xk):
                counts[-1] += 1
                callback(xk)

            return real(*args, callback=outer, **kwargs)

        monkeypatch.setattr(spla, "cg", counting_cg)
        _, report = tv.reconstruct(A, g, 0.1)
        assert report.reason == "converged"
        rows = [row[6:8] for row in report.history]
        assert [c for row in rows[:-1] for c in row] == counts
        assert min(counts) > 0 and rows[-1] == (0, 0)

    @staticmethod
    def fine_problem():
        geom = tv.ScanGeometry(num_angles=12, num_detector_pixels=64)
        A = tv.assemble_system_matrix(geom, 32)
        return A, tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.3), 32))

    def test_preconditioner_fill_bound(self, monkeypatch):
        A, g = self.fine_problem()
        factors = self.record_calls(monkeypatch, "splu")
        _, report = tv.reconstruct(A, g, 0.1)
        assert report.reason == "converged"
        assert len(factors) == report.iterations
        # minimum degree on A^T+A fills 38,340; COLAMD's ordering fills 66,082
        assert max(lu.L.nnz + lu.U.nnz for lu in factors) <= 45_000

    def test_preconditioner_ordering_keeps_the_solution(self, monkeypatch):
        A, g = self.fine_problem()
        f, report = tv.reconstruct(A, g, 0.1)
        self.record_calls(monkeypatch, "splu", permc_spec="COLAMD")
        f_colamd, report_colamd = tv.reconstruct(A, g, 0.1)
        assert report.iterations == report_colamd.iterations
        assert tv.tv_norm(f) == pytest.approx(tv.tv_norm(f_colamd), rel=1e-9)

    def test_preconditioner_factor_options_keep_the_solution(self, monkeypatch):
        """Unrelaxed supernodes (relax=1, panel_size=10) against SuperLU's
        defaults: the same fill at every iterate and the same solution."""
        A, g = self.fine_problem()
        factors = self.record_calls(monkeypatch, "splu")
        f, report = tv.reconstruct(A, g, 0.1)
        monkeypatch.undo()
        factors_default = self.record_calls(monkeypatch, "splu", relax=10, panel_size=20)
        f_default, report_default = tv.reconstruct(A, g, 0.1)
        assert report.reason == report_default.reason == "converged"
        assert report.iterations == report_default.iterations
        assert ([lu.L.nnz + lu.U.nnz for lu in factors]
                == [lu.L.nnz + lu.U.nnz for lu in factors_default])
        assert tv.tv_norm(f) == pytest.approx(tv.tv_norm(f_default), rel=1e-9)
        assert report.objective == pytest.approx(report_default.objective, rel=1e-9)

    def test_history_records_the_newton_residual(self):
        """Each solved row holds the corrector's reduced-system residual, at
        most the limit; the last row, which solves nothing, reads 0."""
        A, g = self.fine_problem()
        _, report = tv.reconstruct(A, g, 0.1)
        column = pdip.HISTORY_COLUMNS.index("newton_residual")
        residuals = [row[column] for row in report.history]
        assert all(0.0 < r <= pdip._NEWTON_RTOL for r in residuals[:-1])
        assert residuals[-1] == 0.0

    def test_inexact_solves_keep_the_solution(self, monkeypatch):
        """Against both CG solves at 1e-9: the same outer iterations and
        solution, with fewer predictor CG iterations."""
        A, g = self.fine_problem()
        f, report = tv.reconstruct(A, g, 0.1)
        monkeypatch.setattr(pdip, "_PREDICTOR_RTOL", 1e-9)
        monkeypatch.setattr(pdip, "_CORRECTOR_RTOL", 1e-9)
        f_tight, report_tight = tv.reconstruct(A, g, 0.1)
        assert report.reason == report_tight.reason == "converged"
        assert report.iterations == report_tight.iterations
        assert tv.tv_norm(f) == pytest.approx(tv.tv_norm(f_tight), rel=1e-8)
        assert report.objective == pytest.approx(report_tight.objective, rel=1e-8)
        predictor = sum(row[6] for row in report.history)
        assert predictor < sum(row[6] for row in report_tight.history)

    def test_small_alpha_inexact_solves_keep_the_solution(self, monkeypatch):
        """At alpha=1e-3, where TV weights spread widest and a corrector at 1e-6
        has changed the outer iterations, the shipped tolerances against both CG
        solves at 1e-9: noise-free data keeps the outer iterations and the
        solution to 1e-8; 5% noise keeps the outer iterations and TV to 1e-6."""
        A, g = self.fine_problem()
        noisy = tv.add_noise(g, tv.NoiseSpec(relative_level=0.05, seed=1))
        runs = [tv.reconstruct(A, data, 1e-3) for data in (g, noisy)]
        monkeypatch.setattr(pdip, "_PREDICTOR_RTOL", 1e-9)
        monkeypatch.setattr(pdip, "_CORRECTOR_RTOL", 1e-9)
        tight = [tv.reconstruct(A, data, 1e-3) for data in (g, noisy)]
        for (f, report), (f_tight, report_tight), rel in zip(runs, tight, (1e-8, 1e-6)):
            assert report.reason == report_tight.reason == "converged"
            assert report.iterations == report_tight.iterations
            assert tv.tv_norm(f) == pytest.approx(tv.tv_norm(f_tight), rel=rel)
        assert runs[0][1].objective == pytest.approx(tight[0][1].objective, rel=1e-8)

    def test_newton_residual_limit(self, small_geom, monkeypatch):
        """A direction off by 1e-3 relative fails the corrector's residual check."""
        assert pdip._NEWTON_RTOL == 1e-6
        A = tv.assemble_system_matrix(small_geom, 8)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.3), 8))
        real = pdip._newton_builder

        def perturbed_builder(problem):
            factor = real(problem)

            def perturbed_factor(d):
                solve = factor(d)

                def perturbed_solve(r1, p2, rtol):
                    dz, dy, iterations = solve(r1, p2, rtol)
                    return dz * (1 + 1e-3), dy, iterations

                return perturbed_solve

            return perturbed_factor

        monkeypatch.setattr(pdip, "_newton_builder", perturbed_builder)
        with pytest.raises(SolverFailureError, match="residual") as info:
            tv.reconstruct(A, g, 0.1)
        assert info.value.residual > pdip._NEWTON_RTOL
        assert info.value.report.reason == "solver_failure"

    def test_preconditioner_factors_a_rounded_singular_laplacian(self):
        """At alpha=1e5, n=64 the TV weights reach 3e14 and G + diag(A^T A)
        rounds to a singular Laplacian: without a diagonal shift, splu finds
        it "exactly singular" at iterate 19 with the BLAS on one thread.
        `reconstruct` solves this cell in closed form, so the IPM runs directly."""
        code = (
            "import tvtomo as tv\n"
            "geom = tv.ScanGeometry(num_angles=20, num_detector_pixels=48)\n"
            "A = tv.assemble_system_matrix(geom, 64)\n"
            "g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.25), 64))\n"
            "print(tv.pdip_solve(tv.build_qp(A, g, 1e5))[1].reason)\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(tv.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["converged"]

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_refilled_preconditioner_matches_the_sparse_algebra(self, rng, monkeypatch, n):
        """factor(d) refills a fixed pattern; the matrix it factors has the CSC
        pattern of G + diag(pre_diag) built by sparse products, and its values
        to 4 ulps, diagonal shift included.  At n=2 both periodic neighbours
        along an axis are one pixel, so each column holds 3 entries, not 5."""
        geom = tv.ScanGeometry(num_angles=6, num_detector_pixels=8)
        A = tv.assemble_system_matrix(geom, n)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.3), n))
        problem = tv.build_qp(A, g, 0.1)
        N, d_h, d_v = problem.N, problem.ops.d_h, problem.ops.d_v
        captured, real = [], spla.splu
        monkeypatch.setattr(spla, "splu", lambda M, **kw: (captured.append(M), real(M, **kw))[1])
        factor = pdip._tv_newton(problem)
        ata_diag = np.asarray(A.matrix.multiply(A.matrix).sum(axis=0)).ravel()
        for _ in range(5):
            d = 10.0 ** rng.uniform(-8, 14, size=5 * N)
            factor(d)
            d_f, d_hp, d_hm, d_vp, d_vm = (d[k * N : (k + 1) * N] for k in range(5))
            w_h = 1.0 / (1.0 / d_hp + 1.0 / d_hm)
            w_v = 1.0 / (1.0 / d_vp + 1.0 / d_vm)
            G = (sp.diags(d_f) + d_h.T @ sp.diags(w_h) @ d_h
                 + d_v.T @ sp.diags(w_v) @ d_v).tocsr()
            pre_diag = ata_diag + 10 * np.finfo(float).eps * (G.diagonal() + ata_diag).max()
            expected = (G + sp.diags(pre_diag)).tocsc()
            refilled = captured[-1]
            assert refilled.format == "csc"
            assert np.array_equal(refilled.indptr, expected.indptr)
            assert np.array_equal(refilled.indices, expected.indices)
            assert np.all(np.abs(refilled.data - expected.data)
                          <= 4 * np.spacing(np.abs(expected.data)))
            assert np.all(np.diff(refilled.indptr) == (3 if n == 2 else 5))

    def test_backend_argument_is_ignored(self, small_geom):
        assert "backend" not in [f.name for f in dataclasses.fields(tv.SolverConfig)]
        A = tv.assemble_system_matrix(small_geom, 8)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.3), 8))
        f, _ = tv.reconstruct(A, g, 0.1)
        f_dense, _ = tv.reconstruct(A, g, 0.1, config=tv.SolverConfig(backend="dense"))
        assert f_dense.values.tobytes() == f.values.tobytes()

    def test_constant_image_large_alpha(self, small_geom):
        A = tv.assemble_system_matrix(small_geom, 6)
        c = 0.8
        g = tv.forward_project(A, tv.ImageGrid(6, np.full(36, c)))
        f, report = tv.reconstruct(A, g, alpha=100.0)
        assert report.reason == "converged"
        assert tv.tv_norm(f) <= 1e-6
        assert np.allclose(f.values, f.values.mean(), atol=1e-5)
        # a constant fits the data exactly: compare objective against the
        # true constant image
        problem = tv.build_qp(A, g, 100.0)
        assert problem.objective_of_image(f.values) <= problem.objective_of_image(
            np.full(36, c)) + 1e-6

    def test_huge_alpha_kills_tv(self, small_geom):
        A = tv.assemble_system_matrix(small_geom, 8)
        img = tv.ImageGrid(8, np.random.default_rng(3).uniform(size=64))
        g = tv.forward_project(A, img)
        f, _ = tv.reconstruct(A, g, alpha=1e6)
        assert tv.tv_norm(f) <= 1e-6

    def test_disc_phantom_small_alpha_accuracy(self):
        phantom = tv.render_phantom(tv.Phantom.disc(r=0.25), 16)
        geom = tv.ScanGeometry(num_angles=24, num_detector_pixels=24)
        A = tv.assemble_system_matrix(geom, 16)
        g = tv.forward_project(A, phantom)
        f, report = tv.reconstruct(A, g, alpha=1e-3)
        assert report.reason == "converged"
        err = np.linalg.norm(f.values - phantom.values) / np.linalg.norm(phantom.values)
        assert err <= 0.10

    def test_alpha_monotone_tv(self, small_geom):
        A = tv.assemble_system_matrix(small_geom, 8)
        img = tv.render_phantom(tv.Phantom.disc(r=0.3), 8)
        g = tv.forward_project(A, img)
        tvs = []
        for alpha in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
            f, _ = tv.reconstruct(A, g, alpha)
            tvs.append(tv.tv_norm(f))
        assert all(tvs[i + 1] <= tvs[i] + 1e-6 for i in range(len(tvs) - 1))

    def test_objective_optimality_vs_oracle_battery(self):
        for seed in range(5):
            _, _, _, _, problem = make_tv_instance(
                n=6, num_angles=8, alpha=10.0 ** (seed - 2), seed=100 + seed)
            img, _ = tv.pdip_solve(problem)
            oracle = projected_subgradient(problem, iterations=2000)
            assert problem.objective_of_image(img.values) <= oracle + 1e-6


class TestConstantImageClosedForm:
    """At or above the certificate's bound, `reconstruct` returns c* 1 with no IPM run."""

    @staticmethod
    def instance(seed):
        _, A, g, _, problem = make_tv_instance(n=6, num_angles=8, alpha=1.0, seed=seed,
                                               noise=0.05)
        c_star, bound, _ = _constant_image_certificate(problem)
        return A, g, c_star, bound

    @pytest.mark.parametrize("factor", [1.0, 10.0])
    def test_above_bound_is_the_constant_image(self, factor):
        A, g, c_star, bound = self.instance(seed=100)
        alpha = factor * bound
        f, report = tv.reconstruct(A, g, alpha)
        assert f.values.tobytes() == np.full(36, c_star).tobytes()
        assert tv.tv_norm(f) == 0.0
        assert (report.reason, report.iterations, report.mu) == ("converged", 0, 0.0)
        assert report.history == [(0, 0.0, report.r_primal, report.r_dual, 0.0, 0.0, 0, 0, 0.0)]
        assert report.r_dual <= 1e-12
        f_ipm, report_ipm = tv.pdip_solve(tv.build_qp(A, g, alpha))
        assert report_ipm.iterations > 0
        residual = np.linalg.norm(A.matrix @ f.values - g.data)
        assert residual == pytest.approx(np.linalg.norm(A.matrix @ f_ipm.values - g.data),
                                         rel=1e-6)
        assert report.objective == pytest.approx(0.5 * residual**2, rel=1e-14)
        assert report.objective <= report_ipm.objective

    @pytest.mark.parametrize("seed", range(100, 105))
    def test_below_bound_is_the_interior_point_run(self, seed):
        A, g, _, bound = self.instance(seed)
        for alpha in (0.01 * bound, 0.99 * bound):
            f, report = tv.reconstruct(A, g, alpha)
            f_ipm, report_ipm = tv.pdip_solve(tv.build_qp(A, g, alpha))
            assert report.iterations > 0
            assert f.values.tobytes() == f_ipm.values.tobytes()
            assert report == report_ipm

    @pytest.mark.parametrize("data", ["zero-data", "negative-data", "zero-matrix"])
    def test_no_positive_constant_falls_through(self, small_geom, data):
        A = tv.assemble_system_matrix(small_geom, 4)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.3), 4))
        if data == "zero-data":
            g = tv.Sinogram(small_geom, np.zeros(small_geom.num_rays))
        elif data == "negative-data":
            g = tv.Sinogram(small_geom, -g.data)
        else:  # every ray misses: A 1 = 0, so c* is undefined
            A = tv.SparseSystemMatrix(small_geom, 4, sp.csr_matrix(A.matrix.shape))
        problem = tv.build_qp(A, g, 1e3)
        c_star, bound, _ = _constant_image_certificate(problem)
        assert c_star <= 0 and bound == np.inf
        f, report = tv.reconstruct(A, g, 1e3)
        f_ipm, report_ipm = tv.pdip_solve(problem)
        assert report.iterations > 0
        assert f.values.tobytes() == f_ipm.values.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_periodic_poisson_solve(self, rng, n):
        ops = tv.build_difference_operators(n)
        r = rng.normal(size=n * n)
        r -= r.mean()
        u = _solve_periodic_poisson(r, n)
        p_h, p_v = ops.d_h @ u, ops.d_v @ u
        assert np.linalg.norm(ops.d_h.T @ p_h + ops.d_v.T @ p_v - r) <= 1e-10 * np.linalg.norm(r)
