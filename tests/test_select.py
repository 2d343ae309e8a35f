import warnings
from contextlib import nullcontext

import numpy as np
import pytest

import tvtomo as tv
from tvtomo.errors import (
    DegeneratePriorError,
    NoCornerWarning,
    NoSelectionError,
    OutOfRangeError,
    ParameterError,
)
from tvtomo.select import SweepTable, spread_profile, _curvature_samples

ALPHAS_DECADES = 10.0 ** np.arange(-4, 7)

# Published multi-resolution study of a shell phantom: TV norms per
# (alpha, resolution) for resolutions 32/64/128, low-noise and 5%-noise data.
TV_LOW_NOISE = np.array([
    [1.51, 2.29, 3.64],
    [1.51, 2.29, 3.46],
    [1.50, 2.23, 2.97],
    [1.43, 1.85, 1.93],
    [1.08, 1.11, 1.11],
    [0.78, 0.78, 0.77],
    [0.48, 0.48, 0.48],
    [0.12, 0.12, 0.12],
    [0.04, 0.04, 0.04],
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
])
TV_FIVE_PERCENT = np.array([
    [2.42, 5.05, 8.71],
    [2.43, 5.05, 8.59],
    [2.42, 5.01, 8.59],
    [2.37, 4.83, 8.16],
    [1.99, 3.50, 5.12],
    [0.86, 0.86, 0.88],
    [0.48, 0.48, 0.48],
    [0.12, 0.12, 0.12],
    [0.04, 0.04, 0.04],
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
])


def make_table(tv_values, alphas=None, resolutions=(32, 64, 128), residual=None):
    tv_values = np.asarray(tv_values, dtype=float)
    if alphas is None:
        alphas = ALPHAS_DECADES[: tv_values.shape[0]]
    if residual is None:
        residual = np.ones_like(tv_values)
    return SweepTable(
        alphas=alphas,
        resolutions=list(resolutions)[: tv_values.shape[1]],
        tv=tv_values,
        residual=residual,
    )


class TestMultiResolution:
    def test_published_low_noise_study(self):
        table = make_table(TV_LOW_NOISE)
        alpha, diag = tv.select_multiresolution(table, stability_tol=0.05)
        assert alpha == 1.0
        assert diag["selected_index"] == 4

    def test_published_noisy_study(self):
        table = make_table(TV_FIVE_PERCENT)
        alpha, _ = tv.select_multiresolution(table, stability_tol=0.05)
        assert alpha == 10.0

    def test_identical_columns_select_smallest_alpha(self):
        col = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        table = make_table(np.column_stack([col, col, col]))
        alpha, _ = tv.select_multiresolution(table)
        assert alpha == table.alphas[0]

    def test_scale_equivariance(self):
        table = make_table(TV_FIVE_PERCENT)
        scaled = make_table(7.3 * TV_FIVE_PERCENT)
        a1, _ = tv.select_multiresolution(table)
        a2, _ = tv.select_multiresolution(scaled)
        assert a1 == a2

    def test_spread_profile_hand_values(self):
        table = make_table(TV_LOW_NOISE)
        spreads = spread_profile(table)
        assert spreads[4] == pytest.approx((1.11 - 1.08) / np.mean([1.08, 1.11, 1.11]))
        assert spreads[0] == pytest.approx((3.64 - 1.51) / np.mean([1.51, 2.29, 3.64]))

    def test_no_stable_row_raises(self):
        tv_values = np.column_stack([np.full(4, 1.0), np.full(4, 2.0)])
        table = make_table(tv_values, resolutions=(16, 32))
        with pytest.raises(NoSelectionError) as exc:
            tv.select_multiresolution(table)
        assert "spreads" in exc.value.diagnostics

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -0.1, "0.1", False])
    def test_bad_stability_tol_rejected(self, tol):
        with pytest.raises(ParameterError):
            tv.select_multiresolution(make_table(TV_LOW_NOISE), stability_tol=tol)

    def test_nan_cell_rejected(self):
        tv_values = TV_LOW_NOISE.copy()
        tv_values[3, 1] = np.nan
        table = make_table(tv_values)
        with pytest.raises(NoSelectionError):
            tv.select_multiresolution(table)


class TestSHatEstimate:
    def setup_method(self):
        self.geom = tv.ScanGeometry(num_angles=10, num_detector_pixels=16)
        self.A = tv.assemble_system_matrix(self.geom, 8)
        self.prior = tv.render_phantom(tv.Phantom.disc(r=0.25), 8)
        self.g = tv.forward_project(self.A, self.prior)

    def test_matched_prior_recovers_own_tv(self):
        prior = tv.estimate_s_hat([self.prior], self.A, self.g)
        assert prior.s_hat == pytest.approx(tv.tv_norm(self.prior), rel=1e-12)

    def test_invariant_to_prior_scaling(self):
        doubled = tv.ImageGrid(8, 2.0 * self.prior.values)
        p1 = tv.estimate_s_hat([self.prior], self.A, self.g)
        p2 = tv.estimate_s_hat([doubled], self.A, self.g)
        assert p1.s_hat == pytest.approx(p2.s_hat, rel=1e-12)

    def test_mean_over_priors(self):
        other = tv.render_phantom(tv.Phantom.disc(r=0.375), 8)
        p1 = tv.estimate_s_hat([self.prior], self.A, self.g)
        p2 = tv.estimate_s_hat([other], self.A, self.g)
        both = tv.estimate_s_hat([self.prior, other], self.A, self.g)
        assert both.s_hat == pytest.approx(0.5 * (p1.s_hat + p2.s_hat), rel=1e-12)

    def test_degenerate_prior_rejected(self):
        zero = tv.ImageGrid(8, np.zeros(64))
        with pytest.raises(DegeneratePriorError):
            tv.estimate_s_hat([zero], self.A, self.g)
        with pytest.raises(DegeneratePriorError):
            tv.estimate_s_hat([], self.A, self.g)

    def test_resolution_mismatch(self):
        wrong = tv.ImageGrid(4, np.ones(16))
        with pytest.raises(tv.ResolutionMismatchError):
            tv.estimate_s_hat([wrong], self.A, self.g)


class TestSCurve:
    def make_simple(self):
        tv_col = np.array([5.0, 2.0, 0.5])
        return make_table(tv_col[:, None], alphas=np.array([1.0, 10.0, 100.0]),
                          resolutions=(32,))

    def test_exact_grid_hit(self):
        table = self.make_simple()
        alpha, diag = tv.select_scurve(table, tv.SCurvePrior(s_hat=2.0), 32)
        assert alpha == 10.0
        assert diag["exact_hit"]

    def test_log_linear_interpolation(self):
        table = self.make_simple()
        alpha, diag = tv.select_scurve(table, tv.SCurvePrior(s_hat=3.5), 32)
        assert alpha == pytest.approx(10.0 ** 0.5, abs=1e-10)
        assert diag["bracket"] == (1.0, 10.0)

    def test_out_of_range(self):
        table = self.make_simple()
        with pytest.raises(OutOfRangeError):
            tv.select_scurve(table, tv.SCurvePrior(s_hat=9.0), 32)
        with pytest.raises(OutOfRangeError):
            tv.select_scurve(table, tv.SCurvePrior(s_hat=0.1), 32)

    def test_duplicate_hits_take_smallest_alpha(self):
        tv_col = np.array([5.0, 2.0, 2.0, 0.5])
        table = make_table(tv_col[:, None],
                           alphas=np.array([1.0, 10.0, 100.0, 1000.0]),
                           resolutions=(32,))
        alpha, _ = tv.select_scurve(table, tv.SCurvePrior(s_hat=2.0), 32)
        assert alpha == 10.0

    def test_nonpositive_s_hat_rejected(self):
        with pytest.raises(DegeneratePriorError):
            tv.SCurvePrior(s_hat=0.0)


def oracle_curvature(x, y, t, i):
    """Independent curvature oracle: differentiate exact quadratic fits."""
    px = np.polyfit(t[i - 1 : i + 2], x[i - 1 : i + 2], 2)
    py = np.polyfit(t[i - 1 : i + 2], y[i - 1 : i + 2], 2)
    x1 = 2 * px[0] * t[i] + px[1]
    y1 = 2 * py[0] * t[i] + py[1]
    x2, y2 = 2 * px[0], 2 * py[0]
    return (x1 * y2 - y1 * x2) / (x1 * x1 + y1 * y1) ** 1.5


class TestLCurve:
    def test_right_angle_corner(self):
        # vertical arm then horizontal arm; the vertex is the corner
        log_res = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        log_tv = np.array([3.0, 2.0, 1.0, 0.05, 0.05, 0.05, 0.05])
        alphas = 10.0 ** np.arange(-3, 4)
        table = make_table(
            (10.0 ** log_tv)[:, None], alphas=alphas, resolutions=(32,),
            residual=(10.0 ** log_res)[:, None],
        )
        alpha, diag = tv.select_lcurve(table, 32)
        assert alpha == alphas[3]
        assert diag["selected_index"] == 3

    def test_matches_exhaustive_oracle(self, rng):
        alphas = 10.0 ** np.linspace(-2, 2, 9)
        res = np.sort(rng.uniform(0.1, 10.0, 9))
        tvn = np.sort(rng.uniform(0.1, 10.0, 9))[::-1].copy()
        table = make_table(tvn[:, None], alphas=alphas, resolutions=(64,),
                           residual=res[:, None])
        alpha, diag = tv.select_lcurve(table, 64)
        x, y, t = np.log10(res), np.log10(tvn), np.log10(alphas)
        kappas = np.array([oracle_curvature(x, y, t, i) for i in range(1, 8)])
        assert np.allclose(diag["curvature"][1:-1], kappas, atol=1e-10)
        if kappas.max() > 0:
            assert alpha == alphas[1 + int(np.argmax(kappas))]

    def test_degenerate_curve_warns_and_falls_back(self):
        # log-log straight line bent the wrong way: no convex corner
        log_res = np.linspace(0, 3, 6)
        log_tv = np.array([3.0, 2.5, 2.0, 1.4, 0.7, 0.0])  # concave only
        table = make_table(
            (10.0 ** log_tv)[:, None], alphas=10.0 ** np.arange(6.0),
            resolutions=(32,), residual=(10.0 ** log_res)[:, None],
        )
        with pytest.warns(NoCornerWarning):
            alpha, _ = tv.select_lcurve(table, 32)
        assert alpha in table.alphas

    def test_too_few_samples(self):
        table = make_table(np.array([[1.0], [0.5], [0.2]]),
                           alphas=np.array([1.0, 10.0, 100.0]), resolutions=(32,))
        with pytest.raises(NoSelectionError):
            tv.select_lcurve(table, 32)


class TestRunSweep:
    def test_single_cell_matches_direct_reconstruct(self, small_geom):
        phantom = tv.render_phantom(tv.Phantom.disc(r=0.3), 8)
        A = tv.assemble_system_matrix(small_geom, 8)
        g = tv.forward_project(A, phantom)
        table = tv.run_sweep(small_geom, g, alphas=[0.01], resolutions=[8])
        f, report = tv.reconstruct(A, g, 0.01)
        assert table.tv[0, 0] == pytest.approx(tv.tv_norm(f), abs=1e-12)
        expected_res = np.linalg.norm(A.matrix @ f.values - g.data)
        assert table.residual[0, 0] == pytest.approx(expected_res, abs=1e-12)
        assert table.status[0, 0] == "converged"

    def test_grid_shape_and_ordering(self, small_geom):
        phantom = tv.render_phantom(tv.Phantom.disc(r=0.3), 8)
        A = tv.assemble_system_matrix(small_geom, 8)
        g = tv.forward_project(A, phantom)
        table = tv.run_sweep(small_geom, g, alphas=[1.0, 0.01], resolutions=[8, 4])
        assert table.tv.shape == (2, 2)
        assert list(table.alphas) == [0.01, 1.0]
        assert table.resolutions == [4, 8]
        # larger alpha never increases TV within a column
        assert np.all(table.tv[1] <= table.tv[0] + 1e-8)

    def test_parallel_sweep_matches_serial(self, small_geom, tmp_path):
        phantom = tv.render_phantom(tv.Phantom.disc(r=0.3), 16)
        g = tv.forward_project(tv.assemble_system_matrix(small_geom, 16), phantom)
        converging = dict(alphas=[0.01, 0.1, 1.0], resolutions=[8, 16])
        # CG capped at one iteration: the n=2 cells converge, the n=4 cells fail
        failing = dict(alphas=[0.01, 1.0], resolutions=[2, 4],
                       config=tv.SolverConfig(cg_max_iterations=1))
        serial = [tv.run_sweep(small_geom, g, jobs=1, **converging)]
        with pytest.warns(UserWarning, match=r"inner CG hit the iteration cap \(1\)"):
            serial.append(tv.run_sweep(small_geom, g, jobs=1, **failing))
        assert set(serial[1].status.ravel()) == {"converged", "solver_failure"}
        with pytest.warns(UserWarning, match=r"inner CG hit the iteration cap \(1\)"):
            parallel = [tv.run_sweep(small_geom, g, jobs=2, **converging),
                        tv.run_sweep(small_geom, g, jobs=2, **failing)]
        for grid, table, par in zip((converging, failing), serial, parallel):
            path = tmp_path / "sweep.csv"
            tv.write_sweep_csv(path, table)
            for other in (par, tv.read_sweep_csv(path)):
                assert other.resolutions == table.resolutions
                for name in ("alphas", "tv", "residual", "iterations", "status"):
                    # NaN cells compare equal to NaN cells only
                    np.testing.assert_array_equal(getattr(other, name), getattr(table, name))

    @pytest.fixture
    def pool_calls(self, monkeypatch):
        """Replace the process pool by an in-process one; record each pool's
        worker count, start method and the (alpha, n) cells its ``map``
        sees, in order."""
        calls = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                self.workers, self.mp_context, self.cells = max_workers, mp_context, []
                calls.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, alphas, systems):
                self.cells += [(a, A.n) for a, (A, _) in zip(alphas, systems)]
                return map(fn, alphas, systems)

        monkeypatch.setattr(tv.select, "ProcessPoolExecutor", RecordingPool)
        return calls

    def test_workers_capped_at_cell_count(self, small_geom, pool_calls):
        g = tv.forward_project(tv.assemble_system_matrix(small_geom, 2),
                               tv.render_phantom(tv.Phantom.disc(r=0.3), 2))
        table = tv.run_sweep(small_geom, g, alphas=[0.1, 1.0], resolutions=[2], jobs=10**6)
        assert [pool.workers for pool in pool_calls] == [2]
        assert table.tv.shape == (2, 1)

    @pytest.mark.parametrize("cpus, env, jobs, workers", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, None, [2]),
        (2, {}, None, []),
        (4, {"OMP_NUM_THREADS": "2"}, None, [2]),
        (4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, None, [2]),
        (4, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, None, [4]),
        (2, {"MKL_NUM_THREADS": "1"}, None, []),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, None, [4]),
        (2, {}, 3, [3]),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 1, []),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 10, [4]),
        (None, {"OMP_NUM_THREADS": "2"}, None, [2]),
    ], ids=["2cpu-pinned", "2cpu-unset", "4cpu-omp2", "openblas-0-falls-to-omp",
            "openblas-before-omp", "mkl-only-is-unpinned", "capped-at-cells",
            "explicit-3", "explicit-1", "explicit-capped", "no-affinity-call"])
    def test_default_workers_one_per_cpu_the_blas_leaves_free(
            self, small_geom, monkeypatch, pool_calls, cpus, env, jobs, workers):
        unset = dict.fromkeys(tv.select.BLAS_THREAD_ENV, "unset")
        monkeypatch.setattr(tv.select, "BLAS_THREAD_ENV", {**unset, **env})
        if cpus is None:  # a platform without sched_getaffinity: os.cpu_count() counts
            monkeypatch.delattr(tv.select.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(tv.select.os, "cpu_count", lambda: 4)
        else:
            monkeypatch.setattr(tv.select.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        g = tv.forward_project(tv.assemble_system_matrix(small_geom, 2),
                               tv.render_phantom(tv.Phantom.disc(r=0.3), 2))
        tv.run_sweep(small_geom, g, alphas=[0.1, 1.0], resolutions=[2, 3], jobs=jobs)
        assert [pool.workers for pool in pool_calls] == workers
        # workers are forked, so a script without a __main__ guard can sweep
        assert all(pool.mp_context.get_start_method() == "fork" for pool in pool_calls)

    def test_serial_by_default_where_fork_is_missing(self, small_geom, monkeypatch, pool_calls):
        monkeypatch.setattr(tv.select, "BLAS_THREAD_ENV", {"OPENBLAS_NUM_THREADS": "1",
                                                           "OMP_NUM_THREADS": "unset"})
        monkeypatch.setattr(tv.select.multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        g = tv.forward_project(tv.assemble_system_matrix(small_geom, 2),
                               tv.render_phantom(tv.Phantom.disc(r=0.3), 2))
        grid = dict(alphas=[0.1, 1.0], resolutions=[2, 3])
        tv.run_sweep(small_geom, g, **grid)
        assert pool_calls == []
        # an explicit jobs still gets a pool, with the platform's start method
        tv.run_sweep(small_geom, g, jobs=2, **grid)
        assert [(pool.workers, pool.mp_context) for pool in pool_calls] == [(2, None)]

    def test_worker_warnings_reach_the_caller(self, small_geom):
        g = tv.forward_project(tv.assemble_system_matrix(small_geom, 4),
                               tv.render_phantom(tv.Phantom.disc(r=0.3), 4))
        failing = dict(alphas=[0.01, 1.0], resolutions=[2, 4],
                       config=tv.SolverConfig(cg_max_iterations=1))
        seen = []
        for jobs in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tv.run_sweep(small_geom, g, jobs=jobs, **failing)
            seen.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
        assert seen[0] and seen[1] == seen[0]
        # re-issued under the raising module's name, so a module filter holds
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "inner CG", UserWarning, "tvtomo.pdip")
            with pytest.raises(UserWarning, match="inner CG hit the iteration cap"):
                tv.run_sweep(small_geom, g, jobs=2, **failing)

    def test_costliest_cells_submitted_first(self, small_geom, pool_calls):
        g = tv.forward_project(tv.assemble_system_matrix(small_geom, 8),
                               tv.render_phantom(tv.Phantom.disc(r=0.3), 8))
        grid = dict(alphas=[1.0, 0.01, 0.1], resolutions=[4, 8])
        parallel = tv.run_sweep(small_geom, g, jobs=2, **grid)
        [pool] = pool_calls
        assert pool.cells == [(a, n) for n in (8, 4) for a in (0.01, 0.1, 1.0)]
        serial = tv.run_sweep(small_geom, g, jobs=1, **grid)
        assert parallel.resolutions == serial.resolutions
        for name in ("alphas", "tv", "residual", "iterations", "status"):
            np.testing.assert_array_equal(getattr(parallel, name), getattr(serial, name))

    @pytest.mark.parametrize("grid", [
        dict(alphas=[0.1], resolutions=[4, 4]),
        dict(alphas=[1.0, 0.1, 1.0], resolutions=[4]),
        dict(alphas=[0.1], resolutions=[4], jobs=0),
        dict(alphas=[0.1], resolutions=[4], jobs=-3),
        dict(alphas=[], resolutions=[4]),
    ], ids=["duplicate-resolutions", "duplicate-alphas", "jobs-0", "jobs-negative", "no-alphas"])
    def test_bad_grid_rejected_before_solving(self, small_geom, monkeypatch, grid):
        def no_assembly(*args):
            raise AssertionError("assembled a system matrix for a rejected sweep")

        monkeypatch.setattr(tv.select, "assemble_system_matrix", no_assembly)
        g = tv.Sinogram(geometry=small_geom, data=np.ones(small_geom.num_rays))
        with pytest.raises(ParameterError):
            tv.run_sweep(small_geom, g, **grid)

    @pytest.mark.parametrize("count", [2, np.int64(2), 2.5, 2.0, np.nan, "2", True],
                             ids=["int", "np.int64", "2.5", "2.0", "nan", "str", "bool"])
    def test_counts_must_be_integers(self, small_geom, count):
        g = tv.forward_project(tv.assemble_system_matrix(small_geom, 2),
                               tv.render_phantom(tv.Phantom.disc(r=0.3), 2))
        calls = [
            (tv.InvalidGeometryError, lambda: tv.ScanGeometry(num_angles=count)),
            (tv.InvalidGeometryError, lambda: tv.ScanGeometry(num_detector_pixels=count)),
            (ParameterError, lambda: tv.run_sweep(small_geom, g, [1.0], [count])),
        ]
        whole = type(count) in (int, np.int64)  # True is an int, but not a count
        for error, call in calls:
            with nullcontext() if whole else pytest.raises(error, match="integers"):
                result = call()
        if whole:
            assert result.resolutions == [2]

    def test_column_lookup_errors(self):
        table = make_table(TV_LOW_NOISE)
        with pytest.raises(tv.ResolutionMismatchError):
            table.column(48)

    @pytest.mark.parametrize("resolutions", [(16, 8), (8, 8)])
    def test_table_resolutions_must_ascend(self, resolutions):
        with pytest.raises(tv.ShapeMismatchError, match="resolutions"):
            make_table(np.ones((2, 2)), resolutions=resolutions)
