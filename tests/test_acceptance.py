"""End-to-end acceptance battery.

Each test covers one numbered acceptance criterion and prints exactly one
PASS/FAIL line (visible with ``pytest -s`` or in captured output); the
criterion number also appears in the test name so ``pytest -v`` output
carries the same information.
"""

import functools
import sys
import time

import numpy as np
import pytest

import tvtomo as tv

from conftest import make_tv_instance, projected_subgradient
from test_geometry import clip_to_unit_square
from test_grid import D_H_3X3
from test_select import TV_FIVE_PERCENT, TV_LOW_NOISE, make_table, oracle_curvature


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} ({label}): FAIL", file=sys.stderr)
                raise
            print(f"ACCEPTANCE {num:2d} ({label}): PASS", file=sys.stderr)
        return run
    return wrap


@criterion(1, "difference-operator layout")
def test_criterion_01_operator_layout():
    start = time.monotonic()
    ops = tv.build_difference_operators(3)
    assert np.array_equal(ops.d_h.toarray(), D_H_3X3 / 3.0)
    assert time.monotonic() - start < 1.0


@criterion(2, "disc TV law")
def test_criterion_02_disc_tv_law():
    for n in (32, 64, 128):
        img = tv.render_phantom(tv.Phantom.disc(r=0.25), n)
        assert tv.tv_norm(img) == pytest.approx(2.0, abs=1e-12)


@criterion(3, "solver vs subgradient oracle")
def test_criterion_03_solver_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    count = 0
    for trial in range(20):
        n = int(rng.integers(3, 9))
        num_angles = int(rng.integers(4, 10))
        alpha = float(10.0 ** rng.uniform(-3, 1))
        _, _, _, _, problem = make_tv_instance(
            n=n, num_angles=num_angles, alpha=alpha, seed=1000 + trial)
        img, report = tv.pdip_solve(problem)
        assert report.r_primal / (1 + np.linalg.norm(problem.b)) <= 1e-7
        assert report.r_dual / (1 + np.linalg.norm(problem.c)) <= 1e-7
        oracle = projected_subgradient(problem, iterations=3000)
        assert problem.objective_of_image(img.values) <= oracle + 1e-6
        count += 1
    assert count >= 20
    assert time.monotonic() - start < 120.0


@criterion(4, "analytic QP cases")
def test_criterion_04_analytic_qps():
    problem = tv.GenericQp(
        Q=np.eye(2), c=np.array([-1.0, -1.0]),
        B=np.array([[1.0, 1.0]]), b=np.array([1.0]))
    z, _ = tv.pdip_solve(problem)
    assert np.allclose(z, [0.5, 0.5], atol=1e-9)
    z, _ = tv.pdip_solve(tv.GenericQp(Q=np.array([[1.0]]), c=np.array([1.0])))
    assert abs(z[0]) <= 1e-9


@criterion(5, "adjoint and chord invariants")
def test_criterion_05_adjoint_and_chords():
    rng = np.random.default_rng(11)
    n = 12
    geom = tv.ScanGeometry(num_angles=16, num_detector_pixels=18)
    A = tv.assemble_system_matrix(geom, n)
    dense = A.matrix.toarray()
    for _ in range(200):
        x = rng.normal(size=n * n)
        y = rng.normal(size=geom.num_rays)
        lhs = y @ (dense @ x)
        rhs = (dense.T @ y) @ x
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
    row_sums = np.asarray(A.matrix.sum(axis=1)).ravel()
    for k, (origin, direction) in enumerate(geom.rays()):
        clipped = clip_to_unit_square(origin, direction)
        chord = 0.0 if clipped is None else clipped[1] - clipped[0]
        assert abs(row_sums[k] - chord) <= 1e-12


@criterion(6, "alpha-monotone TV columns")
def test_criterion_06_alpha_monotonicity():
    phantom = tv.render_phantom(tv.Phantom.disc(r=0.25), 64)
    geom = tv.ScanGeometry(num_angles=20, num_detector_pixels=48)
    A = tv.assemble_system_matrix(geom, 64)
    g = tv.forward_project(A, phantom)
    alphas = 10.0 ** np.arange(-4, 7)
    table = tv.run_sweep(geom, g, alphas, resolutions=[32, 64])
    table.require_complete()
    for j in range(len(table.resolutions)):
        col = table.tv[:, j]
        assert np.all(np.diff(col) <= 1e-6)


@criterion(7, "cross-resolution TV stability")
def test_criterion_07_resolution_stability():
    start = time.monotonic()
    phantom = tv.render_phantom(tv.Phantom.disc(r=0.25), 256)
    geom = tv.ScanGeometry(num_angles=30, num_detector_pixels=96)
    A = tv.assemble_system_matrix(geom, 256)
    g = tv.forward_project(A, phantom)
    noisy = tv.add_noise(g, tv.NoiseSpec(relative_level=0.05, seed=2))
    alphas = 10.0 ** np.arange(-3, 3)
    table = tv.run_sweep(geom, noisy, alphas, resolutions=[32, 64, 128])
    alpha, diag = tv.select_multiresolution(table, stability_tol=0.05)
    spreads = diag["spreads"]
    idx = diag["selected_index"]
    assert idx > 0, "need at least one alpha below the selected value"
    assert spreads[idx] <= 0.05
    for i in range(idx):
        assert spreads[i] > spreads[idx]
    assert time.monotonic() - start < 600.0


@criterion(8, "published-study replay")
def test_criterion_08_table_replay():
    low = make_table(TV_LOW_NOISE)
    noisy = make_table(TV_FIVE_PERCENT)
    alpha_low, _ = tv.select_multiresolution(low, stability_tol=0.05)
    alpha_noisy, _ = tv.select_multiresolution(noisy, stability_tol=0.05)
    assert alpha_low == 1.0
    assert alpha_noisy == 10.0


@criterion(9, "noise increases selected alpha")
def test_criterion_09_noise_monotonicity():
    phantoms = [
        tv.Phantom.disc(r=0.25),
        tv.Phantom.nested_shells([(0.375, 1.0), (0.1875, 2.0)]),
        tv.Phantom.polygon(
            [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]),
    ]
    geom = tv.ScanGeometry(num_angles=16, num_detector_pixels=36)
    alphas = 10.0 ** np.arange(-4, 3)
    for k, phantom in enumerate(phantoms):
        img = tv.render_phantom(phantom, 64)
        A = tv.assemble_system_matrix(geom, 64)
        g = tv.forward_project(A, img)
        noisy = tv.add_noise(g, tv.NoiseSpec(relative_level=0.05, seed=100 + k))
        table_clean = tv.run_sweep(geom, g, alphas, resolutions=[16, 32])
        table_noisy = tv.run_sweep(geom, noisy, alphas, resolutions=[16, 32])
        a_clean, _ = tv.select_multiresolution(table_clean)
        a_noisy, _ = tv.select_multiresolution(table_noisy)
        assert a_noisy >= a_clean


@criterion(10, "S-curve hit and interpolation")
def test_criterion_10_scurve():
    table = make_table(np.array([5.0, 2.0, 0.5])[:, None],
                       alphas=np.array([1.0, 10.0, 100.0]), resolutions=(32,))
    alpha, _ = tv.select_scurve(table, tv.SCurvePrior(s_hat=2.0), 32)
    assert alpha == 10.0
    alpha, _ = tv.select_scurve(table, tv.SCurvePrior(s_hat=3.5), 32)
    assert alpha == pytest.approx(10.0 ** 0.5, abs=1e-10)


@criterion(11, "L-curve corner vs oracle")
def test_criterion_11_lcurve():
    rng = np.random.default_rng(3)
    for trial in range(20):
        m = int(rng.integers(6, 12))
        corner = int(rng.integers(2, m - 2))
        # synthetic L: vertical arm in TV, then horizontal arm in residual
        log_res = np.concatenate([
            np.full(corner + 1, rng.uniform(-1, 0)),
            np.cumsum(rng.uniform(0.2, 1.0, m - corner - 1))])
        log_res[corner + 1:] += log_res[corner]
        log_tv = np.concatenate([
            np.cumsum(rng.uniform(0.2, 1.0, corner + 1))[::-1],
            np.full(m - corner - 1, 0.0)])
        log_tv += 0.05
        alphas = 10.0 ** np.arange(m, dtype=float)
        table = make_table((10.0 ** log_tv)[:, None], alphas=alphas,
                           resolutions=(32,), residual=(10.0 ** log_res)[:, None])
        alpha, diag = tv.select_lcurve(table, 32)
        t = np.log10(alphas)
        kappas = np.array([
            oracle_curvature(log_res, log_tv, t, i) for i in range(1, m - 1)])
        assert np.allclose(diag["curvature"][1:-1], kappas, atol=1e-10)
        expected = alphas[1 + int(np.argmax(kappas))]
        assert alpha == expected


@criterion(12, "generic import path for external data")
def test_criterion_12_full_data_note():
    # The published full-data numbers require an external measured dataset;
    # the supported path is generic CSV sinogram import feeding the same
    # selection logic validated by the replay above.  This exercises the
    # import end-to-end and checks the limitation is documented.
    import os
    import tempfile

    geom = tv.ScanGeometry(num_angles=6, num_detector_pixels=9)
    rng = np.random.default_rng(5)
    s = tv.Sinogram(geom, rng.uniform(size=geom.num_rays))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "external.csv")
        tv.write_sinogram_csv(path, s)
        back = tv.read_sinogram_csv(path)
    assert back.geometry.num_angles == 6
    assert back.geometry.num_detector_pixels == 9
    assert np.allclose(back.data, s.data, rtol=0, atol=0)

    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    assert "read_sinogram_csv" in readme
    assert "external" in readme.lower()
