import os
import numpy as np
import pytest

import tvtomo as tv
from tvtomo.cli import main


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path), *argv])


class TestPhantomCommand:
    def test_writes_image_pgm_manifest(self, tmp_path, capsys):
        code = run(tmp_path, "phantom", "--kind", "disc", "--r", "0.25", "--n", "32")
        assert code == 0
        img = tv.read_image(tmp_path / "phantom.img")
        assert tv.tv_norm(img) == pytest.approx(2.0, abs=1e-12)
        assert (tmp_path / "phantom.pgm").exists()
        manifest = tv.read_config(tmp_path / "manifest.txt")
        assert float(manifest["output.tv_norm"]) == pytest.approx(2.0, abs=1e-12)
        assert "tv_norm=2" in capsys.readouterr().out

    def test_shells_kind(self, tmp_path):
        code = run(tmp_path, "phantom", "--kind", "shells",
                   "--shells", "0.375:1.0,0.25:2.0", "--n", "64", "--name", "sh")
        assert code == 0
        img = tv.read_image(tmp_path / "sh.img")
        phantom = tv.read_phantom_file(tmp_path / "sh.phantom")
        assert tv.tv_norm(img) == pytest.approx(phantom.analytic_tv, abs=1e-12)

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert run(tmp_path, "phantom") == 2

    def test_unknown_subcommand(self, tmp_path):
        assert run(tmp_path, "frobnicate") == 2


class TestPipeline:
    def make_data(self, tmp_path):
        assert run(tmp_path, "phantom", "--kind", "disc", "--r", "0.3", "--n", "16") == 0
        assert run(tmp_path, "project", "--image", str(tmp_path / "phantom.img"),
                   "--angles", "24", "--detectors", "24") == 0
        return tmp_path / "sinogram.sino"

    def test_project_noise_reconstruct(self, tmp_path, capsys):
        sino_path = self.make_data(tmp_path)
        assert run(tmp_path, "noise", "--sino", str(sino_path),
                   "--level", "0.02", "--seed", "7") == 0
        code = run(tmp_path, "reconstruct", "--sino", str(tmp_path / "noisy.sino"),
                   "--n", "16", "--alpha", "0.01",
                   "--angles", "24", "--detectors", "24")
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        recon = tv.read_image(tmp_path / "recon.img")
        phantom = tv.read_image(tmp_path / "phantom.img")
        err = np.linalg.norm(recon.values - phantom.values) / np.linalg.norm(phantom.values)
        assert err <= 0.2
        assert (tmp_path / "recon_convergence.csv").exists()

    def test_reconstruct_reproducible(self, tmp_path):
        sino_path = self.make_data(tmp_path)
        args = ["reconstruct", "--sino", str(sino_path), "--n", "16",
                "--alpha", "0.1", "--angles", "24", "--detectors", "24"]
        assert run(tmp_path, *args, "--name", "r1") == 0
        assert run(tmp_path, *args, "--name", "r2") == 0
        a = (tmp_path / "r1.img").read_bytes()
        b = (tmp_path / "r2.img").read_bytes()
        assert a == b

    def test_sweep_and_multires_select(self, tmp_path, capsys):
        sino_path = self.make_data(tmp_path)
        assert run(tmp_path, "noise", "--sino", str(sino_path),
                   "--level", "0.05", "--seed", "3") == 0
        code = run(tmp_path, "sweep", "--sino", str(tmp_path / "noisy.sino"),
                   "--alphas", "0.001,0.01,0.1,1,10",
                   "--resolutions", "8,16",
                   "--angles", "24", "--detectors", "24")
        assert code == 0
        table = tv.read_sweep_csv(tmp_path / "sweep.csv")
        assert table.tv.shape == (5, 2)
        capsys.readouterr()
        code = run(tmp_path, "select", "--table", str(tmp_path / "sweep.csv"),
                   "--method", "multires", "--tol", "0.2")
        out = capsys.readouterr().out
        if code == 0:
            assert "selected alpha" in out
            printed = float(out.split("=")[1].split("(")[0])
            expected, _ = tv.select_multiresolution(table, stability_tol=0.2)
            assert printed == pytest.approx(expected, rel=1e-9)
        else:
            assert code == 4

    def test_report_marks_stable_rows(self, tmp_path, capsys):
        sino_path = self.make_data(tmp_path)
        assert run(tmp_path, "sweep", "--sino", str(sino_path),
                   "--alphas", "0.01,1,100", "--resolutions", "8,16",
                   "--angles", "24", "--detectors", "24") == 0
        manifest = tv.read_config(tmp_path / "manifest.txt")
        assert manifest["nproc"] == str(tv.select.usable_cpus())
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert manifest[var] == os.environ.get(var, "unset")
        capsys.readouterr()
        assert run(tmp_path, "report", "--table", str(tmp_path / "sweep.csv"),
                   "--tol", "0.5") == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "spread" in out
        assert (tmp_path / "report.csv").exists()

    def test_scurve_without_prior_is_usage_error(self, tmp_path):
        sino_path = self.make_data(tmp_path)
        assert run(tmp_path, "sweep", "--sino", str(sino_path),
                   "--alphas", "0.01,0.1,1", "--resolutions", "16",
                   "--angles", "24", "--detectors", "24") == 0
        code = run(tmp_path, "select", "--table", str(tmp_path / "sweep.csv"),
                   "--method", "scurve")
        assert code == 2

    def test_scurve_full_path(self, tmp_path, capsys):
        sino_path = self.make_data(tmp_path)
        # noise inflates the TV of low-alpha reconstructions above the
        # prior level, so the target is bracketed
        assert run(tmp_path, "noise", "--sino", str(sino_path),
                   "--level", "0.05", "--seed", "5") == 0
        noisy = tmp_path / "noisy.sino"
        assert run(tmp_path, "sweep", "--sino", str(noisy),
                   "--alphas", "0.0001,0.001,0.01,0.1,1,10",
                   "--resolutions", "16",
                   "--angles", "24", "--detectors", "24") == 0
        capsys.readouterr()
        code = run(tmp_path, "select", "--table", str(tmp_path / "sweep.csv"),
                   "--method", "scurve", "--n", "16",
                   "--prior", str(tmp_path / "phantom.img"),
                   "--sino", str(noisy),
                   "--angles", "24", "--detectors", "24")
        out = capsys.readouterr().out
        assert code == 0
        assert "selected alpha" in out

    def test_lcurve_select(self, tmp_path, capsys):
        sino_path = self.make_data(tmp_path)
        assert run(tmp_path, "noise", "--sino", str(sino_path),
                   "--level", "0.05", "--seed", "11") == 0
        assert run(tmp_path, "sweep", "--sino", str(tmp_path / "noisy.sino"),
                   "--alphas", "0.0001,0.001,0.01,0.1,1",
                   "--resolutions", "16",
                   "--angles", "24", "--detectors", "24") == 0
        capsys.readouterr()
        code = run(tmp_path, "select", "--table", str(tmp_path / "sweep.csv"),
                   "--method", "lcurve", "--n", "16")
        assert code == 0
        assert "selected alpha" in capsys.readouterr().out


class TestConfigMerging:
    def test_config_file_sets_solver_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver.max_iterations=2\n")
        assert run(tmp_path, "phantom", "--kind", "disc", "--n", "8") == 0
        assert run(tmp_path, "project", "--image", str(tmp_path / "phantom.img"),
                   "--angles", "12", "--detectors", "12") == 0
        code = run(tmp_path, "reconstruct", "--sino", str(tmp_path / "sinogram.sino"),
                   "--n", "8", "--alpha", "0.1", "--config", str(cfg),
                   "--angles", "12", "--detectors", "12")
        # two iterations cannot converge: solver failure exit code
        assert code == 3

    def test_bad_solver_values_are_usage_errors(self, tmp_path):
        assert run(tmp_path, "phantom", "--kind", "disc", "--n", "8") == 0
        assert run(tmp_path, "project", "--image", str(tmp_path / "phantom.img"),
                   "--angles", "12", "--detectors", "12") == 0
        cfg = tmp_path / "bad.cfg"
        for line in ("solver.eta=2", "solver.max_iterations=abc", "solver.etaa=0.5",
                     "solver.backend=cg", *(f"solver.centering_exponent={v}"
                                            for v in ("nan", "inf", "-1", "0")),
                     # fixed constants of the solver, so unknown keys
                     "solver.eta=0.9", "solver.centering_exponent=3",
                     "solver.inner_tol=1e-9",
                     "geometry.num_angles=abc", "geometry.nm_angles=6"):
            cfg.write_text(line + "\n")
            code = run(tmp_path, "reconstruct", "--sino", str(tmp_path / "sinogram.sino"),
                       "--n", "8", "--alpha", "0.1", "--config", str(cfg),
                       "--angles", "12", "--detectors", "12")
            assert code == 2, line

    def test_malformed_values_are_usage_errors(self, tmp_path, capsys):
        assert run(tmp_path, "phantom", "--kind", "disc", "--n", "8") == 0
        assert run(tmp_path, "project", "--image", str(tmp_path / "phantom.img"),
                   "--angles", "12", "--detectors", "12") == 0
        sino = str(tmp_path / "sinogram.sino")
        not_utf8 = tmp_path / "not_utf8.txt"
        not_utf8.write_bytes(b"alpha,n,tv,residual,iterations,status\n\xff\xfe\n")
        geometry = ["--angles", "12", "--detectors", "12"]
        cases = [
            ["phantom", "--n", "8", "--kind", "shells", "--shells", "0.3:x"],
            ["phantom", "--n", "8", "--kind", "polygon", "--vertices", "0.2:0.2,0.8"],
            ["phantom", "--n", "8", "--kind", "polygon", "--vertices",
             "nan:0.5,0.5:0.2,0.7:0.7"],
            ["phantom", "--n", "8", "--kind", "shells", "--shells", "0.3:1,nan:2"],
            ["phantom", "--n", "8", "--kind", "shells", "--shells", "0.3:nan"],
            ["phantom", "--n", "8", "--kind", "disc", "--value", "nan"],
            ["sweep", "--sino", sino, "--resolutions", "8,x", *geometry],
            ["sweep", "--sino", sino, "--resolutions", "8", "--alphas", "1,abc", *geometry],
            ["sweep", "--sino", sino, "--resolutions", "8,8", *geometry],
            ["sweep", "--sino", sino, "--resolutions", "8", "--alphas", "1,1", *geometry],
            ["sweep", "--sino", sino, "--resolutions", "8", "--jobs", "0", *geometry],
            ["reconstruct", "--sino", sino, "--n", "8", "--alpha", "nan", *geometry],
            ["reconstruct", "--sino", sino, "--n", "8", "--alpha", "0.1",
             "--solver-backend", "cg", *geometry],
            ["reconstruct", "--sino", sino, "--n", "8", "--alpha", "0.1",
             "--config", str(not_utf8), *geometry],
            ["report", "--table", str(not_utf8)],
        ]
        for argv in cases:
            capsys.readouterr()
            assert run(tmp_path, *argv) == 2, argv
            assert "error:" in capsys.readouterr().err, argv

    def test_bad_noise_seed_and_stability_tol_are_usage_errors(self, tmp_path, capsys):
        assert run(tmp_path, "phantom", "--kind", "disc", "--n", "8") == 0
        assert run(tmp_path, "project", "--image", str(tmp_path / "phantom.img"),
                   "--angles", "12", "--detectors", "12") == 0
        table = tv.SweepTable(alphas=[0.1, 1.0], resolutions=[8, 16], tv=np.ones((2, 2)),
                              residual=np.ones((2, 2)))
        tv.write_sweep_csv(tmp_path / "sweep.csv", table)
        negative = tv.Sinogram(geometry=tv.ScanGeometry(num_angles=2, num_detector_pixels=3),
                               data=np.full(6, -1.0))
        tv.write_sinogram(tmp_path / "negative.sino", negative)
        cases = [
            ["noise", "--sino", str(tmp_path / "sinogram.sino"), "--level", "0.1",
             "--seed", "-1"],
            ["noise", "--sino", str(tmp_path / "negative.sino"), "--level", "0.1"],
            ["select", "--table", str(tmp_path / "sweep.csv"), "--method", "multires",
             "--tol", "nan"],
            *(["report", "--table", str(tmp_path / "sweep.csv"), "--tol", tol]
              for tol in ("nan", "inf", "-0.1")),
        ]
        for argv in cases:
            capsys.readouterr()
            assert run(tmp_path, *argv) == 2, argv
            assert "error:" in capsys.readouterr().err, argv

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver.max_iterations=2\n")
        assert run(tmp_path, "phantom", "--kind", "disc", "--n", "8") == 0
        assert run(tmp_path, "project", "--image", str(tmp_path / "phantom.img"),
                   "--angles", "12", "--detectors", "12") == 0
        code = run(tmp_path, "reconstruct", "--sino", str(tmp_path / "sinogram.sino"),
                   "--n", "8", "--alpha", "0.1", "--config", str(cfg),
                   "--solver-max-iterations", "100",
                   "--angles", "12", "--detectors", "12")
        assert code == 0


class TestSweepTableInput:
    def test_unconverged_cells_are_not_selected(self, tmp_path):
        # equal TV columns: every row is stable, so only the status can reject
        table = tv.SweepTable(
            alphas=[0.1, 1.0], resolutions=[8, 16], tv=np.ones((2, 2)),
            residual=np.ones((2, 2)), status=np.full((2, 2), "max_iterations", dtype=object),
        )
        path = tmp_path / "sweep.csv"
        tv.write_sweep_csv(path, table)
        assert run(tmp_path, "select", "--table", str(path), "--method", "multires") == 4

    def test_malformed_table_is_usage_error(self, tmp_path):
        path = tmp_path / "sweep.csv"
        for rows in ("0.1,8,abc,1.0,3,converged\n", ""):  # a bad cell; a header and no rows
            path.write_text("alpha,n,tv,residual,iterations,status\n" + rows)
            for method in ("multires", "lcurve", "scurve"):
                assert run(tmp_path, "select", "--table", str(path), "--method", method) == 2
            assert run(tmp_path, "report", "--table", str(path)) == 2
