import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import tvtomo as tv
from tvtomo import pdip
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

    def test_manifest_records_the_package_version(self, tmp_path):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert tv.__version__ == re.search(r'^version = "(.+)"$', pyproject, re.M).group(1)
        assert run(tmp_path, "phantom", "--n", "4") == 0
        assert tv.read_config(tmp_path / "manifest.txt")["version"] == tv.__version__

    def test_manifest_command_replays(self, tmp_path, monkeypatch):
        """A recorded command line with spaced arguments replays to the same files."""
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        monkeypatch.chdir(first)
        assert main(["--out", "run 1", "phantom", "--kind", "disc", "--n", "16",
                     "--name", "my disc"]) == 0
        command = tv.read_config(first / "run 1" / "manifest.txt")["command"]
        assert command == "tvtomo --out 'run 1' phantom --kind disc --n 16 --name 'my disc'"
        monkeypatch.chdir(second)
        assert main(shlex.split(command)[1:]) == 0
        for name in ("my disc.img", "my disc.pgm", "manifest.txt"):
            assert (second / "run 1" / name).read_bytes() == (first / "run 1" / name).read_bytes()

    def test_shells_kind(self, tmp_path):
        code = run(tmp_path, "phantom", "--kind", "shells",
                   "--shells", "0.375:1.0,0.25:2.0", "--n", "64", "--name", "sh")
        assert code == 0
        img = tv.read_image(tmp_path / "sh.img")
        phantom = tv.Phantom.nested_shells([(0.375, 1.0), (0.25, 2.0)])
        assert tv.tv_norm(img) == pytest.approx(phantom.analytic_tv, abs=1e-12)

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert run(tmp_path, "phantom") == 2

    def test_one_pixel_grid_is_refused_before_any_output(self, tmp_path):
        assert run(tmp_path, "phantom", "--kind", "disc", "--n", "1") == 2
        assert list(tmp_path.glob("phantom.*")) == []

    def test_unknown_subcommand(self, tmp_path):
        assert run(tmp_path, "frobnicate") == 2

    def test_unusable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a relative --out would land
        afile = tmp_path / "afile"
        afile.write_text("")
        for out in (afile, afile / "x", ""):
            capsys.readouterr()
            assert main(["--out", str(out), "phantom", "--n", "4"]) == 2, out
            assert "error:" in capsys.readouterr().err, out
        assert sorted(tmp_path.iterdir()) == [afile]

    @pytest.mark.parametrize("argv", [
        ["select", "--table", "nope.csv", "--method", "multires"],
        ["reconstruct", "--sino", "nope.sino", "--n", "8", "--alpha", "0.1"],
        ["phantom", "--n", "1"],
        ["sweep", "--sino", "{sino}", "--resolutions", "1,8"],
    ], ids=["missing-table", "missing-sinogram", "one-pixel-phantom", "one-pixel-sweep"])
    def test_refused_run_leaves_no_out_dir(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # where the relative input names point
        sino = tv.Sinogram(geometry=tv.ScanGeometry(), data=np.ones(tv.ScanGeometry().num_rays))
        tv.write_sinogram(tmp_path / "data.sino", sino)
        out = tmp_path / "out"
        argv = [a.format(sino=tmp_path / "data.sino") for a in argv]
        assert main(["--out", str(out), *argv]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a\nb", "a\rb"], ids=["newline", "carriage-return"])
    def test_line_break_in_argv_is_refused_before_any_output(self, tmp_path, capsys, name):
        # the manifest's command= line could not be read back or replayed
        out = tmp_path / "out"
        assert main(["--out", str(out), "phantom", "--n", "4", "--name", name]) == 2
        assert "line break" in capsys.readouterr().err
        assert not out.exists()

    def test_report_to_unusable_out_prints_nothing(self, tmp_path, capsys):
        table = tv.SweepTable(alphas=[0.1, 1.0], resolutions=[8, 16], tv=np.ones((2, 2)),
                              residual=np.ones((2, 2)))
        tv.write_sweep_csv(tmp_path / "sweep.csv", table)
        out = tmp_path / "afile"
        out.write_text("")
        capsys.readouterr()
        assert main(["--out", str(out), "report", "--table", str(tmp_path / "sweep.csv")]) == 2
        assert capsys.readouterr().out == ""
        assert out.is_file()


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

    def test_reconstruct_above_the_tv_zero_bound(self, tmp_path, capsys):
        sino_path = self.make_data(tmp_path)
        assert run(tmp_path, "reconstruct", "--sino", str(sino_path), "--n", "16",
                   "--alpha", "1e3", "--angles", "24", "--detectors", "24") == 0
        assert "tv_norm=0, 0 iterations, converged" in capsys.readouterr().out
        lines = (tmp_path / "recon_convergence.csv").read_text().splitlines()
        assert lines[0] == ("iteration,mu,r_primal,r_dual,step_primal,step_dual,"
                            "cg_predictor,cg_corrector,newton_residual")
        assert len(lines) == 2
        # the closed form runs no CG and solves no Newton system
        assert lines[1].split(",")[-3:] == ["0", "0", "0.0"]

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

    def test_report_does_not_star_a_tv_zero_row(self, tmp_path, capsys):
        table = tv.SweepTable(alphas=[0.1, 1.0, 10.0], resolutions=[8, 16],
                              tv=[[1.0, 1.01], [0.5, 0.9], [0.0, 0.0]], residual=np.ones((3, 2)))
        tv.write_sweep_csv(tmp_path / "sweep.csv", table)
        capsys.readouterr()
        assert run(tmp_path, "report", "--table", str(tmp_path / "sweep.csv")) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].endswith("*")
        assert not rows[1].endswith("*")
        assert rows[2].split()[-1] == "inf"
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0].split(",")[:3] == ["alpha", "spread", "stable"]
        assert report[3].split(",")[1:3] == ["inf", "0"]

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
    """ScanGeometry comes from its flags over the dataclass defaults; the
    solver takes no flags."""

    def test_solver_flag_sets_iteration_cap(self, tmp_path, monkeypatch):
        assert run(tmp_path, "phantom", "--kind", "disc", "--n", "8") == 0
        assert run(tmp_path, "project", "--image", str(tmp_path / "phantom.img"),
                   "--angles", "12", "--detectors", "12") == 0
        monkeypatch.setattr(pdip, "_MAX_ITERATIONS", 2)
        code = run(tmp_path, "reconstruct", "--sino", str(tmp_path / "sinogram.sino"),
                   "--n", "8", "--alpha", "0.1", "--angles", "12", "--detectors", "12")
        # two iterations cannot converge: solver failure exit code
        assert code == 3

    def test_bad_solver_values_are_usage_errors(self, tmp_path):
        assert run(tmp_path, "phantom", "--kind", "disc", "--n", "8") == 0
        assert run(tmp_path, "project", "--image", str(tmp_path / "phantom.img"),
                   "--angles", "12", "--detectors", "12") == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver.max_iterations=2\n")
        for flags in (["--config", str(cfg)],  # no config file route: an unknown flag
                      ["--solver-max-iterations", "2"],  # the cap is a constant
                      ["--solver-max-iterations", "abc"],
                      ["--solver-max-iterations", "-1"],
                      ["--angles", "abc"]):
            code = run(tmp_path, "reconstruct", "--sino", str(tmp_path / "sinogram.sino"),
                       "--n", "8", "--alpha", "0.1", "--angles", "12", "--detectors", "12",
                       *flags)
            assert code == 2, flags

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
            ["phantom", "--n", "8", "--kind", "shells"],
            ["phantom", "--n", "8", "--kind", "polygon"],
            ["phantom", "--n", "8", "--kind", "shells", "--shells", "0.2:1,0.3:2"],
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
            ["sweep", "--sino", sino, "--resolutions", "1,8", *geometry],
            ["sweep", "--sino", sino, "--resolutions", "8", "--jobs", "2", *geometry],
            ["reconstruct", "--sino", sino, "--n", "8", "--alpha", "nan", *geometry],
            ["reconstruct", "--sino", sino, "--n", "8", "--alpha", "0.1",
             "--solver-backend", "cg", *geometry],
            ["reconstruct", "--sino", sino, "--n", "8", "--alpha", "0.1",
             "--solver-tol-gap", "1e-10", *geometry],
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

    def test_nan_residual_is_not_selected(self, tmp_path):
        # every row converged; without the NaN row the L-curve still has a corner
        rows = [f"{a!r},8,{t!r},{r},10,converged\n" for a, t, r in [
            (0.01, 10.0, 0.01), (0.1, 9.0, 0.011), (1.0, 1.0, "nan"), (10.0, 0.9, 1.0),
            (100.0, 0.8, 10.0)]]
        path = tmp_path / "sweep.csv"
        path.write_text("alpha,n,tv,residual,iterations,status\n" + "".join(rows))
        for method in ("lcurve", "multires"):
            assert run(tmp_path, "select", "--table", str(path), "--method", method) == 4

    def test_one_resolution_is_not_selected(self, tmp_path, capsys):
        # one column: no row can be compared across resolutions
        table = tv.SweepTable([0.01, 0.1, 1.0], [16], [[5.0], [3.0], [1.0]], [[1.0]] * 3)
        path = tmp_path / "sweep.csv"
        tv.write_sweep_csv(path, table)
        assert run(tmp_path, "select", "--table", str(path), "--method", "multires") == 4
        capsys.readouterr()
        assert run(tmp_path, "report", "--table", str(path)) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[-1] for row in rows] == ["inf"] * 3

    def test_malformed_table_is_usage_error(self, tmp_path):
        path = tmp_path / "sweep.csv"
        for rows in ("0.1,8,abc,1.0,3,converged\n", ""):  # a bad cell; a header and no rows
            path.write_text("alpha,n,tv,residual,iterations,status\n" + rows)
            for method in ("multires", "lcurve", "scurve"):
                assert run(tmp_path, "select", "--table", str(path), "--method", method) == 2
            assert run(tmp_path, "report", "--table", str(path)) == 2

    @pytest.mark.parametrize("n", ["0", "48"])
    def test_resolution_not_in_table_is_usage_error(self, tmp_path, capsys, n):
        table = tv.SweepTable(alphas=[0.1, 1.0], resolutions=[8, 16], tv=np.ones((2, 2)),
                              residual=np.ones((2, 2)))
        path = tmp_path / "sweep.csv"
        tv.write_sweep_csv(path, table)
        for method in ("multires", "scurve", "lcurve"):
            assert run(tmp_path, "select", "--table", str(path), "--method", method,
                       "--n", n) == 2, method
            assert f"resolution {n} not in table" in capsys.readouterr().err, method
