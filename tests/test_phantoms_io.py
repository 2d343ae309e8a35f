import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import tvtomo as tv
from tvtomo.errors import FormatError, ParameterError
from tvtomo.table import CELL_STATUSES, Cell


class TestPhantoms:
    def test_disc_tv_exact(self):
        for n in (16, 32, 64):
            img = tv.render_phantom(tv.Phantom.disc(r=0.25), n)
            assert tv.tv_norm(img) == pytest.approx(2.0, abs=1e-12)

    def test_disc_analytic_tv_attribute(self):
        p = tv.Phantom.disc(r=0.125, value=3.0)
        assert p.analytic_tv == pytest.approx(8 * 0.125 * 3.0)
        img = tv.render_phantom(p, 32)
        assert tv.tv_norm(img) == pytest.approx(p.analytic_tv, abs=1e-12)
        # computed from the params, however the phantom was built
        assert tv.Phantom(kind="disc", params=p.params).analytic_tv == 3.0
        assert tv.Phantom.polygon([(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)]).analytic_tv is None

    def test_nested_shells_tv_and_homogeneity(self):
        shells = [(0.375, 1.0), (0.25, 2.0), (0.125, 0.5)]
        p = tv.Phantom.nested_shells(shells)
        img = tv.render_phantom(p, 64)
        assert tv.tv_norm(img) == pytest.approx(p.analytic_tv, abs=1e-12)
        doubled = tv.Phantom.nested_shells([(r, 2 * v) for r, v in shells])
        img2 = tv.render_phantom(doubled, 64)
        assert tv.tv_norm(img2) == pytest.approx(2 * tv.tv_norm(img), rel=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown phantom kind 'empty'"):
            tv.Phantom(kind="empty")

    def test_polygon_square_matches_disc_style_tv(self):
        # axis-aligned square with corners on pixel boundaries: perimeter 4s
        p = tv.Phantom.polygon(
            [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)], value=1.0)
        img = tv.render_phantom(p, 32)
        assert tv.tv_norm(img) == pytest.approx(2.0, abs=1e-12)

    def test_off_center_disc(self):
        img = tv.render_phantom(tv.Phantom.disc(r=0.125, center=(0.25, 0.75)), 64)
        mat = img.to_matrix()
        # brightest region sits at the requested center
        rr, cc = np.nonzero(mat)
        centers = (np.arange(64) + 0.5) / 64
        assert centers[rr].mean() == pytest.approx(0.75, abs=0.02)
        assert centers[cc].mean() == pytest.approx(0.25, abs=0.02)

    TRIANGLE = [(0.2, 0.5), (0.5, 0.2), (0.7, 0.7)]

    @pytest.mark.parametrize("kind, args, kwargs", [
        ("polygon", ([(np.nan, 0.5), (0.5, 0.2), (0.7, 0.7)],), {}),
        ("polygon", (TRIANGLE,), {"value": np.nan}),
        ("polygon", (TRIANGLE,), {"value": np.inf}),
        ("nested_shells", ([(0.3, 1.0), (np.nan, 2.0)],), {}),
        ("nested_shells", ([(0.3, np.nan)],), {}),
        ("nested_shells", ([(0.3, 1.0), (0.2, np.inf)],), {}),
        ("disc", (), {"value": np.nan}),
    ], ids=["polygon-vertex-nan", "polygon-value-nan",
            "polygon-value-inf", "shells-radius-nan", "shells-value-nan",
            "shells-value-inf", "disc-value-nan"])
    def test_non_finite_parameters_rejected(self, kind, args, kwargs):
        with pytest.raises(ParameterError):
            getattr(tv.Phantom, kind)(*args, **kwargs)

    def test_empty_shells_rejected(self):
        with pytest.raises(ParameterError, match="at least one"):
            tv.Phantom.nested_shells([])

    @pytest.mark.parametrize("r, value, center", [(0.25, 1.0, (0.5, 0.5)),
                                                  (0.125, 3.0, (0.3, 0.6))])
    @pytest.mark.parametrize("n", [8, 64])
    def test_disc_is_one_shell(self, r, value, center, n):
        disc = tv.Phantom.disc(r, value, center)
        shell = tv.Phantom.nested_shells([(r, value)], center)
        assert disc.kind == "disc"
        assert disc.params == shell.params
        assert disc.analytic_tv == shell.analytic_tv
        np.testing.assert_array_equal(tv.render_phantom(disc, n).values,
                                      tv.render_phantom(shell, n).values)

    def test_phantoms_compare_and_hash_by_identity(self):
        a, b = tv.Phantom.disc(), tv.Phantom.disc()
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestNoise:
    def make_sino(self):
        geom = tv.ScanGeometry(num_angles=6, num_detector_pixels=10)
        A = tv.assemble_system_matrix(geom, 8)
        img = tv.render_phantom(tv.Phantom.disc(r=0.3), 8)
        return tv.forward_project(A, img)

    def test_zero_level_identical(self):
        g = self.make_sino()
        noisy = tv.add_noise(g, tv.NoiseSpec(relative_level=0.0, seed=1))
        assert np.array_equal(noisy.data, g.data)

    def test_seed_determinism(self):
        g = self.make_sino()
        a = tv.add_noise(g, tv.NoiseSpec(relative_level=0.05, seed=42))
        b = tv.add_noise(g, tv.NoiseSpec(relative_level=0.05, seed=42))
        c = tv.add_noise(g, tv.NoiseSpec(relative_level=0.05, seed=43))
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_noise_scale(self):
        g = self.make_sino()
        level = 0.05
        sigma = level * g.data.max()
        samples = []
        for seed in range(200):
            noisy = tv.add_noise(g, tv.NoiseSpec(relative_level=level, seed=seed))
            samples.append(noisy.data - g.data)
        std = np.concatenate(samples).std()
        assert std == pytest.approx(sigma, rel=0.03)

    def test_negative_level_rejected(self):
        with pytest.raises(ParameterError):
            tv.NoiseSpec(relative_level=-0.1)

    @pytest.mark.parametrize("level", [np.nan, np.inf, "0.1", False])
    def test_non_finite_level_rejected(self, level):
        with pytest.raises(ParameterError):
            tv.NoiseSpec(relative_level=level)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ParameterError):
            tv.NoiseSpec(relative_level=0.1, seed=seed)

    def test_negative_maximum_rejected(self):
        g = tv.Sinogram(geometry=tv.ScanGeometry(num_angles=2, num_detector_pixels=3),
                        data=np.full(6, -1.0))
        with pytest.raises(ParameterError, match=r"max\(g\) >= 0"):
            tv.add_noise(g, tv.NoiseSpec(relative_level=0.1))
        # a zero level never scales by the maximum, so it still passes through
        assert np.array_equal(tv.add_noise(g, tv.NoiseSpec(relative_level=0.0)).data, g.data)


class TestImageIo:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        img = tv.ImageGrid(16, rng.normal(size=256))
        path = tmp_path / "a.img"
        tv.write_image(path, img)
        back = tv.read_image(path)
        assert back.n == 16
        assert np.array_equal(back.values, img.values)

    def test_truncated_payload_offset(self, tmp_path):
        img = tv.ImageGrid(4, np.arange(16.0))
        path = tmp_path / "a.img"
        tv.write_image(path, img)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError) as exc:
            tv.read_image(path)
        assert exc.value.byte_offset == len(raw) - 8

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "a.img"
        path.write_bytes(b"BOGUS 4\n" + b"\0" * 128)
        with pytest.raises(FormatError) as exc:
            tv.read_image(path)
        assert exc.value.byte_offset == 0

    def test_missing_newline(self, tmp_path):
        path = tmp_path / "a.img"
        path.write_bytes(b"TVTOMO-IMG 4")
        with pytest.raises(FormatError):
            tv.read_image(path)

    def test_pgm_zero_image(self, tmp_path):
        img = tv.ImageGrid(3, np.zeros(9))
        path = tmp_path / "a.pgm"
        tv.write_pgm(path, img)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2" and lines[1] == "3 3" and lines[2] == "255"
        assert all(v == "0" for line in lines[3:] for v in line.split())

    def test_pgm_scaling(self, tmp_path):
        img = tv.ImageGrid.from_matrix(np.array([[0.0, 0.5], [1.0, 0.25]]))
        path = tmp_path / "a.pgm"
        tv.write_pgm(path, img)
        body = [int(v) for line in path.read_text().splitlines()[3:] for v in line.split()]
        # vertical flip: display row 0 is matrix row 1
        assert body == [255, 63, 0, 127]


class TestSinogramIo:
    def make_sino(self):
        geom = tv.ScanGeometry(num_angles=5, num_detector_pixels=7)
        rng = np.random.default_rng(0)
        return tv.Sinogram(geom, rng.normal(size=35))

    def test_raw_round_trip(self, tmp_path):
        s = self.make_sino()
        path = tmp_path / "s.sino"
        tv.write_sinogram(path, s)
        back = tv.read_sinogram(path, geometry=s.geometry)
        assert np.array_equal(back.data, s.data)

    def test_raw_default_geometry(self, tmp_path):
        s = self.make_sino()
        path = tmp_path / "s.sino"
        tv.write_sinogram(path, s)
        back = tv.read_sinogram(path)
        assert back.geometry.num_angles == 5
        assert back.geometry.num_detector_pixels == 7
        assert back.geometry.mode == "parallel"

    def test_geometry_dim_mismatch(self, tmp_path):
        s = self.make_sino()
        path = tmp_path / "s.sino"
        tv.write_sinogram(path, s)
        wrong = tv.ScanGeometry(num_angles=4, num_detector_pixels=7)
        with pytest.raises(FormatError):
            tv.read_sinogram(path, geometry=wrong)

    def test_csv_round_trip(self, tmp_path):
        s = self.make_sino()
        path = tmp_path / "s.csv"
        tv.write_sinogram_csv(path, s)
        back = tv.read_sinogram_csv(path)
        assert np.allclose(back.data, s.data, atol=0, rtol=0)

    @pytest.mark.parametrize("text", ["", "# comment only\n", "\n\n"])
    def test_csv_without_data_names_file(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="empty.csv"):
                tv.read_sinogram_csv(path)

    def test_csv_garbage_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,2.0\nnot,numbers\n")
        with pytest.raises(FormatError):
            tv.read_sinogram_csv(path)

    @pytest.mark.parametrize("text", ["1,nan\n", "1,2\ninf,4\n"])
    def test_csv_non_finite_names_file(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match="s.csv: non-finite"):
            tv.read_sinogram_csv(path)

    def test_csv_geometry_dim_mismatch(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2\n3,4\n")
        wrong = tv.ScanGeometry(num_angles=3, num_detector_pixels=2)
        with pytest.raises(FormatError, match=r"s.csv: dims \(2, 2\)"):
            tv.read_sinogram_csv(path, geometry=wrong)
        right = tv.ScanGeometry(num_angles=2, num_detector_pixels=2)
        assert tv.read_sinogram_csv(path, geometry=right).geometry is right

    @pytest.mark.parametrize("raw", [
        b"TVTOMO-SINO 0 0\n", b"TVTOMO-SINO -1 -1\n" + bytes(8), b"TVTOMO-SINO 2 0\n",
        b"TVTOMO-SINO 2 x\n",
    ], ids=["0x0", "-1x-1", "2x0", "2xX"])
    def test_non_positive_dims_offset(self, tmp_path, raw):
        path = tmp_path / "s.sino"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as exc:
            tv.read_sinogram(path)
        assert exc.value.byte_offset == len(b"TVTOMO-SINO ")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("reader, header", [
    (tv.read_image, b"TVTOMO-IMG 2\n"), (tv.read_sinogram, b"TVTOMO-SINO 1 4\n"),
], ids=["img", "sino"])
def test_non_finite_payload_offset(tmp_path, reader, header, bad):
    # the offset is that of the first non-finite value
    path = tmp_path / "raw"
    path.write_bytes(header + np.array([0.5, bad, 1.0, np.nan]).astype("<f8").tobytes())
    with pytest.raises(FormatError) as exc:
        reader(path)
    assert exc.value.byte_offset == len(header) + 8


class TestSweepCsv:
    def test_round_trip_full_precision(self, tmp_path):
        alphas = np.array([0.1, 1.0 / 3.0, 7.0])
        tvv = np.array([[np.pi, 2.0], [1.0 / 7.0, 0.5], [0.1, np.nan]])
        res = np.abs(np.sin(tvv)) + 0.1
        res[1, 1] = 2.0
        table = tv.SweepTable(alphas=alphas, resolutions=[8, 16], tv=tvv,
                              residual=res)
        path = tmp_path / "sweep.csv"
        tv.write_sweep_csv(path, table)
        header = path.read_text().splitlines()[0]
        assert header == "alpha,n,tv,residual,iterations,status"
        back = tv.read_sweep_csv(path)
        assert np.array_equal(back.alphas, table.alphas)
        assert back.resolutions == [8, 16]
        mask = ~np.isnan(tvv)
        assert np.array_equal(back.tv[mask], tvv[mask])
        assert np.isnan(back.tv[2, 1])

    def test_every_status_round_trips(self, tmp_path):
        status = np.reshape(CELL_STATUSES, (2, 2))
        table = tv.SweepTable(
            alphas=[0.1, 1.0 / 3.0], resolutions=[8, 16],
            tv=[[np.pi, 2.0], [np.nan, np.nan]], residual=[[0.5, 1.0 / 7.0], [np.nan, np.nan]],
            iterations=[[12, 100], [4, 0]], status=status)
        path = tmp_path / "sweep.csv"
        tv.write_sweep_csv(path, table)
        back = tv.read_sweep_csv(path)
        assert back.resolutions == table.resolutions
        for name in ("alphas", "tv", "residual", "iterations"):
            assert getattr(back, name).tobytes() == getattr(table, name).tobytes(), name
        assert back.status.tolist() == status.tolist()

    def test_written_bytes(self, tmp_path):
        """Every status, a NaN cell, an absent cell, repr-precision floats and
        integer iterations, row by row, with the csv module's CRLF line ends."""
        table = tv.SweepTable.from_cells({
            (0.1, 8): (np.pi, 1.0 / 7.0, 12, "converged"),
            (0.1, 16): (2.0, 0.5, 100, "max_iterations"),
            (1.0 / 3.0, 8): (np.nan, np.nan, 0, "solver_failure"),
            (7.0, 8): (0.0, 1.5e-07, 0, "converged"),
            (7.0, 16): (12345.678, 2.5, 7, "converged"),
        })
        path = tmp_path / "sweep.csv"
        tv.write_sweep_csv(path, table)
        assert path.read_bytes() == (
            b"alpha,n,tv,residual,iterations,status\r\n"
            b"0.1,8,3.141592653589793,0.14285714285714285,12,converged\r\n"
            b"0.1,16,2.0,0.5,100,max_iterations\r\n"
            b"0.3333333333333333,8,nan,nan,0,solver_failure\r\n"
            b"0.3333333333333333,16,nan,nan,0,absent\r\n"
            b"7.0,8,0.0,1.5e-07,0,converged\r\n"
            b"7.0,16,12345.678,2.5,7,converged\r\n")
        assert tuple(path.read_text().splitlines()[0].split(",")) == ("alpha", "n") + Cell._fields

    def test_bad_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("alpha,tv\n1.0,2.0\n")
        with pytest.raises(FormatError):
            tv.read_sweep_csv(path)

    HEADER = "alpha,n,tv,residual,iterations,status\n"
    ROW = ["0.1", "8", "1.5", "0.25", "12", "converged"]

    def assert_line_3_rejected(self, tmp_path, bad):
        path = tmp_path / "sweep.csv"
        path.write_text(self.HEADER + ",".join(self.ROW) + "\n" + ",".join(bad) + "\n")
        with pytest.raises(FormatError, match=r"sweep\.csv:3: malformed sweep row"):
            tv.read_sweep_csv(path)

    @pytest.mark.parametrize("field", range(5))
    def test_non_numeric_field_names_line(self, tmp_path, field):
        bad = list(self.ROW)
        bad[field] = "abc"
        self.assert_line_3_rejected(tmp_path, bad)

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "-1.0", "0.0"])
    def test_non_finite_alpha_names_line(self, tmp_path, alpha):
        bad = [alpha] + self.ROW[1:]
        self.assert_line_3_rejected(tmp_path, bad)

    @pytest.mark.parametrize("field, value", [
        (1, "0"), (1, "-5"), (4, "-3"),
        (2, "-1.5"), (2, "inf"), (2, "-inf"), (3, "-0.25"), (3, "inf"),
        (5, "bogus"), (5, ""), (5, "Converged"),
    ], ids=["n=0", "n=-5", "iterations=-3",
            "tv=-1.5", "tv=inf", "tv=-inf", "residual=-0.25", "residual=inf",
            "status=bogus", "status=empty", "status=Converged"])
    def test_out_of_range_count_names_line(self, tmp_path, field, value):
        bad = list(self.ROW)
        bad[field] = value
        self.assert_line_3_rejected(tmp_path, bad)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(self.HEADER + (",".join(self.ROW) + "\n") * 2)
        with pytest.raises(FormatError, match=r"sweep\.csv:3: second row for alpha=0\.1, n=8"):
            tv.read_sweep_csv(path)

    def test_missing_cell_is_absent(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(self.HEADER + "1.0,16,0.5,0.1,7,converged\n"
                        "0.1,8,1.5,0.25,12,converged\n1.0,8,0.75,0.2,9,max_iterations\n")
        table = tv.read_sweep_csv(path)
        assert table.alphas.tolist() == [0.1, 1.0]
        assert table.resolutions == [8, 16]
        assert table.status.tolist() == [["converged", "absent"],
                                         ["max_iterations", "converged"]]
        assert table.iterations.tolist() == [[12, 0], [9, 7]]
        assert np.isnan(table.tv[0, 1]) and np.isnan(table.residual[0, 1])
        assert table.tv[1].tolist() == [0.75, 0.5]


def _tvtomo_imports(module):
    """Names of the tvtomo modules that ``tvtomo/<module>.py`` imports."""
    tree = ast.parse((Path(tv.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("tvtomo.")}
        elif isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            if package in (".", "tvtomo"):
                names |= {a.name for a in node.names}
            elif package.startswith((".", "tvtomo.")):
                names.add(package.lstrip(".").removeprefix("tvtomo.").split(".")[0])
    return names


@pytest.mark.parametrize("module", ["fileio", "table"])
def test_io_does_not_import_the_solver(module):
    imports = _tvtomo_imports(module)
    assert "errors" in imports  # the scan sees the relative imports
    assert imports.isdisjoint({"select", "pdip", "qp", "phantoms"})


def test_only_errors_checks_for_integers():
    """Counts go through `errors.check_count`: no other module calls isinstance
    against int, np.integer or numbers.Integral."""
    integer_types = {"int", "integer", "Integral"}
    modules = sorted(Path(tv.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                types = node.args[1]
                names = {getattr(t, "id", getattr(t, "attr", None))
                         for t in (types.elts if isinstance(types, ast.Tuple) else [types])}
                assert not names & integer_types, f"{path.name}:{node.lineno}"


class TestPhantomAndConfigFiles:
    def test_config_round_trip(self, tmp_path):
        entries = {"geometry.num_angles": "90", "note": "hello world"}
        path = tmp_path / "run.cfg"
        tv.write_config(path, entries)
        assert tv.read_config(path) == entries

    @pytest.mark.parametrize("value", ["a\nb", "a\rb", "a\r\n"])
    def test_config_value_with_line_break_is_refused(self, tmp_path, value):
        path = tmp_path / "run.cfg"
        with pytest.raises(FormatError):
            tv.write_config(path, {"command": value})
        assert not path.exists()

    def test_config_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nalpha=2.5\n")
        assert tv.read_config(path) == {"alpha": "2.5"}

    def test_config_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha 2.5\n")
        with pytest.raises(FormatError):
            tv.read_config(path)
