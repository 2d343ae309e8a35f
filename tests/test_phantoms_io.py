import warnings

import numpy as np
import pytest

import tvtomo as tv
from tvtomo.errors import FormatError, ParameterError


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

    def test_nested_shells_tv_and_homogeneity(self):
        shells = [(0.375, 1.0), (0.25, 2.0), (0.125, 0.5)]
        p = tv.Phantom.nested_shells(shells)
        img = tv.render_phantom(p, 64)
        assert tv.tv_norm(img) == pytest.approx(p.analytic_tv, abs=1e-12)
        doubled = tv.Phantom.nested_shells([(r, 2 * v) for r, v in shells])
        img2 = tv.render_phantom(doubled, 64)
        assert tv.tv_norm(img2) == pytest.approx(2 * tv.tv_norm(img), rel=1e-12)

    def test_empty_phantom(self):
        img = tv.render_phantom(tv.Phantom.empty(), 8)
        assert np.all(img.values == 0.0)
        assert tv.tv_norm(img) == 0.0

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

    @pytest.mark.parametrize("level", [np.nan, np.inf])
    def test_non_finite_level_rejected(self, level):
        with pytest.raises(ParameterError):
            tv.NoiseSpec(relative_level=level)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ParameterError):
            tv.NoiseSpec(relative_level=0.1, seed=seed)

    def test_metadata_recorded(self):
        g = self.make_sino()
        noisy = tv.add_noise(g, tv.NoiseSpec(relative_level=0.02, seed=7))
        assert noisy.noise_meta["seed"] == 7
        assert noisy.noise_meta["relative_level"] == 0.02


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
        tv.write_pgm(path, img, vmin=0.0, vmax=1.0)
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

    def test_bad_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("alpha,tv\n1.0,2.0\n")
        with pytest.raises(FormatError):
            tv.read_sweep_csv(path)

    HEADER = "alpha,n,tv,residual,iterations,status\n"
    ROW = ["0.1", "8", "1.5", "0.25", "12", "converged"]

    @pytest.mark.parametrize("field", range(5))
    def test_non_numeric_field_names_line(self, tmp_path, field):
        bad = list(self.ROW)
        bad[field] = "abc"
        path = tmp_path / "sweep.csv"
        path.write_text(self.HEADER + ",".join(self.ROW) + "\n" + ",".join(bad) + "\n")
        with pytest.raises(FormatError, match=r"sweep\.csv:3: malformed sweep row"):
            tv.read_sweep_csv(path)

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_names_line(self, tmp_path, alpha):
        bad = [alpha] + self.ROW[1:]
        path = tmp_path / "sweep.csv"
        path.write_text(self.HEADER + ",".join(self.ROW) + "\n" + ",".join(bad) + "\n")
        with pytest.raises(FormatError, match=r"sweep\.csv:3: malformed sweep row"):
            tv.read_sweep_csv(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(self.HEADER + (",".join(self.ROW) + "\n") * 2)
        with pytest.raises(FormatError, match=r"sweep\.csv:3: second row for alpha=0\.1, n=8"):
            tv.read_sweep_csv(path)


class TestPhantomAndConfigFiles:
    def test_disc_round_trip(self, tmp_path):
        p = tv.Phantom.disc(r=0.3, value=1.5, center=(0.4, 0.6))
        path = tmp_path / "p.phantom"
        tv.write_phantom_file(path, p)
        back = tv.read_phantom_file(path)
        assert back.kind == "disc"
        assert back.params == p.params
        assert back.analytic_tv == p.analytic_tv

    def test_shells_round_trip(self, tmp_path):
        p = tv.Phantom.nested_shells([(0.4, 1.0), (0.2, 2.5)])
        path = tmp_path / "p.phantom"
        tv.write_phantom_file(path, p)
        back = tv.read_phantom_file(path)
        img_a = tv.render_phantom(p, 32)
        img_b = tv.render_phantom(back, 32)
        assert np.array_equal(img_a.values, img_b.values)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "p.phantom"
        path.write_text("kind=banana\n")
        with pytest.raises(FormatError):
            tv.read_phantom_file(path)

    def test_config_round_trip(self, tmp_path):
        entries = {"solver.tol_gap": "1e-10", "geometry.num_angles": "90",
                   "note": "hello world"}
        path = tmp_path / "run.cfg"
        tv.write_config(path, entries)
        assert tv.read_config(path) == entries

    def test_config_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nalpha=2.5\n")
        assert tv.read_config(path) == {"alpha": "2.5"}

    def test_config_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha 2.5\n")
        with pytest.raises(FormatError):
            tv.read_config(path)
