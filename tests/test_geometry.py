import numpy as np
import pytest
import scipy.sparse as sp

import tvtomo as tv
from tvtomo import geometry
from tvtomo.errors import InvalidGeometryError, ShapeMismatchError


def liang_barsky_length(origin, direction, eps=0.0):
    """Independent chord-length oracle: clip the line to [0,1]^2."""
    d = np.asarray(direction, float)
    d = d / np.hypot(*d)
    t0, t1 = -np.inf, np.inf
    for k in range(2):
        if d[k] != 0:
            ta, tb = (0 - origin[k]) / d[k], (1 - origin[k]) / d[k]
            t0, t1 = max(t0, min(ta, tb)), min(t1, max(ta, tb))
        elif not 0 <= origin[k] <= 1:
            return 0.0
    return max(0.0, t1 - t0)


class TestTraceRay:
    def test_horizontal_ray_through_row(self):
        idx, lengths = tv.trace_ray([-1.0, 0.375], [1.0, 0.0], 4)
        assert idx.size == 4
        assert np.allclose(lengths, 0.25, atol=1e-15)
        rows = idx % 4
        assert np.all(rows == 1)  # y = 0.375 is in row 1

    @pytest.mark.parametrize("n", [1, 3, 7, 16])
    def test_main_diagonal_chord(self, n):
        _, lengths = tv.trace_ray([0.0, 0.0], [1.0, 1.0], n)
        assert lengths.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_missing_ray_empty(self):
        idx, lengths = tv.trace_ray([2.0, 2.0], [0.0, 1.0], 4)
        assert idx.size == 0 and lengths.size == 0

    def test_degenerate_direction_rejected(self):
        with pytest.raises(InvalidGeometryError):
            tv.trace_ray([0.5, 0.5], [0.0, 0.0], 4)

    def test_random_rays_match_clipping_oracle(self, rng):
        for _ in range(200):
            origin = rng.uniform(-1.5, 2.5, 2)
            theta = rng.uniform(0, 2 * np.pi)
            direction = np.array([np.cos(theta), np.sin(theta)])
            _, lengths = tv.trace_ray(origin, direction, 16)
            assert lengths.sum() == pytest.approx(
                liang_barsky_length(origin, direction), abs=1e-12
            )

    def test_lengths_nonnegative_indices_valid(self, rng):
        for _ in range(100):
            origin = rng.uniform(-0.5, 1.5, 2)
            direction = rng.normal(size=2)
            if np.hypot(*direction) == 0:
                continue
            idx, lengths = tv.trace_ray(origin, direction, 9)
            assert np.all(lengths > 0)
            assert np.all((idx >= 0) & (idx < 81))


class TestSystemMatrix:
    def test_single_angle_axis_aligned(self):
        geom = tv.ScanGeometry(num_angles=1, num_detector_pixels=4,
                               detector_extent=1.0, angles=[0.0])
        A = tv.assemble_system_matrix(geom, 4)
        assert A.shape == (4, 16)
        dense = A.matrix.toarray()
        assert np.all(np.sum(dense > 0, axis=1) == 4)
        assert np.allclose(dense[dense > 0], 0.25, atol=1e-15)

    def test_row_sums_equal_chord_lengths(self, rng):
        geom = tv.ScanGeometry(num_angles=10, num_detector_pixels=15)
        A = tv.assemble_system_matrix(geom, 16)
        row_sums = np.asarray(A.matrix.sum(axis=1)).ravel()
        chords = [
            liang_barsky_length(origin, direction)
            for origin, direction in geom.rays()
        ]
        assert np.allclose(row_sums, chords, atol=1e-12, rtol=0)

    def test_all_entries_nonnegative(self):
        geom = tv.ScanGeometry(num_angles=7, num_detector_pixels=9)
        A = tv.assemble_system_matrix(geom, 8)
        assert A.matrix.nnz > 0
        assert A.matrix.data.min() >= 0

    def test_deterministic_assembly(self):
        geom = tv.ScanGeometry(num_angles=5, num_detector_pixels=8)
        A1 = tv.assemble_system_matrix(geom, 12)
        A2 = tv.assemble_system_matrix(geom, 12)
        assert np.array_equal(A1.matrix.indptr, A2.matrix.indptr)
        assert np.array_equal(A1.matrix.indices, A2.matrix.indices)
        assert np.array_equal(A1.matrix.data, A2.matrix.data)

    def test_fan_beam_rows_positive(self):
        geom = tv.ScanGeometry(
            mode="fan", num_angles=6, num_detector_pixels=10,
            detector_extent=2.0, source_radius=2.0, detector_radius=2.0,
        )
        A = tv.assemble_system_matrix(geom, 8)
        row_sums = np.asarray(A.matrix.sum(axis=1)).ravel()
        assert np.all(row_sums >= 0)
        assert row_sums.max() <= np.sqrt(2.0) + 1e-12

    def test_fan_requires_radii(self):
        with pytest.raises(InvalidGeometryError):
            tv.ScanGeometry(mode="fan", num_angles=4, num_detector_pixels=4)

    @pytest.mark.parametrize("kwargs", [
        {"detector_extent": np.nan},
        {"detector_extent": np.inf},
        {"angles": [0.0, np.nan, 1.0, 2.0]},
        {"angles": [0.0, 1.0, -np.inf, 2.0]},
        {"mode": "fan", "source_radius": np.nan, "detector_radius": 2.0},
        {"mode": "fan", "source_radius": 2.0, "detector_radius": np.inf},
    ])
    def test_non_finite_geometry_rejected(self, kwargs):
        with pytest.raises(InvalidGeometryError):
            tv.ScanGeometry(num_angles=4, num_detector_pixels=4, **kwargs)


def stacked_trace_ray(geom, n):
    """Oracle: one trace_ray per ray, stacked into a CSR matrix row by row."""
    rows, cols, vals = [], [], []
    for j, (origin, direction) in enumerate(geom.rays()):
        idx, lengths = tv.trace_ray(origin, direction, n)
        rows.append(np.full(idx.size, j))
        cols.append(idx)
        vals.append(lengths)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.num_rays, n * n),
    )


def random_geometries(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        num_angles = int(rng.integers(1, 10))
        common = dict(
            num_angles=num_angles,
            num_detector_pixels=int(rng.integers(1, 30)),
            detector_extent=float(rng.uniform(0.2, 3.5)),
            angles=rng.uniform(-2 * np.pi, 2 * np.pi, num_angles),
        )
        if i % 2:
            yield tv.ScanGeometry(**common), int(rng.integers(1, 40))
        else:
            yield tv.ScanGeometry(
                mode="fan", source_radius=float(rng.uniform(0.8, 3.0)),
                detector_radius=float(rng.uniform(0.1, 3.0)), **common,
            ), int(rng.integers(1, 40))


EDGE_GEOMETRIES = [
    # axis-aligned rays, including along the square's edges
    (tv.ScanGeometry(num_angles=2, num_detector_pixels=9, detector_extent=1.0,
                     angles=[0.0, np.pi / 2]), 8),
    # detector offsets on the grid lines k/n
    (tv.ScanGeometry(num_angles=4, num_detector_pixels=4, detector_extent=1.0,
                     angles=[0.0, np.pi / 2, np.pi, np.pi / 4]), 8),
    # rays that miss the square
    (tv.ScanGeometry(num_angles=5, num_detector_pixels=20, detector_extent=3.0), 6),
    (tv.ScanGeometry(mode="fan", num_angles=6, num_detector_pixels=25, detector_extent=6.0,
                     source_radius=1.5, detector_radius=1.5), 7),
    (tv.ScanGeometry(num_angles=1, num_detector_pixels=2, detector_extent=10.0,
                     angles=[0.0]), 5),
    # one pixel
    (tv.ScanGeometry(num_angles=7, num_detector_pixels=5), 1),
    (tv.ScanGeometry(mode="fan", num_angles=3, num_detector_pixels=4, detector_extent=2.0,
                     source_radius=2.0, detector_radius=1.0), 1),
]


class TestBatchedAssembly:
    def assert_matches_oracle(self, geom, n):
        A = tv.assemble_system_matrix(geom, n).matrix
        oracle = stacked_trace_ray(geom, n)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(A, name), getattr(oracle, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("geom, n", list(random_geometries(11, 16)))
    def test_random_geometries(self, geom, n):
        self.assert_matches_oracle(geom, n)

    @pytest.mark.parametrize("geom, n", EDGE_GEOMETRIES)
    def test_edge_geometries(self, geom, n):
        self.assert_matches_oracle(geom, n)

    def test_one_angle_many_detectors_spans_batches(self):
        n = 64
        geom = tv.ScanGeometry(num_angles=1, num_detector_pixels=6000, angles=[0.3])
        assert geom.num_rays > 2 * (geometry._CHUNK_ENTRIES // (2 * n + 4))
        self.assert_matches_oracle(geom, n)

    @pytest.mark.parametrize("entries", [1, 40, 97])
    def test_batch_boundaries_do_not_change_matrix(self, monkeypatch, entries):
        monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", entries)
        for geom, n in [*EDGE_GEOMETRIES, *random_geometries(12, 4)]:
            self.assert_matches_oracle(geom, n)

    @pytest.mark.parametrize("geom, n", EDGE_GEOMETRIES)
    def test_ray_arrays_match_per_angle_formula(self, geom, n):
        origins, directions = geom.ray_arrays()
        expected = []
        for theta in geom.angles:
            d = np.array([np.cos(theta), np.sin(theta)])
            perp = np.array([-np.sin(theta), np.cos(theta)])
            center = np.array([0.5, 0.5])
            for t in geom.detector_offsets():
                if geom.mode == "parallel":
                    expected.append((center + t * perp, d))
                else:
                    src = center - geom.source_radius * d
                    det_c = center + geom.detector_radius * d
                    expected.append((src, det_c + t * perp - src))
        assert np.array_equal(origins, [o for o, _ in expected])
        assert np.array_equal(directions, [v for _, v in expected])
        assert np.array_equal(origins, [o for o, _ in geom.rays()])


class TestProjection:
    def test_zero_image_zero_sinogram(self, small_geom):
        A = tv.assemble_system_matrix(small_geom, 8)
        s = tv.forward_project(A, tv.ImageGrid(8, np.zeros(64)))
        assert np.all(s.data == 0)

    def test_constant_image_gives_chords(self, small_geom):
        A = tv.assemble_system_matrix(small_geom, 8)
        c = 1.75
        s = tv.forward_project(A, tv.ImageGrid(8, np.full(64, c)))
        row_sums = np.asarray(A.matrix.sum(axis=1)).ravel()
        assert np.allclose(s.data, c * row_sums, rtol=1e-13)

    def test_adjoint_of_unit_sinogram(self, small_geom):
        A = tv.assemble_system_matrix(small_geom, 6)
        j = 7
        e = np.zeros(small_geom.num_rays)
        e[j] = 1.0
        back = tv.adjoint_project(A, tv.Sinogram(small_geom, e))
        assert np.array_equal(back.values, A.matrix.toarray()[j])

    def test_adjoint_identity_against_dense_oracle(self, rng):
        geom = tv.ScanGeometry(num_angles=9, num_detector_pixels=12)
        A = tv.assemble_system_matrix(geom, 8)
        dense = A.matrix.toarray()
        for _ in range(200):
            f = rng.normal(size=64)
            y = rng.normal(size=geom.num_rays)
            lhs = (A.matrix @ f) @ y
            rhs = f @ (A.matrix.T @ y)
            oracle = (dense @ f) @ y
            scale = max(abs(oracle), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-10
            assert abs(lhs - oracle) / scale < 1e-10

    def test_resolution_consistency_piecewise_constant(self, rng):
        # line integrals of a piecewise-constant image do not depend on
        # the grid used to represent it
        geom = tv.ScanGeometry(num_angles=6, num_detector_pixels=10)
        img = tv.ImageGrid(8, rng.uniform(size=64))
        fine = tv.upsample_constant(img, 16)
        g_coarse = tv.forward_project(tv.assemble_system_matrix(geom, 8), img)
        g_fine = tv.forward_project(tv.assemble_system_matrix(geom, 16), fine)
        assert np.allclose(g_coarse.data, g_fine.data, atol=1e-10, rtol=0)

    def test_shape_mismatches_rejected(self, small_geom):
        A = tv.assemble_system_matrix(small_geom, 8)
        with pytest.raises(ShapeMismatchError):
            tv.forward_project(A, tv.ImageGrid(4, np.zeros(16)))
        with pytest.raises(ShapeMismatchError):
            tv.adjoint_project(A, tv.Sinogram(None, np.zeros(5)))
