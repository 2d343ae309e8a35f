import numpy as np
import pytest

import tvtomo as tv
from tvtomo.errors import InvalidDimensionError, ResolutionMismatchError, ShapeMismatchError

# 9x9 horizontal difference matrix for a 3x3 image, column-major pixel
# vector [f11, f21, f31, f12, f22, f32, f13, f23, f33] (before 1/n scaling)
D_H_3X3 = np.array([
    [-1, 0, 0,  1, 0, 0,  0, 0, 0],
    [ 0, 0, 0, -1, 0, 0,  1, 0, 0],
    [ 1, 0, 0,  0, 0, 0, -1, 0, 0],
    [ 0, -1, 0, 0, 1, 0,  0, 0, 0],
    [ 0, 0, 0, 0, -1, 0,  0, 1, 0],
    [ 0, 1, 0, 0,  0, 0,  0, -1, 0],
    [ 0, 0, -1, 0, 0, 1,  0, 0, 0],
    [ 0, 0, 0, 0, 0, -1,  0, 0, 1],
    [ 0, 0, 1, 0, 0, 0,   0, 0, -1],
], dtype=float)


def disc_image(n, r=0.25, value=1.0):
    """Indicator of a centered disc, pixel=value iff center inside."""
    c = (np.arange(n) + 0.5) / n
    y, x = np.meshgrid(c, c, indexing="ij")
    return tv.ImageGrid.from_matrix(np.where((x - 0.5) ** 2 + (y - 0.5) ** 2 < r * r, value, 0.0))


class TestDifferenceOperators:
    def test_reference_layout_bit_exact(self):
        ops = tv.build_difference_operators(3)
        assert np.array_equal(ops.d_h.toarray(), D_H_3X3 / 3.0)

    def test_constant_image_zero_differences(self):
        ops = tv.build_difference_operators(2)
        ones = np.ones(4)
        assert np.array_equal(ops.d_h @ ones, np.zeros(4))
        assert np.array_equal(ops.d_v @ ones, np.zeros(4))

    def test_vertical_stripes_n2(self):
        # [[0,1],[0,1]]: columns 0 and 1 differ, rows identical
        f = tv.ImageGrid.from_matrix([[0.0, 1.0], [0.0, 1.0]])
        ops = tv.build_difference_operators(2)
        assert np.abs(ops.d_h @ f.values).sum() == pytest.approx(2.0, abs=1e-15)
        assert np.array_equal(ops.d_v @ f.values, np.zeros(4))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 31, 64, 128, 197, 256])
    def test_row_sums_exactly_zero(self, n):
        ops = tv.build_difference_operators(n)
        for mat in (ops.d_h, ops.d_v):
            sums = np.asarray(mat.sum(axis=1)).ravel()
            assert np.all(sums == 0.0)
            counts_pos = (mat.tocsr() > 0).sum(axis=1)
            counts_neg = (mat.tocsr() < 0).sum(axis=1)
            assert np.all(np.asarray(counts_pos).ravel() == 1)
            assert np.all(np.asarray(counts_neg).ravel() == 1)

    def test_rejects_n_below_two(self):
        with pytest.raises(InvalidDimensionError):
            tv.build_difference_operators(1)


class TestTvNorm:
    def test_constant_is_zero(self):
        for n in (2, 5, 16):
            img = tv.ImageGrid(n, np.full(n * n, 3.7))
            assert tv.tv_norm(img) == 0.0

    def test_stripes_value(self):
        f = tv.ImageGrid.from_matrix([[0.0, 1.0], [0.0, 1.0]])
        assert tv.tv_norm(f) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("n", [16, 32, 64, 100])
    def test_disc_manhattan_perimeter(self, n):
        # TV of the pixelated disc indicator equals 8r at every resolution
        img = disc_image(n, r=0.25)
        assert tv.tv_norm(img) == pytest.approx(2.0, abs=1e-12)

    def test_positive_unless_constant(self, rng):
        for _ in range(20):
            img = tv.ImageGrid(8, rng.normal(size=64))
            assert tv.tv_norm(img) > 0

    def test_absolute_one_homogeneity(self, rng):
        for lam in (-2.5, -1.0, 0.0, 0.3, 7.0):
            v = rng.normal(size=36)
            ratio = tv.tv_norm(tv.ImageGrid(6, lam * v))
            base = tv.tv_norm(tv.ImageGrid(6, v))
            assert ratio == pytest.approx(abs(lam) * base, rel=1e-12, abs=1e-12)


class TestResolutionMaps:
    def test_average_constant(self):
        img = tv.ImageGrid(8, np.full(64, 2.25))
        out = tv.project_average(img, 4)
        assert out.n == 4
        assert np.all(out.values == 2.25)

    def test_average_2x2_to_scalar(self):
        f = tv.ImageGrid.from_matrix([[0.0, 1.0], [0.0, 1.0]])
        out = tv.project_average(f, 1)
        assert out.values[0] == pytest.approx(0.5, abs=0)

    def test_average_preserves_mean(self, rng):
        img = tv.ImageGrid(8, rng.uniform(size=64))
        out = tv.project_average(img, 4)
        assert out.values.mean() == pytest.approx(img.values.mean(), rel=1e-14)

    def test_average_requires_divisible(self):
        img = tv.ImageGrid(8, np.zeros(64))
        with pytest.raises(ResolutionMismatchError):
            tv.project_average(img, 3)

    def test_round_trip_bit_identical(self, rng):
        for _ in range(10):
            img = tv.ImageGrid(4, rng.normal(size=16))
            for m in (2, 4):
                fine = tv.ImageGrid.from_matrix(np.kron(img.to_matrix(), np.ones((m, m))))
                back = tv.project_average(fine, 4)
                assert np.array_equal(back.values, img.values)

    def test_averaging_does_not_increase_tv(self, rng):
        for _ in range(100):
            img = tv.ImageGrid(8, rng.normal(size=64))
            coarse = tv.project_average(img, 4)
            assert tv.tv_norm(coarse) <= tv.tv_norm(img) + 1e-12


class TestImageGrid:
    def test_column_major_indexing(self):
        mat = np.arange(9.0).reshape(3, 3)
        img = tv.ImageGrid.from_matrix(mat)
        # index r + n*c
        assert img.values[0] == mat[0, 0]
        assert img.values[1] == mat[1, 0]
        assert img.values[3] == mat[0, 1]
        assert np.array_equal(img.to_matrix(), mat)

    def test_rejects_bad_length(self):
        with pytest.raises(ShapeMismatchError):
            tv.ImageGrid(3, np.zeros(8))
        with pytest.raises(ShapeMismatchError, match=r"got shape \(3, 4\)$"):
            tv.ImageGrid.from_matrix(np.zeros((3, 4)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ShapeMismatchError):
            tv.ImageGrid(2, np.array([0.0, 1.0, np.nan, 2.0]))
