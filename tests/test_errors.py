import numpy as np
import pytest

import tvtomo as tv
from tvtomo.errors import (
    DegeneratePriorError,
    InvalidDimensionError,
    InvalidGeometryError,
    ParameterError,
    ShapeMismatchError,
    check_count,
    check_real,
)


@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_integers_are_counts(value):
    check_count("n", value, 1, ParameterError)


@pytest.mark.parametrize("value", [3, 0.5, np.float32(0.5), np.float64(0.5), np.int64(3)])
def test_integers_and_floats_are_reals(value):
    check_real("alpha", value, ParameterError)


GEOM = tv.ScanGeometry(num_angles=4, num_detector_pixels=6)
A = tv.assemble_system_matrix(GEOM, 4)
G = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.25), 4))


# more bool and string cases: test_counts_must_be_integers, test_bad_seed_rejected,
# test_non_finite_level_rejected and test_bad_stability_tol_rejected
@pytest.mark.parametrize("error, call", [
    (InvalidGeometryError, lambda: tv.ScanGeometry(detector_extent="1.4")),
    (InvalidGeometryError, lambda: tv.ScanGeometry(mode="fan", source_radius="2",
                                                   detector_radius=2.0)),
    (InvalidGeometryError, lambda: tv.assemble_system_matrix(tv.ScanGeometry(), 4.0)),
    (InvalidDimensionError, lambda: tv.ImageGrid(2.0, np.zeros(4))),
    (InvalidDimensionError, lambda: tv.build_difference_operators(2.5)),
    (InvalidDimensionError, lambda: tv.project_average(tv.ImageGrid(4, np.zeros(16)), 2.0)),
    (ParameterError, lambda: tv.Phantom.disc(r="0.2")),
    (ParameterError, lambda: tv.Phantom.disc(center=("0.5", 0.5))),
    (ParameterError, lambda: tv.Phantom.nested_shells([(0.3, "1")])),
    (ParameterError, lambda: tv.Phantom.polygon([(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)], "1")),
    (ParameterError, lambda: tv.render_phantom(tv.Phantom.disc(), 4.0)),
    (ParameterError, lambda: tv.build_qp(A, G, "1")),
    (DegeneratePriorError, lambda: tv.SCurvePrior(s_hat=np.nan)),
    (DegeneratePriorError, lambda: tv.SCurvePrior(s_hat=np.inf)),
    (InvalidGeometryError, lambda: tv.ScanGeometry(mode="cone")),
    (InvalidGeometryError, lambda: tv.ScanGeometry(num_angles=4, angles=np.zeros(3))),
    (ShapeMismatchError, lambda: tv.Sinogram(GEOM, np.zeros(5))),
    (ShapeMismatchError, lambda: tv.Sinogram(GEOM, np.full(GEOM.num_rays, np.nan))),
    (ParameterError, lambda: tv.Phantom.nested_shells([(0.2, 1.0), (0.3, 2.0)])),
    (ParameterError, lambda: tv.Phantom.nested_shells([(0.6, 1.0)])),
    (ParameterError, lambda: tv.Phantom.polygon([(0.2, 0.2), (0.8, 0.8)])),
    (ShapeMismatchError, lambda: tv.build_qp(
        A, tv.Sinogram(tv.ScanGeometry(num_angles=1, num_detector_pixels=5), np.zeros(5)), 1.0)),
    (ShapeMismatchError, lambda: tv.SweepTable([1.0], [8], np.ones((2, 1)), np.ones((1, 1)))),
    (ShapeMismatchError, lambda: tv.SweepTable([0.0, 1.0], [8], np.ones((2, 1)),
                                               np.ones((2, 1)))),
    (ShapeMismatchError, lambda: tv.SweepTable([1.0, 0.1], [8], np.ones((2, 1)),
                                               np.ones((2, 1)))),
    # write_sweep_csv could write these four, and read_sweep_csv refuses them
    (ShapeMismatchError, lambda: tv.SweepTable([0.1, np.nan], [8], np.ones((2, 1)),
                                               np.ones((2, 1)))),
    (ShapeMismatchError, lambda: tv.SweepTable([np.inf], [8], [[1.0]], [[1.0]])),
    (ShapeMismatchError, lambda: tv.SweepTable([1.0], [0], [[1.0]], [[1.0]])),
    (ShapeMismatchError, lambda: tv.SweepTable([1.0], [], np.ones((1, 0)), np.ones((1, 0)))),
    (ShapeMismatchError, lambda: tv.SweepTable([0.1, 1.0], [8], [[1.0], [np.inf]],
                                               np.ones((2, 1)))),
    (ShapeMismatchError, lambda: tv.SweepTable([0.1, 1.0], [8], [[1.0], [-1.0]],
                                               np.ones((2, 1)))),
    (ShapeMismatchError, lambda: tv.SweepTable([0.1, 1.0], [8], np.ones((2, 1)),
                                               [[1.0], [np.inf]])),
    (ShapeMismatchError, lambda: tv.SweepTable([0.1, 1.0], [8], np.ones((2, 1)),
                                               [[-np.inf], [1.0]])),
    (ShapeMismatchError, lambda: tv.SweepTable.from_cells(
        {(1.0, 8): (np.inf, 1.0, 3, "converged")})),
    (ShapeMismatchError, lambda: tv.SweepTable([1.0], [8], [[1.0]], [[1.0]], iterations=[[-1]])),
    (ShapeMismatchError, lambda: tv.SweepTable([1.0], [8], [[1.0]], [[1.0]], iterations=[[2.7]])),
    (ShapeMismatchError, lambda: tv.SweepTable([1.0], [8], [[1.0]], [[1.0]],
                                               iterations=[[True]])),
    (ShapeMismatchError, lambda: tv.SweepTable.from_cells(
        {(1.0, 8): (1.0, 1.0, 2.7, "converged")})),
    (ShapeMismatchError, lambda: tv.SweepTable([1.0], [8], [[1.0]], [[1.0]], status=[["bogus"]])),
    (ParameterError, lambda: tv.Phantom(kind="disc")),
    (ParameterError, lambda: tv.Phantom(kind="nested-shells", params={"shells": [(0.3, 1.0)]})),
    (ParameterError, lambda: tv.Phantom(kind="piecewise-polygon")),
    (ParameterError, lambda: tv.Phantom(kind="disc", params=tv.Phantom.polygon(
        [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)]).params)),
    (ShapeMismatchError, lambda: tv.GenericQp(Q=np.eye(3), c=np.ones(2))),
    (ShapeMismatchError, lambda: tv.GenericQp(Q=np.eye(2), c=np.ones(2), B=np.ones((1, 3)))),
    (ShapeMismatchError, lambda: tv.GenericQp(Q=np.eye(2), c=np.ones(2), B=np.ones((1, 2)),
                                              b=np.ones(2))),
    (ShapeMismatchError, lambda: tv.GenericQp(Q=np.eye(2), c=np.ones(2), b=np.ones(1))),
], ids=["extent-str", "fan-radius-str",
        "assemble-n-float", "grid-n-float", "operators-n-float", "average-n-float",
        "disc-r-str", "disc-center-str", "shells-value-str", "polygon-value-str",
        "render-n-float", "qp-alpha-str", "s_hat-nan", "s_hat-inf",
        "mode-unknown", "angles-count", "sinogram-length", "sinogram-nan",
        "shells-increasing", "shells-outside", "polygon-two-vertices", "qp-data-length",
        "table-shape", "table-alpha-zero", "table-alphas-descending",
        "table-alpha-nan", "table-alpha-inf", "table-n-zero", "table-no-resolution",
        "table-tv-inf", "table-tv-negative", "table-residual-inf", "table-residual-negative",
        "table-from-cells-tv-inf", "table-iterations-negative", "table-iterations-float",
        "table-iterations-bool", "table-from-cells-iterations-float", "table-status-unknown",
        "phantom-disc-no-params", "phantom-shells-no-center", "phantom-polygon-no-params",
        "phantom-disc-polygon-params",
        "qp-Q-shape", "qp-B-shape", "qp-b-length", "qp-b-without-B"])
def test_bad_scalar_raises_its_class(error, call):
    with pytest.raises(error):
        call()
