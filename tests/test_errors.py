import numpy as np
import pytest

import tvtomo as tv
from tvtomo.errors import (
    DegeneratePriorError,
    InvalidDimensionError,
    InvalidGeometryError,
    ParameterError,
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


# more bool and string cases: test_non_integer_iteration_caps_rejected,
# test_counts_must_be_integers, test_bad_seed_rejected, test_non_finite_level_rejected
# and test_bad_stability_tol_rejected
@pytest.mark.parametrize("error, call", [
    (ParameterError, lambda: tv.SolverConfig(tol_gap="1e-8")),
    (ParameterError, lambda: tv.SolverConfig(tol_primal=True)),
    (InvalidGeometryError, lambda: tv.ScanGeometry(detector_extent="1.4")),
    (InvalidGeometryError, lambda: tv.ScanGeometry(mode="fan", source_radius="2",
                                                   detector_radius=2.0)),
    (InvalidGeometryError, lambda: tv.assemble_system_matrix(tv.ScanGeometry(), 4.0)),
    (InvalidDimensionError, lambda: tv.ImageGrid(2.0, np.zeros(4))),
    (InvalidDimensionError, lambda: tv.build_difference_operators(2.5)),
    (InvalidDimensionError, lambda: tv.project_average(tv.ImageGrid(4, np.zeros(16)), 2.0)),
    (InvalidDimensionError, lambda: tv.upsample_constant(tv.ImageGrid(2, np.zeros(4)), 4.0)),
    (InvalidDimensionError, lambda: tv.upsample_constant(tv.ImageGrid(2, np.zeros(4)), -2)),
    (ParameterError, lambda: tv.Phantom.disc(r="0.2")),
    (ParameterError, lambda: tv.Phantom.disc(center=("0.5", 0.5))),
    (ParameterError, lambda: tv.Phantom.nested_shells([(0.3, "1")])),
    (ParameterError, lambda: tv.Phantom.polygon([(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)], "1")),
    (ParameterError, lambda: tv.render_phantom(tv.Phantom.empty(), 4.0)),
    (ParameterError, lambda: tv.build_qp(A, G, tv.build_difference_operators(4), "1")),
    (ParameterError, lambda: tv.run_sweep(GEOM, G, [1.0], [4], jobs=1.5)),
    (ParameterError, lambda: tv.run_sweep(GEOM, G, [1.0], [4], jobs=True)),
    (DegeneratePriorError, lambda: tv.SCurvePrior(s_hat=np.nan)),
    (DegeneratePriorError, lambda: tv.SCurvePrior(s_hat=np.inf)),
], ids=["tol-str", "tol-bool", "extent-str", "fan-radius-str",
        "assemble-n-float", "grid-n-float", "operators-n-float", "average-n-float",
        "upsample-n-float", "upsample-n-negative",
        "disc-r-str", "disc-center-str", "shells-value-str", "polygon-value-str",
        "render-n-float", "qp-alpha-str",
        "sweep-jobs-float", "sweep-jobs-bool", "s_hat-nan", "s_hat-inf"])
def test_bad_scalar_raises_its_class(error, call):
    with pytest.raises(error):
        call()
