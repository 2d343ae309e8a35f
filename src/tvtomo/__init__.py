"""Total-variation regularized 2D tomography.

Reconstructs attenuation images from sinogram data by solving

    min_{f >= 0}  1/2 |A f - g|^2 + alpha (|D_h f|_1 + |D_v f|_1)

with a Mehrotra predictor-corrector primal-dual interior-point method,
and selects the regularization parameter alpha by three rules:
multi-resolution TV stability, the S-curve, and the L-curve.
"""

from .errors import (
    DegeneratePriorError,
    FormatError,
    InvalidDimensionError,
    InvalidGeometryError,
    NoCornerWarning,
    NoSelectionError,
    OutOfRangeError,
    ParameterError,
    ResolutionMismatchError,
    ShapeMismatchError,
    SolverFailureError,
    TvTomoError,
)
from .fileio import (
    read_config,
    read_image,
    read_sinogram,
    read_sinogram_csv,
    read_sweep_csv,
    write_config,
    write_curve_csv,
    write_diagnostics_csv,
    write_image,
    write_pgm,
    write_sinogram,
    write_sinogram_csv,
    write_sweep_csv,
)
from .geometry import (
    ScanGeometry,
    Sinogram,
    SparseSystemMatrix,
    adjoint_project,
    assemble_system_matrix,
    forward_project,
)
from .grid import (
    DifferenceOperators,
    ImageGrid,
    build_difference_operators,
    project_average,
    tv_norm,
)
from .pdip import (
    ConvergenceReport,
    GenericQp,
    SolverConfig,
    pdip_solve,
    reconstruct,
)
from .phantoms import NoiseSpec, Phantom, add_noise, render_phantom
from .qp import QpProblem, build_qp
from .select import (
    SCurvePrior,
    estimate_s_hat,
    run_sweep,
    select_lcurve,
    select_multiresolution,
    select_scurve,
    spread_profile,
)
from .table import SweepTable

__version__ = "0.1.0"
