"""Steady two-dimensional grade-two fluid solver.

The model couples a generalized Stokes problem for the velocity/pressure
pair with a steady transport equation for the auxiliary vorticity
z = curl(u - alpha*lap u); the two are iterated to a fixed point.  Both
non-homogeneous inflow boundary-condition variants are supported: the flux
form (z u).n = h and the trace form z = h on the inflow portion of the
boundary.
"""

import os as _os

# GRADE2_THREADS caps the linear algebra thread pools, which are sized when
# numpy loads: set the variables before any submodule imports it
if _os.environ.get("GRADE2_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ[_var] = _os.environ["GRADE2_THREADS"]

from .driver import (
    IterationReport,
    ProblemSpec,
    diagnostics,
    fixed_point_solve,
    navier_stokes_limit_study,
    uniqueness_probe,
)
from .errors import (
    BoundaryResolutionError,
    ContractionViolated,
    DegenerateInflow,
    FluxIncompatible,
    GradeTwoError,
    LinearSolveFailure,
    MaxIterations,
    MeshFormatError,
    MeshTopologyError,
    NotConverged,
)
from .manufactured import convergence_study, manufactured_case
from .meshes import (
    BoundaryPartition,
    Mesh,
    boundary_components,
    classify_boundary,
    flux_per_component,
    load_mesh,
    save_mesh,
    unit_square_mesh,
)
from .spaces import Field, SpaceDescriptor, Spaces, build_spaces, interpolate, norms
from .stokes import (
    prepare_generalized_stokes,
    solve_generalized_stokes,
    stokes_energy_report,
)
from .transport import (
    InflowDatum,
    build_inflow_datum,
    green_residual,
    sign_functional_report,
    solve_gradient_transport,
    solve_transport,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPartition", "BoundaryResolutionError", "ContractionViolated",
    "DegenerateInflow", "Field", "FluxIncompatible", "GradeTwoError",
    "InflowDatum", "IterationReport", "LinearSolveFailure", "MaxIterations",
    "Mesh", "MeshFormatError", "MeshTopologyError", "NotConverged",
    "ProblemSpec", "SpaceDescriptor", "Spaces", "boundary_components",
    "build_inflow_datum",
    "build_spaces", "classify_boundary", "convergence_study", "diagnostics",
    "fixed_point_solve", "flux_per_component", "green_residual",
    "interpolate", "load_mesh", "manufactured_case",
    "navier_stokes_limit_study", "norms", "prepare_generalized_stokes",
    "save_mesh", "sign_functional_report", "solve_generalized_stokes",
    "solve_gradient_transport", "solve_transport", "stokes_energy_report",
    "uniqueness_probe", "unit_square_mesh",
]
