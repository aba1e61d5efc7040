"""Verification engine for weighted Hodge-Laplacian identities on flat domains.

Discretizes weighted (Witten-conjugate) Laplacians on differential p-forms
with lowest-order Whitney elements under tangential/normal boundary
realizations, and checks decomposition identities, supersymmetry, Hodge
decompositions and Brascamp-Lieb-type inequalities against independent
high-order quadrature and closed-form spectral oracles.
"""

__version__ = "0.1.0"

from .analytic_forms import AnalyticForm, BoundaryConditionError
from .checks import (check_bl_forms, check_bl_scalar, check_gamma2,
                     check_gap_lower_bound, check_variance_identity,
                     duality_spectrum_check, eval_decomposition_identity,
                     eval_green_identity, eval_h1_identity, hypothesis_check,
                     semiclassical_sweep)
from .config import ConfigError, RunConfig, load_config
from .curvature import (EndomorphismField, PositivityViolationError,
                        bakry_emery_tensor, boundary_operator, hessian_p,
                        invert_endo_field, lift_endomorphism)
from .domains import DomainSpec, boundary_quadrature, domain_quadrature
from .meshing import (SimplicialComplex, boundary_geometry, generate_mesh,
                      incidence_matrix, refine)
from .operators import (AssembledOperator, OperatorChain,
                        UnsupportedRealizationError, dual_problem)
from .potentials import Potential, WeightedMeasure, parse_potential
from .records import CheckRecord
from .report import Report, convergence_study, run_config
from .spectral import (HodgeSplit, SpectralResult, check_intertwining,
                       hodge_decompose, kernel_projector, lowest_eigenpairs,
                       solve_on_range)
from .whitney import assemble_mass, interpolate

__all__ = [
    "AnalyticForm", "AssembledOperator", "BoundaryConditionError", "CheckRecord",
    "ConfigError", "DomainSpec", "EndomorphismField",
    "HodgeSplit", "OperatorChain", "PositivityViolationError", "Potential",
    "Report", "RunConfig", "SimplicialComplex", "SpectralResult",
    "UnsupportedRealizationError", "WeightedMeasure", "assemble_mass",
    "bakry_emery_tensor", "boundary_geometry",
    "boundary_operator", "boundary_quadrature", "check_bl_forms", "check_bl_scalar",
    "check_gamma2", "check_gap_lower_bound", "check_intertwining",
    "check_variance_identity", "convergence_study", "domain_quadrature",
    "dual_problem", "duality_spectrum_check", "eval_decomposition_identity",
    "eval_green_identity", "eval_h1_identity", "generate_mesh", "hessian_p",
    "hodge_decompose", "hypothesis_check", "incidence_matrix", "interpolate",
    "invert_endo_field", "kernel_projector", "lift_endomorphism", "load_config",
    "lowest_eigenpairs", "parse_potential", "refine", "run_config",
    "semiclassical_sweep", "solve_on_range",
]
