"""Spectral geometry of rotation-invariant metrics on the 2-sphere.

A metric with a circle of symmetries is one function: the profile ``f(x)``
on ``[-1, 1]``, the squared length of the rotational field in momentum
coordinates where the metric reads ``(1/f) dx^2 + f dtheta^2``.  This
package parses profiles from a small expression language, validates the
boundary behavior that makes the poles smooth, computes Laplace spectra
channel by channel, merges them into multiplicity tables, tests the
embeddability obstructions (slope, spectral, multiplicity-parity), and
realizes embeddable metrics as surfaces of revolution with a verified
induced metric.
"""

from .exprs import (Expr, ExprError, ExprSyntaxError, EvalDomainError,
                    differentiate, evaluate, parse, to_string)
from .profile import (ArclengthProfile, InvalidProfileError, Profile,
                      ProfileDefinitionError, ValidationReport,
                      arclength_recover, area_of, curvature,
                      gauss_bonnet_residual, make_profile, momentum_transform,
                      normalize_area, profile_from_text, require_valid,
                      validate, validate_arclength)
from .families import (BUILTIN_EXPRESSIONS, builtin_profile,
                       random_bump_profile, squeeze_profile, reference_family)
from .solver import (AdmissibilityError, ChannelSpectrum, ConvergenceError,
                     GalerkinSystem, NearDegenerateWarning, SolverError,
                     assemble, rayleigh_quotient, refine, solve_channel)
from .spectrum import (BoundsReport, BudgetError, SpectrumEntry,
                       SpectrumInvariantError, SpectrumTable, bounds_report,
                       channel_lower_bound, check_invariants, enumerate_below,
                       lambda01_upper_bound, trace0_integral,
                       trace_partial_sum)
from .obstruction import (ABREU_FREITAS_THRESHOLD, XI1, ObstructionReport,
                          even_multiplicity_test, full_report,
                          negative_curvature_witness, spectral_test, sup_test)
from .embed import (EmbeddingMesh, GrazingClampWarning, MeshError,
                    MetricResiduals, NotEmbeddableError, ProfileCurve,
                    embed_profile_curve, euler_characteristic, export_obj,
                    induced_metric_residual, make_mesh, mesh_area)

__version__ = "0.1.0"

__all__ = [
    "Expr", "ExprError", "ExprSyntaxError", "EvalDomainError",
    "parse", "evaluate", "differentiate", "to_string",
    "Profile", "ArclengthProfile", "ValidationReport",
    "ProfileDefinitionError", "InvalidProfileError",
    "make_profile", "profile_from_text", "validate", "validate_arclength",
    "require_valid", "arclength_recover", "area_of", "normalize_area",
    "momentum_transform", "curvature", "gauss_bonnet_residual",
    "BUILTIN_EXPRESSIONS", "builtin_profile", "squeeze_profile",
    "random_bump_profile", "reference_family",
    "GalerkinSystem", "ChannelSpectrum", "SolverError", "ConvergenceError",
    "AdmissibilityError", "NearDegenerateWarning",
    "assemble", "solve_channel", "refine", "rayleigh_quotient",
    "SpectrumEntry", "SpectrumTable", "BoundsReport",
    "SpectrumInvariantError", "BudgetError",
    "trace0_integral", "trace_partial_sum", "lambda01_upper_bound",
    "channel_lower_bound", "bounds_report", "enumerate_below",
    "check_invariants",
    "XI1", "ABREU_FREITAS_THRESHOLD", "ObstructionReport",
    "sup_test", "spectral_test", "even_multiplicity_test",
    "negative_curvature_witness", "full_report",
    "ProfileCurve", "EmbeddingMesh", "MetricResiduals",
    "NotEmbeddableError", "MeshError", "GrazingClampWarning",
    "embed_profile_curve", "make_mesh", "mesh_area", "euler_characteristic",
    "induced_metric_residual", "export_obj",
    "__version__",
]
