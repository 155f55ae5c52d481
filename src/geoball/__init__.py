"""Exit-time moment spectra, torsional rigidity and first Dirichlet
eigenvalues of geodesic balls in rotationally symmetric model spaces and
2-D polar metrics, with a comparison-theorem verification harness."""

from .model import (
    BalanceReport,
    DomainError,
    ModelSpace,
    WarpingProfile,
    balance_check,
    ball_radius_from_volume,
    ball_volume_model,
    euclidean_profile,
    isoperimetric_quotient,
    make_space_form,
    mean_curvature_model,
    polynomial_profile,
    radial_curvature_model,
    space_form_profile,
    sphere_volume_model,
)
from .hierarchy import (
    EigenvalueEstimate,
    MomentSpectrum,
    RadialFunction,
    RadialHierarchy,
    averaged_moment,
    lambda1_from_moments,
    lambda1_shooting,
    moment_spectrum,
    radial_hierarchy,
)
from .surface import (
    HypothesisReport,
    PolarMetric2D,
    ball_area,
    builtin_example_metric,
    gauss_curvature,
    hypothesis_report,
    perturbed_flat_metric,
    radial_metric,
    sphere_length,
    sphere_mean_curvature,
)
from .pde import (
    GridField,
    PolarGrid,
    apply_laplacian,
    lambda1_grid,
    make_grid,
    moments_grid,
)
from .symmetrize import (
    LevelSetProfile,
    check_equimeasurable,
    integral_identity_check,
    level_profile,
    symmetrize_field,
    symmetrized_profile_comparison,
    transplant_exit_time,
)
from .verify import (
    VerificationContext,
    VerificationReport,
    run_verification,
    verify_eigenvalue,
    verify_isoperimetric_volumes,
    verify_mean_exit,
    verify_moment_spectrum,
    verify_torsional,
)

__version__ = "0.1.0"
