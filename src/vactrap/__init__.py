"""Spontaneous-emission modification and vacuum-induced trapping for a
two-level atom near the center of a wide-aperture spherical-mirror
cavity: the Fabry-Perot cap kernel, center closed forms, sphere
quadrature with a Monte-Carlo oracle, shift gradients, forces and trap
profiles."""

from .cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    Position,
    Response,
    ValidityWarning,
    cap_brackets,
    center_gamma,
    center_shift,
    detuning_to_phase,
    effective_theta,
    phase_fwhm,
)
from .fields import (
    ForceResult,
    ScanResult,
    ScanSpec,
    WeakExcitationError,
    excited_population,
    force_at,
    response_at,
    run_scan,
    trap_minimum,
)
from .quadrature import (
    AngularGrid,
    ConvergenceError,
    integrate_sphere,
    monte_carlo_reference,
)

__version__ = "0.1.0"

__all__ = [
    "AngularGrid",
    "CavityConfig",
    "ConvergenceError",
    "Detuning",
    "DipoleOrientation",
    "ForceResult",
    "Position",
    "Response",
    "ScanResult",
    "ScanSpec",
    "ValidityWarning",
    "WeakExcitationError",
    "cap_brackets",
    "center_gamma",
    "center_shift",
    "detuning_to_phase",
    "effective_theta",
    "excited_population",
    "force_at",
    "integrate_sphere",
    "monte_carlo_reference",
    "phase_fwhm",
    "response_at",
    "run_scan",
    "trap_minimum",
    "__version__",
]
