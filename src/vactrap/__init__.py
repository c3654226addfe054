"""Spontaneous-emission modification and vacuum-induced trapping for a
two-level atom near the center of a wide-aperture spherical-mirror
cavity: the Fabry-Perot cap kernel, center closed forms, sphere
quadrature with a Monte-Carlo oracle, shift gradients, forces and trap
profiles.

``AngularGrid`` and ``monte_carlo_reference`` belong to the oracle suite,
``vactrap.validation``, which this package loads on their first use, so
that ``import vactrap`` and every scan run without it."""

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
from .quadrature import ConvergenceError, integrate_sphere

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


def __getattr__(name):
    if name in ("AngularGrid", "monte_carlo_reference"):
        from . import validation
        return getattr(validation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
