"""Domain types, Fabry-Perot factors and cavity-center closed forms.

Geometry: two spherical mirror caps (amplitude reflectivity ``rho``,
power transmission ``T = 1 - rho**2``) share a common center; each cap
subtends the half-aperture angle ``theta_m`` from the cavity axis (z).
A ray through a point near the center retro-focuses onto it, so every
direction inside the double cap behaves like its own two-mirror
interferometer.

Unit conventions used across the package:

* positions are the dimensionless products k*x, so one optical
  wavelength is 2*pi;
* damping rates and level shifts are ratios to the free-space damping
  rate (``gamma_ratio = Gamma/Gamma_vac``, ``shift_ratio``);
* ``phi`` is the round-trip half phase of a ray measured from the
  nearest odd-mode resonance: phi = 0 puts the atomic line exactly on a
  resonance whose standing wave has an anti-node at the center.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Validity region for positions, in units of 1/k.  The ray model is
# trustworthy up to ~100/k off center; beyond that we warn, and past the
# hard limit we refuse.
POSITION_WARN_RADIUS = 100.0
POSITION_MAX_RADIUS = 300.0

# Asymptotic mirror formulas assume k*R is large.
MIN_K_R_MIRROR = 1.0e3

PARALLEL = "parallel"
PERPENDICULAR = "perpendicular"
ISOTROPIC = "isotropic"
FIXED = "fixed"

_X_HAT = (1.0, 0.0, 0.0)
_Z_HAT = (0.0, 0.0, 1.0)


class ValidityWarning(UserWarning):
    """Inputs outside the regime where the ray model is accurate."""


@dataclass(frozen=True)
class CavityConfig:
    """Mirror geometry and reflectivity of the symmetric double cap."""

    rho: float
    k_r_mirror: float = 8.0e4
    theta_m: float = math.pi / 4
    apply_diffraction_correction: bool = False

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must satisfy 0 <= rho < 1, got {self.rho}")
        if not (math.isfinite(self.k_r_mirror)
                and self.k_r_mirror >= MIN_K_R_MIRROR):
            raise ValueError(
                f"k_r_mirror must be finite and >= {MIN_K_R_MIRROR:g} for the "
                f"asymptotic mirror model, got {self.k_r_mirror}"
            )
        if not 0.0 < self.theta_m < math.pi / 2:
            raise ValueError(
                f"theta_m must lie in (0, pi/2), got {self.theta_m}"
            )
        if self.apply_diffraction_correction:
            if self.theta_m - self.diffraction_angle() <= 0.0:
                raise ValueError(
                    "diffraction correction removes the whole aperture: "
                    f"theta_m={self.theta_m} <= delta_theta="
                    f"{self.diffraction_angle()}"
                )

    @property
    def transmission(self) -> float:
        """Power transmission T; lossless mirrors, so T = 1 - rho**2."""
        return 1.0 - self.rho * self.rho

    def diffraction_angle(self) -> float:
        """Aperture reduction delta_theta = 1/sqrt(kR*T) for edge-ray loss."""
        return 1.0 / math.sqrt(self.k_r_mirror * self.transmission)


def effective_theta(config: CavityConfig) -> float:
    """Half-aperture actually used: theta_m, minus the diffraction loss
    angle when the correction is enabled."""
    if not config.apply_diffraction_correction:
        return config.theta_m
    theta = config.theta_m - config.diffraction_angle()
    if theta <= 0.0:
        raise ValueError("effective aperture is not positive")
    return theta


@dataclass(frozen=True)
class DipoleOrientation:
    """Dipole direction: along the axis, perpendicular to it, isotropic
    (orientation-averaged), or an arbitrary fixed unit vector."""

    kind: str
    d_hat: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.kind not in (PARALLEL, PERPENDICULAR, ISOTROPIC, FIXED):
            raise ValueError(f"unknown orientation kind {self.kind!r}")
        if self.kind == FIXED:
            if self.d_hat is None:
                raise ValueError("fixed orientation requires a direction")
            norm = math.sqrt(sum(x * x for x in self.d_hat))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(
                    f"fixed dipole direction must be unit norm, |d|={norm!r}"
                )
        elif self.d_hat is not None:
            raise ValueError(f"{self.kind} orientation takes no vector")

    @classmethod
    def parallel(cls) -> "DipoleOrientation":
        return cls(PARALLEL)

    @classmethod
    def perpendicular(cls) -> "DipoleOrientation":
        return cls(PERPENDICULAR)

    @classmethod
    def isotropic(cls) -> "DipoleOrientation":
        return cls(ISOTROPIC)

    @classmethod
    def fixed(cls, d_hat) -> "DipoleOrientation":
        x, y, z = (float(v) for v in d_hat)
        return cls(FIXED, (x, y, z))

    @property
    def unit_vector(self) -> np.ndarray | None:
        """Concrete dipole direction, or None for the isotropic average.

        'perpendicular' is represented by the x axis; for on-axis
        positions any perpendicular direction gives the same result by
        rotational symmetry.
        """
        if self.kind == ISOTROPIC:
            return None
        if self.kind == PARALLEL:
            return np.array(_Z_HAT)
        if self.kind == PERPENDICULAR:
            return np.array(_X_HAT)
        return np.array(self.d_hat)

    @property
    def axial_fraction(self) -> float | None:
        """d_z**2, the share of the dipole along the cavity axis, or None
        for the isotropic average."""
        d = self.unit_vector
        return None if d is None else float(d[2] * d[2])


def _outside_stacklevel() -> int:
    """``stacklevel`` of a warning issued by the caller of this function
    that names the innermost frame outside the package."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get(
            "__name__", "").startswith(__package__ + "."):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class Position:
    """Atom displacement from the cavity center, in units of 1/k."""

    kr: tuple[float, float, float]

    def __post_init__(self):
        bad = [f"{name}={x}" for name, x in zip(("kx", "ky", "kz"), self.kr)
               if not math.isfinite(x)]
        if bad:
            raise ValueError(
                f"position components must be finite, got {', '.join(bad)}")
        norm = math.sqrt(sum(x * x for x in self.kr))
        if norm > POSITION_MAX_RADIUS:
            raise ValueError(
                f"|kr| = {norm:.3f} exceeds the supported region "
                f"(<= {POSITION_MAX_RADIUS:g})"
            )
        if norm > POSITION_WARN_RADIUS:
            # one message, attributed to the caller outside the package:
            # the default filter then shows it once, not once per point
            warnings.warn(
                f"positions beyond ~{POSITION_WARN_RADIUS:g}/k; "
                "the ray model degrades out there",
                ValidityWarning,
                stacklevel=_outside_stacklevel(),
            )

    @classmethod
    def of(cls, value) -> "Position":
        if isinstance(value, Position):
            return value
        x, y, z = (float(v) for v in np.asarray(value, dtype=float))
        return cls((x, y, z))

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.kr)


@dataclass(frozen=True)
class Detuning:
    """Atom-cavity detuning (omega_0 - omega_cav) in cavity linewidths.

    The linewidth is the FWHM of the resonance peak of the odd-mode
    damping factor, so one linewidth of detuning advances the round-trip
    half phase by ``phase_fwhm(rho)``.
    """

    linewidths: float

    def phase(self, rho: float) -> float:
        if rho == 0.0:
            # free space has no resonance to be detuned from
            return 0.0
        return detuning_to_phase(self.linewidths, rho)


@dataclass(frozen=True, eq=False)
class Response:
    """(Gamma/Gamma_vac, Delta'/Gamma_vac) at one point, with the shift
    gradient d(shift_ratio)/d(kr) when it was requested.  For a block of
    points from ``integrate_sphere`` the fields are arrays, one entry (or
    gradient row) per point."""

    gamma_ratio: float
    shift_ratio: float
    shift_gradient: np.ndarray | None = None


class AiryFactors(NamedTuple):
    """Resonance factors of the two standing-wave families.

    l_* are the damping (transmission
    resonance) factors, d_* the dispersive ones; 'odd' modes have an
    anti-node at the center, 'even' modes a node.
    """

    l_odd: float | np.ndarray
    l_even: float | np.ndarray
    d_odd: float | np.ndarray
    d_even: float | np.ndarray


def airy_factors(rho: float, phi) -> AiryFactors:
    """Evaluate the four resonance factors at round-trip half phase phi.

    l_odd = T/|1-rho e^{2i phi}|^2, l_even = T/|1+rho e^{2i phi}|^2,
    d_odd = rho sin(2 phi)/|1-rho e^{2i phi}|^2 and d_even carries the
    opposite sign with the even-mode denominator.  phi may be an array.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must satisfy 0 <= rho < 1, got {rho}")
    phi = np.asarray(phi, dtype=float)
    t = 1.0 - rho * rho
    sin_phi_sq = np.sin(phi) ** 2
    denom_odd = (1.0 - rho) ** 2 + 4.0 * rho * sin_phi_sq
    denom_even = (1.0 + rho) ** 2 - 4.0 * rho * sin_phi_sq
    sin_2phi = np.sin(2.0 * phi)
    return AiryFactors(
        l_odd=t / denom_odd,
        l_even=t / denom_even,
        d_odd=rho * sin_2phi / denom_odd,
        d_even=-rho * sin_2phi / denom_even,
    )


def ray_phase(phi0, kr_sq, u, k_r_mirror: float):
    """Round-trip half phase of the ray through a point at squared
    distance kr_sq from the center, with u = omega_hat . kr.

    Rays with a nonzero impact parameter pick up the spherical-aberration
    phase (|kr|^2 - u^2) / (2 kR) on top of phi0.  u may be an array.
    """
    return phi0 + (kr_sq - u * u) / (2.0 * k_r_mirror)


def phase_fwhm(rho: float) -> float:
    """Full width (in round-trip half phase) at half maximum of the
    odd-mode damping resonance: 2 arcsin((1-rho)/(2 sqrt(rho)))."""
    if rho <= 0.0:
        raise ValueError("linewidth is undefined without reflectivity")
    arg = (1.0 - rho) / (2.0 * math.sqrt(rho))
    if arg > 1.0:
        raise ValueError(
            f"reflectivity {rho} is too low for a resolved resonance "
            "(half-width argument exceeds 1)"
        )
    return 2.0 * math.asin(arg)


def detuning_to_phase(linewidths: float, rho: float) -> float:
    """Map a detuning in cavity linewidths to the phase offset phi_0.

    Positive detuning (atom above the cavity resonance) gives a positive
    phase offset.  Zero detuning maps to zero for any reflectivity,
    including rho = 0 where the linewidth itself is undefined.
    """
    if linewidths == 0.0:
        return 0.0
    phi0 = linewidths * phase_fwhm(rho)
    if not abs(phi0) <= math.pi / 2:
        raise ValueError(
            f"detuning of {linewidths} linewidths leaves the "
            "single-resonance window (|phi0| > pi/2)"
        )
    return phi0


def aperture_weights(orientation: DipoleOrientation,
                     cos_theta: float) -> tuple[float, float]:
    """Polarization-weighted solid-angle shares (vacuum band, mirror caps)
    of the sphere split at |cos(theta)| = cos_theta.

    With a = d_z**2 the band share is
    1.5 (c - a c^3/3 - (1 - a)(c - c^3/3)/2) = c (1 + (1 - c^2) k),
    k = (3a - 1)/4, and the isotropic average has k = 0, so exactly c.
    The two shares sum to 1 for every orientation, so rho = 0 reproduces
    free space identically.
    """
    c = cos_theta
    a = orientation.axial_fraction
    k = 0.0 if a is None else (3.0 * a - 1.0) / 4.0
    vac = c * (1.0 + (1.0 - c * c) * k)
    cav = (1.0 - c) * (1.0 - c * (1.0 + c) * k)
    return vac, cav


def center_gamma(orientation: DipoleOrientation, config: CavityConfig, phi0):
    """Damping ratio Gamma(0)/Gamma_vac at the cavity center.

    Only odd modes contribute at the center (even modes have a node
    there), so the result is vacuum_weight + cavity_weight * l_odd.  The
    weights depend on the dipole only through d_z**2, as the caps are
    symmetric about the axis, so this holds for every orientation,
    fixed dipoles included.  phi0 may be an array for detuning scans.
    """
    vac, cav = aperture_weights(orientation,
                                math.cos(effective_theta(config)))
    return vac + cav * airy_factors(config.rho, phi0).l_odd


def center_shift(orientation: DipoleOrientation, config: CavityConfig, phi0):
    """Level-shift ratio Delta'(0)/Gamma_vac at the cavity center, for
    every orientation as ``center_gamma``."""
    _, cav = aperture_weights(orientation, math.cos(effective_theta(config)))
    return cav * airy_factors(config.rho, phi0).d_odd
