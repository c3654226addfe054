"""Domain types, the Fabry-Perot cap kernel and the center closed forms.

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


class _Record:
    """Base of the package's records.  The class names its fields, in
    constructor order, in ``_fields``; they give the repr
    ``Name(field=value, ...)`` and ``==``, which holds between records of
    the same class with equal fields.  A record may change, so it does
    not hash."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class _Frozen(_Record):
    """A record whose fields ``__init__`` sets once, by ``_set``:
    assigning or deleting an attribute then raises AttributeError, and
    the record hashes by its fields.  No ``__slots__``: the fields live in
    the instance ``__dict__``, so unpickling fills it without going
    through ``__setattr__``."""

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CavityConfig(_Frozen):
    """Mirror geometry and reflectivity of the symmetric double cap."""

    _fields = ("rho", "k_r_mirror", "theta_m", "apply_diffraction_correction")

    def __init__(self, rho: float, k_r_mirror: float = 8.0e4,
                 theta_m: float = math.pi / 4,
                 apply_diffraction_correction: bool = False):
        self._set(rho=rho, k_r_mirror=k_r_mirror, theta_m=theta_m,
                  apply_diffraction_correction=apply_diffraction_correction)
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
    angle when the correction is enabled (positive: ``CavityConfig``
    refuses a correction that removes the whole aperture)."""
    if not config.apply_diffraction_correction:
        return config.theta_m
    return config.theta_m - config.diffraction_angle()


class DipoleOrientation(_Frozen):
    """Dipole direction: along the axis, perpendicular to it, isotropic
    (orientation-averaged), or an arbitrary fixed unit vector."""

    _fields = ("kind", "d_hat")

    def __init__(self, kind: str,
                 d_hat: tuple[float, float, float] | None = None):
        self._set(kind=kind, d_hat=d_hat)
        if self.kind not in (PARALLEL, PERPENDICULAR, ISOTROPIC, FIXED):
            raise ValueError(f"unknown orientation kind {self.kind!r}")
        if self.kind == FIXED:
            if self.d_hat is None:
                raise ValueError("fixed orientation requires a direction")
            norm = math.sqrt(sum(x * x for x in self.d_hat))
            if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
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


def _radius(kr):
    """|kr| of a position (3,) or of each row of a block (P, 3), by the
    one formula that admits positions and sizes grids: the squares summed
    in order, so a row gets the same bits alone and in a block."""
    kr = np.asarray(kr, dtype=float)
    x, y, z = kr[..., 0], kr[..., 1], kr[..., 2]
    with np.errstate(over="ignore"):  # an overflow is out of range anyway
        return np.sqrt(x * x + y * y + z * z)


def _admit(kr, block: bool = True):
    """(kr, radii): a point (3,), or with ``block`` a (P, 3) block with
    P >= 1, as float rows (P, 3), and ``_radius`` of each row.

    The one admission of positions.  Any other shape, a component that is
    not finite and a radius beyond POSITION_MAX_RADIUS raise ValueError,
    for the first bad row.  A radius beyond POSITION_WARN_RADIUS warns
    once a call, for the farthest row, attributed to the caller outside
    the package: the default filter then shows it once, not once per
    point.  A Position was admitted when it was built and is not checked
    again."""
    if isinstance(kr, Position):
        return np.array([kr.kr]), _radius([kr.kr])
    kr = np.asarray(kr, dtype=float)
    if kr.shape != (3,) and not (block and kr.ndim == 2):
        raise ValueError(f"a position has shape (3,), got {kr.shape}")
    if len(kr) == 0 or kr.shape[-1] != 3:
        raise ValueError(f"a block of positions has shape (P, 3), got "
                         f"{kr.shape}")
    kr = kr.reshape(-1, 3)
    radii = _radius(kr)
    # the first row that is not finite or is out of range, if any
    for i in np.flatnonzero(~(radii <= POSITION_MAX_RADIUS))[:1]:
        bad = ", ".join(f"k{a}={x}" for a, x in zip("xyz", kr[i].tolist())
                        if not math.isfinite(x))
        if bad:
            raise ValueError(f"position components must be finite, got {bad}")
        raise ValueError(f"|kr| = {float(radii[i])!r} exceeds the supported "
                         f"region (<= {POSITION_MAX_RADIUS:g})")
    if radii.max() > POSITION_WARN_RADIUS:
        warnings.warn(f"positions beyond ~{POSITION_WARN_RADIUS:g}/k; "
                      "the ray model degrades out there", ValidityWarning,
                      stacklevel=_outside_stacklevel())
    return kr, radii


class Position(_Frozen):
    """Atom displacement from the cavity center, in units of 1/k."""

    _fields = ("kr",)

    def __init__(self, kr: tuple[float, float, float]):
        self._set(kr=kr)
        _admit(kr, block=False)

    @classmethod
    def of(cls, value) -> "Position":
        """The Position itself, or the Position of a value of shape (3,);
        any other shape raises ValueError naming it."""
        if isinstance(value, Position):
            return value
        kr = np.asarray(value, dtype=float)  # __init__ checks its shape
        return cls(tuple(kr.tolist()) if kr.ndim == 1 else kr)

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.kr)


class Detuning(_Frozen):
    """Atom-cavity detuning (omega_0 - omega_cav) in cavity linewidths.

    The linewidth is the FWHM of the resonance peak of the odd-mode
    damping factor, so one linewidth of detuning advances the round-trip
    half phase by ``phase_fwhm(rho)``.  A count that is not finite is
    refused when the detuning is built.
    """

    _fields = ("linewidths",)

    def __init__(self, linewidths: float):
        self._set(linewidths=linewidths)
        if not math.isfinite(self.linewidths):
            raise ValueError(f"detuning must be finite, got {self.linewidths}")

    def phase(self, rho: float) -> float:
        """``detuning_to_phase`` of this detuning: 0.0 in free space."""
        return detuning_to_phase(self.linewidths, rho)


class Response(_Frozen):
    """(Gamma/Gamma_vac, Delta'/Gamma_vac) at one point, with the shift
    gradient d(shift_ratio)/d(kr) when it was requested.  For a block of
    points from ``integrate_sphere`` the fields are arrays, one entry (or
    gradient row) per point."""

    _fields = ("gamma_ratio", "shift_ratio", "shift_gradient")
    # compared and hashed by identity: the fields may be arrays
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, gamma_ratio: float, shift_ratio: float,
                 shift_gradient: np.ndarray | None = None):
        self._set(gamma_ratio=gamma_ratio, shift_ratio=shift_ratio,
                  shift_gradient=shift_gradient)


def cap_brackets(rho: float, phi, u=0.0, with_gradient: bool = False):
    """The damping and shift brackets of a ray inside the reflective caps:
    the ray's own two-mirror interferometer at round-trip half phase phi,
    with standing-wave phase u = omega_hat . kr.  phi and u may be arrays.

    The odd modes (an anti-node at the center, weight cos^2 u) and the
    even modes (a node, sin^2 u) share one denominator,
    D = |1 - rho^2 e^{4i phi}|^2 = T^2 + 4 rho^2 sin^2(2 phi), a sum of
    squares that cannot cancel, with T = 1 - rho^2 taken as
    (1 - rho)(1 + rho):

        gamma = T (1 + rho^2 + 2 rho cos(2u) cos(2 phi)) / D
        shift = rho sin(2 phi) ((1 + rho^2) cos(2u) + 2 rho cos(2 phi)) / D

    At u = 0 they are the odd-mode Airy factors T / |1 - rho e^{2i phi}|^2
    and rho sin(2 phi) / |1 - rho e^{2i phi}|^2, the center's.  Returns
    (gamma, shift, u_part, phase_part): with ``with_gradient`` the
    chain-rule pieces of d(shift)/d(kr), else None.  ``u_part`` is
    d(shift)/du, which multiplies omega_hat, and ``phase_part`` is
    d(shift)/dphi, which multiplies grad(phi) = (kr - u omega_hat) / kR.
    A rho outside [0, 1) raises ValueError.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must satisfy 0 <= rho < 1, got {rho}")
    phi, u = np.asarray(phi, dtype=float), np.asarray(u, dtype=float)
    t, q = (1.0 - rho) * (1.0 + rho), 1.0 + rho * rho
    # c + i s = 2 rho e^{2i phi}, so D = t^2 + s^2
    c, s = 2.0 * rho * np.cos(2.0 * phi), 2.0 * rho * np.sin(2.0 * phi)
    cos_2u = np.cos(2.0 * u)
    denom = t * t + s * s
    mix = q * cos_2u + c
    gamma = t * (q + c * cos_2u) / denom
    shift = 0.5 * s * mix / denom
    if not with_gradient:
        return gamma, shift, None, None
    u_part = -q * s * np.sin(2.0 * u) / denom
    phase_part = (c * mix - s * s - 4.0 * s * c * shift) / denom
    return gamma, shift, u_part, phase_part


def ray_phase(phi0, kr_sq, u, k_r_mirror: float):
    """Round-trip half phase of the ray through a point at squared
    distance kr_sq from the center, with u = omega_hat . kr.

    Rays with a nonzero impact parameter pick up the spherical-aberration
    phase (|kr|^2 - u^2) / (2 kR) on top of phi0.  u may be an array.
    """
    return phi0 + (kr_sq - u * u) / (2.0 * k_r_mirror)


def _half_width(rho: float) -> float:
    """delta = (1 - rho) / (2 sqrt(rho)), inf at rho = 0: the sine of the
    half width in round-trip half phase of the odd-mode damping
    resonance, so the half width itself for a narrow line, and the one
    scale by which the finesse sizes phases and node counts."""
    return (1.0 - rho) / (2.0 * math.sqrt(rho)) if rho > 0.0 else math.inf


def phase_fwhm(rho: float) -> float:
    """Full width (in round-trip half phase) at half maximum of the
    odd-mode damping resonance: 2 arcsin(delta), delta = ``_half_width``."""
    if rho <= 0.0:
        raise ValueError("linewidth is undefined without reflectivity")
    arg = _half_width(rho)
    if arg > 1.0:
        raise ValueError(
            f"reflectivity {rho} is too low for a resolved resonance "
            "(half-width argument exceeds 1)"
        )
    return 2.0 * math.asin(arg)


def detuning_to_phase(linewidths, rho: float):
    """Map a detuning in cavity linewidths, a number or an array, to the
    phase offset phi_0 = linewidths * 2 arcsin(delta), a float or an
    array of floats.

    Positive detuning (atom above the cavity resonance) gives a positive
    phase offset.  A zero detuning maps to +0.0 for any reflectivity, and
    every detuning to +0.0 in free space (rho = 0), which has no
    resonance to be detuned from.  Otherwise a rho without a resolved
    resonance (delta > 1) raises ``phase_fwhm``'s ValueError, and so does
    the first detuning outside the single-resonance window
    |phi_0| <= pi/2.
    """
    lw = np.asarray(linewidths, dtype=float)
    phi0 = np.zeros(lw.shape)
    if rho != 0.0 and lw.any():
        phi0 = np.where(lw == 0.0, 0.0, lw * phase_fwhm(rho))
        for i in np.flatnonzero(~(np.abs(phi0) <= math.pi / 2))[:1]:
            raise ValueError(
                f"detuning of {lw.flat[i].item()} linewidths leaves the "
                "single-resonance window (|phi0| > pi/2)"
            )
    return phi0 if lw.ndim else phi0.item()


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

    At the center u = 0, so every ray sees only the odd modes (the even
    ones have a node there) and the result is vacuum_weight +
    cavity_weight * the damping bracket of ``cap_brackets`` at u = 0, the
    kernel that the quadrature integrates.  The weights depend on the
    dipole only through d_z**2, as the caps are symmetric about the
    axis, so this holds for every orientation, fixed dipoles included.
    phi0 may be an array for detuning scans.
    """
    vac, cav = aperture_weights(orientation,
                                math.cos(effective_theta(config)))
    return vac + cav * cap_brackets(config.rho, phi0)[0]


def center_shift(orientation: DipoleOrientation, config: CavityConfig, phi0):
    """Level-shift ratio Delta'(0)/Gamma_vac at the cavity center: the
    cavity weight times the shift bracket of ``cap_brackets`` at u = 0,
    for every orientation as ``center_gamma``."""
    _, cav = aperture_weights(orientation, math.cos(effective_theta(config)))
    return cav * cap_brackets(config.rho, phi0)[1]
