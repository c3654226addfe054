"""Sphere quadrature of the damping/shift direction integrals.

The integrand at direction omega_hat is

    gamma:  w * (l_odd cos^2(u) + l_even sin^2(u))
    shift:  w * (d_odd cos^2(u) + d_even sin^2(u))

with u = omega_hat . kr, w the polarization weight (1 for the isotropic
average) and the resonance factors of ``cavity.airy_factors`` evaluated
at the aberration phase ``cavity.ray_phase`` of the ray through kr.  The
mirror reflectivity applies only inside the double cap
|cos(theta)| >= cos(theta_eff).  Outside it, in the vacuum band, the
factors are exactly (1, 0), so the sample is (w, 0) whatever kr is.

Only the caps are integrated numerically; the band contributes the
position-independent constant ``cavity.aperture_weights`` to gamma and
nothing to the shift or its gradient.  Inversion omega_hat -> -omega_hat
maps the south cap onto the north one and leaves every integrand
unchanged (u enters only as u^2 and as sin(2u) omega_hat, the dipole only
as (d . omega_hat)^2), so the north cap with doubled weights carries
both.  One integrator, ``_integrate_once``, makes one pass over the
directions and weights of one of two rules:

* the sphere rule: Gauss-Legendre nodes in cos(theta) on [0, theta_eff]
  times a uniform periodic rule in azimuth, weighted by the polarization
  weight;
* the on-axis rule: the same polar nodes placed on the axis, where only
  the dipole weight depends on azimuth, weighted by its exact azimuth
  average.

Gauss-Legendre rules are built by Newton's method on the three-term
Legendre recurrence (``_leggauss``), in O(n^2) work and O(n) memory, with
no eigensolver; each rule is cached by its node count.

An ``AngularGrid`` is node counts only; the cap edge comes from the
cavity configuration.  The integrand oscillates with spatial frequency up
to |kr| across the sphere, so node counts scale linearly in |kr| (with a
floor), the polar count rounded up to a multiple of 16 so that scan
points share cached rules.  Everything here is pure; summation order is
fixed, so results are bit-stable no matter how callers parallelize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cavity import (
    FIXED,
    CavityConfig,
    DipoleOrientation,
    Position,
    Response,
    airy_factors,
    aperture_weights,
    effective_theta,
    ray_phase,
)


class ConvergenceError(RuntimeError):
    """Doubling the node counts moved the result more than the requested
    tolerance.  Carries the refined estimate and the observed change."""

    def __init__(self, message: str, estimate: Response, change: tuple):
        super().__init__(message)
        self.estimate = estimate
        self.change = change


# Newton on the Legendre recurrence converges from Tricomi's guesses in at
# most four steps for every n up to 2500; the cap only stops a runaway.
_NEWTON_TOL = 1e-15
_NEWTON_MAX_STEPS = 10


def _legendre_with_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (p_prev - x * p) / (1.0 - x * x)


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n finds the nodes in (0, 1) from Tricomi's
    initial guesses; the node 0 of odd n is exact from the start, as
    P_n(0) = 0.  The weights are 2 / ((1 - x^2) P_n'(x)^2), and both halves
    are mirrored.  O(n^2) work and O(n) memory, where the eigensolver of
    the dense companion matrix takes O(n^3) and O(n^2).
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = ((1.0 - 1.0 / (8.0 * n ** 2) + 1.0 / (8.0 * n ** 3))
         * np.cos(math.pi * (4 * k - 1) / (4 * n + 2)))
    if n % 2:
        x[-1] = 0.0
    for _ in range(_NEWTON_MAX_STEPS):
        p, dp = _legendre_with_derivative(n, x)
        step = p / dp
        x_last, x = x, x - step
        if np.all(np.abs(step) <= _NEWTON_TOL):
            break
    else:
        raise RuntimeError(
            f"Gauss-Legendre nodes for n={n} did not converge in "
            f"{_NEWTON_MAX_STEPS} Newton steps")
    # P_n' at the converged nodes by one Taylor step from the last iterate,
    # with P_n'' from Legendre's equation: this saves a recurrence pass,
    # and the weights come out closer to exact than from a fresh one
    d2p = (2.0 * x_last * dp - n * (n + 1) * p) / (1.0 - x_last * x_last)
    dp = dp - step * d2p
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    half = n // 2  # the node 0 of odd n is not mirrored
    return (np.concatenate([-x[:half], x[::-1]]),
            np.concatenate([w[:half], w[::-1]]))


def polar_node_floor(kr_norm: float) -> int:
    """Minimum Gauss-Legendre nodes per polar subdomain: at least four
    nodes per oscillation period, never fewer than 32."""
    return max(32, math.ceil(4.0 * (kr_norm + 1.0)))


def azimuth_node_floor(kr_perp: float) -> int:
    """Minimum uniform azimuth nodes, scaled by the transverse offset."""
    return max(16, math.ceil(4.0 * (kr_perp + 1.0)))


@dataclass(frozen=True)
class AngularGrid:
    """Node counts of a sphere rule: Gauss-Legendre nodes on the folded
    cap and uniform azimuth nodes.  Where the cap ends is not part of the
    grid; the integrator reads it from the cavity configuration."""

    n_polar: int
    n_azimuth: int

    def __post_init__(self):
        if self.n_polar < 1 or self.n_azimuth < 1:
            raise ValueError("node counts must be positive")

    @classmethod
    def for_position(cls, kr, config: CavityConfig) -> "AngularGrid":
        """Default grid for a position: the polar floor rounded up to a
        multiple of 16, a ladder on which doubled grids also lie, so that
        up to |kr| = 100 all grids need only 38 cached rules; and the
        azimuth floor plus a margin of 16 (the periodic rule needs ~16
        modes beyond the integrand's band edge before its spectral tail
        dies).  The counts depend on kr alone, not on ``config``."""
        kr = Position.of(kr).vec
        kr_norm = float(np.linalg.norm(kr))
        kr_perp = float(math.hypot(kr[0], kr[1]))
        return cls(
            n_polar=16 * math.ceil(polar_node_floor(kr_norm) / 16),
            n_azimuth=azimuth_node_floor(kr_perp) + 16,
        )

    def doubled(self) -> "AngularGrid":
        return AngularGrid(2 * self.n_polar, 2 * self.n_azimuth)

    def check_admissible(self, kr: np.ndarray) -> None:
        """Reject grids below the node floor for this position."""
        kr_norm = float(np.linalg.norm(kr))
        kr_perp = float(math.hypot(kr[0], kr[1]))
        if self.n_polar < polar_node_floor(kr_norm):
            raise ValueError(
                f"n_polar={self.n_polar} is below the floor "
                f"{polar_node_floor(kr_norm)} for |kr|={kr_norm:.2f}"
            )
        if self.n_azimuth < azimuth_node_floor(kr_perp):
            raise ValueError(
                f"n_azimuth={self.n_azimuth} is below the floor "
                f"{azimuth_node_floor(kr_perp)} for |kr_perp|={kr_perp:.2f}"
            )


@dataclass(frozen=True)
class IntegrandSample:
    """Pointwise value of both direction integrands."""

    direction: tuple[float, float, float]
    gamma_term: float
    shift_term: float


def _pol_weight(orientation: DipoleOrientation, ox, oy, oz):
    d = orientation.unit_vector
    if d is None:
        return np.ones_like(oz)  # isotropic: weight is identically 1
    cos = ox * d[0] + oy * d[1] + oz * d[2]
    return 1.5 * (1.0 - cos * cos)


def _cap_terms(rho: float, phi, u, with_gradient: bool = False):
    """Gamma and shift brackets inside the reflective caps.

    With ``with_gradient`` also the chain-rule pieces of d(shift)/d(kr),
    else None: ``u_part`` multiplies omega_hat (standing-wave factors),
    ``phase_part`` multiplies grad(phi) = (kr - u omega_hat)/kR, with
    d(d_odd)/dphi = 2 rho cos(2 phi) l_odd/T - 4 d_odd^2 and
    d(d_even)/dphi = -2 rho cos(2 phi) l_even/T - 4 d_even^2.
    """
    f = airy_factors(rho, phi)
    cos_u_sq = np.cos(u) ** 2
    sin_u_sq = 1.0 - cos_u_sq
    gamma = f.l_odd * cos_u_sq + f.l_even * sin_u_sq
    shift = f.d_odd * cos_u_sq + f.d_even * sin_u_sq
    if not with_gradient:
        return gamma, shift, None, None
    slope = 2.0 * rho * np.cos(2.0 * phi) / (1.0 - rho * rho)
    dd_odd = slope * f.l_odd - 4.0 * f.d_odd ** 2
    dd_even = -slope * f.l_even - 4.0 * f.d_even ** 2
    phase_part = dd_odd * cos_u_sq + dd_even * sin_u_sq
    u_part = (f.d_even - f.d_odd) * np.sin(2.0 * u)
    return gamma, shift, u_part, phase_part


def _sample_terms(dirs: np.ndarray, kr: np.ndarray,
                  orientation: DipoleOrientation, config: CavityConfig,
                  phi0: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized integrand over an (n, 3) array of unit directions."""
    w = _pol_weight(orientation, dirs[:, 0], dirs[:, 1], dirs[:, 2])
    gamma = w.copy()
    shift = np.zeros_like(w)
    inside = np.abs(dirs[:, 2]) >= math.cos(effective_theta(config))
    if np.any(inside):
        u = dirs[inside] @ kr
        phi = ray_phase(phi0, float(kr @ kr), u, config.k_r_mirror)
        g, s, _, _ = _cap_terms(config.rho, phi, u)
        gamma[inside] = w[inside] * g
        shift[inside] = w[inside] * s
    return gamma, shift


def integrand_at(omega_hat, kr, orientation: DipoleOrientation,
                 config: CavityConfig, phi0: float) -> IntegrandSample:
    """Evaluate both integrands for a single direction.

    The reflectivity seen by the ray is rho inside the double cap and 0
    outside, where the sample reduces exactly to (w, 0).
    """
    omega = np.asarray(omega_hat, dtype=float)
    if abs(omega @ omega - 1.0) > 1e-9:
        raise ValueError("omega_hat must be a unit vector")
    kr = Position.of(kr).vec
    gamma, shift = _sample_terms(omega[None, :], kr, orientation, config, phi0)
    return IntegrandSample(
        direction=(omega[0], omega[1], omega[2]),
        gamma_term=float(gamma[0]),
        shift_term=float(shift[0]),
    )


def _cap_rules(n_polar: int, c_edge: float):
    """Gauss-Legendre nodes and weights in c = cos(theta) on the north
    reflective cap [c_edge, 1], with the weights doubled: the south cap
    is its mirror image under omega_hat -> -omega_hat, where every
    integrand takes the same value."""
    x, w_gl = _leggauss(n_polar)
    return (0.5 * (1.0 - c_edge) * x + 0.5 * (1.0 + c_edge),
            (1.0 - c_edge) * w_gl)


def _sphere_rule(orientation, grid, c_edge):
    """(ox, oy, oz, weight) on the n_polar x n_azimuth grid of the folded
    cap; the weight is the polar weight times the azimuth step times the
    polarization weight, over the 4 pi of the full solid angle."""
    az = 2.0 * math.pi * np.arange(grid.n_azimuth) / grid.n_azimuth
    w_az = 0.5 / grid.n_azimuth  # (2 pi / n_azimuth) / (4 pi)
    c, wc = _cap_rules(grid.n_polar, c_edge)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    ox = s[:, None] * np.cos(az)[None, :]
    oy = s[:, None] * np.sin(az)[None, :]
    oz = np.broadcast_to(c[:, None], ox.shape)
    return ox, oy, oz, (wc * w_az)[:, None] * _pol_weight(
        orientation, ox, oy, oz)


def _axis_rule(orientation, grid, c_edge):
    """The polar nodes of the folded cap on the axis (ox = oy = 0).  There
    only the dipole weight depends on azimuth; its azimuth average is
    1.5 (1 - a c^2 - (1 - a) s^2 / 2) with a = d_z^2, and the azimuth
    integral over 4 pi leaves a factor 1/2."""
    a = orientation.axial_fraction
    c, wc = _cap_rules(grid.n_polar, c_edge)
    if a is None:
        w_pol = 1.0
    else:
        s_sq = np.clip(1.0 - c * c, 0.0, None)
        w_pol = 1.5 * (1.0 - a * c * c - (1.0 - a) * s_sq / 2.0)
    return 0.0, 0.0, c, wc * w_pol / 2.0


def _integrate_once(kr, orientation, config, phi0, grid, with_gradient,
                    use_fast_path):
    """The folded cap by quadrature, in one pass through the kernel, plus
    the vacuum band's closed-form share.

    The cap edge is read once from the configuration.  On the axis, with
    the fast path allowed and an orientation that is symmetric about the
    axis, the on-axis rule replaces the sphere rule; everything after the
    rule is the same.  The gradient is d(shift)/d(kr) = sum of
    weight * (u_part omega_hat + phase_part (kr - u omega_hat) / kR),
    whose integrand is also even under omega_hat -> -omega_hat.
    """
    c_edge = math.cos(effective_theta(config))
    on_axis = kr[0] == 0.0 and kr[1] == 0.0
    if use_fast_path and on_axis and orientation.kind != FIXED:
        rule = _axis_rule
    else:
        rule = _sphere_rule
    kR = config.k_r_mirror
    ox, oy, oz, weight = rule(orientation, grid, c_edge)
    u = ox * kr[0] + oy * kr[1] + oz * kr[2]
    phi = ray_phase(phi0, float(kr @ kr), u, kR)
    g, sh, u_part, phase_part = _cap_terms(config.rho, phi, u, with_gradient)
    grad = None
    if with_gradient:
        grad = np.array([
            np.sum(weight * (u_part * o + phase_part * (k - u * o) / kR))
            for o, k in zip((ox, oy, oz), kr)])
    band, _ = aperture_weights(orientation, c_edge)
    return band + np.sum(weight * g), np.sum(weight * sh), grad


def integrate_sphere(kr, orientation: DipoleOrientation, config: CavityConfig,
                     phi0: float, grid: AngularGrid | None = None,
                     tolerance: float | None = None,
                     with_gradient: bool = False,
                     use_fast_path: bool = True) -> Response:
    """Average both integrands over the full solid angle.

    With a ``tolerance``, the grid is doubled once and the refined result
    is returned; if the two estimates disagree by more than the tolerance
    (relative, floored at 1 in absolute terms) a ConvergenceError is
    raised carrying the refined estimate.
    """
    kr = Position.of(kr).vec
    if grid is None:
        grid = AngularGrid.for_position(kr, config)
    grid.check_admissible(kr)

    gamma, shift, grad = _integrate_once(kr, orientation, config, phi0, grid,
                                         with_gradient, use_fast_path)
    if tolerance is not None:
        gamma2, shift2, grad2 = _integrate_once(
            kr, orientation, config, phi0, grid.doubled(), with_gradient,
            use_fast_path)
        d_gamma = abs(gamma2 - gamma)
        d_shift = abs(shift2 - shift)
        ok = (d_gamma <= tolerance * max(1.0, abs(gamma2))
              and d_shift <= tolerance * max(1.0, abs(shift2)))
        if with_gradient:
            d_grad = float(np.linalg.norm(grad2 - grad))
            ok = ok and d_grad <= tolerance * max(1.0, float(np.linalg.norm(grad2)))
        gamma, shift, grad = gamma2, shift2, grad2
        if not ok:
            estimate = Response(float(gamma), float(shift), grad)
            raise ConvergenceError(
                f"sphere integral did not converge at |kr|="
                f"{float(np.linalg.norm(kr)):.2f}: doubling changed "
                f"(gamma, shift) by ({d_gamma:.3e}, {d_shift:.3e}) "
                f"with tolerance {tolerance:g}",
                estimate=estimate,
                change=(d_gamma, d_shift),
            )
    return Response(float(gamma), float(shift), grad)


def monte_carlo_reference(kr, orientation: DipoleOrientation,
                          config: CavityConfig, phi0: float,
                          n_samples: int, seed: int
                          ) -> tuple[Response, tuple[float, float]]:
    """Uniform-on-sphere Monte-Carlo estimate of both integrals.

    Returns the mean Response and the standard error of each component.
    Deterministic for a fixed seed; intended as an independent oracle for
    integrate_sphere, not for production use.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10^4")
    kr = Position.of(kr).vec
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n_samples)
    az = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    dirs = np.column_stack([s * np.cos(az), s * np.sin(az), z])
    gamma, shift = _sample_terms(dirs, kr, orientation, config, phi0)
    se_gamma = float(np.std(gamma, ddof=1) / math.sqrt(n_samples))
    se_shift = float(np.std(shift, ddof=1) / math.sqrt(n_samples))
    return (
        Response(float(np.mean(gamma)), float(np.mean(shift))),
        (se_gamma, se_shift),
    )
