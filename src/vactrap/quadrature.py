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
directions and weights of a rule, and one rule serves every position:
the zonal rule, whose nodes are rings about kr.  On such a ring u is
constant, so its integral over the arc inside the cap is closed form, and
what is left is a 1-D Gauss-Legendre integral over the ring angle in two
panels (a Funk-Hecke reduction restricted to a cap; Atkinson & Han,
Spherical Harmonics and Approximations on the Unit Sphere, LNM 2044).
The 2-D rule, Gauss-Legendre in cos(theta) times a uniform azimuth rule,
is kept only as the independent reference that ``validate`` and the
tests compare the zonal rule with.

Gauss-Legendre rules are built by Newton's method on the three-term
Legendre recurrence (``_leggauss``), in O(n^2) work and O(n) memory, with
no eigensolver; each rule is cached by its node count.

An ``AngularGrid`` is node counts only; the cap edge comes from the
cavity configuration.  The integrand oscillates with spatial frequency up
to |kr| across the sphere, so node counts scale linearly in |kr| (with a
floor); the polar count also grows with the resonance linewidths that the
aberration phase sweeps, and is rounded up to a multiple of 16 so that
scan points share cached rules.  Everything here is pure; summation
order is fixed, so results are bit-stable no matter how callers
parallelize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cavity import (
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
    """Minimum Gauss-Legendre nodes per polar panel: at least four nodes
    per oscillation period, never fewer than 32."""
    return max(32, math.ceil(4.0 * (kr_norm + 1.0)))


def azimuth_node_floor(kr_perp: float) -> int:
    """Minimum uniform azimuth nodes, scaled by the transverse offset."""
    return max(16, math.ceil(4.0 * (kr_perp + 1.0)))


@dataclass(frozen=True)
class AngularGrid:
    """Node counts: Gauss-Legendre nodes per panel of the zonal rule (and
    in cos(theta) for the 2-D reference rule), and uniform azimuth nodes
    of the 2-D rule.  Where the cap ends is not part of the grid; the
    integrator reads it from the cavity configuration."""

    n_polar: int
    n_azimuth: int

    def __post_init__(self):
        if self.n_polar < 1 or self.n_azimuth < 1:
            raise ValueError("node counts must be positive")

    @classmethod
    def for_position(cls, kr, config: CavityConfig) -> "AngularGrid":
        """Default grid for a position and mirrors.

        n_polar is the polar floor, or four nodes per resonance linewidth
        that the aberration phase sweeps where that is more:
        2 |kr|^2 sqrt(rho) / (kR (1 - rho)), as the sweep is at most
        |kr|^2 / (2 kR) and a linewidth about (1 - rho) / sqrt(rho) in
        phase.  With the default mirrors that term stays below the floor.
        n_polar is rounded up to a multiple of 16, a ladder on which
        doubled grids also lie, so that up to |kr| = 100 the default
        grids need only 38 cached rules.  n_azimuth, read by the 2-D
        reference rule only, is the azimuth floor plus a margin of 16
        (the periodic rule needs ~16 modes beyond the integrand's band
        edge before its spectral tail dies)."""
        kr = Position.of(kr).vec
        kr_norm = float(np.linalg.norm(kr))
        kr_perp = float(math.hypot(kr[0], kr[1]))
        sweep = (2.0 * kr_norm ** 2 * math.sqrt(config.rho)
                 / (config.k_r_mirror * (1.0 - config.rho)))
        n_polar = max(polar_node_floor(kr_norm), math.ceil(sweep))
        return cls(
            n_polar=16 * math.ceil(n_polar / 16),
            n_azimuth=azimuth_node_floor(kr_perp) + 16,
        )

    def doubled(self) -> "AngularGrid":
        return AngularGrid(2 * self.n_polar, 2 * self.n_azimuth)

    def check_admissible(self, kr: np.ndarray) -> None:
        """Reject grids below the polar node floor for this position (the
        azimuth count is read by the 2-D reference rule only)."""
        kr_norm = float(np.linalg.norm(kr))
        if self.n_polar < polar_node_floor(kr_norm):
            raise ValueError(
                f"n_polar={self.n_polar} is below the floor "
                f"{polar_node_floor(kr_norm)} for |kr|={kr_norm:.2f}"
            )


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


def _sphere_rule(orientation, grid, theta, kr):
    """The 2-D reference rule: (ox, oy, oz, weight) on the n_polar x
    n_azimuth grid of the folded cap, Gauss-Legendre nodes in cos(theta)
    on [cos(theta_eff), 1] times a uniform azimuth rule.  The weight is
    the polar weight, doubled for the south cap, times the azimuth step
    and the polarization weight, over the 4 pi of the full solid angle.
    It does not depend on kr.  Integrals use the zonal rule; this one is
    the independent check that ``validate`` and the tests compare it
    with."""
    c_edge = math.cos(theta)
    x, w_gl = _leggauss(grid.n_polar)
    c = 0.5 * (1.0 - c_edge) * x + 0.5 * (1.0 + c_edge)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    az = 2.0 * math.pi * np.arange(grid.n_azimuth) / grid.n_azimuth
    ox = s[:, None] * np.cos(az)[None, :]
    oy = s[:, None] * np.sin(az)[None, :]
    oz = np.broadcast_to(c[:, None], ox.shape)
    weight = (1.0 - c_edge) * w_gl * (0.5 / grid.n_azimuth)
    return ox, oy, oz, weight[:, None] * _pol_weight(orientation, ox, oy, oz)


def _zonal_rule(orientation, grid, theta, kr):
    """(ox, oy, oz, weight) with one node per ring about r = kr/|kr|.

    The folded cap is taken about n = sign(kz) z, at the angle
    beta <= pi/2 from r (r = n at kr = 0).  On the ring at angle alpha
    from r, omega = cos(alpha) r + sin(alpha) (cos(psi) e1 + sin(psi) e2)
    with e1 towards n, so u = |kr| cos(alpha) is constant and the ring
    meets the cap on the arc |psi| <= psi0.  The node carries
    W = integral of w dpsi over the arc and the direction V / W, with
    V = integral of w omega dpsi: kr . V / W = u, and every integrand,
    gradient included, is w f(u) or linear in omega, so the node
    reproduces the ring exactly.  The moments of 1, cos, cos^2, sin^2,
    cos^3 and cos sin^2 over the arc are closed forms, and so are W and V
    (w is quadratic in omega).

    Alpha runs over two panels of n_polar Gauss-Legendre nodes each:
    whole rings on [0, theta - beta] (psi0 = pi) and cut rings on
    [|theta - beta|, theta + beta], both mapped by
    alpha = a + (b - a) (1 - cos(tau)) / 2, which removes the square-root
    behaviour of psi0 at the panel ends.  psi0 comes from the half-angle
    formula of the spherical triangle (r, n, edge point), with
    s = (alpha + beta + theta) / 2:
    tan(psi0 / 2) = sqrt(sin(s - alpha) sin(s - beta)
                         / (sin(s) sin(s - theta))),
    its small factors taken from the map, not by subtraction.
    """
    kx, ky, kz = kr
    k_perp = math.hypot(kx, ky)
    beta = math.atan2(k_perp, abs(kz))
    sign = -1.0 if kz < 0.0 else 1.0
    cos_p, sin_p = (kx / k_perp, ky / k_perp) if k_perp > 0.0 else (1.0, 0.0)
    cb, sb = math.cos(beta), math.sin(beta)
    frame = ((sb * cos_p, sb * sin_p, sign * cb),  # r
             (-cb * cos_p, -cb * sin_p, sign * sb),  # e1
             (-sin_p, cos_p, 0.0))  # e2
    # w = 1.5 (1 - omega . D omega) with D = d d^T, or I/3 for the
    # isotropic average; q is D in the frame (r, e1, e2).  The ring
    # integrals below spend trace(D) = 1 so that nothing cancels: the
    # form 1.5 (m0 - integral of omega . D omega) gives 0/0 for a dipole
    # along r.
    d = orientation.unit_vector
    v = None if d is None else np.array(frame) @ d
    q = (np.eye(3) / 3.0 if d is None else np.outer(v, v)).tolist()
    k_c, k_s = 1.5 * (q[1][1] + q[2][2]), 1.5 * q[0][0]
    k_cs, k_1, k_2 = -3.0 * q[0][1], 1.5 * q[1][1], 1.5 * q[2][2]

    x, w_gl = _leggauss(grid.n_polar)
    half_tau = 0.25 * math.pi * (x + 1.0)
    lo = np.sin(half_tau) ** 2  # (alpha - a) / (b - a)
    hi = np.cos(half_tau) ** 2  # (b - alpha) / (b - a)
    # d(alpha) per unit of b - a, over the 2 pi of the folded sphere
    d_alpha = 0.125 * np.sin(2.0 * half_tau) * w_gl
    panels = []  # (alpha, d_alpha, psi0, sin(psi0), cos(psi0))
    if beta < theta:
        width = theta - beta
        panels.append((width * lo, width * d_alpha, math.pi, 0.0, -1.0))
    if beta > 0.0:
        a = abs(theta - beta)
        width = theta + beta - a
        alpha = a + width * lo
        grows = np.sin(0.5 * width * lo)  # sin of (alpha - a) / 2
        stays = np.sin(0.5 * (alpha + a))
        sin_sb, sin_st = (grows, stays) if beta >= theta else (stays, grows)
        psi0 = 2.0 * np.arctan2(
            np.sqrt(np.sin(0.5 * width * hi) * sin_sb),
            np.sqrt(np.sin(0.5 * (alpha + beta + theta)) * sin_st))
        panels.append((alpha, width * d_alpha, psi0, np.sin(psi0),
                       np.cos(psi0)))
    nodes = []
    for alpha, d_alpha, psi0, sin0, cos0 in panels:
        # moments of 1, cos, cos^2, sin^2, cos sin^2 and cos^3 on the arc
        m0, mc = 2.0 * psi0, 2.0 * sin0
        mcc, mss = psi0 + sin0 * cos0, psi0 - sin0 * cos0
        mcss = 2.0 * sin0 ** 3 / 3.0
        mccc = mc - mcss
        c, s = np.cos(alpha), np.sin(alpha)
        cs, ss = c * s, s * s
        tilt = k_c * c * c + k_s * ss
        ring = tilt * m0 + cs * (k_cs * mc) + ss * (k_1 * mss + k_2 * mcc)
        ring_c = tilt * mc + cs * (k_cs * mcc) + ss * (k_1 * mcss + k_2 * mccc)
        ring_s = cs * (-3.0 * q[0][2] * mss) + ss * (-3.0 * q[1][2] * mcss)
        nodes.append((c, s * ring_c / ring, s * ring_s / ring,
                      s * d_alpha * ring))
    c, t1, t2, weight = (np.concatenate(part) for part in zip(*nodes))
    ox, oy, oz = (c * r + t1 * e + t2 * f for r, e, f in zip(*frame))
    return ox, oy, oz, weight


def _integrate_once(kr, orientation, config, phi0, grid, with_gradient,
                    rule=_zonal_rule):
    """The folded cap by quadrature, in one pass through the kernel, plus
    the vacuum band's closed-form share.

    The cap edge is read once from the configuration.  The gradient is
    d(shift)/d(kr) = sum of
    weight * (u_part omega_hat + phase_part (kr - u omega_hat) / kR),
    whose integrand is also even under omega_hat -> -omega_hat.
    """
    theta = effective_theta(config)
    kR = config.k_r_mirror
    ox, oy, oz, weight = rule(orientation, grid, theta, kr)
    u = ox * kr[0] + oy * kr[1] + oz * kr[2]
    phi = ray_phase(phi0, float(kr @ kr), u, kR)
    g, sh, u_part, phase_part = _cap_terms(config.rho, phi, u, with_gradient)
    grad = None
    if with_gradient:
        grad = np.array([
            np.sum(weight * (u_part * o + phase_part * (k - u * o) / kR))
            for o, k in zip((ox, oy, oz), kr)])
    band, _ = aperture_weights(orientation, math.cos(theta))
    return band + np.sum(weight * g), np.sum(weight * sh), grad


def integrate_sphere(kr, orientation: DipoleOrientation, config: CavityConfig,
                     phi0: float, grid: AngularGrid | None = None,
                     tolerance: float | None = None,
                     with_gradient: bool = False,
                     _rule=_zonal_rule) -> Response:
    """Average both integrands over the full solid angle.

    With a ``tolerance``, the grid is doubled once and the refined result
    is returned; if the two estimates disagree by more than the tolerance
    (relative, floored at 1 in absolute terms) a ConvergenceError is
    raised carrying the refined estimate.  ``_rule`` is for the checks:
    ``_sphere_rule`` puts the 2-D reference rule in place of the zonal one.
    """
    kr = Position.of(kr).vec
    if grid is None:
        grid = AngularGrid.for_position(kr, config)
    grid.check_admissible(kr)

    gamma, shift, grad = _integrate_once(kr, orientation, config, phi0, grid,
                                         with_gradient, _rule)
    if tolerance is not None:
        gamma2, shift2, grad2 = _integrate_once(
            kr, orientation, config, phi0, grid.doubled(), with_gradient,
            _rule)
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
