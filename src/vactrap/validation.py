"""Self-checking oracle suite behind the ``validate`` subcommand.

Every check pits one computation path against an independent one:
closed forms against the sphere quadrature, its zonal rule against the
2-D reference rule, the quadrature against Monte-Carlo sampling, the
analytic gradient against Richardson finite differences, and the
resonance factors against their period-average sum rules.  A failure
here means the numerics cannot be trusted for the given configuration.

The 2-D reference rule is this module's own code: numpy's Gauss-Legendre
nodes in cos(theta), from an eigenvalue method that shares no code with
the production rule, times a uniform azimuth rule.  ``integrate_sphere``
never runs it.  It passes its nodes to the production kernel,
``quadrature._integrate_once``, so its check tests the zonal rule, not
the integrand; the closed forms and Monte Carlo test that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    Position,
    Response,
    center_gamma,
    center_shift,
    effective_theta,
)
from .fields import response_at
from .quadrature import AngularGrid, integrate_sphere, monte_carlo_reference
from .quadrature import _integrate_once, _pol_weight

_ORIENTATIONS = (
    DipoleOrientation.parallel(),
    DipoleOrientation.perpendicular(),
    DipoleOrientation.isotropic(),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=16)
def _reference_leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-point Gauss-Legendre rule, read-only: an eigenvalue
    method (Golub-Welsch) that shares no code with the composite rule.
    Imported here, so that no scan loads numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _sphere_rule(orientation, n_cos, n_azimuth, theta):
    """The 2-D reference rule: (ox, oy, oz, weight), each of shape
    (1, n_cos * n_azimuth), on the grid of the folded cap:
    numpy's Gauss-Legendre nodes in cos(theta) on [cos(theta_eff), 1]
    times a uniform azimuth rule.  The weight is the polar weight,
    doubled for the south cap, times the azimuth step and the
    polarization weight, over the 4 pi of the full solid angle.  It does
    not depend on the position, so one row serves every row of a
    block."""
    c_edge = math.cos(theta)
    x, w_gl = _reference_leggauss(n_cos)
    c = 0.5 * (1.0 - c_edge) * x + 0.5 * (1.0 + c_edge)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    az = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    ox = s[:, None] * np.cos(az)[None, :]
    oy = s[:, None] * np.sin(az)[None, :]
    oz = np.broadcast_to(c[:, None], ox.shape)
    weight = (1.0 - c_edge) * w_gl * (0.5 / n_azimuth)
    weight = weight[:, None] * _pol_weight(orientation, ox, oy, oz)
    return tuple(a.reshape(1, -1) for a in (ox, oy, oz, weight))


def _reference_pass(kr, orientation, config, phi0, grid) -> Response:
    """The response at one position kr, gradient included, by one pass
    of the 2-D reference rule on ``grid``."""
    nodes = _sphere_rule(orientation, grid.n_polar, grid.n_azimuth,
                         effective_theta(config))
    (gamma,), (shift,), (grad,) = _integrate_once(
        np.array([kr], dtype=float), orientation, config,
        np.array([phi0], dtype=float), nodes, True)
    return Response(float(gamma), float(shift), grad)


def richardson_gradient(position, orientation: DipoleOrientation,
                        config: CavityConfig, detuning: Detuning,
                        step: float = 1e-3) -> np.ndarray:
    """Finite-difference oracle for the shift gradient.

    Central differences at steps h and h/2, Richardson-extrapolated to
    O(h^4).  All evaluations share one fixed angular grid (sized for the
    largest radius touched) so discretization error cancels between the
    +h and -h points instead of polluting the difference.  The 12 points
    of the stencil are one block, each row bit-identical to a call at
    that point alone on the same grid.
    """
    kr = Position.of(position).vec
    phi0 = detuning.phase(config.rho)
    radius = float(np.linalg.norm(kr)) + 2.0 * step
    grid = AngularGrid.for_position([radius, 0.0, 0.0], config)
    # rows by axis, then step h and h/2, then +h and -h
    stencil = np.array([kr + sign * h * e for e in np.eye(3)
                        for h in (step, 0.5 * step) for sign in (1.0, -1.0)])
    shift = integrate_sphere(stencil, orientation, config, phi0,
                             grid=grid).shift_ratio.reshape(3, 2, 2)
    d_h = (shift[:, 0, 0] - shift[:, 0, 1]) / (2.0 * step)
    d_h2 = (shift[:, 1, 0] - shift[:, 1, 1]) / step
    return (4.0 * d_h2 - d_h) / 3.0


def check_closed_form_vs_quadrature(config: CavityConfig, phi0: float,
                                    rel_tol: float = 1e-6) -> CheckResult:
    worst = 0.0
    for orientation in _ORIENTATIONS:
        resp = integrate_sphere([0.0, 0.0, 0.0], orientation, config, phi0,
                                tolerance=1e-8)
        cg = float(center_gamma(orientation, config, phi0))
        cs = float(center_shift(orientation, config, phi0))
        worst = max(worst, abs(resp.gamma_ratio - cg) / max(1.0, abs(cg)))
        worst = max(worst, abs(resp.shift_ratio - cs) / max(1.0, abs(cs)))
    return CheckResult("closed_form_vs_quadrature", worst < rel_tol,
                       {"worst_relative_error": worst, "tolerance": rel_tol})


def check_orientation_decomposition(config: CavityConfig,
                                    phi0: float) -> CheckResult:
    par = float(center_gamma(_ORIENTATIONS[0], config, phi0))
    perp = float(center_gamma(_ORIENTATIONS[1], config, phi0))
    iso = float(center_gamma(_ORIENTATIONS[2], config, phi0))
    err = abs((par + 2.0 * perp) / 3.0 - iso) / abs(iso)
    par_s = float(center_shift(_ORIENTATIONS[0], config, phi0))
    perp_s = float(center_shift(_ORIENTATIONS[1], config, phi0))
    iso_s = float(center_shift(_ORIENTATIONS[2], config, phi0))
    err_s = abs((par_s + 2.0 * perp_s) / 3.0 - iso_s) / max(1.0, abs(iso_s))
    worst = max(err, err_s)
    return CheckResult("orientation_decomposition", worst < 1e-12,
                       {"worst_relative_error": worst, "tolerance": 1e-12})


def check_fsr_sum_rule(config: CavityConfig) -> CheckResult:
    """Mean of the center damping over one free spectral range must be 1
    and of the center shift 0 (periodic trapezoid over one pi period).

    The trapezoid error decays like exp(-2 n delta) with delta the
    resonance half-width in phase, so the node count scales with finesse.
    """
    if config.rho > 0.0:
        half_width = (1.0 - config.rho) / (2.0 * math.sqrt(config.rho))
        n_phase = max(4096, math.ceil(18.0 / half_width))
    else:
        n_phase = 4096
    phases = np.pi * np.arange(n_phase) / n_phase
    iso = DipoleOrientation.isotropic()
    mean_gamma = float(np.mean(center_gamma(iso, config, phases)))
    mean_shift = float(np.mean(center_shift(iso, config, phases)))
    ok = abs(mean_gamma - 1.0) < 1e-6 and abs(mean_shift) < 1e-6
    return CheckResult("fsr_sum_rule", ok,
                       {"mean_gamma": mean_gamma, "mean_shift": mean_shift,
                        "tolerance": 1e-6})


def check_parity(config: CavityConfig, phi0: float, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        kr = rng.uniform(-1.0, 1.0, 3)
        kr *= rng.uniform(0.0, 40.0) / max(np.linalg.norm(kr), 1e-12)
        # one block of the pair: both rows have one radius and so the
        # default grid that each would get alone
        grid = AngularGrid.for_position(kr, config)
        for orientation in _ORIENTATIONS:
            pair = integrate_sphere(np.array([kr, -kr]), orientation,
                                    config, phi0, grid=grid)
            (g_plus, g_minus), (s_plus, s_minus) = (
                pair.gamma_ratio.tolist(), pair.shift_ratio.tolist())
            worst = max(worst, abs(g_plus - g_minus), abs(s_plus - s_minus))
    return CheckResult("parity", worst < 1e-10,
                       {"worst_abs_difference": worst, "tolerance": 1e-10})


def check_rotation_symmetry(config: CavityConfig, phi0: float,
                            seed: int) -> CheckResult:
    """Rotating an off-axis position about the cavity axis must not move
    axis-symmetric results (axis-parallel or isotropic dipole)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for orientation in (_ORIENTATIONS[0], _ORIENTATIONS[2]):
        r_perp, z = rng.uniform(1.0, 30.0), rng.uniform(-30.0, 30.0)
        base = integrate_sphere([r_perp, 0.0, z], orientation, config, phi0)
        for angle in rng.uniform(0.0, 2.0 * math.pi, 3):
            kr = [r_perp * math.cos(angle), r_perp * math.sin(angle), z]
            rot = integrate_sphere(kr, orientation, config, phi0)
            worst = max(worst, abs(rot.gamma_ratio - base.gamma_ratio),
                        abs(rot.shift_ratio - base.shift_ratio))
    return CheckResult("rotation_symmetry", worst < 1e-8,
                       {"worst_abs_difference": worst, "tolerance": 1e-8})


def check_zonal_vs_sphere_rule(config: CavityConfig,
                               phi0: float) -> CheckResult:
    """The zonal rule of every integral against the 2-D reference rule,
    gradient included, on and off the axis, each on the default grid of
    its position.  The differences are kept as Python floats, so that the
    report is plain JSON."""
    worst = 0.0
    for orientation in _ORIENTATIONS:
        for kr in ([0.0, 0.0, 0.0], [0.0, 0.0, 3.7], [0.0, 0.0, -21.0],
                   [3.7, 0.0, 0.0], [-12.0, 5.0, 16.0]):
            grid = AngularGrid.for_position(kr, config)
            a = integrate_sphere(kr, orientation, config, phi0, grid=grid,
                                 with_gradient=True)
            b = _reference_pass(kr, orientation, config, phi0, grid)
            worst = max(worst, abs(a.gamma_ratio - b.gamma_ratio),
                        abs(a.shift_ratio - b.shift_ratio),
                        *np.abs(a.shift_gradient - b.shift_gradient).tolist())
    return CheckResult("zonal_vs_sphere_rule", worst < 1e-10,
                       {"worst_abs_difference": worst, "tolerance": 1e-10})


def check_monte_carlo(config: CavityConfig, phi0: float, seed: int,
                      n_samples: int = 200_000) -> CheckResult:
    """Quadrature against seeded Monte-Carlo sampling at three points.

    Six z-scores are compared, so the bound is 5 standard errors: a
    correct program then fails on about 3e-6 of seeds, where a bound of
    3 would fail on about 1.6% of them.
    """
    max_z = 5.0
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    for i in range(3):
        kr = rng.uniform(-1.0, 1.0, 3)
        kr *= rng.uniform(0.0, 30.0) / max(np.linalg.norm(kr), 1e-12)
        quad = integrate_sphere(kr, _ORIENTATIONS[2], config, phi0)
        mc, (se_g, se_s) = monte_carlo_reference(
            kr, _ORIENTATIONS[2], config, phi0, n_samples,
            seed=seed + 1000 + i)
        z_g = abs(quad.gamma_ratio - mc.gamma_ratio) / max(se_g, 1e-12)
        z_s = abs(quad.shift_ratio - mc.shift_ratio) / max(se_s, 1e-12)
        worst_z = max(worst_z, z_g, z_s)
    return CheckResult("monte_carlo_agreement", worst_z < max_z,
                       {"worst_z_score": worst_z, "tolerance": max_z,
                        "n_samples": n_samples, "seed": seed})


def check_gradient(config: CavityConfig, detuning: Detuning,
                   seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    orientation = _ORIENTATIONS[2]
    worst = 0.0
    for _ in range(2):
        kr = rng.uniform(-1.0, 1.0, 3)
        kr *= rng.uniform(2.0, 40.0) / max(np.linalg.norm(kr), 1e-12)
        analytic = response_at(kr, orientation, config, detuning,
                               with_gradient=True).shift_gradient
        fd = richardson_gradient(kr, orientation, config, detuning)
        rel = (np.linalg.norm(analytic - fd)
               / max(np.linalg.norm(analytic), 1e-12))
        worst = max(worst, float(rel))
    return CheckResult("gradient_vs_finite_difference", worst < 1e-4,
                       {"worst_relative_error": worst, "tolerance": 1e-4})


def run_validation_suite(config: CavityConfig, detuning: Detuning,
                         seed: int = 0) -> list[CheckResult]:
    """Run every internal-consistency check for one configuration."""
    phi0 = detuning.phase(config.rho)
    checks = [
        check_closed_form_vs_quadrature(config, phi0),
        check_orientation_decomposition(config, phi0),
        check_fsr_sum_rule(config),
        check_parity(config, phi0, seed),
        check_rotation_symmetry(config, phi0, seed),
        check_zonal_vs_sphere_rule(config, phi0),
        check_monte_carlo(config, phi0, seed),
        check_gradient(config, detuning, seed),
    ]
    return checks
