"""Self-checking oracle suite behind the ``validate`` subcommand.

Every check pits one computation path against an independent one:
closed forms against the sphere quadrature, its zonal rule against the
2-D reference rule, the quadrature against Monte-Carlo sampling, the
analytic gradient against Richardson finite differences, and the
resonance factors against their period-average sum rules.  A failure
here means the numerics cannot be trusted for the given configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    Position,
    center_gamma,
    center_shift,
)
from .fields import response_at
from .quadrature import AngularGrid, integrate_sphere, monte_carlo_reference
from .quadrature import _sphere_rule, _zonal_rule

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
    gradient included, on and off the axis."""
    worst = 0.0
    for orientation in _ORIENTATIONS:
        for kr in ([0.0, 0.0, 0.0], [0.0, 0.0, 3.7], [0.0, 0.0, -21.0],
                   [3.7, 0.0, 0.0], [-12.0, 5.0, 16.0]):
            a, b = (integrate_sphere(kr, orientation, config, phi0,
                                     with_gradient=True, _rule=rule)
                    for rule in (_zonal_rule, _sphere_rule))
            worst = max(worst, abs(a.gamma_ratio - b.gamma_ratio),
                        abs(a.shift_ratio - b.shift_ratio),
                        *np.abs(a.shift_gradient - b.shift_gradient))
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
