"""Domain types, the cap kernel and the center closed forms."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vactrap.cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    Position,
    ValidityWarning,
    cap_brackets,
    center_gamma,
    center_shift,
    detuning_to_phase,
    effective_theta,
    phase_fwhm,
    ray_phase,
)
from vactrap.quadrature import integrate_sphere
from vactrap.validation import _pol_weight

# frozen oracle values (direct arithmetic / dense reference integration)
PHASE_FWHM_098 = 0.020203394496123118
THETA_EFF_CORRECTED = 0.7676314370344808
CENTER_GAMMA_ISO = 29.703535443718335
CENTER_SHIFT_HALF_LW_CORRECTED = 6.940243788246493
CENTER_SHIFT_HALF_LW_45DEG = 7.248367498556311

ORIENTATIONS = (
    DipoleOrientation.parallel(),
    DipoleOrientation.perpendicular(),
    DipoleOrientation.isotropic(),
)


# ---------------------------------------------------------------- airy

def _two_denominator_brackets(rho, phi, u):
    """The brackets and gradient parts as the odd- and even-mode Airy
    factors, each over its own denominator, mixed by cos^2 u and sin^2 u:
    an independent form, accurate away from the even resonance."""
    t = 1.0 - rho * rho
    sin_phi_sq = np.sin(phi) ** 2
    denom_odd = (1.0 - rho) ** 2 + 4.0 * rho * sin_phi_sq
    denom_even = (1.0 + rho) ** 2 - 4.0 * rho * sin_phi_sq
    l_odd, l_even = t / denom_odd, t / denom_even
    d_odd = rho * np.sin(2.0 * phi) / denom_odd
    d_even = -rho * np.sin(2.0 * phi) / denom_even
    cos_sq = np.cos(u) ** 2
    sin_sq = 1.0 - cos_sq
    slope = 2.0 * rho * np.cos(2.0 * phi) / t
    dd_odd = slope * l_odd - 4.0 * d_odd ** 2
    dd_even = -slope * l_even - 4.0 * d_even ** 2
    return (l_odd * cos_sq + l_even * sin_sq, d_odd * cos_sq + d_even * sin_sq,
            (d_even - d_odd) * np.sin(2.0 * u),
            dd_odd * cos_sq + dd_even * sin_sq)


def test_airy_free_space():
    # without mirrors every ray is free space: (1, 0) exactly, gradient 0
    phi = np.array([0.0, 0.3, math.pi / 2, 2.0, -1.1])
    u = np.array([0.0, 0.7, -3.0, math.pi / 2, 25.0])
    gamma, shift, u_part, phase_part = cap_brackets(0.0, phi, u, True)
    assert np.all(gamma == 1.0)
    assert np.all(shift == 0.0)
    assert np.all(u_part == 0.0)
    assert np.all(phase_part == 0.0)


def test_airy_resonance_peak():
    # the odd resonance at u = 0 and the even one at u = pi/2 both peak
    # at (1 + rho) / (1 - rho), for finesse up to rho = 0.9999; the shift
    # crosses zero there (pi/2 is not a float, so exactly only at phi = 0)
    for rho in (0.3, 0.9, 0.98, 0.995, 0.999, 0.9995, 0.9999):
        peak = (1.0 + rho) / (1.0 - rho)
        for phi, u in ((0.0, 0.0), (math.pi / 2, math.pi / 2)):
            gamma = cap_brackets(rho, phi, u)[0]
            assert abs(gamma - peak) <= 1e-15 * peak, (rho, phi, gamma)
        assert cap_brackets(rho, 0.0)[1] == 0.0
    assert cap_brackets(0.98, 0.0)[0] > 90


def test_airy_antiresonance_swap():
    # half a period off either resonance, the odd modes at u = 0 and the
    # even ones at u = pi/2 give T / (1 + rho)^2 = (1 - rho) / (1 + rho)
    for phi, u in ((math.pi / 2, 0.0), (0.0, math.pi / 2)):
        gamma, _, _, _ = cap_brackets(0.98, phi, u)
        assert_allclose(gamma, 0.02 / 1.98, rtol=1e-12)


def test_airy_swap_identity():
    # half a period in both phases swaps the odd and even modes and
    # leaves both brackets unchanged
    rng = np.random.default_rng(3)
    phi = rng.uniform(-math.pi, math.pi, 50)
    u = rng.uniform(-math.pi, math.pi, 50)
    for rho in (0.3, 0.9, 0.98, 0.9999):
        shifted = cap_brackets(rho, phi + math.pi / 2, u + math.pi / 2)
        plain = cap_brackets(rho, phi, u)
        for a, b in zip(shifted[:2], plain[:2]):
            assert_allclose(a, b, rtol=1e-9, atol=1e-9)


def test_airy_fsr_means():
    # over one free spectral range the damping bracket averages to one
    # and the shift bracket to zero, at the anti-node and at the node
    phi = math.pi * np.arange(8192) / 8192
    for rho in (0.5, 0.9, 0.98):
        for u in (0.0, math.pi / 2):
            gamma, shift, _, _ = cap_brackets(rho, phi, u)
            assert abs(np.mean(gamma) - 1.0) < 1e-6
            assert abs(np.mean(shift)) < 1e-6


def test_cap_brackets_match_two_denominator_form():
    # away from the even resonance the one-denominator kernel is the
    # Airy factors of both mode families mixed by cos^2 u and sin^2 u
    rng = np.random.default_rng(11)
    phi = rng.uniform(-0.5, 0.5, 400)
    u = rng.uniform(-40.0, 40.0, 400)
    for rho in (0.0, 0.3, 0.9, 0.98, 0.99):
        want = _two_denominator_brackets(rho, phi, u)
        got = cap_brackets(rho, phi, u, with_gradient=True)
        peak = (1.0 + rho) / (1.0 - rho)
        for a, b, scale in zip(got, want, (peak, peak, peak, peak * peak)):
            assert np.all(np.abs(a - b) <= 1e-12 * scale), rho


def test_fixed_orientation_refuses_nan():
    # a NaN norm is no unit norm: every response with it would be NaN
    for d_hat in ((math.nan, 0.0, 0.0), (0.6, 0.8, math.nan)):
        with pytest.raises(ValueError, match="unit norm"):
            DipoleOrientation.fixed(d_hat)


def test_airy_rejects_bad_rho():
    for rho in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="0 <= rho < 1"):
            cap_brackets(rho, 0.0)


def test_fsr_sum_rule_check_tracks_finesse():
    # the phase mean must stay resolved even for very narrow resonances
    from vactrap.validation import check_fsr_sum_rule
    for rho in (0.0, 0.98, 0.998, 0.9995):
        result = check_fsr_sum_rule(CavityConfig(rho=rho))
        assert result.passed, result.detail


# ------------------------------------------------------- polarization

def test_polarization_weight_perpendicular():
    assert _pol_weight(DipoleOrientation.parallel(), 1.0, 0.0, 0.0) == 1.5


def test_polarization_weight_parallel():
    assert _pol_weight(DipoleOrientation.parallel(), 0.0, 0.0, 1.0) == 0.0


def test_polarization_weight_sphere_average():
    # Gauss-Legendre in cos(theta) x uniform azimuth; <cos^2> = 1/3
    nodes, gl_weights = np.polynomial.legendre.leggauss(24)
    az = 2 * math.pi * np.arange(32) / 32
    dipole = DipoleOrientation.fixed(np.array([1.0, 2.0, -2.0]) / 3.0)
    total = 0.0
    for c, w in zip(nodes, gl_weights):
        s = math.sqrt(1 - c * c)
        weights = _pol_weight(dipole, s * np.cos(az), s * np.sin(az),
                              np.full_like(az, c))
        total += w * np.sum(weights) * (2 * math.pi / 32)
    assert_allclose(total / (4 * math.pi), 1.0, rtol=1e-12)


# ---------------------------------------------------------- aberration

def aberration(phi0, kr, omega):
    kr = np.asarray(kr, dtype=float)
    return ray_phase(phi0, float(kr @ kr), float(np.dot(omega, kr)), 8.0e4)


def test_aberration_phase_center():
    assert aberration(0.17, [0, 0, 0], [0, 0, 1]) == 0.17


def test_aberration_phase_longitudinal():
    # displacement along the ray has zero impact parameter
    phi = aberration(0.0, [0, 0, 100.0], [0, 0, 1])
    assert abs(phi) < 1e-15


def test_aberration_phase_transverse():
    phi = aberration(0.2, [100.0, 0, 0], [0, 0, 1])
    assert_allclose(phi, 0.2 + 0.0625, rtol=1e-14)


@pytest.mark.parametrize("k_r_mirror", [1e3, 8e4, 1e6])
def test_aberration_phase_is_the_half_chord_to_second_order(k_r_mirror):
    # the aberration term is the second-order term of how much shorter
    # than R half the chord through r along omega is,
    # k (R - sqrt(R^2 - r^2 + (omega . r)^2)), here s / (kR + sqrt(kR^2 - s))
    # with s = |kr|^2 - u^2, which does not cancel.  The chord's series in
    # x = s / kR^2 has positive terms, each under the one before, so what
    # is left is the quartic term s^2 / (8 kR^3), then at least the next
    # term s^3 / (16 kR^5) and at most that over 1 - x
    rng = np.random.default_rng(16)
    kr = rng.normal(size=(2000, 3))
    kr *= (300.0 * rng.uniform(size=(2000, 1)) ** (1.0 / 3.0)
           / np.linalg.norm(kr, axis=1, keepdims=True))
    omega = rng.normal(size=(2000, 3))
    omega /= np.linalg.norm(omega, axis=1, keepdims=True)
    kr[0], omega[0] = (300.0, 0.0, 0.0), (0.0, 0.0, 1.0)  # s at its most
    kr_sq, u = np.sum(kr * kr, axis=1), np.sum(omega * kr, axis=1)
    s = kr_sq - u * u
    half_chord = s / (k_r_mirror + np.sqrt(k_r_mirror ** 2 - s))
    left = half_chord - ray_phase(0.0, kr_sq, u, k_r_mirror)
    quartic = s ** 2 / (8.0 * k_r_mirror ** 3)
    next_term = s ** 3 / (16.0 * k_r_mirror ** 5)
    ulps = 4.0 * np.spacing(half_chord)
    assert np.all(left - quartic >= next_term - ulps)
    assert np.all(left - quartic
                  <= next_term / (1.0 - s / k_r_mirror ** 2) + ulps)
    if k_r_mirror == 1e3:  # where the model's phase is a radian short
        assert quartic[0] > 0.99


# ----------------------------------------------------- effective theta

def test_effective_theta_corrected():
    config = CavityConfig(rho=0.98, apply_diffraction_correction=True)
    assert_allclose(effective_theta(config), THETA_EFF_CORRECTED, rtol=1e-12)
    assert_allclose(config.diffraction_angle(), 0.017766726362967517,
                    rtol=1e-12)


def test_effective_theta_uncorrected():
    config = CavityConfig(rho=0.98)
    assert effective_theta(config) == config.theta_m


def test_diffraction_angle_full_transmission():
    config = CavityConfig(rho=0.0, k_r_mirror=1.0e6)
    assert_allclose(config.diffraction_angle(), 1e-3, rtol=1e-12)


# ------------------------------------------------------------ detuning

def test_phase_fwhm_value():
    assert_allclose(phase_fwhm(0.98), PHASE_FWHM_098, rtol=1e-12)
    with pytest.raises(ValueError, match="^linewidth is undefined without "
                       "reflectivity$"):
        phase_fwhm(0.0)


def test_detuning_to_phase_examples():
    assert detuning_to_phase(0.0, 0.98) == 0.0
    assert_allclose(detuning_to_phase(1.0, 0.98), PHASE_FWHM_098, rtol=1e-12)
    assert_allclose(detuning_to_phase(0.5, 0.98), PHASE_FWHM_098 / 2,
                    rtol=1e-12)
    assert_allclose(detuning_to_phase(-0.5, 0.98), -PHASE_FWHM_098 / 2,
                    rtol=1e-12)
    # an array maps element by element, bit for bit the scalar call, with
    # -0.0 to +0.0 and everything to +0.0 in free space
    lw = np.array([-1.5, -0.0, 0.0, 0.25, 1.0])
    for rho in (0.98, 0.0):
        phases = detuning_to_phase(lw, rho)
        assert phases.tobytes() == np.array(
            [detuning_to_phase(float(v), rho) for v in lw]).tobytes()
    assert not np.signbit(detuning_to_phase(lw, 0.98)[1])
    assert detuning_to_phase(lw, 0.0).tobytes() == np.zeros(5).tobytes()
    # the first detuning outside the window is named, as a Python float
    with pytest.raises(ValueError, match=r"^detuning of 90\.0 linewidths "):
        detuning_to_phase(np.array([0.0, 1.0, 90.0, -95.0]), 0.98)


def test_detuning_sign_convention():
    # atom above the cavity resonance -> positive phase offset
    assert detuning_to_phase(2.0, 0.9) > 0
    assert detuning_to_phase(-2.0, 0.9) < 0


def test_detuning_window():
    with pytest.raises(ValueError):
        detuning_to_phase(90.0, 0.98)


@pytest.mark.parametrize("linewidths", [math.nan, math.inf])
def test_detuning_rejects_non_finite(linewidths):
    with pytest.raises(ValueError, match="single-resonance window"):
        detuning_to_phase(linewidths, 0.98)


@pytest.mark.parametrize("linewidths", [math.nan, math.inf, -math.inf])
def test_detuning_refuses_non_finite_counts(linewidths):
    # Detuning(nan).phase(0.0) once gave the free-space 0.0
    with pytest.raises(ValueError, match=r"^detuning must be finite, got "):
        Detuning(linewidths)


def test_detuning_low_reflectivity_domain():
    # (1 - rho)/(2 sqrt(rho)) > 1 for rho below 3 - 2 sqrt(2); free space
    # has no resonance to be detuned from, so every detuning maps to 0
    with pytest.raises(ValueError, match="too low for a resolved resonance"):
        detuning_to_phase(1.0, 0.1)
    assert detuning_to_phase(0.0, 0.1) == 0.0
    assert detuning_to_phase(1.0, 0.0) == 0.0


def test_detuning_type_free_space_convention():
    assert detuning_to_phase(0.7, 0.0) == Detuning(0.7).phase(0.0) == 0.0
    assert_allclose(Detuning(0.5).phase(0.98), PHASE_FWHM_098 / 2, rtol=1e-12)


# ------------------------------------------------------- closed forms

def test_center_free_space_identity():
    config = CavityConfig(rho=0.0, theta_m=0.9)
    for orientation in ORIENTATIONS:
        for phi0 in (0.0, 0.4, -1.2):
            assert abs(center_gamma(orientation, config, phi0) - 1.0) < 1e-12
            assert abs(center_shift(orientation, config, phi0)) < 1e-12


def test_center_thirty_fold_enhancement():
    config = CavityConfig(rho=0.98)
    value = center_gamma(DipoleOrientation.isotropic(), config, 0.0)
    assert_allclose(value, CENTER_GAMMA_ISO, rtol=1e-12)
    # with the solid-angle fraction rounded to 0.3 the enhancement reads
    # 0.7 + 0.3 * 99 = 30.4, i.e. "more than 30-fold"
    rounded = 0.7 + 0.3 * cap_brackets(0.98, 0.0)[0]
    assert_allclose(rounded, 30.4, rtol=1e-12)
    assert rounded > 30.0


def test_center_shift_on_resonance_and_antisymmetry():
    config = CavityConfig(rho=0.98)
    for orientation in ORIENTATIONS:
        assert center_shift(orientation, config, 0.0) == 0.0
        for phi0 in (0.003, 0.01, 0.3):
            plus = center_shift(orientation, config, phi0)
            minus = center_shift(orientation, config, -phi0)
            assert_allclose(plus, -minus, rtol=1e-12)


def test_center_shift_pinned_values():
    phi0 = 0.5 * phase_fwhm(0.98)
    corrected = CavityConfig(rho=0.98, apply_diffraction_correction=True)
    value = center_shift(DipoleOrientation.isotropic(), corrected, phi0)
    assert_allclose(value, CENTER_SHIFT_HALF_LW_CORRECTED, rtol=1e-10)
    plain = CavityConfig(rho=0.98)
    value = center_shift(DipoleOrientation.isotropic(), plain, phi0)
    assert_allclose(value, CENTER_SHIFT_HALF_LW_45DEG, rtol=1e-10)


def test_center_orientation_decomposition():
    rng = np.random.default_rng(11)
    for _ in range(30):
        config = CavityConfig(rho=rng.uniform(0.0, 0.99),
                              theta_m=rng.uniform(0.2, 1.4))
        phi0 = rng.uniform(-math.pi / 2, math.pi / 2)
        par, perp, iso = (center_gamma(o, config, phi0) for o in ORIENTATIONS)
        assert_allclose((par + 2 * perp) / 3, iso, rtol=1e-12)
        par, perp, iso = (center_shift(o, config, phi0) for o in ORIENTATIONS)
        assert_allclose((par + 2 * perp) / 3, iso, rtol=1e-12, atol=1e-15)


def test_center_detuning_parity():
    config = CavityConfig(rho=0.9)
    phi = np.linspace(-1.0, 1.0, 41)
    for orientation in ORIENTATIONS:
        gamma = center_gamma(orientation, config, phi)
        shift = center_shift(orientation, config, phi)
        assert_allclose(gamma, gamma[::-1], rtol=1e-12)
        assert_allclose(shift, -shift[::-1], rtol=1e-12, atol=1e-15)


def test_center_closed_forms_cover_fixed_dipoles():
    # the cap weights read the dipole only through d_z**2, so the closed
    # forms hold for fixed dipoles too (they used to refuse them)
    config = CavityConfig(rho=0.98)
    rng = np.random.default_rng(8)
    for _ in range(6):
        d = rng.normal(size=3)
        fixed = DipoleOrientation.fixed(d / np.linalg.norm(d))
        for linewidths in (-0.5, 0.0, 0.3):
            phi0 = Detuning(linewidths).phase(config.rho)
            resp = integrate_sphere([0.0, 0.0, 0.0], fixed, config, phi0,
                                    tolerance=1e-9)
            for closed, quad in ((center_gamma(fixed, config, phi0),
                                  resp.gamma_ratio),
                                 (center_shift(fixed, config, phi0),
                                  resp.shift_ratio)):
                assert abs(closed - quad) <= 1e-12 * max(1.0, abs(quad))


def test_center_isotropic_on_resonance():
    config = CavityConfig(rho=0.98)
    iso = DipoleOrientation.isotropic()
    assert_allclose(center_gamma(iso, config, 0.0), CENTER_GAMMA_ISO,
                    rtol=1e-12)
    assert center_shift(iso, config, 0.0) == 0.0


# -------------------------------------------------------- invariants

def test_cavity_config_invariants():
    with pytest.raises(ValueError):
        CavityConfig(rho=1.2)
    with pytest.raises(ValueError):
        CavityConfig(rho=-0.01)
    with pytest.raises(ValueError):
        CavityConfig(rho=0.9, k_r_mirror=500.0)
    with pytest.raises(ValueError):
        CavityConfig(rho=0.9, k_r_mirror=math.inf)
    with pytest.raises(ValueError):
        CavityConfig(rho=0.9, theta_m=math.pi / 2)
    with pytest.raises(ValueError):
        CavityConfig(rho=0.9, theta_m=0.0)
    # correction eats the whole aperture: delta_theta > theta_m
    with pytest.raises(ValueError):
        CavityConfig(rho=0.99, k_r_mirror=1e3, theta_m=0.02,
                     apply_diffraction_correction=True)


def test_transmission_identity():
    rng = np.random.default_rng(5)
    for rho in rng.uniform(0.0, 0.999, 20):
        config = CavityConfig(rho=float(rho))
        assert config.transmission == 1.0 - rho * rho


def test_orientation_invariants():
    with pytest.raises(ValueError):
        DipoleOrientation.fixed([1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        DipoleOrientation("sideways")
    with pytest.raises(ValueError, match="^fixed orientation requires a "
                       "direction$"):
        DipoleOrientation("fixed")
    with pytest.raises(ValueError, match="^parallel orientation takes no "
                       "vector$"):
        DipoleOrientation("parallel", (0.0, 0.0, 1.0))
    vec = np.array([3.0, 4.0, 12.0]) / 13.0
    fixed = DipoleOrientation.fixed(vec)
    assert_allclose(fixed.unit_vector, vec, rtol=1e-15)
    assert DipoleOrientation.isotropic().unit_vector is None


def test_position_limits():
    with pytest.raises(ValueError):
        Position.of([0.0, 0.0, 301.0])
    # the norm in full: one float past the plane corner at |kr| = 300,
    # which three decimals printed as 300.000, inside the region
    with pytest.raises(ValueError, match=r"^\|kr\| = 300\.00000000000006 "
                       r"exceeds the supported region \(<= 300\)$"):
        integrate_sphere([212.1320343559643, 0.0, 212.1320343559643],
                         DipoleOrientation.isotropic(), CavityConfig(rho=0.9),
                         0.0)
    with pytest.raises(ValueError, match=r"must be finite, got kx=nan$"):
        Position.of([math.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"got ky=inf, kz=nan$"):
        Position.of([0.0, math.inf, math.nan])
    with pytest.raises(ValueError, match=r"must be finite, got kx=nan$"):
        integrate_sphere([math.nan, 0.0, 0.0], DipoleOrientation.isotropic(),
                         CavityConfig(rho=0.9), 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Position.of([0.0, 0.0, 150.0])
    assert any(issubclass(w.category, ValidityWarning) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Position.of([0.0, 0.0, 100.0])
    assert not caught
    p = Position.of((1.0, 2.0, 3.0))
    assert Position.of(p) is p
    assert_allclose(p.vec, [1.0, 2.0, 3.0])


def test_position_warns_once():
    # Position.of builds the Position, whose admission warns: once, not
    # once for ``of`` and again for ``__post_init__``
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Position.of([0.0, 0.0, 150.0])
    assert [(w.category, w.filename) for w in caught] == \
        [(ValidityWarning, __file__)]
    # a block is not a position, even built directly
    with pytest.raises(ValueError, match=r"^a position has shape \(3,\), "
                       r"got \(2, 3\)$"):
        Position(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))


@pytest.mark.parametrize("value, shape", [
    ([1.0, 2.0], "(2,)"), ([1.0, 2.0, 3.0, 4.0], "(4,)"), (5.0, "()"),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "(2, 3)"), ([[1.0, 2.0, 3.0]],
                                                    "(1, 3)"),
])
def test_position_of_refuses_other_shapes(value, shape):
    # a position is three components; any other shape is refused with a
    # message that names it, not with numpy's unpacking message
    with pytest.raises(ValueError, match=r"^a position has shape \(3,\), "
                       r"got " + re.escape(shape) + "$"):
        Position.of(value)
