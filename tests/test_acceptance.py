"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion."""

import math
import subprocess
import sys
import time

import numpy as np
from numpy.testing import assert_allclose

from vactrap.cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    center_gamma,
    center_shift,
    phase_fwhm,
)
from vactrap.fields import force_at, response_at
from vactrap.quadrature import integrate_sphere
from vactrap.validation import monte_carlo_reference, richardson_gradient

DEFAULT = CavityConfig(rho=0.98)  # theta_m 45 deg, kR 8e4, no correction
PAR = DipoleOrientation.parallel()
PERP = DipoleOrientation.perpendicular()
ISO = DipoleOrientation.isotropic()

# closed-form center enhancement, exact solid angle:
# cos(45 deg) + (1 - cos(45 deg)) * 99
CENTER_GAMMA_ISO = 29.703535443718335


def _pass(cid, name):
    print(f"ACCEPTANCE {cid} ({name}): PASS")


def _random_center_suite(seed=2001, count=20):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        config = CavityConfig(
            rho=float(rng.uniform(0.5, 0.99)),
            theta_m=float(np.radians(rng.uniform(20.0, 60.0))),
        )
        phi0 = float(rng.uniform(-math.pi / 2, math.pi / 2))
        cases.append((config, phi0))
    return cases


def test_criterion_01_thirty_fold_enhancement():
    started = time.perf_counter()
    closed = float(center_gamma(ISO, DEFAULT, 0.0))
    assert_allclose(closed, CENTER_GAMMA_ISO, rtol=1e-12)
    # quoted headline figure evaluates the same formula at ~4 digits
    assert abs(closed - 29.697) < 0.01
    # with the solid-angle fraction rounded to 0.3: "more than 30-fold"
    rounded = 0.7 + 0.3 * 99.0
    assert_allclose(rounded, 30.4, rtol=1e-15)
    assert rounded > 30.0
    quad = integrate_sphere([0.0, 0.0, 0.0], ISO, DEFAULT, 0.0,
                            tolerance=1e-8)
    assert abs(quad.gamma_ratio - closed) < 1e-6 * closed
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    _pass("C01", "thirty-fold enhancement")


def test_criterion_02_free_space_suite():
    started = time.perf_counter()
    config = CavityConfig(rho=0.0)
    rng = np.random.default_rng(2002)
    orientations = (PAR, PERP, ISO,
                    DipoleOrientation.fixed(np.array([2.0, 3.0, 6.0]) / 7.0))
    for _ in range(50):
        kr = rng.normal(size=3)
        kr *= rng.uniform(0.0, 100.0) / np.linalg.norm(kr)
        for orientation in orientations:
            resp = integrate_sphere(kr, orientation, config, 0.0)
            assert abs(resp.gamma_ratio - 1.0) <= 1e-10
            assert abs(resp.shift_ratio) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s (budget 10s)"
    _pass("C02", "free-space suite")


def test_criterion_03_closed_form_quadrature_equivalence():
    for config, phi0 in _random_center_suite():
        for orientation in (PAR, PERP, ISO):
            quad = integrate_sphere([0.0, 0.0, 0.0], orientation, config,
                                    phi0, tolerance=1e-8)
            cg = float(center_gamma(orientation, config, phi0))
            cs = float(center_shift(orientation, config, phi0))
            assert abs(quad.gamma_ratio - cg) <= 1e-6 * max(1.0, abs(cg))
            assert abs(quad.shift_ratio - cs) <= 1e-6 * max(1.0, abs(cs))
    _pass("C03", "closed form vs quadrature at center")


def test_criterion_04_orientation_decomposition():
    for config, phi0 in _random_center_suite():
        par_g = float(center_gamma(PAR, config, phi0))
        perp_g = float(center_gamma(PERP, config, phi0))
        iso_g = float(center_gamma(ISO, config, phi0))
        assert abs((par_g + 2 * perp_g) / 3 - iso_g) <= 1e-12 * abs(iso_g)
        par_s = float(center_shift(PAR, config, phi0))
        perp_s = float(center_shift(PERP, config, phi0))
        iso_s = float(center_shift(ISO, config, phi0))
        assert abs((par_s + 2 * perp_s) / 3 - iso_s) \
            <= 1e-12 * max(1.0, abs(iso_s))
        quads = [integrate_sphere([0.0, 0.0, 0.0], o, config, phi0)
                 for o in (PAR, PERP, ISO)]
        assert abs((quads[0].gamma_ratio + 2 * quads[1].gamma_ratio) / 3
                   - quads[2].gamma_ratio) <= 1e-8 * abs(quads[2].gamma_ratio)
        assert abs((quads[0].shift_ratio + 2 * quads[1].shift_ratio) / 3
                   - quads[2].shift_ratio) \
            <= 1e-8 * max(1.0, abs(quads[2].shift_ratio))
    _pass("C04", "orientation decomposition")


def test_criterion_05_fsr_sum_rules():
    phases = math.pi * np.arange(16384) / 16384
    for orientation in (PAR, PERP, ISO):
        mean_gamma = float(np.mean(center_gamma(orientation, DEFAULT,
                                                phases)))
        mean_shift = float(np.mean(center_shift(orientation, DEFAULT,
                                                phases)))
        assert abs(mean_gamma - 1.0) <= 1e-6
        assert abs(mean_shift) <= 1e-6
    _pass("C05", "free-spectral-range sum rules")


def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(2006)
    points = []
    for _ in range(10):
        kr = rng.normal(size=3)
        kr *= rng.uniform(2.0, 50.0) / np.linalg.norm(kr)
        points.append(kr)
    for linewidths in (0.5, -0.5):
        detuning = Detuning(linewidths)
        for kr in points:
            analytic = response_at(kr, ISO, DEFAULT, detuning,
                                   with_gradient=True).shift_gradient
            fd = richardson_gradient(kr, ISO, DEFAULT, detuning)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
            assert rel < 1e-4, f"gradient mismatch {rel:.2e} at kr={kr}"
    _pass("C06", "analytic gradient vs Richardson differences")


def test_criterion_07_monte_carlo_oracle():
    master = 11
    rng = np.random.default_rng(master)
    orientations = (ISO, PAR, PERP)
    for i in range(20):
        config = CavityConfig(
            rho=float(rng.uniform(0.5, 0.99)),
            theta_m=float(np.radians(rng.uniform(20.0, 60.0))),
            k_r_mirror=float(rng.uniform(2e4, 2e5)),
        )
        phi0 = float(rng.uniform(-math.pi / 2, math.pi / 2))
        orientation = orientations[i % 3]
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        kr = v * rng.uniform(0.0, 60.0)
        quad = integrate_sphere(kr, orientation, config, phi0,
                                tolerance=1e-8)
        mc, (se_g, se_s) = monte_carlo_reference(kr, orientation, config,
                                                 phi0, 10**6,
                                                 seed=master * 1000 + i)
        assert abs(quad.gamma_ratio - mc.gamma_ratio) \
            <= 3.0 * se_g + 1e-12, f"case {i}: gamma beyond 3 sigma"
        assert abs(quad.shift_ratio - mc.shift_ratio) \
            <= 3.0 * se_s + 1e-12, f"case {i}: shift beyond 3 sigma"
    _pass("C07", "Monte-Carlo oracle agreement")


def test_criterion_08_detuning_curve_shapes():
    lw = np.linspace(-3.0, 3.0, 1201)
    phases = lw * phase_fwhm(0.98)
    gamma_par = np.asarray(center_gamma(PAR, DEFAULT, phases))
    gamma_perp = np.asarray(center_gamma(PERP, DEFAULT, phases))
    shift_par = np.asarray(center_shift(PAR, DEFAULT, phases))
    shift_perp = np.asarray(center_shift(PERP, DEFAULT, phases))
    # damping even with its maximum on resonance
    assert_allclose(gamma_par, gamma_par[::-1], rtol=1e-12)
    assert_allclose(gamma_perp, gamma_perp[::-1], rtol=1e-12)
    assert np.argmax(gamma_par) == len(lw) // 2
    assert np.argmax(gamma_perp) == len(lw) // 2
    # shift odd with extrema near half a linewidth
    assert_allclose(shift_par, -shift_par[::-1], atol=1e-12)
    assert_allclose(shift_perp, -shift_perp[::-1], atol=1e-12)
    for shift in (shift_par, shift_perp):
        assert 0.3 <= lw[np.argmax(shift)] <= 0.7
        assert -0.7 <= lw[np.argmin(shift)] <= -0.3
    # perpendicular curve sits above the parallel one
    assert np.all(gamma_perp >= gamma_par)
    _pass("C08", "center detuning curve shapes")


def test_criterion_09_axial_profile_shapes():
    # peak at the center equal to the criterion-1 enhancement
    peak = integrate_sphere([0.0, 0.0, 0.0], ISO, DEFAULT, 0.0,
                            tolerance=1e-8)
    assert abs(peak.gamma_ratio - CENTER_GAMMA_ISO) \
        <= 1e-6 * CENTER_GAMMA_ISO
    # profile even in kz
    kz_sym = np.linspace(0.25, 12.0, 48)
    for kz in kz_sym:
        plus = integrate_sphere([0.0, 0.0, kz], ISO, DEFAULT, 0.0)
        minus = integrate_sphere([0.0, 0.0, -kz], ISO, DEFAULT, 0.0)
        assert abs(plus.gamma_ratio - minus.gamma_ratio) <= 1e-8
        assert plus.gamma_ratio < peak.gamma_ratio
    # near-center oscillation period: mean spacing of successive maxima
    # of the damping profile inside the validity window
    step = 0.01
    kz = np.arange(0.0, 60.0 + step, step)
    gamma = np.array([integrate_sphere([0.0, 0.0, z], ISO, DEFAULT,
                                       0.0).gamma_ratio for z in kz])
    maxima = []
    for i in range(1, len(kz) - 1):
        if gamma[i] >= gamma[i - 1] and gamma[i] >= gamma[i + 1]:
            a, b, c = gamma[i - 1], gamma[i], gamma[i + 1]
            curv = a - 2 * b + c
            offset = 0.5 * (a - c) / curv * step if curv != 0.0 else 0.0
            maxima.append(kz[i] + offset)
    period = float(np.mean(np.diff(maxima)))
    assert abs(period - math.pi) <= 0.02 * math.pi, \
        f"axial oscillation period {period:.4f} vs pi"
    _pass("C09", "axial profile shapes")


def test_criterion_10_trap_sign_and_depth():
    pi_e = 0.05
    blue = Detuning(-0.5)   # cavity above the atomic line
    u0 = force_at([0.0, 0.0, 0.0], ISO, DEFAULT, blue, pi_e).potential
    u50 = force_at([0.0, 0.0, 50.0], ISO, DEFAULT, blue, pi_e).potential
    assert u0 < 0.0
    assert u0 < u50
    red = Detuning(0.5)
    v0 = force_at([0.0, 0.0, 0.0], ISO, DEFAULT, red, pi_e).potential
    v50 = force_at([0.0, 0.0, 50.0], ISO, DEFAULT, red, pi_e).potential
    assert v0 > 0.0
    assert v0 > v50
    assert_allclose(v0, -u0, rtol=1e-12)
    # depth of order one in hbar*Gamma_vac at this drive strength
    assert 0.1 <= abs(u0) <= 10.0
    assert_allclose(u0, -0.3624183749278156, rtol=1e-9)
    _pass("C10", "trap sign and depth")


def test_criterion_11_thread_determinism(tmp_path):
    config_path = tmp_path / "scan.ini"
    config_path.write_text("[scan]\nstart = -40.0\nstop = 40.0\n"
                           "n_points = 161\n")
    for command, extra in (("center", []),
                           ("center", ["--quadrature"]),
                           ("axial", [])):
        outputs = []
        for threads in (1, 4, 8):
            proc = subprocess.run(
                [sys.executable, "-m", "vactrap.cli", command,
                 "--config", str(config_path), "--threads", str(threads),
                 *extra],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2], \
            f"{command} {extra} differs across thread counts"
    _pass("C11", "byte-identical output across worker counts")
