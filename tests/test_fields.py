"""Responses on grids, gradients, forces and trap profiles."""

import math
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vactrap import quadrature
from vactrap.cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    ValidityWarning,
    center_gamma,
    center_shift,
)
from vactrap.fields import (
    MAX_THREADS,
    ScanSpec,
    WeakExcitationError,
    excited_population,
    force_at,
    response_at,
    run_scan,
    trap_minimum,
)
from vactrap.quadrature import monte_carlo_reference
from vactrap.validation import richardson_gradient

DEFAULT = CavityConfig(rho=0.98)
ISO = DipoleOrientation.isotropic()
PAR = DipoleOrientation.parallel()

CENTER_GAMMA_ISO = 29.703535443718335
# regression value pinned by the Monte-Carlo oracle (test below re-checks
# the 3-sigma agreement with seed 123, 10^6 samples)
AXIAL_100_PARALLEL = (2.221193720847029, 1.089619582378284)


def test_response_at_center():
    resp = response_at([0.0, 0.0, 0.0], ISO, DEFAULT, Detuning(0.0))
    assert_allclose(resp.gamma_ratio, CENTER_GAMMA_ISO, rtol=1e-10)
    assert abs(resp.shift_ratio) < 1e-14
    assert resp.shift_gradient is None


def test_response_at_free_space():
    config = CavityConfig(rho=0.0)
    rng = np.random.default_rng(2)
    for _ in range(3):
        kr = rng.uniform(-40, 40, 3)
        resp = response_at(kr, PAR, config, Detuning(0.0))
        assert abs(resp.gamma_ratio - 1.0) < 1e-10
        assert abs(resp.shift_ratio) < 1e-10


def test_response_at_pinned_by_monte_carlo():
    resp = response_at([0.0, 0.0, 100.0], PAR, DEFAULT, Detuning(0.0))
    assert_allclose(resp.gamma_ratio, AXIAL_100_PARALLEL[0], rtol=1e-9)
    assert_allclose(resp.shift_ratio, AXIAL_100_PARALLEL[1], rtol=1e-9)
    mc, (se_g, se_s) = monte_carlo_reference(
        [0.0, 0.0, 100.0], PAR, DEFAULT, 0.0, 10**6, seed=123)
    assert abs(resp.gamma_ratio - mc.gamma_ratio) < 3 * se_g
    assert abs(resp.shift_ratio - mc.shift_ratio) < 3 * se_s


def test_shift_gradient_zero_at_center():
    grad = response_at([0.0, 0.0, 0.0], ISO, DEFAULT, Detuning(0.5),
                       with_gradient=True).shift_gradient
    assert np.all(np.abs(grad) < 1e-8)


def test_shift_gradient_zero_in_free_space():
    config = CavityConfig(rho=0.0)
    grad = response_at([3.0, -2.0, 7.0], ISO, config, Detuning(0.0),
                       with_gradient=True).shift_gradient
    assert np.all(grad == 0.0)


def test_shift_gradient_vs_richardson():
    detuning = Detuning(0.5)
    rng = np.random.default_rng(19)
    for _ in range(2):
        kr = rng.normal(size=3)
        kr *= rng.uniform(3, 50) / np.linalg.norm(kr)
        analytic = response_at(kr, ISO, DEFAULT, detuning,
                               with_gradient=True).shift_gradient
        fd = richardson_gradient(kr, ISO, DEFAULT, detuning)
        assert np.linalg.norm(analytic - fd) \
            < 1e-4 * np.linalg.norm(analytic)


def test_excited_population_examples():
    from vactrap.cavity import Response
    assert excited_population(0.0, 0.3, Response(1.0, 0.0)) == 0.0
    # resonant weak drive on the bare line
    value = excited_population(0.1, 0.0, Response(1.0, 0.0))
    assert_allclose(value, 0.01, rtol=1e-12)
    # cavity-enhanced damping suppresses the saturation
    value = excited_population(0.1, 0.0, Response(30.0, 0.0))
    assert_allclose(value, 0.0025 / 225.0, rtol=1e-12)
    # laser tracking the shifted line
    value = excited_population(0.1, 5.0, Response(1.0, 5.0))
    assert_allclose(value, 0.01, rtol=1e-12)


def test_excited_population_validity_limit():
    from vactrap.cavity import Response
    with pytest.raises(WeakExcitationError) as excinfo:
        excited_population(2.0, 0.0, Response(1.0, 0.0))
    assert excinfo.value.population > 0.1
    # a population that is not a number is not a weak one
    with pytest.raises(WeakExcitationError):
        excited_population(0.1, 0.0, Response(math.nan, 0.0))
    # nor is a drive that is not finite (it once gave NaN)
    for rabi, laser_detuning in ((math.nan, 0.0), (0.1, -math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            excited_population(rabi, laser_detuning, Response(1.0, 0.0))


def test_force_at_zero_population():
    result = force_at([0.0, 0.0, 5.0], ISO, DEFAULT, Detuning(-0.5), 0.0)
    assert np.all(result.force == 0.0)
    assert result.potential == 0.0


def test_force_at_center():
    result = force_at([0.0, 0.0, 0.0], ISO, DEFAULT, Detuning(-0.5), 0.05)
    assert np.all(np.abs(result.force) < 1e-8)
    expected = 0.05 * center_shift(ISO, DEFAULT, Detuning(-0.5).phase(0.98))
    assert_allclose(result.potential, expected, rtol=1e-8)
    assert result.potential < 0.0


def test_force_is_minus_pi_e_times_gradient():
    kr = [4.0, 0.0, 11.0]
    detuning = Detuning(-0.5)
    result = force_at(kr, ISO, DEFAULT, detuning, 0.05)
    grad = response_at(kr, ISO, DEFAULT, detuning,
                       with_gradient=True).shift_gradient
    assert_allclose(result.force, -0.05 * grad, rtol=0, atol=0)
    assert result.excited_population == 0.05


def test_force_at_rejects_bad_population():
    with pytest.raises(ValueError):
        force_at([0.0, 0.0, 0.0], ISO, DEFAULT, Detuning(0.0), 0.7)
    with pytest.raises(ValueError):
        force_at([0.0, 0.0, 0.0], ISO, DEFAULT, Detuning(0.0), -0.1)


def test_blue_detuned_cavity_attracts():
    # cavity above the atomic line: center shift negative, on-axis well
    blue = Detuning(-0.5)
    u0 = force_at([0.0, 0.0, 0.0], ISO, DEFAULT, blue, 0.05).potential
    u50 = force_at([0.0, 0.0, 50.0], ISO, DEFAULT, blue, 0.05).potential
    assert u0 < 0.0
    assert u0 < u50
    red = Detuning(0.5)
    assert_allclose(force_at([0.0, 0.0, 0.0], ISO, DEFAULT, red,
                             0.05).potential, -u0, rtol=1e-12)


# ----------------------------------------------------------------- scans

def test_scan_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec("radial", 0.0, 1.0, 10, DEFAULT, ISO)
    with pytest.raises(ValueError):
        ScanSpec("axial", 1.0, 1.0, 10, DEFAULT, ISO)
    with pytest.raises(ValueError):
        ScanSpec("axial", 0.0, 1.0, 1, DEFAULT, ISO)


def test_scan_rows_match_response_at():
    spec = ScanSpec("axial", -4.0, 4.0, 5, DEFAULT, ISO,
                    detuning=Detuning(0.5))
    result = run_scan(spec)
    assert result.columns == ("kz", "gamma_ratio", "shift_ratio")
    assert result.values.shape == (5, 3)
    for kz, gamma, shift in result.values:
        resp = response_at([0.0, 0.0, kz], ISO, DEFAULT, Detuning(0.5))
        assert gamma == resp.gamma_ratio
        assert shift == resp.shift_ratio


def test_detuning_scan_matches_closed_forms():
    spec = ScanSpec("detuning", -1.0, 1.0, 9, DEFAULT, PAR)
    result = run_scan(spec)
    assert result.columns[0] == "detuning_linewidths"
    for lw, gamma, shift in result.values:
        phi0 = Detuning(lw).phase(0.98)
        assert_allclose(gamma, center_gamma(PAR, DEFAULT, phi0), rtol=1e-8)
        assert_allclose(shift, center_shift(PAR, DEFAULT, phi0), rtol=1e-8,
                        atol=1e-12)


def test_plane_scan_ordering():
    spec = ScanSpec("plane", -2.0, 2.0, 3, DEFAULT, ISO)
    result = run_scan(spec)
    assert result.columns[:2] == ("kz", "kx")
    assert len(result.values) == 9
    coords = [(row[0], row[1]) for row in result.values]
    assert coords == sorted(coords)
    # the (z, x) table is symmetric under x -> -x here
    by_coord = {(row[0], row[1]): (row[2], row[3])
                for row in result.values}
    for (z, x), (g, s) in by_coord.items():
        assert_allclose(by_coord[(z, -x)][0], g, rtol=1e-12)


def test_transverse_scan_even():
    spec = ScanSpec("transverse", -6.0, 6.0, 7, DEFAULT, ISO)
    result = run_scan(spec)
    gammas = result.column("gamma_ratio")
    assert_allclose(gammas, gammas[::-1], rtol=1e-10)


def test_scan_worker_determinism():
    spec = ScanSpec("axial", -10.0, 10.0, 21, DEFAULT, ISO,
                    detuning=Detuning(-0.5))
    serial = run_scan(spec, pi_e=0.05, n_workers=1)
    threaded = run_scan(spec, pi_e=0.05, n_workers=4)
    assert np.array_equal(serial.values, threaded.values)
    assert serial.columns == threaded.columns


def test_scan_worker_count_bounded():
    spec = ScanSpec("axial", -1.0, 1.0, 2, DEFAULT, ISO)
    with pytest.raises(ValueError, match="at most 64"):
        run_scan(spec, n_workers=MAX_THREADS + 1)
    for n_workers in (0, -3):  # once a silent serial scan
        with pytest.raises(ValueError, match="at least 1"):
            run_scan(spec, n_workers=n_workers)


@pytest.mark.parametrize("kwargs,message", [
    ({"tolerance": -1.0}, "tolerance must be positive"),
    ({"tolerance": 0.0}, "tolerance must be positive"),
    ({"tolerance": math.nan}, "tolerance must be positive"),
    ({"weak_drive": (math.nan, 0.0)}, "must be finite"),
    ({"weak_drive": (0.1, math.inf)}, "must be finite"),
])
def test_scan_arguments_checked(kwargs, message):
    # each of these once ran: every row non-converged, or NaN force rows
    # that no flag named
    spec = ScanSpec("axial", -1.0, 1.0, 2, DEFAULT, ISO)
    with pytest.raises(ValueError, match=message):
        run_scan(spec, **kwargs)


def test_scan_threads_fill_disjoint_rows(monkeypatch):
    # one block per row, more threads than cores and a short switch
    # interval: a row or a convergence flag lost between threads would
    # differ from the serial scan (the table starts uninitialized)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 1)
    spec = ScanSpec("plane", -3.0, 3.0, 6, DEFAULT, ISO,
                    detuning=Detuning(-0.5))
    serial = run_scan(spec, tolerance=1e-15, pi_e=0.05)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_scan(spec, tolerance=1e-15, pi_e=0.05, n_workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert 0 < len(serial.non_converged) < 36
    assert threaded.non_converged == serial.non_converged
    assert np.array_equal(threaded.values, serial.values)


def test_scan_with_constant_drive_columns():
    spec = ScanSpec("axial", -5.0, 5.0, 3, DEFAULT, ISO,
                    detuning=Detuning(-0.5))
    result = run_scan(spec, pi_e=0.05)
    assert result.columns == ("kz", "gamma_ratio", "shift_ratio", "force_x",
                              "force_y", "force_z", "potential")
    for row in result.values:
        assert row[6] == 0.05 * row[2]  # potential = pi_e * shift


def test_scan_with_weak_drive():
    spec = ScanSpec("axial", -5.0, 5.0, 3, DEFAULT, ISO,
                    detuning=Detuning(-0.5))
    result = run_scan(spec, weak_drive=(0.1, 0.0))
    assert not result.weak_excitation
    for kz, gamma, shift, fx, fy, fz, pot in result.values:
        pi_e = 0.0025 / (shift**2 + (gamma / 2.0) ** 2)
        assert_allclose(pot, pi_e * shift, rtol=1e-12)


def test_scan_weak_drive_violations_flagged():
    # a resonant drive this strong saturates the bare atom everywhere
    config = CavityConfig(rho=0.0)
    spec = ScanSpec("axial", 40.0, 44.0, 3, config, ISO)
    result = run_scan(spec, weak_drive=(2.0, 0.0))
    assert result.weak_excitation == [0, 1, 2]  # recorded, scan completed
    assert len(result.values) == 3


def test_scan_nonconverged_rows_recorded():
    config = CavityConfig(rho=0.995, k_r_mirror=1.0e3,
                          theta_m=math.radians(50))
    spec = ScanSpec("transverse", 72.0, 80.0, 3, config, ISO)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_scan(spec, tolerance=1e-10)
    assert result.non_converged
    assert len(result.values) == 3
    assert np.isfinite(result.column("gamma_ratio")).all()


def test_validity_warning_shown_once_per_scan():
    # the message once carried |kr|, so the default filter showed one
    # warning per distinct radius, attributed to a line of the library
    spec = ScanSpec("plane", -200.0, 200.0, 5, DEFAULT, ISO)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        run_scan(spec)
    assert len(caught) == 1
    assert caught[0].category is ValidityWarning
    assert caught[0].filename == __file__

def test_scan_drive_exclusivity():
    spec = ScanSpec("axial", -1.0, 1.0, 2, DEFAULT, ISO)
    with pytest.raises(ValueError):
        run_scan(spec, pi_e=0.05, weak_drive=(0.1, 0.0))


def test_trap_minimum():
    spec = ScanSpec("axial", -20.0, 20.0, 41, DEFAULT, ISO,
                    detuning=Detuning(-0.5))
    result = run_scan(spec, pi_e=0.05)
    trap = trap_minimum(result)
    assert trap is not None
    assert trap["potential_min"] < 0.0
    assert trap["coordinates"] == [0.0]
    plain = run_scan(ScanSpec("axial", -1.0, 1.0, 3, DEFAULT, ISO))
    assert trap_minimum(plain) is None

