"""Responses on grids, gradients, forces and trap profiles."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vactrap.cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    ValidityWarning,
    center_gamma,
    center_shift,
)
from vactrap.fields import (
    MAX_SCAN_POINTS,
    MAX_SCAN_ROWS,
    MAX_THREADS,
    ScanSpec,
    WeakExcitationError,
    _scan_points,
    excited_population,
    force_at,
    response_at,
    run_scan,
    trap_minimum,
)
import vactrap.quadrature as quadrature
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


@pytest.mark.parametrize("position", [
    [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]], [1.0, 2.0], [[0.0, 0.0, 1.0]]])
def test_one_point_functions_refuse_other_shapes(position):
    # response_at and force_at are for one point: a block is refused, not
    # integrated into arrays or converted by numpy
    with pytest.raises(ValueError, match=r"^a position has shape \(3,\)"):
        response_at(position, ISO, DEFAULT, Detuning(0.0))
    with pytest.raises(ValueError, match=r"^a position has shape \(3,\)"):
        force_at(position, ISO, DEFAULT, Detuning(-0.5), 0.05)


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


@pytest.mark.parametrize("theta_m_deg", [50.0, 55.0, 60.0])
@pytest.mark.parametrize("orientation", [ISO, DipoleOrientation.perpendicular()],
                         ids=["isotropic", "perpendicular"])
def test_force_at_converges_at_wide_apertures(theta_m_deg, orientation):
    # a cut-ring panel is up to 2 theta_eff wide; with the polar count
    # sized for panels at most pi/2 wide, the doubling moved this force's
    # (gamma, shift) by 1.6e-9 to 8.5e-7 and raised ConvergenceError
    wide = CavityConfig(rho=0.98, theta_m=math.radians(theta_m_deg))
    result = force_at([7.0, 0.0, 0.0], orientation, wide, Detuning(-0.5),
                      0.05)
    assert np.all(np.isfinite(result.force))


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


@pytest.mark.parametrize("axis, start, stop, n_points, message", [
    ("axial", math.nan, 1.0, 3, "start and stop must be finite, got nan "
     "and 1.0"),
    ("detuning", -math.inf, 0.0, 3, "start and stop must be finite, got "
     "-inf and 0.0"),
    ("axial", 0.0, math.inf, 3, "start and stop must be finite, got 0.0 "
     "and inf"),
    ("axial", 0.0, 1.0, 2.5, "requires an integer n_points >= 2 and "
     "<= 10001, got 2.5"),
    ("axial", 0.0, 1.0, 3.0, "requires an integer n_points >= 2 and "
     "<= 10001, got 3.0"),
    ("axial", 0.0, 1.0, 1, "requires an integer n_points >= 2 and "
     "<= 10001, got 1"),
])
def test_scan_spec_names_what_it_refuses(axis, start, stop, n_points,
                                         message):
    # each was taken and failed in run_scan: a NaN start as "start <
    # stop", an infinite detuning as NaN phases, a float count in linspace
    with pytest.raises(ValueError, match="^scan " + re.escape(message) + "$"):
        ScanSpec(axis, start, stop, n_points, DEFAULT, ISO)


def test_scan_spec_takes_numpy_integer_counts():
    spec = ScanSpec("axial", -2.0, 2.0, np.int64(5), DEFAULT, ISO)
    plain = ScanSpec("axial", -2.0, 2.0, 5, DEFAULT, ISO)
    assert_array_equal(run_scan(spec).values, run_scan(plain).values)


def test_scan_spec_refuses_out_of_range_scans():
    # refused when the spec is built, before the 16 million points of
    # this plane are laid out
    with pytest.raises(ValueError, match=r"^plane scan of 16008001 rows is "
                       r"above the cap of 42025 rows$"):
        ScanSpec("plane", -400.0, 400.0, 4001, DEFAULT, ISO)
    # narrow resonances with a short mirror radius: the far end needs
    # more polar nodes than the cap
    narrow = CavityConfig(rho=0.9999, k_r_mirror=1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        with pytest.raises(ValueError, match="above the cap of 16384"):
            run_scan(ScanSpec("axial", 0.0, 300.0, 301, narrow, ISO))
    # a detuning scan sits at the center, whatever its range
    ScanSpec("detuning", -400.0, 400.0, 2, narrow, ISO)


def test_scan_spec_caps_rows():
    # 25 times the default 41 x 41 plane: a 206-point plane once laid out
    # its rows and, at 10,001 points, ran out of memory
    assert MAX_SCAN_ROWS == 25 * 41 * 41
    ScanSpec("plane", -20.0, 20.0, 205, DEFAULT, ISO)
    with pytest.raises(ValueError, match=r"^plane scan of 42436 rows is "
                       r"above the cap of 42025 rows$"):
        ScanSpec("plane", -20.0, 20.0, 206, DEFAULT, ISO)
    with pytest.raises(ValueError, match="of 100020001 rows"):
        ScanSpec("plane", -20.0, 20.0, 10_001, DEFAULT, ISO)
    # a line scan meets the cap on points per axis first
    with pytest.raises(ValueError, match="<= 10001, got 42025$"):
        ScanSpec("axial", -20.0, 20.0, 42_025, DEFAULT, ISO)
    with pytest.raises(ValueError, match="<= 10001, got 42026$"):
        ScanSpec("detuning", -3.0, 3.0, 42_026, DEFAULT, ISO)


def test_run_scan_refuses_what_it_cannot_admit_or_size(monkeypatch):
    # ScanSpec builds these scans; their one check is the admission and
    # sizing of integrate_sphere, with the messages every position gets,
    # and it refuses them before any kernel pass
    passes = []
    zonal_rule = quadrature._zonal_rule
    monkeypatch.setattr(quadrature, "_zonal_rule",
                        lambda *args: passes.append(args) or zonal_rule(*args))
    axial = ScanSpec("axial", -400.0, 400.0, 5, DEFAULT, ISO)
    with pytest.raises(ValueError, match=r"^\|kr\| = 400\.0 exceeds the "
                       r"supported region \(<= 300\)$"):
        run_scan(axial)
    plane = ScanSpec("plane", -400.0, 400.0, 5, DEFAULT, ISO)
    with pytest.raises(ValueError, match=r"^\|kr\| = 565\.685424949238 "
                       r"exceeds the supported region \(<= 300\)$"):
        run_scan(plane)
    narrow = CavityConfig(rho=0.9999, k_r_mirror=1e3)
    capped = ScanSpec("axial", 0.0, 300.0, 301, narrow, ISO)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        with pytest.raises(ValueError, match=r"^\|kr\| = 300\.0 needs "
                           r"1799936 polar nodes with these mirrors, above "
                           r"the cap of 16384$"):
            run_scan(capped)
    assert passes == []
    run_scan(ScanSpec("axial", -2.0, 2.0, 3, DEFAULT, ISO))
    assert passes  # the count sees the passes of a scan in range


@pytest.mark.parametrize("axis", ["axial", "transverse", "detuning", "plane"])
def test_scan_spec_caps_points(axis):
    # the library refuses what the config refuses: the library once took
    # a 42,025-point axial scan that the CLI's config did not
    assert MAX_SCAN_POINTS == 25 * 400 + 1
    if axis != "plane":
        ScanSpec(axis, -20.0, 20.0, 10_001, DEFAULT, ISO)
    with pytest.raises(ValueError, match=r"^scan requires an integer "
                       r"n_points >= 2 and <= 10001, got 10002$"):
        ScanSpec(axis, -20.0, 20.0, 10_002, DEFAULT, ISO)


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


@pytest.mark.parametrize("rho", [0.0, 0.98, 0.9999])
@pytest.mark.parametrize("start, stop, n_points", [
    (-3.0, 3.0, 241), (-2.0, 0.0, 5), (-2.0, -0.0, 5), (-1.0, 2.0, 4)])
def test_detuning_scan_phases_are_each_detunings_phase(rho, start, stop,
                                                       n_points):
    # the scan's phases are one array expression; each is, bit for bit,
    # the phase of a Detuning at its point: +0.0 for no detuning (also at
    # a stop of -0.0) and for free space
    spec = ScanSpec("detuning", start, stop, n_points, CavityConfig(rho=rho),
                    ISO)
    one_by_one = [Detuning(float(v)).phase(rho) for v in spec.coordinates()]
    coords, phi0, kr = _scan_points(spec)
    assert phi0.tobytes() == np.array(one_by_one).tobytes()
    assert_array_equal(coords[:, 0], spec.coordinates())
    assert_array_equal(kr, np.zeros((n_points, 3)))


@pytest.mark.parametrize("rho, start", [(0.5, -3.0), (0.5, -1.0),
                                        (0.1, -1.0)])
def test_detuning_scan_phases_refused_as_each_detunings(rho, start):
    # a detuning outside the single-resonance window (rho = 0.5 takes
    # +-2.17 linewidths), and any detuning without a resolved resonance
    # (rho = 0.1), is refused with the message of the first point's
    # Detuning.phase
    spec = ScanSpec("detuning", start, 3.0, 9, CavityConfig(rho=rho), ISO)
    with pytest.raises(ValueError) as one_by_one:
        for v in spec.coordinates():
            Detuning(float(v)).phase(rho)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(one_by_one.value))}$"):
        _scan_points(spec)


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
    ({"weak_drive": (0.1,)}, r"must be a pair .*, got \(0\.1,\)"),
    ({"weak_drive": (0.1, 0.0, 0.0)}, "must be a pair"),
])
def test_scan_arguments_checked(kwargs, message):
    # each of these once ran: every row non-converged, NaN force rows
    # that no flag named, or every row and then a TypeError
    spec = ScanSpec("axial", -1.0, 1.0, 2, DEFAULT, ISO)
    with pytest.raises(ValueError, match=message):
        run_scan(spec, **kwargs)


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
    # warning per distinct radius, attributed to a line of the library.
    # The axial scan is one node count (416) whose first row is inside
    # the warning radius
    for spec in (ScanSpec("plane", -200.0, 200.0, 5, DEFAULT, ISO),
                 ScanSpec("axial", 99.0, 101.0, 3, DEFAULT, ISO)):
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

