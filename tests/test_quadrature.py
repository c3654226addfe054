"""Sphere integration against closed forms, brute-force references and
the Monte-Carlo oracle."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legval
from numpy.testing import assert_allclose, assert_array_equal

from vactrap import fields, quadrature, validation
from vactrap.cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    ValidityWarning,
    center_gamma,
    center_shift,
    effective_theta,
    phase_fwhm,
)
from vactrap.config import RunConfig
from vactrap.fields import ScanSpec, _scan_points
from vactrap.quadrature import (
    MAX_POLAR_NODES,
    AngularGrid,
    ConvergenceError,
    _sample_terms,
    azimuth_node_floor,
    integrate_sphere,
    monte_carlo_reference,
    polar_node_floor,
)

ORIENTATIONS = (
    DipoleOrientation.parallel(),
    DipoleOrientation.perpendicular(),
    DipoleOrientation.isotropic(),
)

# independent reference values for kr = (3, 2, 5), rho = 0.9,
# theta_m = 40 deg, kR = 8e4, phi0 = 0.01, from adaptive 2-D quadrature
# of the raw direction integrand (scipy.dblquad, tol 1e-11)
BRUTE_FORCE_REFS = {
    "isotropic": (2.9738274631910198, 0.21014173722800408),
    "parallel": (1.7007741219119772, 0.07399556429014646),
    "fixed": (3.3015718108229644, 0.244658030777874),
}


def brute_force_case():
    config = CavityConfig(rho=0.9, theta_m=math.radians(40))
    return config, np.array([3.0, 2.0, 5.0]), 0.01


# ----------------------------------------------------------- integrand

def integrand_at(omega, kr, orientation, config, phi0):
    """(gamma, shift) integrands at one direction."""
    gamma, shift = _sample_terms(np.array([omega], dtype=float),
                                 np.asarray(kr, dtype=float), orientation,
                                 config, phi0)
    return gamma[0], shift[0]


def test_integrand_outside_caps_reduces_to_weight():
    config = CavityConfig(rho=0.98)
    # equatorial direction is far outside the 45 deg caps
    gamma, shift = integrand_at([1.0, 0.0, 0.0], [0.0, 0.0, 5.0],
                                DipoleOrientation.parallel(), config, 0.3)
    assert gamma == 1.5
    assert shift == 0.0


def test_integrand_center_on_resonance():
    config = CavityConfig(rho=0.98)
    gamma, shift = integrand_at([0.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                                DipoleOrientation.isotropic(), config, 0.0)
    assert_allclose(gamma, 99.0, rtol=1e-12)
    assert shift == 0.0


def test_integrand_axial_node():
    # at k z = pi/2 the odd standing wave has a node along the axis, so
    # only the even (anti-resonant) factor survives
    config = CavityConfig(rho=0.98)
    gamma, _ = integrand_at([0.0, 0.0, 1.0], [0.0, 0.0, math.pi / 2],
                            DipoleOrientation.isotropic(), config, 0.0)
    assert_allclose(gamma, 0.0396 / 3.9204, rtol=1e-12)


def test_integrand_pointwise_nonnegative():
    rng = np.random.default_rng(21)
    config = CavityConfig(rho=0.97, theta_m=0.6)
    for _ in range(200):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        kr = rng.normal(size=3)
        kr *= rng.uniform(0, 60) / np.linalg.norm(kr)
        gamma, _ = integrand_at(v, kr, DipoleOrientation.isotropic(), config,
                                rng.uniform(-1.5, 1.5))
        assert gamma >= 0.0


# --------------------------------------------------------------- rules

def check_rule_exactness(n, x, w):
    """(x, w) is an ascending, mirror-symmetric n-point rule on [-1, 1]
    that integrates the Legendre polynomials up to degree 2n - 1 exactly
    (their integral is 0 for k >= 1)."""
    assert np.all(np.diff(x) > 0)
    assert_array_equal(x, -x[::-1])
    assert_array_equal(w, w[::-1])
    assert abs(np.sum(w) - 2.0) <= 4e-15
    for k in {1, 2, n, 2 * n - 1}:
        p_k = legval(x, np.eye(1, k + 1, k)[0])
        assert abs(np.sum(w * p_k)) <= 1e-14, (n, k)


@pytest.mark.parametrize("n", [32, 64, 404, 512, 808, 1616])
def test_gauss_legendre_rule_matches_numpy(n):
    # the base rule's builder, Newton's method on the recurrence, against
    # numpy's eigenvalue method, at the base rule's 32 nodes and at even
    # counts far past it; the weights are held to exactness
    x, w = quadrature._gauss_legendre(n)
    x_ref, w_ref = leggauss(n)
    assert np.max(np.abs(x - x_ref)) <= 4e-16
    check_rule_exactness(n, x, w)
    if n == quadrature.MIN_POLAR_NODES:
        # the one-panel composite rule is the base rule itself
        assert_array_equal(quadrature._leggauss(n)[0], x)
        assert_array_equal(quadrature._leggauss(n)[1], w)
        assert_array_equal(x, quadrature._BASE_NODES)
        assert_array_equal(w, quadrature._BASE_WEIGHTS)
        assert_allclose(w, w_ref, rtol=1e-12, atol=0)


def test_gauss_legendre_largest_rule():
    # the largest default rule: 1216 nodes at the largest admissible
    # |kr| = 300, doubled by the tolerance check, 76 sub-panels; it
    # integrates cos(k x) at that |kr| and twice it to rounding
    n = 2432
    x, w = quadrature._leggauss(n)
    assert len(x) == len(w) == n
    assert abs(np.sum(w) - 2.0) <= 4e-15
    for k in (300.0, 600.0):
        assert abs(np.sum(w * np.cos(k * x)) - 2.0 * math.sin(k) / k) <= 1e-14


@pytest.mark.parametrize("panels", [1, 2, 3, 160])
def test_composite_rule_is_exact_on_each_sub_panel(panels):
    # n / 32 equal sub-panels of [-1, 1], each carrying the base rule:
    # sub-panel j integrates the Legendre polynomials of degree up to 63,
    # shifted onto it, exactly (2 / panels for degree 0, else 0)
    n = 32 * panels
    x, w = quadrature._leggauss(n)
    assert len(x) == len(w) == n
    assert np.all(np.diff(x) > 0)
    assert_array_equal(x, -x[::-1])
    assert_array_equal(w, w[::-1])
    assert abs(np.sum(w) - 2.0) <= 4e-15
    for j in range(panels):
        at = slice(32 * j, 32 * (j + 1))
        t = x[at] * panels - (2 * j + 1 - panels)  # back onto [-1, 1]
        assert np.all(np.abs(t) < 1.0)
        for k in range(64):
            p_k = legval(t, np.eye(1, k + 1, k)[0])
            exact = 2.0 / panels if k == 0 else 0.0
            assert abs(np.sum(w[at] * p_k) - exact) <= 1e-14, (j, k)


# (k, node, weight) of the base rule to 30 digits, k = 1 the node nearest
# x = 1, from Newton's method on the recurrence in 40-digit mpmath
# arithmetic: the end node, the tenth and eleventh nodes and the node
# nearest x = 0
SMALL_RULE_LITERALS = [
    (32, 1, "0.997263861849481563544981128665",
     "0.00701861000947009660040706373885"),
    (32, 10, "0.587715757240762329040745476402",
     "0.0781938957870703064717409188283"),
    (32, 11, "0.506899908932229390023747474378",
     "0.0833119242269467552221990746043"),
    (32, 16, "0.0483076656877383162348125704405",
     "0.0965400885147278005667648300636"),
]


@pytest.mark.parametrize("n, k, node, weight", SMALL_RULE_LITERALS)
def test_small_rule_matches_literals(n, k, node, weight):
    # the end weight is taken through the last Newton step, not from the
    # rounded node, which would move it by up to ulp(x) / (1 - x) ~ 2e-14
    x, w = quadrature._leggauss(n)
    assert abs(x[n - k] - float(node)) <= 2.3e-16
    assert abs(w[n - k] / float(weight) - 1.0) <= 1e-14


# ---------------------------------------------------------------- grid

def test_grid_floors():
    assert polar_node_floor(0.0) == 32
    assert polar_node_floor(100.0) == 404
    assert azimuth_node_floor(0.0) == 16
    assert azimuth_node_floor(50.0) == 204


def test_grid_for_position():
    config = CavityConfig(rho=0.98)
    grid = AngularGrid.for_position([30.0, 0.0, 40.0], config)
    assert grid.n_polar >= polar_node_floor(50.0)
    assert grid.n_azimuth >= azimuth_node_floor(30.0)
    doubled = grid.doubled()
    assert doubled.n_polar == 2 * grid.n_polar
    assert doubled.n_azimuth == 2 * grid.n_azimuth
    # n_polar is the floor rounded up to whole 32-node sub-panels, out to
    # the supported 300/k: 32 to 1216 nodes, 38 counts
    counts = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for kz in np.linspace(0.0, 300.0, 6001):
            floor = polar_node_floor(kz)
            grid = AngularGrid.for_position([0.0, 0.0, kz], config)
            assert grid.n_polar % 32 == 0
            assert floor <= grid.n_polar < floor + 32
            counts.add(grid.n_polar)
    assert sorted(counts) == list(range(32, 1217, 32))


def test_grid_node_cap():
    # the linewidth term grows as |kr|^2 / (1 - rho) without bound; past
    # the cap the grid is refused before any kernel array is allocated
    narrow = CavityConfig(rho=0.9999, k_r_mirror=1.0e3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        with pytest.raises(ValueError, match=r"\|kr\| = 300\.0 needs "
                           r"1799936 polar nodes .* cap of 16384"):
            AngularGrid.for_position([0.0, 0.0, 300.0], narrow)
    # below it the linewidth term still sizes the grid: 2879.9 nodes,
    # rounded up to 90 sub-panels of 32
    assert AngularGrid.for_position([0.0, 0.0, 12.0], narrow).n_polar == 2880


def test_default_axial_scan_reuses_rules():
    # the default 401-point axial scan tiles every rule it needs from the
    # base rule built at import: it calls neither Newton's method nor the
    # reference rule of validation, and never loads numpy.polynomial
    # (1.9 MB of peak memory).  A child process, since this one has
    # loaded it
    code = """
import sys
from vactrap import quadrature, validation
from vactrap.config import RunConfig
from vactrap.fields import ScanSpec, run_scan
calls = {}
def count(module, name):
    f = getattr(module, name)
    def counted(n):
        calls[name] = calls.get(name, 0) + 1
        return f(n)
    setattr(module, name, counted)
for module, name in ((quadrature, "_gauss_legendre"),
                     (validation, "_reference_leggauss"),
                     (quadrature, "_leggauss")):
    count(module, name)
run = RunConfig.defaults()
run_scan(ScanSpec("axial", -100.0, 100.0, 401, run.cavity, run.orientation))
print(sorted(calls), "numpy.polynomial" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['_leggauss'] False"


def test_high_finesse_plan_builds_large_rules_without_newton(monkeypatch):
    # rho = 0.9999 over the default axial range needs 79 grids of up to
    # 2528 polar nodes, 5056 doubled; Newton on the recurrence, O(n^2)
    # each, took seconds for rules this large, and tiling takes none
    def newton(n):
        raise AssertionError(f"Newton's method called for {n} nodes")

    monkeypatch.setattr(quadrature, "_gauss_legendre", newton)
    config = CavityConfig(rho=0.9999)
    kr = np.zeros((401, 3))
    kr[:, 2] = np.linspace(-100.0, 100.0, 401)
    ns = sorted({grid.n_polar for grid, _ in quadrature.plan_blocks(kr,
                                                                     config)})
    assert len(ns) == 79
    assert ns[-1] == 2528
    for n in ns + [2 * n for n in ns]:
        x, w = quadrature._leggauss(n)
        assert len(x) == len(w) == n
        assert abs(np.sum(w) - 2.0) <= 4e-15


def round_up_n_polar(row, config):
    """n_polar from the norm of the row alone: the floor or the
    linewidth term, rounded up to a multiple of 32."""
    r = float(np.linalg.norm(row))
    sweep = (2.0 * r ** 2 * math.sqrt(config.rho)
             / (config.k_r_mirror * (1.0 - config.rho)))
    return 32 * math.ceil(max(polar_node_floor(r), math.ceil(sweep)) / 32)


@pytest.mark.parametrize("axis, half_width, n_points", [
    ("axial", 100.0, 401), ("plane", 20.0, 41), ("transverse", 50.0, 201),
    ("axial", 50.0, 201), ("detuning", 3.0, 241),  # the CLI defaults
    ("axial", 100.0, 41), ("transverse", 50.0, 21), ("plane", 20.0, 15),
])  # and the benchmark's seed-0 grids
def test_plan_sizes_rows_as_each_row_alone(axis, half_width, n_points):
    # the plan sizes rows from the radii of the whole block; a radius
    # taken another way can differ by an ulp (numpy's 1-D norm against
    # its norm along rows, on the 15 x 15 plane), so the plan, the grid
    # of a position and the admission check share one formula.  No row
    # of these grids sits so close to a multiple of 32 that the ulp moves
    # it
    config = RunConfig.defaults().cavity
    spec = ScanSpec(axis, -half_width, half_width, n_points, config,
                    DipoleOrientation.isotropic())
    _, _, kr = _scan_points(spec)
    planned = np.zeros(len(kr), dtype=int)
    for grid, rows in quadrature.plan_blocks(kr, config):
        planned[rows] = grid.n_polar
        grid.check_admissible(kr[rows][np.argmax(quadrature._radius(
            kr[rows]))])
    for row, n in zip(kr, planned):
        assert AngularGrid.for_position(row, config).n_polar == n
        assert round_up_n_polar(row, config) == n
    assert_array_equal(quadrature._radius(kr),
                       [quadrature._radius(row) for row in kr])


def test_block_rows_checked():
    config = CavityConfig(rho=0.9)
    iso = DipoleOrientation.isotropic()
    with pytest.raises(ValueError, match=r"must be finite, got kx=nan$"):
        integrate_sphere([[0.0, 0.0, 1.0], [math.nan, 0.0, 0.0]], iso,
                         config, 0.0)
    with pytest.raises(ValueError, match="exceeds the supported region"):
        integrate_sphere([[0.0, 0.0, 1.0], [0.0, 0.0, 301.0]], iso, config,
                         0.0)
    with pytest.raises(ValueError, match=r"shape \(P, 3\), got \(2, 2\)"):
        integrate_sphere(np.zeros((2, 2)), iso, config, 0.0)
    # a NaN phase once gave NaN rows, or a "did not converge" error; a
    # phase count off the block's, numpy's broadcast message
    block = [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 0.0, 0.0]]
    with pytest.raises(ValueError,
                       match="phase phi0 of row 1 must be finite, got nan"):
        integrate_sphere(block, iso, config, [0.1, math.nan, 0.1],
                         tolerance=1e-9)
    with pytest.raises(ValueError,
                       match="phase phi0 of row 0 must be finite, got inf"):
        integrate_sphere([0.0, 0.0, 1.0], iso, config, math.inf)
    with pytest.raises(ValueError, match="^2 phases for 3 positions$"):
        integrate_sphere(block, iso, config, [0.1, 0.2])
    # a tolerance that is not positive once marked every row failed
    for tolerance in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            integrate_sphere(block, iso, config, 0.1, tolerance=tolerance)
    # without a grid a block takes its farthest row's, so that row is the
    # same as a call at it alone
    block = integrate_sphere([[0.0, 0.0, 1.0], [3.0, 0.0, 4.0]], iso, config,
                             0.0)
    assert block.gamma_ratio.shape == (2,)
    far = integrate_sphere([3.0, 0.0, 4.0], iso, config, 0.0)
    assert block.gamma_ratio[1] == far.gamma_ratio


FIXED = DipoleOrientation.fixed(np.array([2.0, -1.0, 2.0]) / 3.0)
# rows on the axis (whole rings only), at 0 < beta < theta (both panels)
# and at beta >= theta (cut rings only, the fourth at beta = theta)
MIXED_BLOCK = np.array([
    [0.0, 0.0, 0.0], [0.0, 0.0, -6.0], [1.0, 0.5, 5.0], [-3.0, 0.0, -2.5],
    [4.0, 0.0, 4.0], [4.0, -2.0, 1.0], [6.0, 0.0, 0.0], [0.0, -2.0, 0.5],
])


@pytest.mark.parametrize("orientation", ORIENTATIONS + (FIXED,),
                         ids=["parallel", "perpendicular", "isotropic",
                              "fixed"])
@pytest.mark.parametrize("with_gradient", [False, True])
@pytest.mark.parametrize("tolerance", [None, 1e-9])
def test_block_mixing_panel_kinds_matches_rows_alone(orientation,
                                                     with_gradient,
                                                     tolerance):
    # a block of mixed kinds lays the panels a row lacks over a stand-in
    # at weight 0; those zeros are a run of n_polar columns that numpy's
    # pairwise sum adds as a half of its own, so each row keeps the bits
    # it gets alone, where only its own panels are built
    config = CavityConfig(rho=0.98)
    beta = quadrature._cone_angle(MIXED_BLOCK)
    theta = effective_theta(config)
    assert set(zip(beta < theta, beta > 0.0)) == {
        (True, False), (True, True), (False, True)}
    assert beta[4] == theta
    phi0 = np.linspace(-0.3, 0.4, len(MIXED_BLOCK))
    for n_polar in (32, 96, 256):
        grid = AngularGrid(n_polar, 16)
        block = integrate_sphere(MIXED_BLOCK, orientation, config, phi0,
                                 grid=grid, tolerance=tolerance,
                                 with_gradient=with_gradient)
        for i, (kr, phase) in enumerate(zip(MIXED_BLOCK, phi0)):
            alone = integrate_sphere(kr, orientation, config, phase,
                                     grid=grid, tolerance=tolerance,
                                     with_gradient=with_gradient)
            assert block.gamma_ratio[i] == alone.gamma_ratio
            assert block.shift_ratio[i] == alone.shift_ratio
            if with_gradient:
                assert_array_equal(block.shift_gradient[i],
                                   alone.shift_gradient)


def kernel_widths(monkeypatch, spec):
    """Run the scan and return, for each pass through the kernel, the
    panel kinds of its block's rows (whole rings?, cut rings?), its rule's
    polar count and the width of the kernel's arrays."""
    theta = effective_theta(spec.config)
    leggauss, cap_terms = quadrature._leggauss, quadrature._cap_terms
    integrate, passes = fields.integrate_sphere, []

    def block(kr, *args, **kwargs):
        beta = quadrature._cone_angle(kr)
        passes.append([set(zip((beta < theta).tolist(),
                               (beta > 0.0).tolist()))])
        return integrate(kr, *args, **kwargs)

    def rule(n):
        passes[-1].append(n)
        return leggauss(n)

    def kernel(rho, phi, u, with_gradient=False):
        passes[-1].append(u.shape[1])
        return cap_terms(rho, phi, u, with_gradient)

    monkeypatch.setattr(fields, "integrate_sphere", block)
    monkeypatch.setattr(quadrature, "_leggauss", rule)
    monkeypatch.setattr(quadrature, "_cap_terms", kernel)
    fields.run_scan(spec, pi_e=0.05)
    # each block makes two passes, at n and doubled: rule, kernel, twice
    assert all(len(p) == 5 for p in passes)
    return [(kinds, n, width) for kinds, *p in passes
            for n, width in zip(p[::2], p[1::2])]


@pytest.mark.parametrize("axis", ["axial", "transverse"])
def test_line_scans_evaluate_one_panel(monkeypatch, axis):
    # axial rows have whole rings only and transverse rows cut rings only
    # (beta = pi/2), the center whole rings only: the kernel sees n_polar
    # columns a row, not two panels of them
    spec = ScanSpec(axis, -30.0, 30.0, 21, CavityConfig(rho=0.98),
                    DipoleOrientation.isotropic(), Detuning(-0.5))
    widths = kernel_widths(monkeypatch, spec)
    assert len(widths) >= 2
    assert all(width == n for _, n, width in widths)


def test_plane_scan_blocks_hold_one_panel_kind(monkeypatch):
    spec = ScanSpec("plane", -10.0, 10.0, 9, CavityConfig(rho=0.98), FIXED,
                    Detuning(-0.5))
    widths = kernel_widths(monkeypatch, spec)
    assert set().union(*(kinds for kinds, _, _ in widths)) == {
        (True, False), (True, True), (False, True)}
    for kinds, n, width in widths:
        assert len(kinds) == 1
        (whole, cut), = kinds
        assert width == n * (whole + cut)


def test_grid_invariants():
    with pytest.raises(ValueError):
        AngularGrid(0, 16)
    with pytest.raises(ValueError):
        AngularGrid(32, 0)
    # the smallest grid is the polar floor at the center
    with pytest.raises(ValueError, match=r"^a grid needs n_polar >= 32 and "
                       r"n_azimuth >= 1, got 31 and 16$"):
        AngularGrid(31, 16)
    assert AngularGrid(32, 16).n_polar == polar_node_floor(0.0)
    # the composite rule tiles whole 32-node sub-panels
    with pytest.raises(ValueError, match=r"^n_polar=48 is not a multiple "
                       r"of 32, the nodes of one sub-panel$"):
        AngularGrid(48, 16)
    # the cap bounds a block's kernel arrays; a default grid at the cap
    # may still be doubled
    with pytest.raises(ValueError, match="n_polar=32800 is above the cap "
                       "of 32768"):
        AngularGrid(2 * MAX_POLAR_NODES + 32, 16)
    assert AngularGrid(MAX_POLAR_NODES, 16).doubled().n_polar == 32768


@pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 26, 31])
def test_grid_below_the_polar_floor_refused(n):
    with pytest.raises(ValueError, match=f"got {n} and 16$"):
        AngularGrid(n, 16)


def test_undersized_grid_rejected():
    config = CavityConfig(rho=0.98)
    grid = AngularGrid(32, 16)
    with pytest.raises(ValueError):
        integrate_sphere([0.0, 0.0, 50.0], DipoleOrientation.isotropic(),
                         config, 0.0, grid=grid)


# ----------------------------------------------------------- integrals

def test_free_space_any_position():
    config = CavityConfig(rho=0.0)
    rng = np.random.default_rng(42)
    fixed = DipoleOrientation.fixed(np.array([2.0, -1.0, 2.0]) / 3.0)
    for _ in range(6):
        kr = rng.normal(size=3)
        kr *= rng.uniform(0, 100) / np.linalg.norm(kr)
        for orientation in ORIENTATIONS + (fixed,):
            resp = integrate_sphere(kr, orientation, config, 0.0)
            assert abs(resp.gamma_ratio - 1.0) < 1e-10
            assert abs(resp.shift_ratio) < 1e-10


def test_center_matches_closed_forms():
    configs = [
        CavityConfig(rho=0.98),
        CavityConfig(rho=0.98, apply_diffraction_correction=True),
        CavityConfig(rho=0.7, theta_m=0.5),
    ]
    for config in configs:
        for phi0 in (0.0, 0.01, -0.4):
            for orientation in ORIENTATIONS:
                resp = integrate_sphere([0.0, 0.0, 0.0], orientation, config,
                                        phi0, tolerance=1e-8)
                cg = center_gamma(orientation, config, phi0)
                cs = center_shift(orientation, config, phi0)
                assert_allclose(resp.gamma_ratio, cg, rtol=1e-8)
                assert_allclose(resp.shift_ratio, cs, rtol=1e-8, atol=1e-12)


def test_off_center_brute_force_reference():
    config, kr, phi0 = brute_force_case()
    cases = {
        "isotropic": DipoleOrientation.isotropic(),
        "parallel": DipoleOrientation.parallel(),
        "fixed": DipoleOrientation.fixed(
            np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0)),
    }
    for name, orientation in cases.items():
        resp = integrate_sphere(kr, orientation, config, phi0,
                                tolerance=1e-9)
        g_ref, s_ref = BRUTE_FORCE_REFS[name]
        assert_allclose(resp.gamma_ratio, g_ref, rtol=1e-8)
        assert_allclose(resp.shift_ratio, s_ref, rtol=1e-8)


def test_gamma_ratio_positive_everywhere():
    # the damping integrand is pointwise nonnegative and the vacuum part
    # never vanishes for rho < 1, so the ratio stays strictly positive
    rng = np.random.default_rng(77)
    for i in range(10):
        config = CavityConfig(rho=float(rng.uniform(0.0, 0.999)),
                              theta_m=float(rng.uniform(0.2, 1.4)))
        kr = rng.normal(size=3)
        kr *= rng.uniform(0.0, 80.0) / np.linalg.norm(kr)
        phi0 = float(rng.uniform(-math.pi / 2, math.pi / 2))
        resp = integrate_sphere(kr, ORIENTATIONS[i % 3], config, phi0)
        assert resp.gamma_ratio > 0.0


def test_accepts_position_instance():
    from vactrap.cavity import Position
    config = CavityConfig(rho=0.9)
    direct = integrate_sphere([1.0, 2.0, 3.0], ORIENTATIONS[2], config, 0.01)
    wrapped = integrate_sphere(Position((1.0, 2.0, 3.0)), ORIENTATIONS[2],
                               config, 0.01)
    assert direct.gamma_ratio == wrapped.gamma_ratio


def test_position_parity():
    # damping and shift are even under kr -> -kr, so the gradient is odd
    config = CavityConfig(rho=0.95, theta_m=0.7)
    rng = np.random.default_rng(9)
    fixed = DipoleOrientation.fixed(np.array([2.0, -1.0, 2.0]) / 3.0)
    for _ in range(4):
        kr = rng.normal(size=3)
        kr *= rng.uniform(1, 40) / np.linalg.norm(kr)
        for orientation in ORIENTATIONS + (fixed,):
            plus = integrate_sphere(kr, orientation, config, 0.02,
                                    with_gradient=True)
            minus = integrate_sphere(-kr, orientation, config, 0.02,
                                     with_gradient=True)
            assert abs(plus.gamma_ratio - minus.gamma_ratio) < 1e-12
            assert abs(plus.shift_ratio - minus.shift_ratio) < 1e-12
            assert_allclose(plus.shift_gradient, -minus.shift_gradient,
                            rtol=0, atol=1e-12)


def test_rotation_symmetry_about_axis():
    # rotating the position about the axis rotates the gradient with it
    config = CavityConfig(rho=0.98)
    rng = np.random.default_rng(13)
    for orientation in (DipoleOrientation.parallel(),
                        DipoleOrientation.isotropic()):
        r_perp, z = 17.0, -9.0
        base = integrate_sphere([r_perp, 0.0, z], orientation, config, 0.01,
                                with_gradient=True)
        for angle in rng.uniform(0, 2 * math.pi, 3):
            kr = [r_perp * math.cos(angle), r_perp * math.sin(angle), z]
            rot = integrate_sphere(kr, orientation, config, 0.01,
                                   with_gradient=True)
            assert abs(rot.gamma_ratio - base.gamma_ratio) < 1e-8
            assert abs(rot.shift_ratio - base.shift_ratio) < 1e-8
            c, s = math.cos(angle), math.sin(angle)
            rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            assert_allclose(rot.shift_gradient,
                            rotation @ base.shift_gradient,
                            rtol=0, atol=1e-10)


def test_fast_path_matches_general():
    # the zonal rule against one pass of validation's 2-D reference rule
    # on the same default grid, on and off the axis
    config = CavityConfig(rho=0.98)
    phi0 = 0.5 * phase_fwhm(0.98)
    points = [(0.0, 0.0, kz) for kz in (0.0, 2.3, 21.0, -60.0)] + [
        (1e-6, 0.0, 30.0), (5.0, 0.0, 0.0), (20.0, -5.0, 20.0),
        (-12.0, 30.0, 9.0)]
    for orientation in ORIENTATIONS:
        for kr in points:
            zonal = integrate_sphere(kr, orientation, config, phi0,
                                     with_gradient=True)
            sphere = validation._reference_pass(
                kr, orientation, config, phi0,
                AngularGrid.for_position(kr, config))
            assert abs(zonal.gamma_ratio - sphere.gamma_ratio) < 1e-10
            assert abs(zonal.shift_ratio - sphere.shift_ratio) < 1e-10
            assert np.all(np.abs(zonal.shift_gradient
                                 - sphere.shift_gradient) < 1e-10)


def test_doubling_convergence_default_grids():
    # doubling both node counts moves well-resolved results by < 1e-6
    config = CavityConfig(rho=0.98)
    rng = np.random.default_rng(31)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(3):
            kr = rng.normal(size=3)
            kr *= rng.uniform(1, 100) / np.linalg.norm(kr)
            base = integrate_sphere(kr, DipoleOrientation.isotropic(),
                                    config, 0.005)
            grid = AngularGrid.for_position(kr, config).doubled()
            fine = integrate_sphere(kr, DipoleOrientation.isotropic(),
                                    config, 0.005, grid=grid)
            assert abs(fine.gamma_ratio - base.gamma_ratio) \
                < 1e-6 * max(1.0, abs(fine.gamma_ratio))
            assert abs(fine.shift_ratio - base.shift_ratio) \
                < 1e-6 * max(1.0, abs(fine.shift_ratio))


def test_refined_grids_agree_at_far_axis_point():
    # kz = -99.5 is next to the end of the default axial scan: its doubled
    # and twice-doubled grids agree to rounding when the Gauss-Legendre
    # weights are exact (eigensolver weights moved it by 1.3e-13)
    run = RunConfig.defaults()
    phi0 = run.detuning.phase(run.cavity.rho)
    kr = [0.0, 0.0, -99.5]
    grid = AngularGrid.for_position(kr, run.cavity).doubled()
    fine = integrate_sphere(kr, run.orientation, run.cavity, phi0, grid=grid)
    finer = integrate_sphere(kr, run.orientation, run.cavity, phi0,
                             grid=grid.doubled())
    for a, b in ((fine.gamma_ratio, finer.gamma_ratio),
                 (fine.shift_ratio, finer.shift_ratio)):
        assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def test_convergence_error_reports_estimate():
    # high finesse + strong aberration chirp genuinely under-resolves the
    # floor grid, so the doubling check must trip
    config = CavityConfig(rho=0.995, k_r_mirror=1.0e3,
                          theta_m=math.radians(50))
    kr = [60.0, 0.0, 55.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_sphere(kr, DipoleOrientation.isotropic(), config, 0.0,
                             tolerance=1e-10)
    err = excinfo.value
    assert err.estimate.gamma_ratio > 0
    assert err.change[0] > 1e-10 or err.change[1] > 1e-10
    # the same case passes with a tolerance looser than the change
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        resp = integrate_sphere(kr, DipoleOrientation.isotropic(), config,
                                0.0, tolerance=0.1)
    assert resp.gamma_ratio > 0


# --------------------------------------------------------- monte carlo

def test_monte_carlo_free_space():
    config = CavityConfig(rho=0.0)
    resp, (se_g, se_s) = monte_carlo_reference(
        [5.0, 0.0, 3.0], DipoleOrientation.isotropic(), config, 0.0,
        20_000, seed=1)
    assert abs(resp.gamma_ratio - 1.0) <= max(3 * se_g, 1e-12)
    assert abs(resp.shift_ratio) <= max(3 * se_s, 1e-12)


def test_monte_carlo_agrees_with_quadrature():
    config, kr, phi0 = brute_force_case()
    for seed, orientation in ((17, DipoleOrientation.isotropic()),
                              (18, DipoleOrientation.parallel())):
        quad = integrate_sphere(kr, orientation, config, phi0)
        mc, (se_g, se_s) = monte_carlo_reference(kr, orientation, config,
                                                 phi0, 200_000, seed=seed)
        assert abs(quad.gamma_ratio - mc.gamma_ratio) < 3 * se_g
        assert abs(quad.shift_ratio - mc.shift_ratio) < 3 * se_s


def test_monte_carlo_determinism():
    config = CavityConfig(rho=0.9)
    args = ([1.0, 2.0, 3.0], DipoleOrientation.isotropic(), config, 0.01)
    first, se_first = monte_carlo_reference(*args, 50_000, seed=7)
    second, se_second = monte_carlo_reference(*args, 50_000, seed=7)
    assert first.gamma_ratio == second.gamma_ratio
    assert first.shift_ratio == second.shift_ratio
    assert se_first == se_second
    third, _ = monte_carlo_reference(*args, 50_000, seed=8)
    assert third.gamma_ratio != first.gamma_ratio


def test_monte_carlo_error_scaling():
    # standard error shrinks like 1/sqrt(2) when samples double
    config = CavityConfig(rho=0.95)
    args = ([4.0, 1.0, 2.0], DipoleOrientation.isotropic(), config, 0.01)
    _, (se_n, _) = monte_carlo_reference(*args, 100_000, seed=3)
    _, (se_2n, _) = monte_carlo_reference(*args, 200_000, seed=3)
    ratio = se_2n / se_n
    assert 0.8 / math.sqrt(2) < ratio < 1.2 / math.sqrt(2)


@pytest.mark.parametrize("orientation, rho", [
    *((orientation, 0.98) for orientation in ORIENTATIONS),
    (DipoleOrientation.fixed(np.array([0.3, 0.4, 0.866])
                             / math.sqrt(0.3**2 + 0.4**2 + 0.866**2)), 0.98),
    (DipoleOrientation.isotropic(), 0.0),
])
def test_monte_carlo_matches_the_full_array_formula(orientation, rho,
                                                    monkeypatch):
    # the oracle builds directions for the cap samples only; from the
    # same draws, the integrand over every direction must give the same
    # means and errors.  It never reads the band's closed-form share
    def refuse(*args):
        raise AssertionError("the band share must be sampled")

    monkeypatch.setattr(quadrature, "aperture_weights", refuse)
    config = CavityConfig(rho=rho)
    kr, n, seed = np.array([3.0, -2.0, 5.0]), 50_000, 11
    mc, errors = monte_carlo_reference(kr, orientation, config, 0.01, n,
                                       seed)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n)
    az = rng.uniform(0.0, 2.0 * math.pi, n)
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    dirs = np.column_stack([s * np.cos(az), s * np.sin(az), z])
    samples = _sample_terms(dirs, kr, orientation, config, 0.01)
    assert_allclose([mc.gamma_ratio, mc.shift_ratio, *errors],
                    [*(np.mean(x) for x in samples),
                     *(np.std(x, ddof=1) / math.sqrt(n) for x in samples)],
                    rtol=1e-13, atol=0)
    assert (mc.shift_ratio == 0.0) == (rho == 0.0)


def test_monte_carlo_rejects_small_samples():
    config = CavityConfig(rho=0.9)
    with pytest.raises(ValueError):
        monte_carlo_reference([0.0, 0.0, 0.0], DipoleOrientation.isotropic(),
                              config, 0.0, 100, seed=0)
