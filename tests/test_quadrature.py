"""Sphere integration against closed forms, brute-force references and
the Monte-Carlo oracle."""

import math
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legval
from numpy.testing import assert_allclose, assert_array_equal

from vactrap import cli, fields, quadrature, validation
from vactrap.cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    ValidityWarning,
    _radius,
    cap_brackets,
    center_gamma,
    center_shift,
    effective_theta,
    phase_fwhm,
    ray_phase,
)
from vactrap.config import RunConfig
from vactrap.fields import ScanSpec, _scan_points
from vactrap.quadrature import (
    MAX_POLAR_NODES,
    ConvergenceError,
    integrate_sphere,
    polar_node_floor,
)
from vactrap.validation import (
    AngularGrid,
    _pol_weight,
    azimuth_node_floor,
    monte_carlo_reference,
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

def _sample_terms(dirs, kr, orientation, config, phi0):
    """The integrand pointwise over an (n, 3) array of unit directions,
    with the cap selected direction by direction: the reference form of
    what the Monte-Carlo oracle evaluates in chunks."""
    w = _pol_weight(orientation, dirs[:, 0], dirs[:, 1], dirs[:, 2])
    gamma = w.copy()
    shift = np.zeros_like(w)
    inside = np.abs(dirs[:, 2]) >= math.cos(effective_theta(config))
    if np.any(inside):
        u = dirs[inside] @ kr
        phi = ray_phase(phi0, float(kr @ kr), u, config.k_r_mirror)
        g, s, _, _ = cap_brackets(config.rho, phi, u)
        gamma[inside] = w[inside] * g
        shift[inside] = w[inside] * s
    return gamma, shift


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


def test_grid_azimuth_follows_the_ring_sweep():
    # 32 azimuth nodes per linewidth that a cap ring's phase sweeps in
    # half a turn, k_perp (|kz| + k_perp) / kR at most, where that is
    # above the azimuth floor plus 16: never with the default mirrors
    # out to the 100/k warning radius, but beyond it at (212, 0, 212), at
    # (-12, 5, 16) with rho = 0.9999 (47.1 linewidths) and with
    # rho = 0.995 and kR = 1e3 (75.2).  Doubling either of the last two
    # counts moves the reference by <= 4.3e-14 and 2.2e-16
    default = CavityConfig(rho=0.98)
    rng = np.random.default_rng(5)
    for kr in rng.uniform(-1.0, 1.0, (200, 3)):
        kr *= rng.uniform(0.0, 100.0) / np.linalg.norm(kr)
        assert AngularGrid.for_position(kr, default).n_azimuth == \
            azimuth_node_floor(math.hypot(kr[0], kr[1])) + 16
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        assert AngularGrid.for_position([212.0, 0.0, 212.0],
                                        default).n_azimuth == 1780
    kr = [-12.0, 5.0, 16.0]
    assert AngularGrid.for_position(kr, default).n_azimuth == 72
    assert AngularGrid.for_position(kr, CavityConfig(rho=0.9999)) == \
        AngularGrid(128, 1508)
    assert AngularGrid.for_position(kr, CavityConfig(
        rho=0.995, k_r_mirror=1.0e3)) == AngularGrid(192, 2407)


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
    # (1.9 MB of peak memory) nor numpy.ma, which np.unique imports on
    # first use (15 ms); and no vactrap module, the CLI included, loads
    # dataclasses, whose code generation cost ~11 ms a process.  A child
    # process, since this one has loaded them
    code = """
import sys
import vactrap.cli
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
                     (validation, "_fejer_rule"),
                     (quadrature, "_leggauss")):
    count(module, name)
run = RunConfig.defaults()
run_scan(ScanSpec("axial", -100.0, 100.0, 401, run.cavity, run.orientation))
print(sorted(calls), "numpy.polynomial" in sys.modules,
      "numpy.ma" in sys.modules, "dataclasses" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['_leggauss'] False False False"


def planned_blocks(monkeypatch, spec):
    """The (n_polar, rows) of every kernel pass, before the doubling
    check, of the scan of spec, recorded by ``rule_passes``: each row
    is a kernel row's (|kr|, beta, phi0).  Checks on the way that
    ``run_scan`` makes one ``integrate_sphere`` call for the whole scan,
    that each pass holds rows of one panel kind and at most the budget's
    rows, and that the doubling check runs the same passes at twice
    their counts."""
    calls = []
    integrate = fields.integrate_sphere

    def counted(kr, *args, **kwargs):
        calls.append(len(kr))
        return integrate(kr, *args, **kwargs)

    monkeypatch.setattr(fields, "integrate_sphere", counted)
    passes = rule_passes(monkeypatch)
    fields.run_scan(spec)
    assert calls == [len(_scan_points(spec)[2])]
    assert len(passes) % 2 == 0
    base, doubled = passes[:len(passes) // 2], passes[len(passes) // 2:]
    for (rows, n, kind, _), (rows2, n2, kind2, _) in zip(base, doubled):
        assert_array_equal(rows2, rows)
        assert (n2, kind2) == (2 * n, kind)
        assert len(rows) <= max(1, quadrature.BLOCK_NODES // (4 * n))
        assert panel_kinds(rows[:, 1], spec.config) == {kind}
    return [(n, rows) for rows, n, _, _ in base]


def test_high_finesse_plan_builds_large_rules_without_newton(monkeypatch):
    # rho = 0.9999 over the default axial range needs 79 grids of up to
    # 2528 polar nodes, 5056 doubled; Newton on the recurrence, O(n^2)
    # each, took seconds for rules this large, and tiling takes none
    def newton(n):
        raise AssertionError(f"Newton's method called for {n} nodes")

    monkeypatch.setattr(quadrature, "_gauss_legendre", newton)
    spec = ScanSpec("axial", -100.0, 100.0, 401, CavityConfig(rho=0.9999),
                    DipoleOrientation.isotropic())
    ns = sorted({n for n, _ in planned_blocks(monkeypatch, spec)})
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
def test_plan_sizes_rows_as_each_row_alone(monkeypatch, axis, half_width,
                                           n_points):
    # the scan sizes rows from the radii of the whole block; a radius
    # taken another way can differ by an ulp (numpy's 1-D norm against
    # its norm along rows, on the 15 x 15 plane), so the scan, the grid
    # of a position and the admission check share one formula.  No row
    # of these grids sits so close to a multiple of 32 that the ulp moves
    # it
    config = RunConfig.defaults().cavity
    spec = ScanSpec(axis, -half_width, half_width, n_points, config,
                    DipoleOrientation.isotropic())
    _, phi0, kr = _scan_points(spec)
    # one integrate_sphere call for the whole scan, whatever its size,
    # split into passes of one count: for the isotropic dipole a row's
    # integrand is its |kr|, beta and phi0, and each distinct one is in
    # one pass, once
    blocks = planned_blocks(monkeypatch, spec)
    sent = [tuple(row) for _, rows in blocks for row in rows]
    keys = list(zip(_radius(kr), cone_angle(kr), phi0))
    assert sorted(sent) == sorted(set(keys))
    count = {tuple(row): n for n, rows in blocks for row in rows}
    for row, key in zip(kr, keys):
        assert AngularGrid.for_position(row, config).n_polar == count[key]
        assert round_up_n_polar(row, config) == count[key]
    assert_array_equal(_radius(kr), [_radius(row) for row in kr])


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
    # without a grid each row takes the count of its own radius, so every
    # row of a block of mixed radii (32, 32, 128 and 160 polar nodes) is
    # the same as a call at it alone
    block = np.array([[0.0, 0.0, 1.0], [3.0, 0.0, 4.0], [0.0, 0.0, -30.0],
                      [20.0, -5.0, 25.0]])
    phi0 = [0.1, -0.2, 0.0, 0.3]
    for tolerance in (None, 1e-9):
        for with_gradient in (False, True):
            kw = dict(tolerance=tolerance, with_gradient=with_gradient)
            rows = integrate_sphere(block, iso, config, phi0, **kw)
            assert rows.gamma_ratio.shape == (4,)
            for i, (kr, phase) in enumerate(zip(block, phi0)):
                alone = integrate_sphere(kr, iso, config, phase, **kw)
                assert rows.gamma_ratio[i] == alone.gamma_ratio
                assert rows.shift_ratio[i] == alone.shift_ratio
                if with_gradient:
                    assert_array_equal(rows.shift_gradient[i],
                                       alone.shift_gradient)


def test_grid_for_a_block_is_its_farthest_rows():
    # a block is sized by its farthest row, by the radius that sizes and
    # admits rows; a row that is not finite raises as Position does
    config = CavityConfig(rho=0.98)
    block = np.array([[0.0, 0.0, 1.0], [30.0, 0.0, -40.0], [0.0, 12.0, 3.0]])
    assert AngularGrid.for_position(block, config) == \
        AngularGrid.for_position(block[1], config)
    assert AngularGrid.for_position(block[::-1], config) == \
        AngularGrid.for_position(block[1], config)
    block[2, 0] = math.nan
    with pytest.raises(ValueError, match=r"must be finite, got kx=nan$"):
        AngularGrid.for_position(block, config)


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
    # integrate_sphere splits a block of mixed kinds into passes of one
    # kind each, so a row's rule has only its own panels and the row
    # keeps the bits it gets alone
    config = CavityConfig(rho=0.98)
    beta = cone_angle(MIXED_BLOCK)
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


def rule_passes(monkeypatch, builds=None):
    """Record, for each kernel pass from now on (each ``_integrate_once``
    call), its rows as (|kr|, beta, phi0), the polar count and panel kind
    of the zonal rule it runs on, and the width of its kernel arrays.
    Each rule build (each ``_zonal_rule`` call) is appended to
    ``builds``, when given, as its rows' cone angles and dipoles q, its
    count and kind: the rule of a pass whose rows share those inputs is
    built for one row, and the next passes may share it."""
    zonal_rule = quadrature._zonal_rule
    integrate_once = quadrature._integrate_once
    rules, passes = {}, []

    def rule(n_polar, theta, beta, q, whole, cut, with_gradient):
        nodes = zonal_rule(n_polar, theta, beta, q, whole, cut,
                           with_gradient)
        rules[id(nodes[0])] = nodes, beta.copy(), n_polar, (whole, cut)
        if builds is not None:
            builds.append((beta.copy(), q.copy(), n_polar, (whole, cut)))
        return nodes

    def once(kr_sq, u, axes, phi0, config, weighted, with_gradient):
        axes = list(axes)
        (c, norm), *_ = axes
        nodes, beta, n_polar, kind = rules[id(c)]
        assert c is nodes[0]
        assert_array_equal(kr_sq, norm * norm)
        rows = np.column_stack([norm[:, 0], np.broadcast_to(beta, len(norm)),
                                phi0[:, 0]])
        passes.append((rows, n_polar, kind, c.shape[1]))
        return integrate_once(kr_sq, u, axes, phi0, config, weighted,
                              with_gradient)

    monkeypatch.setattr(quadrature, "_zonal_rule", rule)
    monkeypatch.setattr(quadrature, "_integrate_once", once)
    return passes


def cone_angle(kr):
    """The cone angle beta of each row of the (P, 3) block kr."""
    return quadrature._ring_frame(kr)[0]


def panel_kinds(beta, config):
    """The panel kinds (whole rings?, cut rings?) of rows at the cone
    angles beta: a row has a panel if the panel's width is above 0."""
    theta = effective_theta(config)
    return set(zip((theta - beta > 0.0).tolist(),
                   (theta + beta - np.abs(theta - beta) > 0.0).tolist()))


def kernel_widths(monkeypatch, spec):
    """Run the scan and return, for each pass through the kernel, the
    panel kinds of its rows, its rule's polar count and the width of the
    kernel's arrays."""
    passes = rule_passes(monkeypatch)
    fields.run_scan(spec, pi_e=0.05)
    # each pass runs on a rule of the kind of its rows
    kinds = [panel_kinds(rows[:, 1], spec.config)
             for rows, _, _, _ in passes]
    assert all(kind == {given}
               for kind, (_, _, given, _) in zip(kinds, passes))
    return [(kind, n, width)
            for kind, (_, n, _, width) in zip(kinds, passes)]


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


@pytest.mark.parametrize("orientation", [DipoleOrientation.isotropic(),
                                         FIXED], ids=["isotropic", "fixed"])
def test_caller_block_passes_hold_one_kind_and_budget(monkeypatch,
                                                      orientation):
    # a caller's block of hundreds of rows that interleaves all three
    # kinds is integrated in passes of one kind and at most the budget's
    # rows, so its memory is that of one pass, and each row keeps the
    # bits it gets alone
    config = CavityConfig(rho=0.98)
    rng = np.random.default_rng(19)
    kr = rng.uniform(-6.0, 6.0, (300, 3))
    kr[::5, :2] = 0.0  # on the axis
    kr[7] = 0.0
    kr[11] = [4.0, 0.0, 4.0]  # beta = theta
    # a hair off the axis, as a plane scan from -0.3 over 31 points has
    # kx = 5.55e-17: the cut width rounds to 0, so whole rings only
    kr[13] = [1e-17, 0.0, 1.0]
    kr[17] = [5.551115123125783e-17, 0.0, -2.0]
    phi0 = rng.uniform(-0.5, 0.5, len(kr))
    beta = cone_angle(kr)
    assert len(panel_kinds(beta, config)) == 3
    assert panel_kinds(beta[[13, 17]], config) == {(True, False)}
    grid = AngularGrid(96, 16)
    budget = quadrature.BLOCK_NODES // (4 * grid.n_polar)
    passes = rule_passes(monkeypatch)
    block = integrate_sphere(kr, orientation, config, phi0, grid=grid,
                             tolerance=1e-9, with_gradient=True)
    assert {n for _, n, _, _ in passes} == {96, 192}
    for n in (96, 192):  # every row its own kernel row: the phases differ
        rows = np.concatenate([rows for rows, m, _, _ in passes if m == n])
        assert sorted(map(tuple, rows)) == sorted(
            zip(_radius(kr), beta, phi0))
    for rows, n, given, width in passes:
        assert len(rows) <= budget
        assert panel_kinds(rows[:, 1], config) == {given}
        whole, cut = given
        assert width == n * (whole + cut)
    assert np.all(np.isfinite(block.gamma_ratio))
    assert np.all(np.isfinite(block.shift_gradient))
    for i in (0, 1, 2, 5, 7, 11, 13, 17, 150, 299):
        alone = integrate_sphere(kr[i], orientation, config, phi0[i],
                                 grid=grid, tolerance=1e-9,
                                 with_gradient=True)
        assert block.gamma_ratio[i] == alone.gamma_ratio
        assert block.shift_ratio[i] == alone.shift_ratio
        assert_array_equal(block.shift_gradient[i], alone.shift_gradient)


def assert_rows_alone(block, kr, orientation, config, phi0, **kwargs):
    """Each row of the Response ``block`` at the positions kr is, bit for
    bit, the call at its position alone."""
    for i, (row, phase) in enumerate(zip(kr, phi0)):
        alone = integrate_sphere(row, orientation, config, phase, **kwargs)
        assert block.gamma_ratio[i] == alone.gamma_ratio
        assert block.shift_ratio[i] == alone.shift_ratio
        if kwargs.get("with_gradient"):
            assert_array_equal(block.shift_gradient[i], alone.shift_gradient)


@pytest.mark.parametrize("orientation", [DipoleOrientation.isotropic(),
                                         FIXED], ids=["isotropic", "fixed"])
@pytest.mark.parametrize("with_gradient", [False, True])
@pytest.mark.parametrize("tolerance", [None, 1e-9])
@pytest.mark.parametrize("position", [[0.0, 0.0, 0.0], [3.0, -2.0, 5.0]],
                         ids=["center", "off-axis"])
def test_repeated_position_builds_one_rule_per_count(
        monkeypatch, orientation, with_gradient, tolerance, position):
    # 100 rows of one position, 4 passes of 32 polar nodes: the first
    # builds the position's one-row rule at each scale and the next three
    # share it, and every row keeps the bits it gets alone
    config = CavityConfig(rho=0.98)
    kr = np.tile(position, (100, 1))
    phi0 = np.linspace(-0.4, 0.4, len(kr))
    kw = dict(tolerance=tolerance, with_gradient=with_gradient)
    builds = []
    passes = rule_passes(monkeypatch, builds)
    block = integrate_sphere(kr, orientation, config, phi0, **kw)
    scales = (1,) if tolerance is None else (1, 2)
    assert len(passes) == 4 * len(scales)
    assert [(n, kind) for _, _, n, kind in builds] == [
        (32 * scale, passes[0][2]) for scale in scales]
    for beta, q, _, _ in builds:
        assert_array_equal(beta, cone_angle(np.array([position])))
        assert len(q) == 1
    monkeypatch.undo()
    assert_rows_alone(block, kr, orientation, config, phi0, **kw)


@pytest.mark.parametrize("with_gradient", [False, True])
@pytest.mark.parametrize("tolerance", [None, 1e-9])
def test_block_shares_rules_only_where_a_pass_repeats(monkeypatch,
                                                     with_gradient,
                                                     tolerance):
    # on one grid (32 rows a pass): 3 axis rows of one position, a pass
    # alone; 64 rows of position a in two passes, one rule; a pass of a
    # with one row of b, at a's cone angle: the fixed dipole's q differs
    # there, so that rule is built for its rows, while the isotropic
    # pass shares a's; then 32 rows of a again, which share a's rule, the
    # last repeated one
    config = CavityConfig(rho=0.98)
    a, b, axis = [1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [0.0, 0.0, 5.0]
    kr = np.array([a] * 40 + [axis] * 3 + [a] * 44 + [b] + [a] * 43)
    phi0 = np.linspace(-0.3, 0.3, len(kr))
    grid = AngularGrid(32, 16)
    kw = dict(grid=grid, tolerance=tolerance, with_gradient=with_gradient)
    scales = (1,) if tolerance is None else (1, 2)
    builds = []
    passes = rule_passes(monkeypatch, builds)
    blocks = []
    for orientation in (FIXED, DipoleOrientation.isotropic()):
        del builds[:], passes[:]
        blocks.append(integrate_sphere(kr, orientation, config, phi0, **kw))
        assert [len(rows) for rows, _, _, _ in passes] == (
            [3, 32, 32, 32, 32] * len(scales))
        built = [[axis], [a], [a] * 20 + [b] + [a] * 11]
        if orientation == DipoleOrientation.isotropic():
            built = built[:2]
        assert [(len(beta), n) for beta, _, n, _ in builds] == [
            (len(rows), 32 * scale) for scale in scales for rows in built]
        for (beta, q, _, _), rows in zip(builds, built * 2):
            want_beta, frame = quadrature._ring_frame(np.array(rows))
            assert_array_equal(beta, want_beta)
            assert_array_equal(q, quadrature._ring_dipole(orientation,
                                                          frame))
    monkeypatch.undo()
    for block, orientation in zip(blocks, (FIXED,
                                           DipoleOrientation.isotropic())):
        assert_rows_alone(block, kr, orientation, config, phi0, **kw)


def test_detuning_scan_builds_one_rule_per_dipole_and_scale(monkeypatch):
    # center --quadrature: 241 rows at kr = 0, 8 passes a scan, for two
    # dipoles, each with the doubling check; 4 rule builds where each
    # pass once built its own
    config = RunConfig.defaults().cavity
    builds = []
    passes = rule_passes(monkeypatch, builds)
    for orientation in (DipoleOrientation.parallel(),
                        DipoleOrientation.perpendicular()):
        fields.run_scan(ScanSpec("detuning", -3.0, 3.0, 241, config,
                                 orientation))
    assert len(passes) == 32
    assert [n for _, _, n, _ in builds] == [32, 64, 32, 64]


@pytest.mark.parametrize("argv, distinct, calls", [
    (["plane"], 441, 1), (["axial"], 201, 1),
    (["center", "--quadrature"], 241, 2)], ids=["plane", "axial", "center"])
def test_cli_scans_send_each_distinct_row_once(monkeypatch, capsys, argv,
                                               distinct, calls):
    # the default plane's 1,681 rows hold 441 distinct integrands, as the
    # kz and kx mirrors and the inversion of a row read the same |kr|,
    # beta and phi0, and the axial scan's 401 rows 201; every row of
    # center --quadrature has a phase of its own.  Each integrate_sphere
    # call sends its distinct rows to the kernel once a scale
    starts = []
    integrate = fields.integrate_sphere

    def counted(*args, **kwargs):
        starts.append(len(passes))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(fields, "integrate_sphere", counted)
    passes = rule_passes(monkeypatch)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(starts) == calls
    for start, end in zip(starts, starts[1:] + [len(passes)]):
        sent = [len(rows) for rows, _, _, _ in passes[start:end]]
        half = len(sent) // 2  # the doubling check repeats every pass
        assert sum(sent[:half]) == sum(sent[half:]) == distinct


@pytest.mark.parametrize("orientation", [DipoleOrientation.isotropic(),
                                         FIXED], ids=["isotropic", "fixed"])
@pytest.mark.parametrize("kz", [1.0, -2.0])
def test_rows_a_hair_off_the_axis_have_whole_rings_only(orientation, kz):
    # beta > 0 below half an ulp of theta: the cut-ring panel has width
    # 0, so the row is integrated with whole rings only and gets the
    # on-axis row's values, not 0/0 from an empty panel
    config = CavityConfig(rho=0.98)
    kw = dict(tolerance=1e-9, with_gradient=True)
    on_axis = integrate_sphere([0.0, 0.0, kz], orientation, config, 0.1,
                               **kw)
    for kx in (1e-17, 5.551115123125783e-17):
        kr = np.array([[kx, 0.0, kz]])
        beta = cone_angle(kr)
        assert beta[0] > 0.0
        assert panel_kinds(beta, config) == {(True, False)}
        near = integrate_sphere(kr[0], orientation, config, 0.1, **kw)
        assert_allclose(near.gamma_ratio, on_axis.gamma_ratio, rtol=1e-14)
        assert_allclose(near.shift_ratio, on_axis.shift_ratio, rtol=1e-14)
        assert_allclose(near.shift_gradient, on_axis.shift_gradient,
                        rtol=0.0, atol=1e-14)


def test_grid_invariants():
    with pytest.raises(ValueError):
        AngularGrid(0, 16)
    # the smallest grid is the polar floor at the center
    with pytest.raises(ValueError, match=r"^n_polar=31 is not an integer "
                       r"of at least 32$"):
        AngularGrid(31, 16)
    with pytest.raises(ValueError, match=r"^n_azimuth=0 is not an integer "
                       r"of at least 1$"):
        AngularGrid(32, 0)
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
    assert AngularGrid(2 * MAX_POLAR_NODES, 2 * 16).n_polar == 32768
    # so the doubling check refuses a caller's grid above the default cap,
    # before any pass runs
    with pytest.raises(ValueError, match="^n_polar=32832 is above the cap "
                       "of 32768$"):
        integrate_sphere([0.0, 0.0, 1.0], DipoleOrientation.isotropic(),
                         CavityConfig(rho=0.98), 0.0,
                         grid=AngularGrid(MAX_POLAR_NODES + 32, 16),
                         tolerance=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 26, 31])
def test_grid_below_the_polar_floor_refused(n):
    with pytest.raises(ValueError, match=f"^n_polar={n} is not an integer "
                       f"of at least 32$"):
        AngularGrid(n, 16)


@pytest.mark.parametrize("n_polar, message", [
    (40, "n_polar=40 is not a multiple of 32, the nodes of one sub-panel"),
    (48, "n_polar=48 is not a multiple of 32, the nodes of one sub-panel"),
    (64.0, "n_polar=64.0 is not an integer of at least 32"),
    (32_800, "n_polar=32800 is above the cap of 32768"),
])
@pytest.mark.parametrize("tolerance", [None, 1e-9])
def test_grid_the_rule_cannot_tile_refused(n_polar, message, tolerance,
                                           monkeypatch):
    # integrate_sphere admits a grid's count by the rule AngularGrid
    # admits it by, before any kernel pass, with or without a tolerance
    def no_pass(*args):
        raise AssertionError("a kernel pass ran")

    monkeypatch.setattr(quadrature, "_zonal_rule", no_pass)
    with pytest.raises(ValueError, match=f"^{message}$"):
        integrate_sphere([0.0, 0.0, 1.0], DipoleOrientation.isotropic(),
                         CavityConfig(rho=0.98), 0.0,
                         grid=SimpleNamespace(n_polar=n_polar),
                         tolerance=tolerance)
    with pytest.raises(ValueError, match=f"^{message}$"):
        AngularGrid(n_polar, 16)


def test_undersized_grid_rejected():
    config = CavityConfig(rho=0.98)
    iso = DipoleOrientation.isotropic()
    grid = AngularGrid(32, 16)
    with pytest.raises(ValueError, match=r"^n_polar=32 is below the floor "
                       r"204 for \|kr\|=50\.00$"):
        integrate_sphere([0.0, 0.0, 50.0], iso, config, 0.0, grid=grid)
    # a block is checked at its farthest row, wherever the row sits
    block = [[0.0, 0.0, 1.0], [30.0, 0.0, -40.0], [0.0, 12.0, 3.0]]
    with pytest.raises(ValueError, match=r"^n_polar=96 is below the floor "
                       r"204 for \|kr\|=50\.00$"):
        integrate_sphere(block, iso, config, 0.0, grid=AngularGrid(96, 16))
    integrate_sphere(block, iso, config, 0.0, grid=AngularGrid(224, 16))


def test_grid_counts_must_be_integers():
    # a float count was accepted and failed later, in the rule's tiling;
    # the refusal names the count
    for counts, refused in (((64.0, 16), "n_polar=64.0"),
                            ((64, 16.0), "n_azimuth=16.0"),
                            ((np.float64(64), 16), "n_polar=64.0")):
        with pytest.raises(ValueError, match=f"^{refused} is not an "
                           "integer of at least"):
            AngularGrid(*counts)
    # Python and numpy integers are both counts, with the same bits
    config, iso = CavityConfig(rho=0.98), DipoleOrientation.isotropic()
    kw = dict(tolerance=1e-9, with_gradient=True)
    plain = integrate_sphere([1.0, 2.0, 3.0], iso, config, 0.1,
                             grid=AngularGrid(64, 16), **kw)
    numpy_counts = integrate_sphere([1.0, 2.0, 3.0], iso, config, 0.1,
                                    grid=AngularGrid(np.int64(64),
                                                     np.int32(16)), **kw)
    assert plain.gamma_ratio == numpy_counts.gamma_ratio
    assert plain.shift_ratio == numpy_counts.shift_ratio
    assert_array_equal(plain.shift_gradient, numpy_counts.shift_gradient)


def test_block_beyond_the_warning_radius_warns_once():
    # a block is admitted as one point is: beyond 100/k it warns once a
    # call, for the farthest row, naming the caller's line (a block once
    # went unwarned)
    config, iso = CavityConfig(rho=0.98), DipoleOrientation.isotropic()
    for call in (
            lambda: integrate_sphere(np.array([[0.0, 0.0, 150.0]]), iso,
                                     config, 0.0),
            lambda: integrate_sphere([[0.0, 0.0, 1.0], [0.0, 120.0, 0.0],
                                      [0.0, 0.0, -150.0]], iso, config,
                                     0.0, with_gradient=True),
            lambda: AngularGrid.for_position([[0.0, 0.0, 1.0],
                                              [0.0, 0.0, 150.0]], config)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [(w.category, w.filename) for w in caught] == \
            [(ValidityWarning, __file__)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        integrate_sphere(np.array([[0.0, 0.0, 100.0]]), iso, config, 0.0)
    assert not caught


def test_grid_for_an_empty_block_names_its_shape():
    # it once raised numpy's "attempt to get argmax of an empty sequence"
    with pytest.raises(ValueError, match=r"^a block of positions has shape "
                       r"\(P, 3\), got \(0, 3\)$"):
        AngularGrid.for_position(np.zeros((0, 3)), CavityConfig(rho=0.98))


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
    for kr in points:
        spheres = validation._reference_pass(
            kr, ORIENTATIONS, config, phi0,
            AngularGrid.for_position(kr, config))
        for orientation, sphere in zip(ORIENTATIONS, spheres, strict=True):
            zonal = integrate_sphere(kr, orientation, config, phi0,
                                     with_gradient=True)
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
            grid = AngularGrid.for_position(kr, config)
            grid = AngularGrid(2 * grid.n_polar, 2 * grid.n_azimuth)
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
    grid = AngularGrid.for_position(kr, run.cavity)
    grid = AngularGrid(2 * grid.n_polar, 2 * grid.n_azimuth)
    fine = integrate_sphere(kr, run.orientation, run.cavity, phi0, grid=grid)
    finer = integrate_sphere(kr, run.orientation, run.cavity, phi0,
                             grid=AngularGrid(2 * grid.n_polar,
                                              2 * grid.n_azimuth))
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

def splitmix64(seed, i):
    """Output i of SplitMix64 for ``seed`` in Python integers: the key is
    the seed's 64-bit words folded from the top, each key before the
    next word through the output hash."""
    mask = 2**64 - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    words, key = [], 0
    while seed:
        words.append(seed & mask)
        seed >>= 64
    for word in reversed(words):
        key = mix(key) ^ word
    return mix((key + (i + 1) * 0x9E3779B97F4A7C15) & mask)


def test_stream_is_splitmix64_by_index():
    # the integer reference gives the published first outputs of seed
    # 1234567; each draw is its top 53 bits over 2^53, at any index and
    # any seed, a numpy integer or one of 64 bits and more
    assert [splitmix64(1234567, i) for i in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]
    index = [0, 1, 2, 4, 1000, 2**40 + 3, 2**63 + 5]
    for seed in (0, 1, 1234567, np.int64(42), np.uint64(2**64 - 1), 2**64,
                 2**64 + 7, 3 * 2**128 + 5):
        expected = [(splitmix64(int(seed), i) >> 11) * 2.0**-53
                    for i in index]
        draws = validation._stream(seed)(np.array(index, dtype=np.uint64))
        assert draws.tolist() == expected
    # seeds of more than 64 bits are not folded onto their low word
    assert (validation._stream(2**64)(np.arange(4)).tolist()
            != validation._stream(0)(np.arange(4)).tolist())
    with pytest.raises(ValueError, match="seed must be non-negative"):
        validation._stream(-1)
    with pytest.raises(TypeError):
        validation._stream(1.0)


@pytest.mark.parametrize("seed, start", [(0, 0), (3, 2**40), (2**64 + 1, 0)])
def test_stream_mean_variance_and_lag_one(seed, start):
    # 200,000 draws: mean 1/2, variance 1/12 and no lag-1 correlation,
    # each within 5 standard errors of a uniform independent sample
    n = 200_000
    u = validation._stream(seed)(np.arange(start, start + n))
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 5.0 * math.sqrt(1.0 / 12.0 / n)
    assert abs(u.var() - 1.0 / 12.0) < 5.0 * math.sqrt(
        (1.0 / 80.0 - 1.0 / 144.0) / n)
    assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 5.0 / math.sqrt(n)


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
    # the oracle runs in chunks and draws azimuths for the cap samples
    # only; from the same draws taken at once by index (sample j: draws
    # 2j and 2j + 1 of the stream), the integrand over every direction
    # must give the same means and errors, also at the fewest samples
    # allowed and with a last chunk of one sample.  It never reads the
    # band's closed-form share
    def refuse(*args):
        raise AssertionError("the band share must be sampled")

    monkeypatch.setattr(validation, "aperture_weights", refuse)
    config = CavityConfig(rho=rho)
    kr, seed = np.array([3.0, -2.0, 5.0]), 11
    for n in (50_000, 10_000, 3 * validation.SAMPLE_CHUNK + 1):
        mc, errors = monte_carlo_reference(kr, orientation, config, 0.01, n,
                                           seed)
        draws = validation._stream(seed)(np.arange(2 * n)).reshape(n, 2)
        z = 2.0 * draws[:, 0] - 1.0
        az = 2.0 * math.pi * draws[:, 1]
        s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        dirs = np.column_stack([s * np.cos(az), s * np.sin(az), z])
        samples = _sample_terms(dirs, kr, orientation, config, 0.01)
        assert_allclose(
            [mc.gamma_ratio, mc.shift_ratio, *errors],
            [*(np.mean(x) for x in samples),
             *(np.std(x, ddof=1) / math.sqrt(n) for x in samples)],
            rtol=1e-13, atol=0)
        assert (mc.shift_ratio == 0.0) == (rho == 0.0)


def test_monte_carlo_memory_does_not_grow_with_samples():
    # the draws are streamed in chunks: drawn at once, 2,000,000 samples
    # traced 166 MiB with this dipole
    import tracemalloc

    args = ([3.0, -2.0, 5.0], DipoleOrientation.parallel(),
            CavityConfig(rho=0.98), 0.01)
    tracemalloc.start()
    try:
        monte_carlo_reference(*args, 2_000_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_monte_carlo_rejects_small_samples():
    config = CavityConfig(rho=0.9)
    with pytest.raises(ValueError):
        monte_carlo_reference([0.0, 0.0, 0.0], DipoleOrientation.isotropic(),
                              config, 0.0, 100, seed=0)


def test_monte_carlo_sample_count_is_an_integer():
    # a float count once failed in the generator with numpy's "unsupported
    # operand type(s) for &"; a numpy integer draws the same numbers
    config, iso = CavityConfig(rho=0.9), DipoleOrientation.isotropic()
    with pytest.raises(ValueError, match=r"^n_samples must be an integer "
                       r"of at least 10\^4, got 10000\.0$"):
        monte_carlo_reference([0.0, 0.0, 0.0], iso, config, 0.0, 10000.0,
                              seed=0)
    args = ([1.0, -2.0, 3.0], iso, config, 0.1)
    plain, plain_se = monte_carlo_reference(*args, 20_000, seed=3)
    wide, wide_se = monte_carlo_reference(*args, np.int64(20_000),
                                          seed=np.int64(3))
    assert (plain.gamma_ratio, plain.shift_ratio, plain_se) == \
        (wide.gamma_ratio, wide.shift_ratio, wide_se)
