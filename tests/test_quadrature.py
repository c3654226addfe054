"""Sphere integration against closed forms, brute-force references and
the Monte-Carlo oracle."""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre, leggauss, legval
from numpy.testing import assert_allclose, assert_array_equal

from vactrap import quadrature
from vactrap.cavity import (
    CavityConfig,
    DipoleOrientation,
    ValidityWarning,
    center_gamma,
    center_shift,
    phase_fwhm,
)
from vactrap.config import RunConfig
from vactrap.fields import ScanSpec, _scan_points, run_scan
from vactrap.quadrature import (
    MAX_POLAR_NODES,
    AngularGrid,
    ConvergenceError,
    _sample_terms,
    _sphere_rule,
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
        if k <= 2 * n - 1:
            p_k = legval(x, np.eye(1, k + 1, k)[0])
            assert abs(np.sum(w * p_k)) <= 1e-14, (n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 26, 31, 32, 33, 64, 101,
                               404, 512, 808, 1616])
def test_gauss_legendre_rule_matches_numpy(n):
    x, w = quadrature._leggauss(n)
    x_ref, _ = leggauss(n)
    assert np.max(np.abs(x - x_ref)) <= 4e-16
    check_rule_exactness(n, x, w)


def test_gauss_legendre_largest_rule():
    # the largest default rule: rung 1216 at the largest admissible
    # |kr| = 300, doubled by the tolerance check; the numpy reference
    # would take seconds here
    n = 2432
    x, w = quadrature._leggauss(n)
    assert len(x) == n
    check_rule_exactness(n, x, w)


@pytest.mark.parametrize("z, ratio", [
    (32.75, "0.174738266112015537266099032145"),
    (48.75, "0.143222033235962207863267515613"),
    (64.75, "0.124273490069507326944028010609"),
])  # Gamma(z + 1/4) / Gamma(z + 3/4) in 40-digit mpmath arithmetic
def test_gamma_quarter_ratio_matches_literals(z, ratio):
    # z = n + 3/4 scales the interior weights of rules from n = 32 on;
    # the series' E_8 term is 1.1e-15 relative at z = 32.75
    value = quadrature._gamma_quarter_ratio(np.float64(z))
    assert abs(value / float(ratio) - 1.0) <= 3e-16


@pytest.mark.parametrize("n", [544, 832, 2432, 5120])
def test_asymptotic_rule_matches_newton(n):
    # the rules come from asymptotic expansions in theta; the oracle is
    # one Newton step in x on numpy's P_n, by Clenshaw's recurrence in
    # the Legendre basis, which must not move a node.  Weights taken from
    # the rounded node are off by up to ~100 ulp(x) / (1 - |x|), so they
    # are compared where that is below 1e-13 and the ends are pinned to
    # literals below
    x, w = quadrature._build_rules([n])[n]
    p_n = Legendre.basis(n)
    dp = p_n.deriv()(x)
    assert np.max(np.abs(p_n(x) / dp)) <= 4.5e-16
    trusted = 1.0 - np.abs(x) >= 1e-3
    assert_allclose(w[trusted], (2.0 / ((1.0 - x * x) * dp * dp))[trusted],
                    rtol=1e-12, atol=0)
    check_rule_exactness(n, x, w)


def test_asymptotic_rules_do_not_depend_on_their_set():
    # odd counts off the ladder too; the store relies on a rule being the
    # same whichever plan built it
    together = quadrature._build_rules([513, 1001, 2432])
    for n, (x, w) in together.items():
        alone = quadrature._build_rules([n])[n]
        assert_array_equal(x, alone[0])
        assert_array_equal(w, alone[1])
        check_rule_exactness(n, x, w)


@pytest.mark.parametrize("ns", [range(1, 41), [416, 832, 2880]])
def test_one_sweep_builds_the_rules_of_one_degree_sweeps(ns):
    # every count below _SZEGO_MIN_NODES, and ladder rungs on both sides
    # of it: one call for the set builds what one call per count builds
    together = quadrature._build_rules(ns)
    assert sorted(together) == sorted(ns)
    for n in ns:
        x, w = quadrature._build_rules([n])[n]
        assert_array_equal(together[n][0], x)
        assert_array_equal(together[n][1], w)
        check_rule_exactness(n, x, w)


# (n, k, node, weight) to 30 digits, k = 1 the node nearest x = 1, from
# Newton's method on the recurrence in 40-digit mpmath arithmetic
GAUSS_LEGENDRE_LITERALS = [
    (832, 1, "0.999995827769213459487564054850",
     "0.0000107072840895168995689217872041"),
    (832, 2, "0.999978016829776043612680628058",
     "0.0000249243712586749697566493977398"),
    (832, 10, "0.999323018077849738615657926021",
     "0.000138815473019615715411218541137"),
    (832, 11, "0.999177087417424809091620985325",
     "0.000153045501844883652492731838202"),
    (832, 208, "0.708106594423459305822380712738",
     "0.00266461887470067880886714557266"),
    (5120, 1, "0.999999889716024871444183516981",
     "0.000000283024288937421837085288829"),
    (5120, 11, "0.999978245179922265980052453446",
     "0.00000404650765560122944502088573813"),
    (5120, 2560, "0.000306766193666527980686446847657",
     "0.000613532368087464856966433532740"),
]


@pytest.mark.parametrize("n, k, node, weight", GAUSS_LEGENDRE_LITERALS)
def test_asymptotic_rule_matches_literals(n, k, node, weight):
    x, w = quadrature._leggauss(n)
    assert abs(x[n - k] - float(node)) <= 1.2e-16
    assert abs(w[n - k] / float(weight) - 1.0) <= 1e-14


# the same at 32 and 512 nodes, the ends of the ladder's 16-node steps:
# k = 1, the tenth and eleventh nodes, where the cosine series hands over
# to the Stieltjes-Szego expansion, and the node nearest x = 0
SMALL_RULE_LITERALS = [
    (32, 1, "0.997263861849481563544981128665",
     "0.00701861000947009660040706373885"),
    (32, 10, "0.587715757240762329040745476402",
     "0.0781938957870703064717409188283"),
    (32, 11, "0.506899908932229390023747474378",
     "0.0833119242269467552221990746043"),
    (32, 16, "0.0483076656877383162348125704405",
     "0.0965400885147278005667648300636"),
    (512, 1, "0.999988990984381867987284124899",
     "0.0000282526373739346920387450107845"),
    (512, 10, "0.998214016581612795387692324594",
     "0.000366149040035626853014130994255"),
    (512, 11, "0.997829115393562846603647010356",
     "0.00040365092653331987974471362095"),
    (512, 256, "0.00306496218515939615292319328839",
     "0.00612990517540578575915635106705"),
]


@pytest.mark.parametrize("n, k, node, weight", SMALL_RULE_LITERALS)
def test_small_rule_matches_literals(n, k, node, weight):
    # a node is cos(theta), and theta near pi/2 is within an ulp of its
    # own, 2.2e-16, of exact
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
    # n_polar sits on the octave ladder, a multiple of 16 up to 512, and so
    # does every doubled grid: up to |kr| = 100 all grids together need no
    # more than 38 rules
    rules = set()

    def on_ladder(n):
        return n % quadrature._ladder_step(n) == 0

    for kz in np.linspace(0.0, 100.0, 2001):
        floor = polar_node_floor(kz)
        grid = AngularGrid.for_position([0.0, 0.0, kz], config)
        assert grid.n_polar % 16 == 0
        assert floor <= grid.n_polar < floor + 16
        assert on_ladder(grid.doubled().n_polar)
        rules |= {grid.n_polar, grid.doubled().n_polar}
    assert len(rules) == 38
    # out to the supported 300/k they need 66 (113 on a 16-node ladder)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for kz in np.linspace(100.0, 300.0, 4001):
            floor = polar_node_floor(kz)
            grid = AngularGrid.for_position([0.0, 0.0, kz], config)
            assert floor <= grid.n_polar < floor + quadrature._ladder_step(
                floor)
            assert on_ladder(grid.n_polar)
            assert on_ladder(grid.doubled().n_polar)
            rules |= {grid.n_polar, grid.doubled().n_polar}
    assert len(rules) == 66


def test_grid_node_cap():
    # the linewidth term grows as |kr|^2 / (1 - rho) without bound; past
    # the cap the grid is refused instead of taking hours to build
    narrow = CavityConfig(rho=0.9999, k_r_mirror=1.0e3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        with pytest.raises(ValueError, match=r"\|kr\| = 300\.0 needs "
                           r"1835008 polar nodes .* cap of 16384"):
            AngularGrid.for_position([0.0, 0.0, 300.0], narrow)
    # below it the linewidth term still sizes the grid: 2879.9 nodes, on
    # the octave ladder's rungs of 128 between 2048 and 4096
    assert AngularGrid.for_position([0.0, 0.0, 12.0], narrow).n_polar == 2944


def count_builds(monkeypatch):
    """An empty rule store, and the node counts of each call to the rule
    builder made from now on."""
    monkeypatch.setattr(quadrature, "_RULES", {})
    calls = []
    build = quadrature._build_rules

    def builder(ns):
        calls.append(sorted(set(ns)))
        return build(ns)

    monkeypatch.setattr(quadrature, "_build_rules", builder)
    return calls


def assert_built_once(calls):
    """The builder was called once, so before any block ran, and built
    exactly the rules in the store; the node counts it built."""
    assert len(calls) == 1
    assert sorted(quadrature._RULES) == calls[0]
    return calls[0]


def test_default_axial_scan_reuses_rules(monkeypatch):
    # the default 401-point axial scan needs 25 rungs and their doubles,
    # 38 rules, which the plan builds together before any block runs.
    # Its 105 blocks then find them in the store.  One lookup per point
    # and pass, 802, built 652 rules off the ladder
    calls = count_builds(monkeypatch)
    run = RunConfig.defaults()
    run_scan(ScanSpec("axial", -100.0, 100.0, 401, run.cavity,
                      run.orientation))
    assert len(assert_built_once(calls)) == 38


def test_scan_builds_each_rule_once_past_128_rules(monkeypatch):
    # a narrow resonance and a short mirror radius put 145 points on 41
    # rungs of the octave ladder (86 of the 16-node one) and their
    # doubles, 70 rules (131 on the 16-node ladder); a 128-rule LRU cache
    # evicted rules the plan had built and the blocks built them again
    # one by one
    calls = count_builds(monkeypatch)
    config = CavityConfig(rho=0.995, k_r_mirror=1.0e3)
    run_scan(ScanSpec("axial", 0.0, 60.0, 145, config,
                      DipoleOrientation.isotropic()))
    assert len(assert_built_once(calls)) == 70


def test_high_finesse_plan_builds_large_rules_without_newton(monkeypatch):
    # rho = 0.9999 over the default axial range needs 83 rules up to 5120
    # nodes; Newton on the recurrence, O(n^2) each, took seconds for them
    calls = count_builds(monkeypatch)
    config = CavityConfig(rho=0.9999)
    kr = np.zeros((401, 3))
    kr[:, 2] = np.linspace(-100.0, 100.0, 401)
    quadrature.plan_blocks(kr, config, doubled=True)
    built = assert_built_once(calls)
    assert len(built) == 83
    assert max(built) == 5120


def head_n_polar(row, config):
    """n_polar as the 16-node ladder sized it, from the norm of the row
    alone."""
    r = float(np.linalg.norm(row))
    sweep = (2.0 * r ** 2 * math.sqrt(config.rho)
             / (config.k_r_mirror * (1.0 - config.rho)))
    return 16 * math.ceil(max(polar_node_floor(r), math.ceil(sweep)) / 16)


@pytest.mark.parametrize("axis, half_width, n_points", [
    ("axial", 100.0, 401), ("plane", 20.0, 41), ("transverse", 50.0, 201),
    ("axial", 50.0, 201), ("detuning", 3.0, 241),  # the CLI defaults
    ("axial", 100.0, 41), ("transverse", 50.0, 21), ("plane", 20.0, 15),
])  # and the benchmark's seed-0 grids
def test_plan_sizes_rows_as_each_row_alone(axis, half_width, n_points):
    # the plan sizes rows from the radii of the whole block; a radius
    # taken another way can differ by an ulp (numpy's 1-D norm against
    # its norm along rows, on the 15 x 15 plane), so the plan, the grid
    # of a position and the admission check share one formula.  Every
    # rung stays where the 16-node ladder put it on these grids
    config = RunConfig.defaults().cavity
    spec = ScanSpec(axis, -half_width, half_width, n_points, config,
                    DipoleOrientation.isotropic())
    _, _, kr = _scan_points(spec)
    planned = np.zeros(len(kr), dtype=int)
    for grid, rows in quadrature.plan_blocks(kr, config, doubled=True):
        planned[rows] = grid.n_polar
        grid.check_admissible(kr[rows][np.argmax(quadrature._radius(
            kr[rows]))])
    for row, n in zip(kr, planned):
        assert AngularGrid.for_position(row, config).n_polar == n
        assert head_n_polar(row, config) == n
    assert_array_equal(quadrature._radius(kr),
                       [quadrature._radius(row) for row in kr])


def test_rule_cache_shared_by_threads(monkeypatch):
    # more threads than cores and a short switch interval: another rule
    # returned, or a rule torn by a racing build, would show here.  With
    # no lock two threads may both build a missing rule, into
    # bit-identical copies, so builds are not counted
    monkeypatch.setattr(quadrature, "_RULES", {})
    ns = [16 * (1 + i % 12) for i in range(20_000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            rules = list(pool.map(lambda n: quadrature._rules([n])[n], ns,
                                  timeout=60))
    finally:
        sys.setswitchinterval(interval)
    alone = {n: quadrature._build_rules([n])[n] for n in set(ns)}
    for n, (x, w) in zip(ns, rules):
        assert_array_equal(x, alone[n][0])
        assert_array_equal(w, alone[n][1])
    # in a scan the plan fills the store before the workers start, so
    # they only read it and build nothing
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 1)
    spec = ScanSpec("plane", -3.0, 3.0, 6, CavityConfig(rho=0.98),
                    DipoleOrientation.isotropic())
    calls = count_builds(monkeypatch)
    threaded = run_scan(spec, n_workers=2)
    assert len(calls) == 1
    monkeypatch.setattr(quadrature, "_RULES", {})
    serial = run_scan(spec)
    assert_array_equal(threaded.values, serial.values)


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


def test_grid_invariants():
    with pytest.raises(ValueError):
        AngularGrid(0, 16)
    with pytest.raises(ValueError):
        AngularGrid(32, 0)
    # a grid past the cap once took hours in the O(n^2) rule builder; a
    # default grid at the cap may still be doubled
    with pytest.raises(ValueError, match="n_polar=32784 is above the cap "
                       "of 32768"):
        AngularGrid(2 * MAX_POLAR_NODES + 16, 16)
    assert AngularGrid(MAX_POLAR_NODES, 16).doubled().n_polar == 32768


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
    # the zonal rule against the 2-D reference rule, on and off the axis
    config = CavityConfig(rho=0.98)
    phi0 = 0.5 * phase_fwhm(0.98)
    points = [(0.0, 0.0, kz) for kz in (0.0, 2.3, 21.0, -60.0)] + [
        (1e-6, 0.0, 30.0), (5.0, 0.0, 0.0), (20.0, -5.0, 20.0),
        (-12.0, 30.0, 9.0)]
    for orientation in ORIENTATIONS:
        for kr in points:
            zonal = integrate_sphere(kr, orientation, config, phi0,
                                     with_gradient=True)
            sphere = integrate_sphere(kr, orientation, config, phi0,
                                      with_gradient=True, _rule=_sphere_rule)
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


def test_monte_carlo_rejects_small_samples():
    config = CavityConfig(rho=0.9)
    with pytest.raises(ValueError):
        monte_carlo_reference([0.0, 0.0, 0.0], DipoleOrientation.isotropic(),
                              config, 0.0, 100, seed=0)
