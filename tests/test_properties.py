"""Property-based checks of physics identities across the quadrature
rules."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vactrap import quadrature
from vactrap.cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    Position,
    _admit,
    aperture_weights,
    cap_brackets,
    effective_theta,
    ray_phase,
)
from vactrap.fields import (
    DEFAULT_TOLERANCE,
    ScanSpec,
    WeakExcitationError,
    _force,
    _scan_points,
    excited_population,
    run_scan,
)
from vactrap.quadrature import ConvergenceError, _leggauss, integrate_sphere
from vactrap.validation import AngularGrid, _pol_weight, _reference_pass

# fixed dipoles off every symmetry axis of the cavity, and on two of them
FIXED_DIPOLES = tuple(
    DipoleOrientation.fixed(np.array(d) / np.linalg.norm(d))
    for d in ((0.3, 0.4, 0.866), (1.0, -2.0, 0.5), (0.0, 0.0, 1.0),
              (1.0, 0.0, 0.0)))
ORIENTATIONS = FIXED_DIPOLES + (DipoleOrientation.isotropic(),
                                DipoleOrientation.parallel(),
                                DipoleOrientation.perpendicular())


def close(x, y):
    return abs(x - y) <= 1e-10 * max(1.0, abs(x))


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(kz=st.floats(-30.0, 30.0),
       rho=st.floats(0.0, 0.99),
       phi0=st.floats(-1.0, 1.0),
       d_z=st.floats(-1.0, 1.0),
       azimuth=st.floats(0.0, 2.0 * math.pi))
def test_on_axis_orientation_decomposition(kz, rho, phi0, d_z, azimuth):
    # on the axis R(d) = d_z^2 R_par + (1 - d_z^2) R_perp
    config = CavityConfig(rho=rho)
    kr = [0.0, 0.0, kz]
    s = math.sqrt(1.0 - d_z * d_z)
    fixed = DipoleOrientation.fixed(
        [s * math.cos(azimuth), s * math.sin(azimuth), d_z])
    a = d_z * d_z
    resp = integrate_sphere(kr, fixed, config, phi0)
    par = integrate_sphere(kr, DipoleOrientation.parallel(), config, phi0)
    perp = integrate_sphere(kr, DipoleOrientation.perpendicular(), config,
                            phi0)
    assert close(resp.gamma_ratio,
                 a * par.gamma_ratio + (1.0 - a) * perp.gamma_ratio)
    assert close(resp.shift_ratio,
                 a * par.shift_ratio + (1.0 - a) * perp.shift_ratio)


def _weighted_terms(omega, kr, orientation, rho, phi0, k_r_mirror):
    """Polarization-weighted gamma, shift and gradient integrands at the
    directions omega (an (n, 3) array)."""
    u = omega @ kr
    w = _pol_weight(orientation, omega[:, 0], omega[:, 1], omega[:, 2])
    phi = ray_phase(phi0, float(kr @ kr), u, k_r_mirror)
    g, sh, u_part, phase_part = cap_brackets(rho, phi, u, with_gradient=True)
    grad = (u_part[:, None] * omega
            + phase_part[:, None] * (kr[None, :] - u[:, None] * omega)
            / k_r_mirror)
    return w * g, w * sh, w[:, None] * grad


coordinate = st.floats(-40.0, 40.0)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(kr=st.tuples(coordinate, coordinate, coordinate),
       rho=st.floats(0.0, 0.99),
       phi0=st.floats(-1.5, 1.5),
       cos_theta=st.floats(-1.0, 1.0),
       azimuth=st.floats(0.0, 2.0 * math.pi))
def test_fold_identity_pointwise(kr, rho, phi0, cos_theta, azimuth):
    # inversion omega -> -omega leaves all three integrands unchanged, so
    # one cap with doubled weights carries both
    kr = np.array(kr)
    s = math.sqrt(1.0 - cos_theta * cos_theta)
    omega = np.array([[s * math.cos(azimuth), s * math.sin(azimuth),
                       cos_theta]])
    for orientation in ORIENTATIONS:
        here = _weighted_terms(omega, kr, orientation, rho, phi0, 8e4)
        there = _weighted_terms(-omega, kr, orientation, rho, phi0, 8e4)
        for x, y in zip(here, there):
            assert np.all(np.abs(x - y) <= 1e-15 * np.maximum(1.0, np.abs(x)))


def _two_cap_reference(kr, orientation, config, phi0):
    """Both caps summed on their own nodes, the south ones the mirror
    images of the north ones, plus the band: the integral before the
    fold."""
    c_edge = math.cos(effective_theta(config))
    grid = AngularGrid.for_position(kr, config)
    x, w_gl = _leggauss(grid.n_polar)
    c = 0.5 * (1.0 - c_edge) * x + 0.5 * (1.0 + c_edge)
    s = np.sqrt(1.0 - c * c)
    az = 2.0 * math.pi * np.arange(grid.n_azimuth) / grid.n_azimuth
    north = np.stack([np.outer(s, np.cos(az)), np.outer(s, np.sin(az)),
                      np.outer(c, np.ones_like(az))], axis=-1).reshape(-1, 3)
    weight = np.repeat(0.5 * (1.0 - c_edge) * w_gl * 0.5 / grid.n_azimuth,
                       grid.n_azimuth)
    gamma, shift, grad = aperture_weights(orientation, c_edge)[0], 0.0, 0.0
    for omega in (north, -north):
        g, sh, gr = _weighted_terms(omega, kr, orientation, config.rho,
                                    phi0, config.k_r_mirror)
        gamma += np.sum(weight * g)
        shift += np.sum(weight * sh)
        grad += np.sum(weight[:, None] * gr, axis=0)
    return gamma, shift, grad


@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(kr=st.tuples(st.floats(0.5, 30.0), st.floats(-30.0, 30.0),
                    st.floats(-30.0, 30.0)),
       phi0=st.floats(-0.1, 0.1),
       dipole=st.sampled_from(FIXED_DIPOLES[:2]))
def test_fold_matches_two_cap_sum(kr, phi0, dipole):
    config = CavityConfig(rho=0.98)
    kr = np.array(kr)
    resp = integrate_sphere(kr, dipole, config, phi0, with_gradient=True)
    gamma, shift, grad = _two_cap_reference(kr, dipole, config, phi0)
    for x, y in ((gamma, resp.gamma_ratio), (shift, resp.shift_ratio),
                 *zip(grad, resp.shift_gradient)):
        assert abs(x - y) <= 1e-13 * max(1.0, abs(x)), (x, y)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(kr=st.tuples(coordinate, coordinate, coordinate),
       on_axis=st.booleans(),
       phi0=st.floats(-1.5, 1.5),
       orientation=st.sampled_from(ORIENTATIONS))
def test_free_space_any_position_and_orientation(kr, on_axis, phi0,
                                                 orientation):
    # rho = 0 is free space: (1, 0) and no force wherever the atom sits;
    # a wrong fold weight moves gamma away from 1
    if on_axis:
        kr = (0.0, 0.0, kr[2])
    resp = integrate_sphere(kr, orientation, CavityConfig(rho=0.0), phi0,
                            with_gradient=True)
    assert abs(resp.gamma_ratio - 1.0) <= 1e-13
    assert resp.shift_ratio == 0.0
    assert np.all(resp.shift_gradient == 0.0)


@st.composite
def positions(draw):
    """Positions with 0.5 <= |kr| <= 42, with the cases of the zonal rule
    drawn on purpose: near the axis (sin(beta) <= 1e-3) on both sides, on
    the edge of the 45 degree cap (beta = theta exactly, as atan2(r, r)
    is pi/4) and in the mid-plane (beta = pi/2)."""
    kind = draw(st.sampled_from(("any", "near_axis", "edge", "mid_plane")))
    r = draw(st.floats(0.5, 30.0))
    sign = draw(st.sampled_from((1.0, -1.0)))
    if kind == "edge":
        return (r, 0.0, sign * r)
    sin_beta = draw({"any": st.floats(0.0, 1.0),
                     "near_axis": st.floats(1e-12, 1e-3),
                     "mid_plane": st.just(1.0)}[kind])
    azimuth = draw(st.floats(0.0, 2.0 * math.pi))
    cos_beta = math.sqrt(1.0 - sin_beta * sin_beta)
    return (r * sin_beta * math.cos(azimuth), r * sin_beta * math.sin(azimuth),
            sign * r * cos_beta)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(kr=positions(), rho=st.floats(0.5, 0.99), phi0=st.floats(-0.3, 0.3))
def test_zonal_rule_matches_sphere_rule(kr, rho, phi0):
    # the refined zonal estimate and one pass of validation's 2-D
    # reference rule on the doubled grid agree, gradient included, for
    # every orientation.  The reference pass has no doubling check of its
    # own: a reference that had not converged shows as a disagreement
    config = CavityConfig(rho=rho)
    grid = AngularGrid.for_position(kr, config)
    grid = AngularGrid(2 * grid.n_polar, 2 * grid.n_azimuth)
    spheres = _reference_pass(kr, ORIENTATIONS, config, phi0, grid)
    for orientation, sphere in zip(ORIENTATIONS, spheres, strict=True):
        zonal = integrate_sphere(kr, orientation, config, phi0,
                                 tolerance=DEFAULT_TOLERANCE,
                                 with_gradient=True)
        for x, y in ((sphere.gamma_ratio, zonal.gamma_ratio),
                     (sphere.shift_ratio, zonal.shift_ratio),
                     *zip(sphere.shift_gradient, zonal.shift_gradient)):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (orientation, x, y)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# the dipoles of the mirror test, and the kernel rows that a point, its
# kz and kx mirrors, their inversions and a repeat of it take for each
MIRRORED = ((DipoleOrientation.isotropic(), 1),
            (DipoleOrientation.parallel(), 1),
            (DipoleOrientation.perpendicular(), 2), (FIXED_DIPOLES[0], 3))
SIGNED = st.floats(0.5, 20.0).flatmap(lambda x: st.sampled_from((x, -x)))


@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(points=st.lists(st.tuples(SIGNED, SIGNED, SIGNED), min_size=1,
                       max_size=3, unique_by=lambda p: tuple(map(abs, p))),
       phi0=st.floats(-0.3, 0.3))
def test_mirror_rows_share_kernel_rows_bit_for_bit(points, phi0):
    # a block's rows share a kernel row where, and only where, their
    # integrands read equal bits: the mirrors, inversions and repeats of
    # a point share one row for the isotropic and parallel dipoles; the
    # kx mirror turns the sign of the perpendicular dipole's off-diagonal
    # q, so two rows; a fixed dipole's two mirrors each have a q of their
    # own, so three, as an inversion turns the ring frame over and leaves
    # q.  Every row of the block keeps the bits of its call alone
    config = CavityConfig(rho=0.98)
    block = []
    for x, y, z in points:
        base = [(x, y, z), (x, y, -z), (-x, y, z)]
        block += base + [(-a, -b, -c) for a, b, c in base] + [(x, y, z)]
    block = np.array(block)
    kw = dict(tolerance=DEFAULT_TOLERANCE, with_gradient=True)
    once = quadrature._integrate_once
    sent = []

    def counted(kr_sq, *args):
        sent.append(len(kr_sq))
        return once(kr_sq, *args)

    for orientation, per_point in MIRRORED:
        sent.clear()
        with mock.patch.object(quadrature, "_integrate_once", counted):
            rows = integrate_sphere(block, orientation, config, phi0, **kw)
        assert sum(sent) == 2 * per_point * len(points)  # two scales
        for i, kr in enumerate(block):
            alone = integrate_sphere(kr, orientation, config, phi0, **kw)
            assert _bits(rows.gamma_ratio[i]) == _bits(alone.gamma_ratio)
            assert _bits(rows.shift_ratio[i]) == _bits(alone.shift_ratio)
            assert _bits(rows.shift_gradient[i]) == _bits(
                alone.shift_gradient)

def _row_alone(coords, kr, phi0, spec, drive):
    """A scan row from one integrate_sphere call at its point, with its
    force from a constant population or from excited_population for a
    weak drive; and whether that population is out of the weak regime."""
    with_force = drive is not None
    try:
        resp = integrate_sphere(kr, spec.orientation, spec.config, phi0,
                                tolerance=DEFAULT_TOLERANCE,
                                with_gradient=with_force)
    except ConvergenceError as err:
        resp = err.estimate
    row = (*coords, resp.gamma_ratio, resp.shift_ratio)
    if not with_force:
        return row, False
    pi_e, weak = drive, False
    if isinstance(drive, tuple):
        try:
            pi_e = excited_population(*drive, resp)
        except WeakExcitationError as err:
            pi_e, weak = err.population, True
    force, potential = _force(pi_e, resp.shift_gradient, resp.shift_ratio)
    return row + (*force, potential), weak


@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(axis=st.sampled_from(("axial", "transverse", "plane", "detuning")),
       start=st.floats(-30.0, 0.0), width=st.floats(0.5, 30.0),
       n_points=st.integers(2, 6),
       orientation=st.sampled_from(ORIENTATIONS),
       drive=st.one_of(st.none(), st.floats(0.0, 0.5),
                       st.tuples(st.floats(0.0, 3.0), st.floats(-2.0, 2.0))))
# populations 0.070, 0.097, 0.107, 0.085, 0.218 and 0.023: rows either
# side of the weak-excitation limit
@example(axis="axial", start=-30.0, width=30.0, n_points=6,
         orientation=DipoleOrientation.isotropic(), drive=(3.2, 0.0))
def test_scan_rows_do_not_depend_on_blocks_or_threads(
        axis, start, width, n_points, orientation, drive):
    # a row is the same bits whether its block holds one point, a few or
    # every point of its node count, whatever the worker count, and the
    # same as a call at its point alone; so are its force and its
    # weak-drive flag.  drive is None, a constant pi_e or a weak drive
    # (rabi, laser_detuning)
    if axis == "plane":
        n_points = min(n_points, 4)
    spec = ScanSpec(axis, start, start + width, n_points,
                    CavityConfig(rho=0.98), orientation, Detuning(-0.5))
    weak_drive = drive if isinstance(drive, tuple) else None
    pi_e = None if weak_drive else drive
    runs = []
    for budget in (1, 3 * 4 * 32, 10 ** 9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "BLOCK_NODES", budget)
            for n_workers in (1, 2):
                runs.append(run_scan(spec, n_workers=n_workers, pi_e=pi_e,
                                     weak_drive=weak_drive))
    for result in runs[1:]:
        assert np.array_equal(result.values, runs[0].values)
        assert result.non_converged == runs[0].non_converged
        assert result.weak_excitation == runs[0].weak_excitation
    weak = []
    for i, (row, coords, phi0, kr) in enumerate(
            zip(runs[0].values, *_scan_points(spec))):
        alone, flagged = _row_alone(coords, kr, phi0, spec, drive)
        assert tuple(row) == alone
        if flagged:
            weak.append(i)
    assert runs[0].weak_excitation == weak


def _admission(admit):
    """What one admission gives: the |kr| of each row as hex (the bits)
    or the message it raised, and the messages of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = [float(r).hex() for r in admit()]
        except ValueError as err:
            outcome = str(err)
    return outcome, [str(w.message) for w in caught]


COMPONENTS = st.one_of(st.floats(-320.0, 320.0),
                       st.sampled_from([math.nan, math.inf, -math.inf,
                                        1e200, -0.0, 100.0, 300.0]))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(rows=st.lists(st.tuples(COMPONENTS, COMPONENTS, COMPONENTS),
                     min_size=1, max_size=4))
def test_positions_points_and_block_rows_admit_alike(rows):
    # one admission for a Position, a point alone and a block: the same
    # radius bits and the same messages; a block raises its first bad
    # row's message, and warns at most once, as its farthest row would
    alone = []
    for row in rows:
        point = _admission(lambda: _admit(np.array(row))[1])
        assert _admission(lambda: _admit(Position(row))[1]) == point
        assert _admission(lambda: _admit(Position.of(row))[1]) == point
        alone.append(point)
    bad = [outcome for outcome, _ in alone if isinstance(outcome, str)]
    if bad:
        expected = (bad[0], [])
    else:
        expected = ([outcome[0] for outcome, _ in alone],
                    sorted({m for _, messages in alone for m in messages}))
    assert _admission(lambda: _admit(np.array(rows))[1]) == expected
