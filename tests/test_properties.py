"""Property-based checks of physics identities across the quadrature
rules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vactrap import quadrature
from vactrap.cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    aperture_weights,
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
from vactrap.quadrature import (
    AngularGrid,
    ConvergenceError,
    _cap_terms,
    _leggauss,
    _pol_weight,
    integrate_sphere,
)
from vactrap.validation import _reference_pass

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
    g, sh, u_part, phase_part = _cap_terms(rho, phi, u, with_gradient=True)
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
    grid = AngularGrid.for_position(kr, config).doubled()
    for orientation in ORIENTATIONS:
        zonal = integrate_sphere(kr, orientation, config, phi0,
                                 tolerance=DEFAULT_TOLERANCE,
                                 with_gradient=True)
        sphere = _reference_pass(kr, orientation, config, phi0, grid)
        for x, y in ((sphere.gamma_ratio, zonal.gamma_ratio),
                     (sphere.shift_ratio, zonal.shift_ratio),
                     *zip(sphere.shift_gradient, zonal.shift_gradient)):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (orientation, x, y)


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
