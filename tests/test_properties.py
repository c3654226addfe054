"""Property-based checks of physics identities across the quadrature
rules."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from vactrap.cavity import CavityConfig, DipoleOrientation
from vactrap.quadrature import integrate_sphere


def close(x, y):
    return abs(x - y) <= 1e-10 * max(1.0, abs(x))


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(kz=st.floats(-30.0, 30.0),
       rho=st.floats(0.0, 0.99),
       phi0=st.floats(-1.0, 1.0),
       d_z=st.floats(-1.0, 1.0),
       azimuth=st.floats(0.0, 2.0 * math.pi))
def test_on_axis_orientation_decomposition(kz, rho, phi0, d_z, azimuth):
    # on the axis R(d) = d_z^2 R_par + (1 - d_z^2) R_perp: a fixed dipole
    # goes through the sphere rule, parallel and perpendicular through
    # the on-axis rule
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
