"""The oracle suite's own false-alarm rate and power, and its block
calls against one call per point."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import vactrap.quadrature as quadrature
import vactrap.validation as validation
from vactrap.cavity import CavityConfig, Detuning, DipoleOrientation
from vactrap.quadrature import AngularGrid, integrate_sphere
from vactrap.validation import (
    check_monte_carlo,
    check_parity,
    richardson_gradient,
)

DEFAULT = CavityConfig(rho=0.98)


@pytest.mark.parametrize("seed", [137, 222, 280])
def test_monte_carlo_check_passes_seeds_beyond_three_sigma(seed):
    # worst z-scores of these seeds are 3.02, 3.09 and 3.27
    check = check_monte_carlo(DEFAULT, 0.0, seed)
    assert 3.0 < check.detail["worst_z_score"] < 5.0
    assert check.passed
    assert check.detail["tolerance"] == 5.0


def test_monte_carlo_check_fails_an_offset_mean(monkeypatch):
    reference = validation.monte_carlo_reference

    def offset(*args, **kwargs):
        mc, (se_g, se_s) = reference(*args, **kwargs)
        return replace(mc, gamma_ratio=mc.gamma_ratio + 10.0 * se_g), \
            (se_g, se_s)

    monkeypatch.setattr(validation, "monte_carlo_reference", offset)
    check = check_monte_carlo(DEFAULT, 0.0, 0)
    assert not check.passed
    assert check.detail["worst_z_score"] > 5.0


@pytest.mark.parametrize("kr", [[3.0, -2.0, 5.0], [-12.0, 5.0, 16.0]])
def test_richardson_stencil_block_is_bit_identical(kr):
    # the 12 stencil points run as one block; each row must be the call
    # at that point alone on the same grid
    iso, detuning, step = DipoleOrientation.isotropic(), Detuning(-0.5), 1e-3
    kr = np.array(kr)
    phi0 = detuning.phase(DEFAULT.rho)
    grid = AngularGrid.for_position(
        [float(np.linalg.norm(kr)) + 2.0 * step, 0.0, 0.0], DEFAULT)

    def shift(point):
        return integrate_sphere(point, iso, DEFAULT, phi0,
                                grid=grid).shift_ratio

    expected = np.zeros(3)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        d_h = (shift(kr + step * e) - shift(kr - step * e)) / (2.0 * step)
        d_h2 = (shift(kr + 0.5 * step * e)
                - shift(kr - 0.5 * step * e)) / step
        expected[axis] = (4.0 * d_h2 - d_h) / 3.0
    assert_array_equal(richardson_gradient(kr, iso, DEFAULT, detuning),
                       expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parity_pair_block_matches_per_row_calls(seed, monkeypatch):
    # parity holds bit for bit, so the detail alone reads 0 either way:
    # each row of every pair block is also checked against its own call
    phi0 = Detuning(0.0).phase(DEFAULT.rho)
    blocks = []

    def recorded(kr, orientation, *args, **kwargs):
        result = integrate_sphere(kr, orientation, *args, **kwargs)
        blocks.append((kr, orientation, result))
        return result

    monkeypatch.setattr(validation, "integrate_sphere", recorded)
    detail = check_parity(DEFAULT, phi0, seed).detail
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        kr = rng.uniform(-1.0, 1.0, 3)
        kr *= rng.uniform(0.0, 40.0) / max(np.linalg.norm(kr), 1e-12)
        for orientation in validation._ORIENTATIONS:
            plus = integrate_sphere(kr, orientation, DEFAULT, phi0)
            minus = integrate_sphere(-kr, orientation, DEFAULT, phi0)
            worst = max(worst, abs(plus.gamma_ratio - minus.gamma_ratio),
                        abs(plus.shift_ratio - minus.shift_ratio))
            block_kr, block_orientation, pair = blocks.pop(0)
            assert_array_equal(block_kr, [kr, -kr])
            assert block_orientation == orientation
            assert_array_equal(pair.gamma_ratio,
                               [plus.gamma_ratio, minus.gamma_ratio])
            assert_array_equal(pair.shift_ratio,
                               [plus.shift_ratio, minus.shift_ratio])
    assert not blocks
    assert detail == {"worst_abs_difference": worst, "tolerance": 1e-10}


def test_reference_rule_shares_no_rule_code_with_production(monkeypatch):
    # the 2-D reference pass of check_zonal_vs_sphere_rule runs, bit for
    # bit, with the production rule and integrator made to raise: it
    # shares no node and no rule code with what it checks
    phi0 = Detuning(-0.5).phase(DEFAULT.rho)
    points = ([0.0, 0.0, 0.0], [0.0, 0.0, 3.7], [-12.0, 5.0, 16.0])
    cases = [(kr, orientation, AngularGrid.for_position(kr, DEFAULT))
             for kr in points for orientation in validation._ORIENTATIONS]
    expected = [validation._reference_pass(kr, orientation, DEFAULT, phi0,
                                           grid)
                for kr, orientation, grid in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference called production rule code")

    for name in ("_leggauss", "_zonal_rule", "integrate_sphere"):
        monkeypatch.setattr(quadrature, name, forbidden)
    for (kr, orientation, grid), before in zip(cases, expected):
        after = validation._reference_pass(kr, orientation, DEFAULT, phi0,
                                           grid)
        assert after.gamma_ratio == before.gamma_ratio
        assert after.shift_ratio == before.shift_ratio
        assert_array_equal(after.shift_gradient, before.shift_gradient)
