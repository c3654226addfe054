"""The oracle suite's own false-alarm rate and power, its block calls
against one call per point, and its reference rule and memory."""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import vactrap.cli as cli
import vactrap.quadrature as quadrature
import vactrap.validation as validation
from vactrap.cavity import (CavityConfig, Detuning, DipoleOrientation,
                            Response, center_gamma, center_shift)
from vactrap.quadrature import integrate_sphere
from vactrap.validation import (
    AngularGrid,
    check_monte_carlo,
    check_parity,
    check_rotation_symmetry,
    richardson_gradient,
)

DEFAULT = CavityConfig(rho=0.98)


@pytest.mark.parametrize("seed", [206, 305, 306])
def test_monte_carlo_check_passes_seeds_beyond_three_sigma(seed):
    # worst z-scores of these seeds are 3.44, 3.39 and 3.20; 206 is the
    # only seed of 0-299 above 3
    check = check_monte_carlo(DEFAULT, 0.0, seed)
    assert 3.0 < check.detail["worst_z_score"] < 5.0
    assert check.passed
    assert check.detail["tolerance"] == 5.0


def test_monte_carlo_check_fails_an_offset_mean(monkeypatch):
    reference = validation.monte_carlo_reference

    def offset(*args, **kwargs):
        mc, (se_g, se_s) = reference(*args, **kwargs)
        return Response(mc.gamma_ratio + 10.0 * se_g, mc.shift_ratio,
                        mc.shift_gradient), (se_g, se_s)

    monkeypatch.setattr(validation, "monte_carlo_reference", offset)
    check = check_monte_carlo(DEFAULT, 0.0, 0)
    assert not check.passed
    assert check.detail["worst_z_score"] > 5.0


@pytest.mark.parametrize("kr", [[3.0, -2.0, 5.0], [-12.0, 5.0, 16.0]])
def test_richardson_stencil_block_is_bit_identical(kr):
    # the 12 stencil points run as one block; each row must be the call
    # at that point alone on the same grid, the default grid of the
    # stencil's farthest row, which is one of the six at step h
    iso, detuning, step = DipoleOrientation.isotropic(), Detuning(-0.5), 1e-3
    kr = np.array(kr)
    phi0 = detuning.phase(DEFAULT.rho)
    grid = AngularGrid.for_position(
        [kr + sign * step * e for e in np.eye(3) for sign in (1.0, -1.0)],
        DEFAULT)

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


def recorded_blocks(monkeypatch):
    """Record each ``integrate_sphere`` call of the checks from now on as
    (kr, orientation, result)."""
    blocks = []

    def recorded(kr, orientation, *args, **kwargs):
        result = integrate_sphere(kr, orientation, *args, **kwargs)
        blocks.append((np.array(kr), orientation, result))
        return result

    monkeypatch.setattr(validation, "integrate_sphere", recorded)
    return blocks


def assert_rows_alone(block, phi0, **kwargs):
    """Each row of a recorded block is, bit for bit, the call at its
    position alone; returns those calls."""
    kr, orientation, result = block
    alone = [integrate_sphere(row, orientation, DEFAULT, phi0, **kwargs)
             for row in kr]
    assert_array_equal(result.gamma_ratio, [a.gamma_ratio for a in alone])
    assert_array_equal(result.shift_ratio, [a.shift_ratio for a in alone])
    if kwargs.get("with_gradient"):
        assert_array_equal(result.shift_gradient,
                           [a.shift_gradient for a in alone])
    return alone


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parity_pair_block_matches_per_row_calls(seed, monkeypatch):
    # parity holds bit for bit, so the detail alone reads 0 either way:
    # the five pairs are one 10-row block per dipole, with the gradient,
    # and each row is also checked against its own call
    phi0 = Detuning(0.0).phase(DEFAULT.rho)
    blocks = recorded_blocks(monkeypatch)
    detail = check_parity(DEFAULT, phi0, seed).detail
    # four draws a pair: a direction in the cube and a radius below 40
    u = validation._stream(seed)(np.arange(20)).reshape(5, 4)
    kr = 2.0 * u[:, :3] - 1.0
    kr *= (40.0 * u[:, 3] / np.linalg.norm(kr, axis=1))[:, None]
    points = [p for plus in kr for p in (plus, -plus)]
    worst = 0.0
    assert [o for _, o, _ in blocks] == list(validation._ORIENTATIONS)
    for block in blocks:
        assert_array_equal(block[0], points)
        alone = assert_rows_alone(block, phi0, with_gradient=True)
        for plus, minus in zip(alone[::2], alone[1::2]):
            worst = max(worst, abs(plus.gamma_ratio - minus.gamma_ratio),
                        abs(plus.shift_ratio - minus.shift_ratio),
                        *abs(plus.shift_gradient + minus.shift_gradient))
    assert detail == {"worst_abs_difference": worst, "tolerance": 1e-10}


def test_parity_check_sees_one_broken_pair(monkeypatch):
    # parity holds bit for bit, so only a broken row shows that each +kr
    # row is compared with its own -kr row: the fourth pair's -kr row
    # moved by 1e-7 is the worst difference, and fails the check
    def broken(kr, orientation, *args, **kwargs):
        result = integrate_sphere(kr, orientation, *args, **kwargs)
        result.gamma_ratio[7] += 1e-7
        return result

    monkeypatch.setattr(validation, "integrate_sphere", broken)
    check = check_parity(DEFAULT, 0.0, 0)
    assert not check.passed
    assert check.detail["worst_abs_difference"] == pytest.approx(1e-7,
                                                                 rel=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotation_block_matches_per_row_calls(seed, monkeypatch):
    # the base point and its three turns about the axis are one 4-row
    # block per axis-symmetric dipole, each row its own call
    phi0 = Detuning(-0.5).phase(DEFAULT.rho)
    blocks = recorded_blocks(monkeypatch)
    detail = check_rotation_symmetry(DEFAULT, phi0, seed).detail
    # five draws a dipole: r_perp in [1, 30), z in [-30, 30), three turns
    draws = validation._stream(seed)(np.arange(10)).reshape(2, 5)
    worst = 0.0
    assert [o for _, o, _ in blocks] == [validation._ORIENTATIONS[0],
                                         validation._ORIENTATIONS[2]]
    for block, u in zip(blocks, draws, strict=True):
        r_perp, z = 1.0 + 29.0 * u[0], -30.0 + 60.0 * u[1]
        turns = [[r_perp * math.cos(a), r_perp * math.sin(a), z]
                 for a in 2.0 * math.pi * u[2:]]
        assert_array_equal(block[0], [[r_perp, 0.0, z]] + turns)
        base, *rotated = assert_rows_alone(block, phi0, with_gradient=True)
        gx, gy, gz = base.shift_gradient
        for rot, a in zip(rotated, 2.0 * math.pi * u[2:], strict=True):
            c, s = math.cos(a), math.sin(a)
            turned = np.array([c * gx - s * gy, s * gx + c * gy, gz])
            worst = max(worst, abs(rot.gamma_ratio - base.gamma_ratio),
                        abs(rot.shift_ratio - base.shift_ratio),
                        *abs(rot.shift_gradient - turned))
    assert detail == {"worst_abs_difference": worst, "tolerance": 1e-8}


def _turn_only_corruption(monkeypatch, coordinate):
    """Make ``integrate_sphere`` turn the ring-frame sums of the rows
    whose kr has a negative ``coordinate`` (0, 1, 2: x, y, z) by a frame
    whose e1 is flipped, while the dipole is still read in the true
    frame: rows whose keys are equal keep sharing one kernel row, and
    only the gradient's turn is wrong."""
    ring_frame, ring_dipole = quadrature._ring_frame, quadrature._ring_dipole

    def flipped(kr):
        beta, frame = ring_frame(kr)
        frame = frame.copy()
        frame[1, kr[:, coordinate] < 0.0] *= -1.0
        return beta, frame

    def true_dipole(orientation, frame):
        # r is untouched, so it tells the flipped rows
        frame = frame.copy()
        frame[1, frame[0, :, coordinate] < 0.0] *= -1.0
        return ring_dipole(orientation, frame)

    monkeypatch.setattr(quadrature, "_ring_frame", flipped)
    monkeypatch.setattr(quadrature, "_ring_dipole", true_dipole)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("check, coordinate", [
    (check_parity, 2),  # kz < 0: one row of each pair
    (check_rotation_symmetry, 1),  # ky < 0: some turns, never the base
], ids=["parity", "rotation_symmetry"])
def test_check_sees_a_wrong_turn_of_the_ring_frame(check, coordinate, seed,
                                                   monkeypatch):
    # a pair, or a point and its turns, share ring-frame sums whose turn
    # by the row's own frame only the gradient shows; the damping and
    # the shift stay exact, so the check fails on the gradient alone
    phi0 = Detuning(-0.5).phase(DEFAULT.rho)
    assert check(DEFAULT, phi0, seed).passed
    _turn_only_corruption(monkeypatch, coordinate)
    result = check(DEFAULT, phi0, seed)
    assert not result.passed
    assert result.detail["worst_abs_difference"] > 1e-3


def test_zonal_rule_block_and_reference_pass_per_point(monkeypatch):
    # the zonal side is one 5-row block per dipole, with the gradient;
    # the reference runs its kernel once per block of cos-node rows for
    # the three dipoles (the fifth point's 96 x 72 grid is two blocks of
    # at most BLOCK_NODES nodes), each dipole's sums the bits of a pass
    # for that dipole alone
    phi0 = Detuning(-0.5).phase(DEFAULT.rho)
    blocks = recorded_blocks(monkeypatch)
    passes = []
    reference = validation._reference_pass

    def recorded(kr, orientations, *args):
        result = reference(kr, orientations, *args)
        passes.append((kr, orientations, args, result))
        return result

    monkeypatch.setattr(validation, "_reference_pass", recorded)
    kernel_calls = []
    integrate_once = validation._integrate_once

    def counted(*args):
        kernel_calls.append(len(args[0]))
        return integrate_once(*args)

    monkeypatch.setattr(validation, "_integrate_once", counted)
    detail = validation.check_zonal_vs_sphere_rule(DEFAULT, phi0).detail
    assert [o for _, o, _ in blocks] == list(validation._ORIENTATIONS)
    grids = [args[-1] for _, _, args, _ in passes]
    per_point = [-(-g.n_polar // (quadrature.BLOCK_NODES // g.n_azimuth))
                 for g in grids]
    assert len(passes) == 5 and per_point == [1, 1, 1, 1, 2]
    assert kernel_calls == [1] * 6
    worst = 0.0
    for block in blocks:
        assert_array_equal(block[0], [p[0] for p in passes])
    for i, (kr, orientations, args, result) in enumerate(passes):
        assert orientations == validation._ORIENTATIONS
        assert args[-1] == AngularGrid.for_position(kr, DEFAULT)
        for (_, orientation, zonal), ref in zip(blocks, result,
                                                strict=True):
            alone = reference(kr, [orientation], *args)[0]
            assert (ref.gamma_ratio, ref.shift_ratio) == (
                alone.gamma_ratio, alone.shift_ratio)
            assert_array_equal(ref.shift_gradient, alone.shift_gradient)
            a = integrate_sphere(kr, orientation, DEFAULT, phi0,
                                 with_gradient=True)
            assert (zonal.gamma_ratio[i], zonal.shift_ratio[i]) == (
                a.gamma_ratio, a.shift_ratio)
            assert_array_equal(zonal.shift_gradient[i], a.shift_gradient)
            worst = max(worst, abs(a.gamma_ratio - ref.gamma_ratio),
                        abs(a.shift_ratio - ref.shift_ratio),
                        *np.abs(a.shift_gradient
                                - ref.shift_gradient).tolist())
    assert detail == {"worst_abs_difference": worst, "tolerance": 1e-10}


def test_monte_carlo_quadrature_is_one_block(monkeypatch):
    # the three quadrature points are one block, each row its own call
    blocks = recorded_blocks(monkeypatch)
    check_monte_carlo(DEFAULT, 0.0, 0)
    (block,) = blocks
    assert block[0].shape == (3, 3)
    assert block[1] == validation._ORIENTATIONS[2]
    assert_rows_alone(block, 0.0)


def test_reference_rule_shares_no_rule_code_with_production(monkeypatch):
    # the 2-D reference pass of check_zonal_vs_sphere_rule runs, bit for
    # bit, with the production rule and integrator made to raise: it
    # shares no node and no rule code with what it checks
    phi0 = Detuning(-0.5).phase(DEFAULT.rho)
    points = ([0.0, 0.0, 0.0], [0.0, 0.0, 3.7], [-12.0, 5.0, 16.0])
    cases = [(kr, AngularGrid.for_position(kr, DEFAULT)) for kr in points]
    expected = [validation._reference_pass(kr, validation._ORIENTATIONS,
                                           DEFAULT, phi0, grid)
                for kr, grid in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference called production rule code")

    for name in ("_leggauss", "_zonal_rule", "integrate_sphere"):
        monkeypatch.setattr(quadrature, name, forbidden)
    for (kr, grid), responses in zip(cases, expected):
        afters = validation._reference_pass(kr, validation._ORIENTATIONS,
                                            DEFAULT, phi0, grid)
        for after, before in zip(afters, responses, strict=True):
            assert after.gamma_ratio == before.gamma_ratio
            assert after.shift_ratio == before.shift_ratio
            assert_array_equal(after.shift_gradient, before.shift_gradient)


@pytest.mark.parametrize("n", [1, 2, 7, 32, 96, 128, 1024])
def test_fejer_rule_exact_below_degree_n(n, monkeypatch):
    # Fejer's first rule integrates every polynomial of degree < n: each
    # Legendre moment and each monomial to rounding, with positive
    # weights summing to 2; its j-sum in blocks of one term agrees with
    # the default blocks to rounding
    from numpy.polynomial.legendre import legvander
    x, w = validation._fejer_rule(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert abs(w.sum() - 2.0) <= 4.5e-16
    moments = w @ legvander(x, n - 1)
    moments[0] -= 2.0
    assert np.abs(moments).max() <= 2e-15
    for degree in range(n):
        exact = (1 + (-1) ** degree) / (degree + 1)
        assert abs(np.sum(w * x ** degree) - exact) <= 5e-16
    monkeypatch.setattr(validation, "BLOCK_NODES", 1)
    x_one, w_one = validation._fejer_rule(n)
    assert_array_equal(x_one, x)
    assert np.abs(w_one - w).max() <= 2e-17


@pytest.mark.parametrize("kr", [[0.0, 0.0, 3.7], [-12.0, 5.0, 16.0]])
def test_reference_pass_in_blocks_agrees_with_one_block(kr, monkeypatch):
    # the reference pass over blocks of cos-node rows, a row a block (a
    # budget below the azimuth count) and a few rows a block, agrees with
    # one block of the whole grid to 1e-15, gradient included
    phi0 = Detuning(-0.5).phase(DEFAULT.rho)
    grid = AngularGrid.for_position(kr, DEFAULT)
    kernel_calls = []
    integrate_once = validation._integrate_once

    def counted(kr_sq, u, *args):
        kernel_calls.append(u.size)
        return integrate_once(kr_sq, u, *args)

    monkeypatch.setattr(validation, "_integrate_once", counted)

    def flat(budget):
        monkeypatch.setattr(validation, "BLOCK_NODES", budget)
        return np.array([[r.gamma_ratio, r.shift_ratio, *r.shift_gradient]
                         for r in validation._reference_pass(
                             kr, validation._ORIENTATIONS, DEFAULT, phi0,
                             grid)])

    one = flat(10 ** 9)
    assert kernel_calls == [grid.n_polar * grid.n_azimuth]
    for budget, rows in ((1, 1), (5 * grid.n_azimuth, 5)):
        kernel_calls.clear()
        split = flat(budget)
        full, rest = divmod(grid.n_polar, rows)
        assert kernel_calls == ([rows * grid.n_azimuth] * full
                                + [rest * grid.n_azimuth] * bool(rest))
        assert np.abs(split - one).max() <= 1e-15 * np.abs(one).max()


def test_validate_loads_no_polynomial_and_no_eigensolver():
    # the suite runs with numpy's eigensolvers made to raise and never
    # loads numpy.polynomial: its 2-D reference rule is Fejer's, in
    # closed form.  A child process, since this one has loaded it
    code = """
import sys
import numpy as np
def forbidden(*args, **kwargs):
    raise AssertionError("an eigensolver was called")
np.linalg.eigvalsh = np.linalg.eigh = np.linalg.eig = forbidden
from vactrap.cavity import CavityConfig, Detuning
from vactrap.validation import run_validation_suite
checks = run_validation_suite(CavityConfig(rho=0.98), Detuning(0.0))
print(len(checks), all(c.passed for c in checks),
      "numpy.polynomial" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "8 True False"


def test_fsr_sum_rule_in_bounded_blocks():
    # at rho = 0.9999 the sum rule takes 359,982 phases, summed in blocks
    # of BLOCK_NODES: its traced peak stays below 1 MB (25.9 MB as one
    # array).  The default's 4,096 phases are one block, the bits of one
    # mean over them
    high = CavityConfig(rho=0.9999)
    validation.check_fsr_sum_rule(high)
    tracemalloc.start()
    try:
        check = validation.check_fsr_sum_rule(high)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.passed and peak < 1e6
    iso = DipoleOrientation.isotropic()
    phases = np.pi * np.arange(4096) / 4096
    assert validation.check_fsr_sum_rule(DEFAULT).detail == {
        "mean_gamma": float(np.mean(center_gamma(iso, DEFAULT, phases))),
        "mean_shift": float(np.mean(center_shift(iso, DEFAULT, phases))),
        "tolerance": 1e-6}


def test_a_check_that_does_not_converge_fails_alone(monkeypatch):
    # a ConvergenceError inside a check fails that check, with the
    # error, its rows and its change as plain JSON, and the others run;
    # only the gradient check integrates at DEFAULT_TOLERANCE
    def unconverged(*args, **kwargs):
        if kwargs.get("tolerance") != validation.DEFAULT_TOLERANCE:
            return integrate_sphere(*args, **kwargs)
        raise quadrature.ConvergenceError(
            "sphere integral did not converge", estimate=Response(1.0, 0.0),
            change=(np.array([0.0, 3e-7]), np.array([0.0, 4e-7])), rows=[1])

    monkeypatch.setattr(validation, "integrate_sphere", unconverged)
    checks = validation.run_validation_suite(DEFAULT, Detuning(0.0))
    assert [c.passed for c in checks] == [True] * 7 + [False]
    assert checks[-1].name == "gradient_vs_finite_difference"
    assert checks[-1].detail == {"error": "sphere integral did not converge",
                                 "rows": [1],
                                 "change": [[0.0, 3e-7], [0.0, 4e-7]]}
    json.dumps(checks[-1].detail)


def test_validate_reports_a_gradient_point_that_does_not_converge(
        tmp_path, capsys):
    # seed 5 draws a gradient point at |kr| = 5.77 where the doubling
    # check fails here: validate once exited 3 with an empty stdout; now
    # it writes the report, runs every check and exits 4
    config = tmp_path / "unconverged.ini"
    config.write_text("[mirrors]\nrho = 0.999\nkR = 1.0e3\n[detuning]\n"
                      "linewidths = -0.5\n", encoding="utf-8")
    assert cli.main(["validate", "--config", str(config), "--seed", "5"]) == 4
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["passed"] is False and len(report["checks"]) == 8
    (gradient,) = [check for check in report["checks"]
                   if check["name"] == "gradient_vs_finite_difference"]
    assert gradient["passed"] is False
    assert gradient["detail"]["rows"] == [0]
    assert "did not converge at |kr|=5.77" in gradient["detail"]["error"]
    assert len(gradient["detail"]["change"]) == 2
    assert "gradient_vs_finite_difference" in err


def test_validate_reports_checks_over_the_polar_node_cap(monkeypatch,
                                                         capsys):
    # a check's own point above the polar node cap once ended validate
    # with exit 2 and an empty stdout, though the config was accepted;
    # now that check fails with the cap's message and the others run
    monkeypatch.setattr(quadrature, "MAX_POLAR_NODES", 64)
    assert cli.main(["validate"]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    report = json.loads(out)
    passed = {c["name"]: c["passed"] for c in report["checks"]}
    assert [name for name, ok in passed.items() if ok] == [
        "closed_form_vs_quadrature", "fsr_sum_rule"]
    for check in report["checks"]:
        if not check["passed"]:
            assert list(check["detail"]) == ["error"]
            assert check["detail"]["error"].endswith(
                "polar nodes with these mirrors, above the cap of 64")
            assert check["name"] in err



def test_validate_reports_a_reference_grid_over_its_cap(tmp_path, capsys,
                                                        monkeypatch):
    # at rho = 0.9999 and kR = 1e3 the reference grid at (-12, 5, 16) has
    # 1,026,836,608 nodes, which took some 140 s.  That point is skipped
    # and named, the other four are still compared, and the check fails
    # however well they agree: validate exits 4
    config = tmp_path / "narrow.ini"
    config.write_text("[mirrors]\nrho = 0.9999\nkR = 1.0e3\n",
                      encoding="utf-8")
    passes, reference_pass = [], validation._reference_pass
    monkeypatch.setattr(validation, "_reference_pass", lambda kr, *args: (
        passes.append(kr.tolist()) or reference_pass(kr, *args)))
    assert cli.main(["validate", "--config", str(config)]) == \
        cli.EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    (zonal,) = [check for check in report["checks"]
                if check["name"] == "zonal_vs_sphere_rule"]
    assert zonal["passed"] is False
    detail = zonal["detail"]
    assert list(detail) == ["worst_abs_difference", "tolerance", "skipped"]
    assert detail["worst_abs_difference"] < detail["tolerance"] == 1e-10
    assert detail["skipped"] == [{"kr": [-12.0, 5.0, 16.0],
                                  "nodes": 1026836608}]
    assert passes == validation._RULE_POINTS[:-1].tolist()
    # at rho = 0.999 the cap hid a real error of the 32-node zonal rule at
    # (0, 0, 3.7), on resonance: it is now reported next to the skipped
    # point
    check = validation.check_zonal_vs_sphere_rule(
        CavityConfig(rho=0.999, k_r_mirror=1.0e3), 0.0)
    assert check.passed is False
    assert 1e-7 < check.detail["worst_abs_difference"] < 1e-6
    assert check.detail["skipped"] == [{"kr": [-12.0, 5.0, 16.0],
                                        "nodes": 10418112}]


def test_zonal_check_below_a_low_reference_cap(monkeypatch):
    # the default grids are far below the cap: the largest, 96 x 72 at
    # (-12, 5, 16), passes at a cap of its own size.  One below it, the
    # point is skipped and the check fails with both the worst difference
    # of the other points and the skipped one; below the 96 x 32 grid at
    # (0, 0, -21) that point is skipped too.  A report with no skipped
    # point has no "skipped" key
    grid = AngularGrid.for_position(validation._RULE_POINTS[-1], DEFAULT)
    assert (grid.n_polar, grid.n_azimuth) == (96, 72)
    for cap, skipped in ((96 * 72, []),
                         (96 * 72 - 1, [([-12.0, 5.0, 16.0], 6912)]),
                         (3071, [([0.0, 0.0, -21.0], 3072),
                                 ([-12.0, 5.0, 16.0], 6912)])):
        monkeypatch.setattr(validation, "MAX_REFERENCE_NODES", cap)
        check = validation.check_zonal_vs_sphere_rule(DEFAULT, 0.0)
        assert check.passed is not skipped
        assert 0.0 < check.detail["worst_abs_difference"] < 1e-12
        assert check.detail.get("skipped", []) == [
            {"kr": kr, "nodes": nodes} for kr, nodes in skipped]


def test_gradient_check_names_the_point_that_does_not_converge():
    # seed 16 draws its second gradient point at |kr| = 2.00, where the
    # doubling check fails here; both points are one block, so the
    # report names row 1, not the row of a one-point call
    config = CavityConfig(rho=0.999, k_r_mirror=1.0e3)
    check = validation.check_gradient(config, Detuning(-0.5), 16)
    assert not check.passed
    assert check.detail["rows"] == [1]
    assert "did not converge at |kr|=2.00" in check.detail["error"]


def test_orientation_check_holds_through_the_zonal_rule():
    # x, y and z dipoles average to the isotropic result at the rule
    # points, also at a 70-degree aperture and at high finesse
    for config in (DEFAULT, CavityConfig(rho=0.98, theta_m=math.radians(70)),
                   CavityConfig(rho=0.9999)):
        check = validation.check_orientation_decomposition(config, 0.0)
        assert check.passed
        assert check.detail["worst_relative_error"] < 5e-15


def test_orientation_check_sees_one_dipole_rule_scaled(monkeypatch):
    # the sum rule is no identity of the weights: scaling the zonal
    # weights of the y dipole alone by 1 + 1e-9 fails the check.  The
    # rule reads the dipole through q, so the dipole of the call is
    # noted where q is taken
    zonal, ring_dipole = quadrature._zonal_rule, quadrature._ring_dipole
    y_axis = DipoleOrientation.fixed((0.0, 1.0, 0.0))
    dipole = []

    def noted(orientation, frame):
        dipole[:] = [orientation]
        return ring_dipole(orientation, frame)

    def scaled(*args):
        c, weight, *tangents = zonal(*args)
        if dipole[0] == y_axis:
            weight = weight * (1.0 + 1e-9)
        return c, weight, *tangents

    monkeypatch.setattr(quadrature, "_ring_dipole", noted)
    monkeypatch.setattr(quadrature, "_zonal_rule", scaled)
    check = validation.check_orientation_decomposition(DEFAULT, 0.0)
    assert not check.passed
    assert check.detail["worst_relative_error"] > 1e-10


def test_validate_takes_a_seed_of_64_bits_and_more(capsys):
    # the stream's key folds every 64-bit word of the seed: 2^64 + 3 has
    # a stream of its own, not that of 3
    reports = []
    for seed in (3, 2**64 + 3):
        assert cli.main(["validate", "--seed", str(seed)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    (small, large) = ([c["detail"] for c in r["checks"]
                       if c["name"] == "monte_carlo_agreement"][0]
                      for r in reports)
    assert large["seed"] == 2**64 + 3
    assert large["worst_z_score"] != small["worst_z_score"]


def test_validate_passes_off_resonance_at_high_finesse(tmp_path, capsys):
    # at (-12, 5, 16) a cap ring sweeps 4.7 linewidths here; the azimuth
    # floor's 72 nodes, some 15 per linewidth, left the reference 5.9e-9
    # off, and validate failed on a correct zonal rule
    config = tmp_path / "detuned.ini"
    config.write_text("[mirrors]\nrho = 0.999\n[detuning]\n"
                      "linewidths = -0.5\n", encoding="utf-8")
    assert cli.main(["validate", "--config", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    (zonal,) = [check for check in report["checks"]
                if check["name"] == "zonal_vs_sphere_rule"]
    assert zonal["detail"]["worst_abs_difference"] < 1e-12


@pytest.mark.parametrize("mirrors", ["rho = 0.9999",
                                     "rho = 0.995\nkR = 1.0e3"])
def test_validate_passes_where_the_ring_sweeps_many_linewidths(
        tmp_path, capsys, mirrors):
    # the reference's azimuth count follows the phase a cap ring sweeps:
    # at (-12, 5, 16) that is 26 and 41.5 linewidths here, which the
    # azimuth floor of 72 nodes missed by 3.5e-4 and 5.9e-5
    config = tmp_path / "mirrors.ini"
    config.write_text(f"[mirrors]\n{mirrors}\n", encoding="utf-8")
    assert cli.main(["validate", "--config", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_validate_passes_at_the_even_resonance_at_high_finesse(
        tmp_path, capsys):
    # -15,700 linewidths put phi0 near -pi/2, the even resonance, where
    # the two-denominator Airy factors lost digits to cancellation: the
    # zonal and reference rules then parted by 4.5e-9 and validate
    # exited 4
    config = tmp_path / "even.ini"
    config.write_text("[mirrors]\nrho = 0.9999\n[detuning]\n"
                      "linewidths = -15700\n", encoding="utf-8")
    assert cli.main(["validate", "--config", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    (zonal,) = [check for check in report["checks"]
                if check["name"] == "zonal_vs_sphere_rule"]
    assert zonal["detail"]["worst_abs_difference"] < 1e-10
