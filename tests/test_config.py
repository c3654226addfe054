"""Configuration parsing and line-precise diagnostics."""

import math

import pytest
from numpy.testing import assert_allclose

from vactrap.config import ConfigError, RunConfig, parse_config

GOOD = """\
# full configuration
[mirrors]
rho = 0.95
theta_m_deg = 40.0
kR = 5.0e4
diffraction_correction = true

[dipole]
orientation = parallel

[detuning]
linewidths = -0.5

[drive]
pi_e = 0.02

[scan]
type = axial
start = -30.0
stop = 30.0
n_points = 61

[output]
path = scan.csv
format = json
precision = 12
"""


def test_parse_full_config():
    run = parse_config(GOOD, source="good.ini")
    assert run.cavity.rho == 0.95
    assert_allclose(run.cavity.theta_m, math.radians(40.0))
    assert run.cavity.k_r_mirror == 5.0e4
    assert run.cavity.apply_diffraction_correction is True
    assert run.orientation.kind == "parallel"
    assert run.detuning.linewidths == -0.5
    assert run.pi_e == 0.02
    assert run.weak_drive is None
    assert run.scan_type == "axial"
    assert (run.scan_start, run.scan_stop, run.scan_points) == (-30.0, 30.0, 61)
    assert run.out_path == "scan.csv"
    assert run.out_format == "json"
    assert run.precision == 12


def test_defaults():
    run = RunConfig.defaults()
    assert run.cavity.rho == 0.98
    assert_allclose(run.cavity.theta_m, math.pi / 4)
    assert run.cavity.apply_diffraction_correction is False
    assert run.orientation.kind == "isotropic"
    assert run.detuning.linewidths == 0.0
    assert run.pi_e is None and run.weak_drive is None
    assert run.out_format == "csv"
    assert run.precision == 17


def test_empty_config_gives_defaults():
    run = parse_config("", source="empty.ini")
    assert run.cavity.rho == 0.98


def test_fixed_orientation_vector():
    run = parse_config("[dipole]\norientation = 1 1 0\n")
    assert run.orientation.kind == "fixed"
    assert_allclose(run.orientation.unit_vector,
                    [math.sqrt(0.5), math.sqrt(0.5), 0.0])


def test_comments_and_case():
    run = parse_config("[MIRRORS]\nRHO = 0.5  ; inline comment\n")
    assert run.cavity.rho == 0.5


@pytest.mark.parametrize("text,line,fragment", [
    ("[mirrors]\nrho = 1.2\n", 2, "rho"),
    ("[mirrors]\nkR = inf\n", 2, "finite"),
    ("[mirrors]\nrho = abc\n", 2, "number"),
    ("[mirrors]\nwobble = 1\n", 2, "unknown key"),
    ("[warp]\nrho = 0.9\n", 1, "unknown section"),
    ("rho = 0.9\n", 1, "outside any"),
    ("[mirrors]\nrho 0.9\n", 2, "key = value"),
    ("[mirrors]\nrho = 0.9\nrho = 0.8\n", 3, "duplicate"),
    ("[scan]\ntype = spiral\n", 2, "scan type"),
    ("[scan]\ntype = plane\n", 2, "scan type"),
    ("[scan]\nstart = 2\nstop = 1\n", 2, "below stop"),
    ("[scan]\nn_points = 1\n", 2, ">= 2"),
    ("[scan]\nn_points = 10002\n", 2, "<= 10001"),
    ("[output]\nformat = xml\n", 2, "csv or json"),
    ("[output]\nprecision = 40\n", 2, "precision"),
    ("[detuning]\nlinewidths = 1e9\n", 2, "single-resonance"),
    ("[mirrors]\ndiffraction_correction = maybe\n", 2, "true or false"),
    ("[dipole]\norientation = 1 0\n", 2, "orientation"),
    ("[dipole]\norientation = 0 0 0\n", 2, "nonzero"),
])
def test_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, source="bad.ini")
    message = str(excinfo.value)
    assert f"bad.ini:{line}:" in message
    assert fragment in message


def test_drive_exclusivity():
    text = "[drive]\npi_e = 0.01\nrabi = 0.1\nlaser_detuning = 0.0\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "mutually exclusive" in str(excinfo.value)


def test_weak_drive_requires_both_keys():
    with pytest.raises(ConfigError):
        parse_config("[drive]\nrabi = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config("[drive]\nlaser_detuning = 0.0\n")
    run = parse_config("[drive]\nrabi = 0.1\nlaser_detuning = -0.2\n")
    assert run.weak_drive == (0.1, -0.2)
    assert run.pi_e is None


def test_pi_e_range():
    with pytest.raises(ConfigError):
        parse_config("[drive]\npi_e = 0.9\n")


def test_invalid_mirror_combination_points_at_line():
    text = "[mirrors]\nrho = 0.99\nkR = 1e3\ntheta_m_deg = 1.0\n" \
           "diffraction_correction = true\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, source="combo.ini")
    assert "combo.ini:" in str(excinfo.value)


def test_metadata_round_trip():
    run = parse_config(GOOD)
    meta = run.to_metadata()
    assert meta["mirrors"]["rho"] == 0.95
    assert meta["mirrors"]["transmission"] == 1.0 - 0.95**2
    assert meta["dipole"]["orientation"] == "parallel"
    assert meta["drive"] == {"pi_e": 0.02}
    assert meta["scan"]["n_points"] == 61
