"""Configuration parsing and line-precise diagnostics."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vactrap.cavity import CavityConfig, DipoleOrientation
from vactrap.config import ConfigError, RunConfig, load_config, parse_config
from vactrap.fields import ScanSpec, run_scan

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
    # the squares of the last two vectors overflow or underflow, so they
    # were once refused as not finite or not nonzero, with numpy's
    # overflow warning on stderr
    half = math.sqrt(0.5)
    for text, expected in (("1 1 0", (half, half, 0.0)),
                           ("1e200 0 0", (1.0, 0.0, 0.0)),
                           ("1e-200 1e-200 0", (half, half, 0.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = parse_config(f"[dipole]\norientation = {text}\n")
        assert run.orientation.kind == "fixed"
        assert_allclose(run.orientation.unit_vector, expected, rtol=1e-15)


def test_fixed_orientation_keeps_numpy_norm_bits():
    # every vector is rescaled by a power of two, which is exact, so one
    # whose squares stay in the float range keeps the bits of numpy's norm
    # (math.hypot differs from it in about one vector in seven)
    rng = np.random.default_rng(0)
    for vec in rng.normal(size=(200, 3)).tolist():
        text = " ".join(map(repr, vec))
        run = parse_config(f"[dipole]\norientation = {text}\n")
        assert run.orientation.d_hat == tuple(
            (np.array(vec) / np.linalg.norm(vec)).tolist())


def test_tiny_fixed_orientation_is_the_unit_vector(tmp_path, capsys):
    # the squares of 1e-160 are subnormal, so its unscaled norm is off by
    # 5.6e-6 and the quotient was refused as not of unit norm
    import vactrap.cli as cli

    outputs = []
    for text in ("1e-160 0 0", "1 0 0"):
        config = tmp_path / "dipole.ini"
        config.write_text("[dipole]\norientation = " + text + "\n"
                          "[scan]\nn_points = 5\n")
        assert cli.main(["axial", "--config", str(config)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # some editors save UTF-8 with a byte-order mark, which was read as
    # part of the first line ("expected 'key = value', got
    # '\\ufeff[mirrors]'")
    import vactrap.cli as cli

    outputs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        config = tmp_path / "mirrors.ini"
        config.write_bytes(mark + b"[mirrors]\nrho = 0.9\n"
                           b"[scan]\nn_points = 5\n")
        assert cli.main(["axial", "--config", str(config),
                         "--format", "json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert '"rho": 0.9' in outputs[0].out


def test_config_file_that_is_not_utf8_names_its_path(tmp_path, capsys):
    # the decoder's message once reached the user with no file named
    import vactrap.cli as cli

    config = tmp_path / "latin1.ini"
    config.write_bytes(b"\xff[mirrors]\n")
    with pytest.raises(ConfigError, match="^" + re.escape(str(config))
                       + ": cannot read config file: 'utf-8' codec can't "
                       "decode byte 0xff in position 0"):
        load_config(str(config))
    assert cli.main(["center", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"vactrap: {config}: ")


def test_refused_orientation_names_its_line(monkeypatch):
    from vactrap import config

    def refuse(d_hat):
        raise ValueError("fixed dipole direction must be unit norm")

    monkeypatch.setattr(config.DipoleOrientation, "fixed", refuse)
    with pytest.raises(ConfigError,
                       match=r"^bad\.ini:3: orientation = 0 0 1: fixed dipole"):
        parse_config("[mirrors]\n[dipole]\norientation = 0 0 1\n",
                     source="bad.ini")


def test_comments_and_case():
    run = parse_config("[MIRRORS]\nRHO = 0.5  ; inline comment\n")
    assert run.cavity.rho == 0.5


@pytest.mark.parametrize("text,line,fragment", [
    ("[mirrors]\nrho = 1.2\n", 2, "rho"),
    ("[mirrors]\nkR = inf\n", 2, "finite"),
    ("[detuning]\nlinewidths = nan\n", 2, "linewidths must be a finite"),
    ("[drive]\nrabi = -inf\nlaser_detuning = 0\n", 2, "rabi must be a finite"),
    ("[dipole]\norientation = nan 0 1\n", 2, "finite and nonzero"),
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
    ("[scan]\nn_points = 41\n[output]\npath =\n", 4,
     "output path must not be empty"),
    ("[output]\npath =   # stdout\n", 2, "output path must not be empty"),
    ("[detuning]\nlinewidths = 1e9\n", 2, "single-resonance"),
    ("[mirrors]\ndiffraction_correction = maybe\n", 2, "true or false"),
    ("[dipole]\norientation = 1 0\n", 2, "orientation"),
    ("[dipole]\norientation = 0 0 0\n", 2, "nonzero"),
    # a mirror key is refused at its own line, after the other keys, and
    # named as written: degrees and kR, not radians and k_r_mirror
    ("[mirrors]\nkR = 1e4\ntheta_m_deg = 30\nrho = 1.5\n", 4,
     "rho = 1.5: rho must satisfy"),
    ("[mirrors]\ntheta_m_deg = 30\nrho = 0.9\nkR = 5\n", 4,
     "kR = 5: k_r_mirror must be finite"),
    ("[mirrors]\nrho = 0.9\nkR = 1e4\ntheta_m_deg = 95\n", 4,
     "theta_m_deg = 95: theta_m must lie in (0, pi/2)"),
    ("[mirrors]\ndiffraction_correction = on\nrho = 0.99\nkR = 1e3\n"
     "theta_m_deg = 1.0\n", 2,
     "diffraction_correction = on: diffraction correction removes"),
    ("[mirrors]\nKr = abc\n", 2, "Kr must be a finite number"),
    ("[drive]\npi_e = 0.9\n", 2, "pi_e = 0.9: pi_e must lie in [0, 1/2]"),
])
def test_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, source="bad.ini")
    message = str(excinfo.value)
    assert f"bad.ini:{line}:" in message
    assert fragment in message


def _library_refusal(call) -> str:
    with pytest.raises(ValueError) as excinfo:
        call()
    return str(excinfo.value)


def _scan(n_points, **drive):
    spec = ScanSpec("axial", -1.0, 1.0, n_points, CavityConfig(rho=0.98),
                    DipoleOrientation.isotropic())
    return run_scan(spec, **drive)


@pytest.mark.parametrize("text, entry, call", [
    ("[scan]\nn_points = 1\n", "2: n_points = 1", lambda: _scan(1)),
    ("[scan]\nn_points = 10002\n", "2: n_points = 10002",
     lambda: _scan(10_002)),
    ("[drive]\npi_e = 0.01\nrabi = 0.1\nlaser_detuning = 0.0\n",
     "2: pi_e = 0.01",
     lambda: _scan(3, pi_e=0.01, weak_drive=(0.1, 0.0))),
    ("[drive]\nrabi = 0.1\nlaser_detuning = 0.0\npi_e = 0.01\n",
     "4: pi_e = 0.01",
     lambda: _scan(3, pi_e=0.01, weak_drive=(0.1, 0.0))),
])
def test_config_reports_the_library_refusal(text, entry, call):
    # the point count and the drive are each checked once, by the
    # library; the config puts the file, line, key and value before it
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, source="bad.ini")
    assert str(excinfo.value) == f"bad.ini:{entry}: {_library_refusal(call)}"


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
    assert str(excinfo.value).startswith("combo.ini:5: ")


def test_metadata_round_trip():
    run = parse_config(GOOD)
    meta = run.to_metadata()
    assert meta["mirrors"]["rho"] == 0.95
    assert meta["mirrors"]["transmission"] == 1.0 - 0.95**2
    assert meta["dipole"]["orientation"] == "parallel"
    assert meta["drive"] == {"pi_e": 0.02}
    assert meta["scan"]["n_points"] == 61
