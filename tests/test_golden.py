"""Golden outputs: small CLI runs compared with reference tables.

The reference tables in ``golden_outputs.json`` were written by the
implementation that integrated the non-reflective band on the grid and
kept one copy of the resonance factors per integration path.  Refactors
of the integrand must reproduce them to 1e-13 * max(1, |x|).
"""

import json
from pathlib import Path

import pytest

from vactrap import cli

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_outputs.json")).read_text())
REL_TOL = 1e-13

_SMALL_AXIAL = "[scan]\nstart = -6.0\nstop = 6.0\nn_points = 9\n"
_FORCE = ("[detuning]\nlinewidths = -0.5\n[drive]\npi_e = 0.05\n"
          "[scan]\nstart = -10.0\nstop = 10.0\nn_points = 5\n")

# name -> (command line, config text)
CASES = {
    "center": (["center"],
               "[scan]\nstart = -2.0\nstop = 2.0\nn_points = 9\n"),
    "center_quadrature": (["center", "--quadrature"],
                          "[scan]\nstart = -1.0\nstop = 1.0\nn_points = 5\n"),
    "axial_isotropic": (["axial"],
                        "[detuning]\nlinewidths = 0.3\n" + _SMALL_AXIAL),
    "axial_perpendicular": (["axial"],
                            "[dipole]\norientation = perpendicular\n"
                            "[detuning]\nlinewidths = 0.3\n" + _SMALL_AXIAL),
    "axial_fixed": (["axial"],
                    "[dipole]\norientation = 0.3 0.4 0.866\n" + _SMALL_AXIAL),
    "plane": (["plane"],
              "[detuning]\nlinewidths = -0.2\n"
              "[scan]\nstart = -4.0\nstop = 4.0\nn_points = 3\n"),
    "force_transverse": (["force"],
                         _FORCE + "type = transverse\n"),
    "force_axial_perpendicular": (["force"],
                                  "[dipole]\norientation = perpendicular\n"
                                  + _FORCE),
}


def _run_table(tmp_path, argv, config_text):
    config = tmp_path / "golden.ini"
    config.write_text(config_text)
    out = tmp_path / "golden.csv"
    assert cli.main(argv + ["--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    return (lines[0].split(","),
            [[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(tmp_path, name):
    argv, config_text = CASES[name]
    columns, rows = _run_table(tmp_path, argv, config_text)
    expected = GOLDEN[name]
    assert columns == expected["columns"]
    assert len(rows) == len(expected["rows"])
    for row, ref in zip(rows, expected["rows"]):
        for value, want in zip(row, ref):
            assert abs(value - want) <= REL_TOL * max(1.0, abs(want)), \
                (name, row, ref)


def test_golden_cases_all_recorded():
    assert sorted(GOLDEN) == sorted(CASES)
