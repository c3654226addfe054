"""The CLI's surface, byte for byte: each command's --help, the
top-level help and the usage errors of both parser paths (a command's
own parser, and the top-level one when no command leads the line).
argparse wraps at COLUMNS, so every test sets it to 80."""

import argparse

import pytest

import vactrap.cli as cli

TOP_USAGE = ("usage: vactrap [-h] {center,axial,plane,force,potential,"
             "validate} ...\n")
CHOICES = ("(choose from 'center', 'axial', 'plane', 'force', 'potential', "
           "'validate')")

TOP_HELP = TOP_USAGE + """
Cavity-modified spontaneous emission and vacuum-induced trapping near a
spherical-mirror cavity center.

positional arguments:
  {center,axial,plane,force,potential,validate}
    center              detuning scan of the center damping and shift
    axial               on-axis spatial scan
    plane               (z, x) plane scan
    force               vacuum-force profile
    potential           trapping-potential profile
    validate            run the internal consistency suite

options:
  -h, --help            show this help message and exit
"""

USAGE = {
    "center": """\
usage: vactrap center [-h] [--config PATH] [--out PATH] [--timings]
                      [--format {csv,json}] [--tolerance TOLERANCE]
                      [--threads THREADS] [--quadrature]
""",
    "axial": """\
usage: vactrap axial [-h] [--config PATH] [--out PATH] [--timings]
                     [--format {csv,json}] [--tolerance TOLERANCE]
                     [--threads THREADS]
""",
    "plane": """\
usage: vactrap plane [-h] [--config PATH] [--out PATH] [--timings]
                     [--format {csv,json}] [--tolerance TOLERANCE]
                     [--threads THREADS]
""",
    "force": """\
usage: vactrap force [-h] [--config PATH] [--out PATH] [--timings]
                     [--format {csv,json}] [--tolerance TOLERANCE]
                     [--threads THREADS]
""",
    "potential": """\
usage: vactrap potential [-h] [--config PATH] [--out PATH] [--timings]
                         [--format {csv,json}] [--tolerance TOLERANCE]
                         [--threads THREADS]
""",
    "validate": """\
usage: vactrap validate [-h] [--config PATH] [--out PATH] [--timings]
                        [--seed SEED]
""",
}

SCAN_OPTIONS = """
options:
  -h, --help            show this help message and exit
  --config PATH         configuration file (defaults used if omitted)
  --out PATH            output file (stdout if omitted)
  --timings             include wall-clock timings in JSON metadata (breaks
                        byte-for-byte reproducibility)
  --format {csv,json}   output format (default csv)
  --tolerance TOLERANCE
                        quadrature doubling tolerance (default 1e-09)
  --threads THREADS     accepted for compatibility; scans run on one thread
                        (default 1, at most 64)
"""

HELP = {
    "center": USAGE["center"] + SCAN_OPTIONS + """\
  --quadrature          force full sphere quadrature where closed forms would
                        be used
""",
    **{command: USAGE[command] + SCAN_OPTIONS
       for command in ("axial", "plane", "force", "potential")},
    "validate": USAGE["validate"] + """
options:
  -h, --help     show this help message and exit
  --config PATH  configuration file (defaults used if omitted)
  --out PATH     output file (stdout if omitted)
  --timings      include wall-clock timings in JSON metadata (breaks byte-for-
                 byte reproducibility)
  --seed SEED    seed for Monte-Carlo checks (default 0)
""",
}


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def exits(argv, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, which must end
    by argparse's SystemExit."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(HELP))
def test_command_help(command, capsys):
    assert exits([command, "--help"], capsys) == (0, HELP[command], "")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help(flag, capsys):
    assert exits([flag], capsys) == (0, TOP_HELP, "")


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nosuch"], f"argument command: invalid choice: 'nosuch' {CHOICES}"),
    (["--", "axial"], f"argument command: invalid choice: '--' {CHOICES}"),
    (["--config", "x", "axial"],
     f"argument command: invalid choice: 'x' {CHOICES}"),
], ids=["bare", "nosuch", "-- axial", "--config x axial"])
def test_top_level_usage_errors(argv, message, capsys):
    assert exits(argv, capsys) == (2, "", f"{TOP_USAGE}vactrap: error: "
                                          f"{message}\n")


@pytest.mark.parametrize("argv", [
    ["center", "--seed", "1"],
    ["axial", "--quadrature"],
    ["plane", "--bogus"],
    ["force", "--seed", "2"],
    ["potential", "--quadrature"],
    ["validate", "--format", "json"],
], ids=lambda argv: " ".join(argv))
def test_unread_flag_is_the_commands_usage_error(argv, capsys):
    command, *flags = argv
    assert exits(argv, capsys) == (
        2, "", f"{USAGE[command]}vactrap {command}: error: unrecognized "
               f"arguments: {' '.join(flags)}\n")


def test_a_command_builds_one_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["center", "--out", str(tmp_path / "c.csv")]) == 0
    assert built == ["vactrap center"]

