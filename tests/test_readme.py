"""The README's library quickstart runs as written, its CLI usage block
lists what the parsers take, and the configuration files that the README
and ``vactrap.config`` show parse to the defaults they claim, so neither
an API change, a new flag nor a new default can leave them wrong."""

import re
from pathlib import Path

import pytest

import vactrap.cli as cli
import vactrap.config as config
from vactrap.config import RunConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    assert printed[0].startswith("29.7035")
    assert float(printed[3]) < 0.0  # the scan's center row


def test_readme_usage_block_lists_each_commands_flags():
    # the README's usage lines are the table's: each command once, with
    # exactly the flags its parser takes, in the parser's order
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    listed = {}
    for line in block.splitlines():
        command, usage = re.fullmatch(r"vactrap (\w+) +(.*)", line).groups()
        listed[command] = re.findall(r"--[a-z]+", usage)
    assert list(listed) == list(cli.COMMANDS)
    for command, flags in listed.items():
        parser = cli._parser(command)
        taken = [option for action in parser._actions
                 for option in action.option_strings
                 if option.startswith("--") and option != "--help"]
        assert flags == taken, command


def _readme_config_block():
    section = README.read_text(encoding="utf-8").split(
        "### Configuration file", 1)[1]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def _docstring_config_block():
    # the indented block between the "File format" line and the prose
    return config.__doc__.split("defaults below):\n", 1)[1].split(
        "\n'#'", 1)[0]


@pytest.mark.parametrize("block", [_readme_config_block,
                                   _docstring_config_block],
                         ids=["readme", "config_docstring"])
def test_documented_config_file_shows_the_defaults(block):
    # each block says "defaults shown": it parses, to the defaults of the
    # run configuration, the axial command's [scan] and the documented
    # constant excited population
    run, default = parse_config(block()), RunConfig.defaults()
    assert run.cavity == default.cavity
    assert run.orientation == default.orientation
    assert run.detuning == default.detuning
    assert (run.out_format, run.precision) == (default.out_format,
                                              default.precision)
    assert run.scan_type == "axial"
    assert (run.scan_start, run.scan_stop, run.scan_points) == \
        cli.COMMANDS["axial"].scan
    assert run.pi_e == 0.05
