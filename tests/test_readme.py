"""The README's library quickstart runs as written, and its CLI usage
block lists what the parsers take, so neither an API change nor a new
flag can leave it wrong."""

import re
from pathlib import Path

import vactrap.cli as cli

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
