"""The README's library quickstart runs as written, so an API change
cannot leave it broken."""

import re
from pathlib import Path

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
