"""CLI tests run ``python -m vactrap.cli`` in child processes; give them
the source tree the tests import, so that ``python -m pytest`` needs no
PYTHONPATH of its own."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _children_import_the_source_tree(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
