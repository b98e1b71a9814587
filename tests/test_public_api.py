"""The package exports only names that README's "Python API" section documents."""

from __future__ import annotations

import re
from pathlib import Path

import cellsched

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_section() -> str:
    text = README.read_text()
    return text.split("\n## Python API\n")[1].split("\n## ")[0]


def test_exports_resolve():
    assert len(set(cellsched.__all__)) == len(cellsched.__all__)
    for name in cellsched.__all__:
        assert hasattr(cellsched, name), name


def test_exports_are_documented():
    documented = set(re.findall(r"`(\w+)`", python_api_section()))
    missing = [name for name in cellsched.__all__ if name not in documented]
    assert not missing, f"exported but not in README's Python API section: {missing}"
