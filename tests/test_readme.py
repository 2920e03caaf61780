"""README's Python quick start runs as written and gives the values its
comments state."""
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_matches_its_comments():
    names: dict = {}
    exec(quick_start(), names)
    assert names["sql"] == 0.1
    assert names["hl"] == 0.02
    assert names["floor"] == pytest.approx(0.05, rel=1e-12)
    assert names["n_opt"] == 12
    assert names["enhancement"] == pytest.approx(1.6257, abs=5e-5)
    assert names["root"] == pytest.approx(12.134, abs=5e-4)
