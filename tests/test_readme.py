"""README's Python quick start runs as written and gives the values its
comments state, and every `$ qoptkit ...` transcript prints what it shows."""
import pathlib
import re
import shlex

import pytest

from qoptkit.cli import run

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ qoptkit "


def quick_start() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def transcripts() -> list[tuple[str, list[str]]]:
    """Each `$ qoptkit ...` line of a fenced block, with the lines shown
    after it up to the next blank line."""
    found = []
    for block in re.findall(r"```\w*\n(.*?)```", README.read_text(), re.S):
        for chunk in block.strip("\n").split("\n\n"):
            command, *lines = chunk.split("\n")
            if command.startswith(PROMPT):
                found.append((command[len(PROMPT):], lines))
    return found


def test_quick_start_runs_and_matches_its_comments():
    names: dict = {}
    exec(quick_start(), names)
    assert names["sql"] == 0.1
    assert names["hl"] == 0.02
    assert names["floor"] == pytest.approx(0.05, rel=1e-12)
    assert names["n_opt"] == 12
    assert names["enhancement"] == pytest.approx(1.6257, abs=5e-5)
    assert names["root"] == pytest.approx(12.134, abs=5e-4)


def test_readme_has_transcripts():
    assert len(transcripts()) >= 2


@pytest.mark.parametrize("command, shown", transcripts(),
                         ids=[c for c, _ in transcripts()])
def test_transcript_prints_what_readme_shows(command, shown, capsys):
    # a shown line that ends in "..." is the start of the printed line
    assert run(shlex.split(command)) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(shown), printed
    for got, want in zip(printed, shown):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want
