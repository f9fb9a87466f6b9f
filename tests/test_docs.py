"""PAPER.md carries a copy of README.md's description of the package."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_paper_md_copies_the_readme_up_to_the_truncation_table():
    # PAPER.md: a title line, a blank line, the arXiv line, a blank line,
    # then README.md up to the line before its truncation table heading
    paper = (ROOT / "PAPER.md").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    copy = paper.split("\n\n", 2)[2]
    end = readme.index("\n## Ground-state truncation table\n")
    assert copy.startswith("# cdelab\n")
    assert copy == readme[:end]
