"""The line count of `scripts/loc.py`, on synthetic text: no subprocess."""

from __future__ import annotations

import runpy
from pathlib import Path

count_lines = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "loc.py"))["count_lines"]


def test_blank_and_comment_lines_do_not_count():
    text = "\n".join([
        "# a comment",
        "",
        "    ",
        "\t# an indented comment",
        "x = 1  # code with a comment",
        "def f():",
        "    return x",
    ])
    assert count_lines(text) == 3


def test_docstrings_count():
    text = 'def f():\n    """One line.\n\n    Another line.\n    """\n    return 1\n'
    assert count_lines(text) == 5


def test_empty_text_counts_nothing():
    assert count_lines("") == 0
    assert count_lines("\n\n  \n") == 0


def test_a_last_line_without_newline_counts():
    assert count_lines("a\nb") == 2
    assert count_lines("a\r\nb\r\n") == 2
