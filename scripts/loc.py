"""Count the non-blank, non-comment lines of each module of src/morirays.

    python3 scripts/loc.py

A line counts unless it is empty or whitespace, or its first non-blank
character is `#`; docstrings count.  Prints one `count path` line per module,
sorted by path, then the total.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "morirays"


def count_lines(text: str) -> int:
    """The lines of `text` that are neither blank nor a comment."""
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = count_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path.relative_to(SRC.parents[1])}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
