"""Code lines of the gwasel sources, per module and in total.

    python3 benchmarks/code_lines.py [--src DIR]

A code line is a physical line that holds at least one token of code, by
the standard library's ``tokenize``: comments, blank lines and docstrings
(a string that is a statement of its own) are left out, and a statement
spread over several lines counts each of them.  ``--src`` is the directory
that holds the ``gwasel`` package (default: the ``src`` of this tree).
Prints one ``module count`` line per module, then ``total count``.
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Physical lines of ``path`` that hold code other than docstrings."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # tokens of the logical line so far
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in LAYOUT:
                statement.append(tok)
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding gwasel")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted((args.src / "gwasel").glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
