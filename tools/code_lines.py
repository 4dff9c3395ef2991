"""Count code lines: the lines of Python source that hold code.

    python3 tools/code_lines.py [DIR_OR_FILE ...]

A line counts when a token other than a comment or a docstring is on it, so
blank lines, comment-only lines and docstring lines do not.  A docstring is
a string literal that is a statement of its own.  Prints one line per module,
`<count> <path>`, then `<count> total`.  With no argument it counts every
.py file under src/ of this checkout.
"""

from __future__ import annotations

import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(path: str) -> int:
    """The number of code lines of the Python file at path."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in SKIPPED]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        statement_start = i == 0 or tokens[i - 1].type in LAYOUT
        if (tok.type == tokenize.STRING and statement_start
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(target: str) -> list[str]:
    if not os.path.isdir(target):
        return [target]
    return sorted(os.path.join(d, name) for d, _, names in os.walk(target)
                  for name in names if name.endswith(".py"))


def main(argv: list[str]) -> int:
    total = 0
    for target in argv or [os.path.join(ROOT, "src")]:
        for path in python_files(target):
            n = code_lines(path)
            total += n
            print(f"{n} {os.path.relpath(path)}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
