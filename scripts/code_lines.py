"""Count the code lines of a Python package.

A code line holds at least one token that is not a comment and not part of
a docstring.  A docstring here is any statement made only of string
literals, wherever it stands.  Blank lines never count.

Usage: python scripts/code_lines.py [DIR]

DIR defaults to ``src/cuspslopes`` under the repository root.  The script
prints one line per module, ``<count>  <path relative to DIR>``, in path
order, then ``<count>  total``.  It needs only the standard library.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "cuspslopes"
# tokens that are not code: layout, comments and the file's own markers
_LAYOUT = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                     tokenize.ENCODING))


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file ``path``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the code tokens of one logical line
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_lines.py [DIR]", file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else DEFAULT_DIR
    if not root.is_dir():
        print(f"error: not a directory: {root}", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root).as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
