"""Count the lines of the package source: total, and code-only.

Code-only lines hold at least one token that is not a comment, a
docstring or layout (newlines, indents).  A docstring here is any string
statement standing alone, the form every docstring takes.  Stdlib only.

Run from the repository root:

    python3 tools/src_lines.py [DIR]

DIR defaults to ``src``; every ``*.py`` file under it is counted.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
_STATEMENT_START = _LAYOUT - {tokenize.ENDMARKER}


def count(path: Path) -> tuple[int, int]:
    """(total lines, code-only lines) of one source file."""
    data = path.read_bytes()
    tokens = [tok for tok in tokenize.tokenize(io.BytesIO(data).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    code: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and tokens[i - 1].type in _STATEMENT_START
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(data.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 1
    total = code = 0
    for path in files:
        t, c = count(path)
        total += t
        code += c
    print(f"{total} total lines, {code} code-only lines "
          f"in {len(files)} files under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
