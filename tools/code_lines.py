"""Count the code lines of Python source files.

A code line holds at least one token that is neither a comment nor part
of a docstring; blank lines, comment-only lines and docstring lines do
not count.  Docstrings are found with `ast` (the first statement of a
module, class or function when it is a string constant) and the other
tokens with `tokenize`, so a string that spans lines counts on every
line it covers unless it is a docstring.

Usage: python3 tools/code_lines.py PATH...

Each PATH is a file or a directory (searched for ``*.py``).  One line is
printed per file, then the total.  No PATH, or a PATH that does not
exist, is a usage error: the usage line and the error go to stderr, and
the exit status is 2.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are layout, not code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
# The nodes whose first statement may be a docstring.
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
USAGE = "usage: python3 tools/code_lines.py PATH..."


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the docstrings of ``source`` cover."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(paths: list[str]) -> int:
    missing = [path for path in paths if not Path(path).exists()]
    if not paths or missing:
        error = f"no such file or directory: {missing[0]}" if missing else "no PATH given"
        print(f"{USAGE}\nerror: {error}", file=sys.stderr)
        return 2
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for file in files:
        count = code_lines(file.read_text())
        total += count
        print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
