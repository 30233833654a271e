"""Count code and docstring lines per module of a Python package.

A code line is a physical line that holds a token other than a comment,
NL, NEWLINE, INDENT or DEDENT, outside a docstring; a string token over
several lines holds each of them. A docstring line is a line of the
string that opens a module, class or function body.

Usage: python tools/count_lines.py [PACKAGE_DIR]   (default src/beliefcheck)

Prints one row per module, sorted by name, and a total row. Standard
library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers of the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(code lines, docstring lines) of a module's source."""
    held = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            held.update(range(tok.start[0], tok.end[0] + 1))
    docs = docstring_lines(source)
    return len(held - docs), len(docs)


def main(argv: list) -> int:
    package = Path(argv[0] if argv else "src/beliefcheck")
    rows = []
    for path in sorted(package.glob("*.py")):
        rows.append((path.name, *count(path.read_text(encoding="utf-8"))))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print("%-20s %6s %10s" % ("module", "code", "docstring"))
    for name, code, docs in rows:
        print("%-20s %6d %10d" % (name, code, docs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
