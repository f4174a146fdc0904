#!/usr/bin/env python3
"""Count the code lines of Python source files.

    python scripts/code_lines.py PATH...

A line counts when it holds a token other than a comment, a line break, an
indent, a dedent or the end marker, and that token is not part of a module,
class or function docstring.  So blank lines, comment lines and docstrings
do not count, and every line of a statement that spans several lines does.
Prints each file's count and, for more than one file, their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) source positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            doc = node.body[0]
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    spans = docstring_spans(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED or any(lo <= token.start and token.end <= hi for lo, hi in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python scripts/code_lines.py PATH...", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        count = code_lines(Path(path).read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    if len(paths) > 1:
        print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
