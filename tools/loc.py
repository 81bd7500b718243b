#!/usr/bin/env python
"""Size of ``src/``: ``wc -l`` lines and code lines.

``wc -l`` alone overstates a reduction: it is only real if the *code*
went down too, so this prints both.  A code line carries at least one
token that is not a comment and not part of a docstring; blank lines,
comment-only lines and docstrings are not code.

    python tools/loc.py            # src/
    python tools/loc.py PATH ...   # other files or directories
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> Tuple[int, int]:
    """``(wc -l lines, code lines)`` of one Python file."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text, filename=str(path)))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - docstrings)


def main(argv) -> int:
    roots = [Path(arg) for arg in argv] or [SRC]
    files = sorted(
        path
        for root in roots
        for path in ([root] if root.is_file() else root.rglob("*.py"))
    )
    total = code = 0
    for path in files:
        lines, code_lines = count(path)
        total += lines
        code += code_lines
    names = " ".join(str(root) for root in roots)
    print(f"{names}: {len(files)} files, {total} lines (wc -l), "
          f"{code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
