"""Count the code lines of Python sources, per module and in total.

A code line is a line that holds a token other than a comment or a
module, class or function docstring; blank lines do not count either.
Each row prints the code lines, then all lines, then the module.

    python tools/code_lines.py [PATH ...]

PATH is a .py file or a directory searched for them (default
src/nstree). To count a past commit, unpack it first, for example
`git archive REV src | tar -x -C DIR`, and count DIR/src/nstree.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(path: Path) -> tuple[int, int]:
    """Code lines and all lines of one source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(ast.parse(text, str(path)))
    code: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE and tok.start not in docstrings:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), len(text.splitlines())


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [Path("src/nstree")]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total_code = total_all = 0
    for f in files:
        c, a = count(f)
        total_code += c
        total_all += a
        print(f"{c:6d} {a:6d}  {f}")
    print(f"{total_code:6d} {total_all:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
