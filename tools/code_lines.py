"""Count the code lines of a Python source tree.

A code line is a physical line that holds at least one token which is not
a comment, a docstring or whitespace. Docstrings are found with ast (the
first statement of a module, class or function when it is a string
literal) and comments and blank lines with tokenize. Total lines are all
physical lines.

    python tools/code_lines.py            # counts src/hjj
    python tools/code_lines.py DIR ...    # counts every *.py under each DIR

prints "code <n> total <m>" for the whole set. A path that does not exist
is named on one line on stderr, and the tool exits 2; -h or --help prints
this text.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, total lines) of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(code), len(source.splitlines())


def main(argv: list) -> int:
    if {"-h", "--help"} & set(argv):
        print(__doc__.strip())
        return 0
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "hjj"]
    for root in roots:
        if not root.exists():
            print(f"code_lines: no such file or directory: {root}", file=sys.stderr)
            return 2
    code = total = 0
    for root in roots:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            c, t = count(path.read_text(encoding="utf-8"))
            code, total = code + c, total + t
    print(f"code {code} total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
