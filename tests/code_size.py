"""Line and code-line counts of Python sources, the size the ROADMAP quotes.

A code line is a line that holds a token that is no comment and no
docstring: ``tokenize`` gives the tokens, and ``ast`` finds the docstrings
(the first statement of a module, class or function, when it is a string
constant).  A token that spans several lines, such as a multi-line string
that is no docstring, makes each of them a code line.  Blank lines, comment
lines and docstring lines count as lines only.  Not a test: run it as

    python tests/code_size.py [PATH ...]

with files or directories (a directory's ``*.py`` files, not recursing);
the default is ``src/ellstab``.  It prints ``lines L code C`` for all the
files together.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_size(source: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source."""
    docstrings = _docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING
                                   and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def _files(paths: list[str]) -> list[Path]:
    out = []
    for p in map(Path, paths):
        out += sorted(p.glob("*.py")) if p.is_dir() else [p]
    return out


def main(argv: list[str] | None = None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [str(ROOT / "src" / "ellstab")]
    lines = code = 0
    for path in _files(paths):
        n, c = code_size(path.read_text())
        lines += n
        code += c
    print(f"lines {lines} code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
