"""Count the code lines of a package: lines that hold a token other than a
comment, outside docstrings. A blank line, a comment line and every line of
a docstring (the string that opens a module, class or function body) are
left out; every line of any other string, multi-line ones included, counts.

    python tools/codelines.py [package directory]    # default: src/alaskit

prints one ``<lines>  <module>`` row per module, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) token positions of every docstring in ``source``."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count_lines(source: str) -> int:
    """The code lines of the Python ``source``."""
    spans = _docstring_spans(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        if any(start <= token.start and token.end <= end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "alaskit")
    total = 0
    for path in sorted(package.glob("*.py")):
        lines = count_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
