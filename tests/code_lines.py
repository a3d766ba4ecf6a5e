"""Print the code lines of each src/qkernel module and their total.

    python tests/code_lines.py [SOURCE_DIR]

A code line holds at least one token of code: blank lines, comment lines
and the lines of module, class and function docstrings do not count.  A
statement that spans several lines counts each of them.  SOURCE_DIR
defaults to src/qkernel next to this file.  The file name keeps pytest
from collecting it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qkernel"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of the Python source `text`."""
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    source = Path(sys.argv[1]) if len(sys.argv) > 1 else SOURCE
    total = 0
    for path in sorted(source.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:12} {count:5}")
    print(f"{'total':12} {total:5}")


if __name__ == "__main__":
    main()
