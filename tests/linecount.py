"""Total and code lines of each `src/cqa` module, then a total row.

Run from anywhere with `python tests/linecount.py`; it needs only the
standard library.  A line counts as code when it holds a token that is
neither a comment nor part of a docstring (the string that opens a
module, class or function body), so blank, comment-only and docstring
lines are left out.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cqa"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docs = {
        node.body[0].lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
    }
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = code = 0
    print(f"{'lines':>6} {'code':>6}  file")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        n, c = len(text.splitlines()), code_lines(text)
        total, code = total + n, code + c
        print(f"{n:>6} {c:>6}  {path.relative_to(SRC.parents[1])}")
    print(f"{total:>6} {code:>6}  total")


if __name__ == "__main__":
    main()
