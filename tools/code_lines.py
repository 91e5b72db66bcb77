"""Count the code lines of each module in ``src/threadkd/``.

A code line is one that holds a token other than a comment, and is not
part of a docstring, the first string statement of a module, class or
function.  Prints one line per module and the total over the four core
modules, tree, trie, index and query.  Run from anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "threadkd"
CORE = ("tree", "trie", "index", "query")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every docstring in ``tree``."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    counts = {path.stem: code_lines(path.read_text())
              for path in sorted(PACKAGE.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:<12} {n:>6,}")
    total = sum(counts[name] for name in CORE)
    print(f"{'core':<12} {total:>6,}  ({', '.join(CORE)})")


if __name__ == "__main__":
    main()
