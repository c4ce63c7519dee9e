"""Count the code lines of unisearch's modules in one or two source trees.

    python3 tools/loc.py TREE [TREE]

A code line of ``TREE/src/unisearch/*.py`` is a line that holds a token of
code: blank lines, comment-only lines and docstrings do not count.  A
docstring is the first statement of a module, class or function when that
statement is a string; a line it shares with code still counts.  Lines
inside any other string, such as a multi-line template, are code.

With one tree, prints each module's count and the total.  With two, prints
both trees' counts and the change from the first to the second; a module
missing from a tree counts 0 there.
"""
from __future__ import annotations

import ast
import io
import os
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, by the rule above."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code)


def count_tree(tree: str) -> dict[str, int]:
    """Code lines per module of ``tree/src/unisearch``, by file name."""
    package = pathlib.Path(tree) / "src" / "unisearch"
    if not package.is_dir():
        sys.exit(f"error: no package at {package}")
    return {p.name: code_lines(p.read_text()) for p in sorted(package.glob("*.py"))}


def main() -> int:
    if len(sys.argv) not in (2, 3):
        sys.exit(f"usage: {sys.argv[0]} TREE [TREE]")
    counts = [count_tree(tree) for tree in sys.argv[1:]]
    names = sorted(set().union(*counts))
    rows = [(name, *(c.get(name, 0) for c in counts)) for name in names]
    rows.append(("total", *(sum(c.values()) for c in counts)))
    for name, *n in rows:
        cells = "".join(f"{v:>8}" for v in n)
        delta = f"{n[1] - n[0]:>+8}" if len(n) == 2 else ""
        print(f"{name:<14}{cells}{delta}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early: send what is left to devnull, so that the
        # flush at exit does not raise again (the recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
