"""Count the code lines of each `src/homdens` module.

A code line holds at least one token that is not a comment, and is not
part of a docstring: the string statement that opens a module, class or
function body, found through `ast`.  Blank lines count as nothing.

    python tests/loc.py [package directory]

prints one `<lines> <module>` row per module, sorted by name, then
`<total> total`.
"""

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "homdens")
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings of `tree` span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source):
    """How many lines of `source` hold code, docstrings and comments left out."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    src = argv[1] if len(argv) > 1 else SRC
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                count = code_lines(f.read())
            print(f"{count} {name}")
            total += count
    print(f"{total} total")


if __name__ == "__main__":
    main(sys.argv)
