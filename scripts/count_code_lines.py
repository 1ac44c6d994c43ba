"""Count the lines of each module of ``src/pertlab`` by kind.

Each physical line is one of four kinds:

- docstring: inside the string that opens a module, class or function
  (found with ``ast``), blank lines within it included
- blank: empty or whitespace only
- comment: a comment and nothing else (found with ``tokenize``)
- code: every other line, a continued statement's lines included

One line per module, then the totals; the four kinds add up to
``wc -l``.  It checks nothing and exits 0.

    python3 scripts/count_code_lines.py [DIR]
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers covered by every docstring in ``tree``."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(text: str) -> dict[str, int]:
    """Lines of each kind in the source ``text``."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = set()
    comments = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    totals = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(lines, 1):
        if n in docs:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif n in comments and n not in code:
            kind = "comment"
        else:
            kind = "code"
        totals[kind] += 1
    return totals


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(__file__).parent.parent / "src" / "pertlab"
    print(f"{'module':24s} " + " ".join(f"{k:>9s}" for k in KINDS) + f" {'total':>9s}")
    grand = dict.fromkeys(KINDS, 0)
    for path in sorted(root.glob("*.py")):
        c = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            grand[k] += c[k]
        print(f"{path.name:24s} " + " ".join(f"{c[k]:9d}" for k in KINDS) + f" {sum(c.values()):9d}")
    print(f"{'total':24s} " + " ".join(f"{grand[k]:9d}" for k in KINDS) + f" {sum(grand.values()):9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
