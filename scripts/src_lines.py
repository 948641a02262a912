#!/usr/bin/env python3
"""Count the lines of ``src/altkit`` by kind: code, docstring, comment, blank.

    python scripts/src_lines.py
    python scripts/src_lines.py --per-file

A blank line is one holding only whitespace, wherever it is.  A docstring
line is any other line of the string that opens a module, class or
function body (found with ``ast``).  A comment line holds nothing but a
comment (found with ``tokenize``).  Every other line is code, including
a line of code that ends in a comment.  Prints one row per file with
``--per-file``, then the totals.
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def comment_lines(source: str) -> set[int]:
    lines = source.splitlines()
    return {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
            and not lines[tok.start[0] - 1][:tok.start[1]].strip()}


def count(path: Path) -> dict[str, int]:
    source = path.read_text()
    docs, comments = docstring_lines(ast.parse(source)), comment_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        kind = ("blank" if not line.strip() else "docstring" if number in docs
                else "comment" if number in comments else "code")
        counts[kind] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT / "src" / "altkit",
                        help="package directory to count (default src/altkit)")
    parser.add_argument("--per-file", action="store_true", help="also print each file")
    args = parser.parse_args(argv)
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16} " + " ".join(f"{k:>9}" for k in KINDS) + f" {'total':>9}")
    for path in sorted(args.root.glob("*.py")):
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        if args.per_file:
            print(f"{path.name:<16} " + " ".join(f"{counts[k]:>9}" for k in KINDS)
                  + f" {sum(counts.values()):>9}")
    print(f"{'total':<16} " + " ".join(f"{total[k]:>9}" for k in KINDS)
          + f" {sum(total.values()):>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
