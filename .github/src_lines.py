"""Per-module lines of src/ghostsim and code lines (not docstrings, comments
or blanks) as a Markdown table, then their totals, then the totals of
tests/, so that code moved between the library and its tests shows.

    python3 .github/src_lines.py

Run it from the root of a checkout.
"""

import ast
from pathlib import Path


def code_lines(src):
    docs = set()
    for node in ast.walk(ast.parse(src)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = enumerate(src.splitlines(), 1)
    return sum(1 for i, s in lines if i not in docs and s.strip() and not s.lstrip().startswith("#"))


def counts(path):
    src = path.read_text(encoding="utf-8")
    return len(src.splitlines()), code_lines(src)


print("| src/ghostsim | lines | code lines |")
print("|---|---:|---:|")
rows = [(path, *counts(path)) for path in sorted(Path("src/ghostsim").glob("*.py"))]
for path, n, code in rows:
    print(f"| {path} | {n} | {code} |")
print(f"| total | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} |")
tests = [counts(path) for path in sorted(Path("tests").glob("*.py"))]
print(f"| tests total | {sum(r[0] for r in tests)} | {sum(r[1] for r in tests)} |")
