"""Per-module lines of src/ghostsim and code lines (not docstrings, comments
or blanks) as a Markdown table, the last row the totals.

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


print("| src/ghostsim | lines | code lines |")
print("|---|---:|---:|")
total_lines = total_code = 0
for path in sorted(Path("src/ghostsim").glob("*.py")):
    src = path.read_text(encoding="utf-8")
    n, code = len(src.splitlines()), code_lines(src)
    total_lines, total_code = total_lines + n, total_code + code
    print(f"| {path} | {n} | {code} |")
print(f"| total | {total_lines} | {total_code} |")
