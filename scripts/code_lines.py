"""Print the code lines of each module of src/sincint and their total.

A code line holds at least one token that is not a comment, a blank or
part of a docstring (the leading string of a module, class or function).

    python3 scripts/code_lines.py
"""

import ast
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
total = 0
for path in sorted((Path(__file__).parent.parent / "src" / "sincint").glob("*.py")):
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    count = len(lines - docstrings)
    total += count
    print(f"{path.name:16s}{count:6d}")
print(f"{'total':16s}{total:6d}")
