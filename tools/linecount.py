"""Count the code, docstring, comment and blank lines of Python files, and
name their longest functions.

Usage, from the root of a checkout:

    python3 tools/linecount.py [FILE ...]

The files default to ``src/fwlab/*.py``.  Every line inside a module, class
or function docstring counts as docstring, blank lines inside it included;
of the other lines, an empty one is blank, one whose first character past
the indentation is ``#`` is a comment, and the rest are code.  It prints one
line per file and their total, then the five longest functions, each
measured from its ``def`` line to its last line.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KINDS = ("code", "docstring", "comment", "blank")

#: how many of the longest functions to name
LONGEST = 5

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


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in source."""
    docs = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if n in docs:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def functions(source: str):
    """(lines, name) of every function in source, methods and nested
    functions included, a method named Class.method."""
    tree = ast.parse(source)
    owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{owner[id(node)]}.{node.name}" if id(node) in owner else node.name
            yield node.end_lineno - node.lineno + 1, name


def main(paths: list[Path]) -> None:
    total = dict.fromkeys(KINDS, 0)
    longest = []
    width = max(len(p.name) for p in paths)
    print(f"{'file':<{width}}  " + "  ".join(f"{k:>9}" for k in KINDS))
    for path in paths:
        source = path.read_text()
        counts = count(source)
        for kind in KINDS:
            total[kind] += counts[kind]
        longest += [(n, f"{path.stem}.{name}") for n, name in functions(source)]
        print(f"{path.name:<{width}}  " + "  ".join(f"{counts[k]:>9}" for k in KINDS))
    print(f"{'total':<{width}}  " + "  ".join(f"{total[k]:>9}" for k in KINDS))
    print("longest functions:")
    for n, name in sorted(longest, key=lambda f: -f[0])[:LONGEST]:
        print(f"  {n:>4}  {name}")


if __name__ == "__main__":
    given = [Path(p) for p in sys.argv[1:]]
    main(given or sorted((ROOT / "src" / "fwlab").glob("*.py")))
