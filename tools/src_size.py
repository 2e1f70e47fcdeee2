"""Print the size of each module of ``src/rrnn``.

    python3 tools/src_size.py

For each module it prints its total lines and how they split into code,
docstring, comment and blank lines, and its settable values, then the
sums.  A line belongs to the first of these that it is part of:

- docstring: a line of a module's, class's or function's docstring,
  blank lines inside it included;
- comment: a line that holds only a comment;
- blank: an empty line;
- code: any other line.

A settable value is a default a caller can override: a default of a
positional or keyword-only parameter, or a dataclass field with a
default, except a ``field(init=...)``, which the caller cannot set.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rrnn"
COLUMNS = ("total", "code", "docstring", "comment", "blank", "settable")


def _docstring_lines(tree):
    """The line numbers spanned by the tree's docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _settable(tree):
    """Parameter and keyword-only defaults plus dataclass fields with a
    default other than ``field(init=...)``."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            count += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                    continue
                value = stmt.value
                init_only = (isinstance(value, ast.Call)
                             and getattr(value.func, "id", None) == "field"
                             and any(kw.arg == "init" for kw in value.keywords))
                count += not init_only
    return count


def measure(source):
    """The COLUMNS counts of one module's source text, as a dict."""
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        kind = ("docstring" if number in docs else "comment" if text.startswith("#")
                else "blank" if not text else "code")
        counts[kind] += 1
        counts["total"] += 1
    counts["settable"] = _settable(tree)
    return counts


def main():
    rows = [(path.name, measure(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", {c: sum(r[c] for _, r in rows) for c in COLUMNS}))
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, counts in rows:
        print(f"{name:<16}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
