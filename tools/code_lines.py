"""Count the code lines of each module of the fluctem package.

A code line is a physical line that holds some token other than a
comment, so blank lines, comment lines and the docstrings of modules,
classes and functions are not counted; a statement spread over several
lines counts each of them.  Only the standard library reads the sources,
and the package is not imported.

Usage, from the root of a checkout:

    python tools/code_lines.py [package directory, default src/fluctem]
    python tools/code_lines.py --against REV [package directory]

With ``--against`` each module is also read at the git revision REV
(``git show REV:path``), and the counts there, here and their difference
are printed per module and in total.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def source_lines(text: str) -> int:
    """Number of code lines in the text of one Python source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def deltas(before: dict[str, str],
           after: dict[str, str]) -> list[tuple[str, int, int]]:
    """(module, code lines before, code lines after) for every module of
    either source map, by name, a missing module counting 0, then the
    totals; the maps take module names to their texts."""
    rows = [(name, source_lines(before[name]) if name in before else 0,
             source_lines(after[name]) if name in after else 0)
            for name in sorted(before.keys() | after.keys())]
    rows.append(("total", sum(row[1] for row in rows),
                 sum(row[2] for row in rows)))
    return rows


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout


def _sources_at(rev: str, package: Path) -> dict[str, str]:
    paths = _git("ls-tree", "--name-only", rev, f"{package.as_posix()}/")
    return {Path(path).name: _git("show", f"{rev}:{path}")
            for path in paths.splitlines() if path.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Count the code lines of each module of a package.")
    parser.add_argument("package", nargs="?", default="src/fluctem",
                        type=Path)
    parser.add_argument("--against", metavar="REV",
                        help="also count each module at this git revision")
    args = parser.parse_args(argv)
    here = {path.name: path.read_text(encoding="utf-8")
            for path in args.package.glob("*.py")}
    before = _sources_at(args.against, args.package) if args.against else {}
    if args.against:
        print(f"{args.against[:12]:>12}    here   delta")
    for name, old, new in deltas(before, here):
        print(f"{old:12d}  {new:6d}  {new - old:+6d}  {name}" if args.against
              else f"{new:6d}  {name}")
    return 0
    here = {path.name: path.read_text() for path in paths}
    print(f"{args.against[:12]:>12}    here   delta")
    for name, before, after in deltas(_sources_at(args.against,
                                                  args.package), here):
        print(f"{before:12d}  {after:6d}  {after - before:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
