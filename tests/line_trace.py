"""Line trace of src/: the statements tier-1 and the commands reach.

Traces every line of src/expansionlab with sys.settrace while it runs, in
this process:
- tier-1, `pytest.main` on tests/, with PYTHONPATH=src exported so that the
  subprocess tests find the package (their own lines are not traced);
- the commands, `artifact_digests.main(["--bench-seed", "3"])`: every
  bundled scenario (an expand one at two tolerance scales), reproduce-all,
  the generated scenarios and every operation of the benchmark at seed 3.

A statement is reached when a line of it runs; for a compound statement
(def, if, for, with, try, an except clause) only its header counts, and a
docstring is no statement. Module and class bodies run once, at import, so
a statement there that either run reaches counts for both. Code compiled
from an edited copy of a function (tests/test_mutants.py) is not counted.

It prints every statement that either run leaves unreached, tagged with the
run that reaches it: `tier-1`, `commands` or `none`. A table of statements
per file follows. It exits 1 if tier-1 failed. Not a test module: the suite
does not collect it, and it needs only the standard library besides what
the suite needs. Run it from the repository root:

    python tests/line_trace.py > trace.txt
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FILES = sorted(str(p) for p in (SRC / "expansionlab").glob("*.py"))


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _statements(tree, executable):
    """(first line, lines that count, at import) of each statement."""
    out = []

    def visit(body, in_function):
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue    # a docstring
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            inner = [b for b in (getattr(node, "body", None),
                                 getattr(node, "orelse", None),
                                 getattr(node, "finalbody", None)) if b]
            end = min(b[0].lineno for b in inner) - 1 if inner \
                else node.end_lineno
            lines = set(range(start, max(start, end) + 1)) & executable
            if lines:
                out.append((start, lines, not in_function))
            nested = in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for b in inner:
                visit(b, nested)
            for handler in getattr(node, "handlers", []):
                first = handler.body[0].lineno
                lines = set(range(handler.lineno, first)) & executable
                if lines:
                    out.append((handler.lineno, lines, not nested))
                visit(handler.body, nested)

    visit(tree.body, False)
    return out


def main() -> int:
    sources, keys, statements = {}, {}, {}
    for path in FILES:
        sources[path] = Path(path).read_text(encoding="utf-8")
        codes = list(_code_objects(compile(sources[path], path, "exec")))
        keys[path] = {(c.co_name, c.co_firstlineno) for c in codes}
        executable = {line for c in codes for _, _, line in c.co_lines()
                      if line is not None}
        statements[path] = _statements(ast.parse(sources[path]), executable)

    runs = {"tier-1": {p: set() for p in FILES},
            "commands": {p: set() for p in FILES}}
    current = [runs["tier-1"]]

    def trace(frame, event, arg):
        code = frame.f_code
        if (code.co_name, code.co_firstlineno) not in keys.get(
                code.co_filename, ()):
            return None
        hits = current[0][code.co_filename]

        def lines(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return lines
        return lines

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "tests"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        import pytest
        failed = pytest.main(["-q", "--continue-on-collection-errors",
                              str(ROOT / "tests")]) != 0
        current[0] = runs["commands"]
        import artifact_digests
        with contextlib.redirect_stdout(io.StringIO()):
            artifact_digests.main(["--bench-seed", "3"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("\nstatements that tier-1 or the commands leave unreached, "
          "tagged with the run that reaches them:")
    table = []
    for path in FILES:
        text = sources[path].splitlines()
        counts = [0, 0, 0, 0]
        for first, lines, at_import in statements[path]:
            t1, cmd = (bool(lines & runs[r][path]) for r in runs)
            if at_import:
                t1 = cmd = t1 or cmd
            counts[0] += 1
            counts[1] += not t1
            counts[2] += not cmd
            counts[3] += not (t1 or cmd)
            if not (t1 and cmd):
                tag = "tier-1" if t1 else "commands" if cmd else "none"
                name = Path(path).relative_to(ROOT).as_posix()
                print(f"{name}:{first}  {tag:<8}  {text[first - 1].strip()}")
        table.append((Path(path).name, *counts))
    table.append(("total", *(sum(row[i] for row in table)
                             for i in range(1, 5))))
    print("\nfile              statements  unreached by: tier-1  commands  "
          "both")
    for name, *counts in table:
        print(f"{name:<16}  {counts[0]:>10}  {counts[1]:>20}  {counts[2]:>8}"
              f"  {counts[3]:>4}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
