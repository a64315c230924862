"""Statement-deletion sweep of src/: the statements that no check notices.

Each mutant replaces one statement of src/expansionlab with `pass` (an
`elif` with `else: pass`) and blanks the statement's other lines, so every
line keeps its number. Docstrings, def and class statements (their bodies
are swept), imports, `raise`, `pass` and an `if` guard whose body ends in
`raise` are not mutated.

Mutants are made in copies of the repository (src/, tests/, bench/) under a
temporary directory, never in the checkout. Each one goes through two
stages, and the second sees only the survivors of the first:
1. the copy's tests/artifact_digests.py, every file, stdout and stderr of
   the bundled commands, compared with the unmutated copy's output (two
   workers);
2. tier-1 (pytest -x, the mutated module's test file first), one mutant at
   a time: the acceptance criteria assert wall-time budgets, so two suites
   side by side can fail on time alone. A kill counts only if the failing
   test fails again when it runs alone.
A stage kills a mutant that changes its output, exits otherwise than the
unmutated run, or runs ten times as long plus 10 s.

Every mutant that stage 1 leaves alive is a survivor, written to the record
with its class: "killed by tier-1" or "killed by a new test" (one added with
the record), with the test; or "input check", "error path", "tests-only API"
or "equivalent", with the reason. The classes come from the record the
sweep rewrites, matched by file, enclosing function and statement text: a
survivor of stage 2 without one is written as "unclassified", and the sweep
exits 1. The record's "deleted" list, the statements a sweep found inert and
that were then deleted, is carried over.

It needs the standard library and what tier-1 needs. Not a test module: the
suite does not collect it. Run it from anywhere; it rewrites RECORD:

    python3 tests/mutation_sweep.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = Path("src") / "expansionlab"
RECORD = ROOT / "MUTANTS_24.json"
WORKERS = 2         # runs of stage 1 at once
KILLED = ("killed by tier-1", "killed by a new test")
REASONS = ("input check", "error path", "tests-only API", "equivalent")
MEMORY = 4 << 30    # address space of each run, in bytes


def statements(text: str):
    """(node, enclosing def/class path) of each statement to mutate."""
    out = []

    def visit(body, scope, may_have_docstring):
        for i, node in enumerate(body):
            if (i == 0 and may_have_docstring and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                visit(node.body, scope + [node.name], True)
                continue
            if not (isinstance(node, (ast.Import, ast.ImportFrom, ast.Raise,
                                      ast.Pass))
                    or isinstance(node, ast.If)
                    and isinstance(node.body[-1], ast.Raise)):
                out.append((node, ".".join(scope) or "<module>"))
            for name in ("body", "orelse", "finalbody"):
                visit(getattr(node, name, None) or [], scope, False)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, scope, False)

    visit(ast.parse(text).body, [], True)
    return out


def mutant(source: bytes, node) -> bytes:
    """source with node replaced by `pass`, every line number kept."""
    lines = source.split(b"\n")
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][:node.col_offset]
    stub = b"else: pass" if lines[first][node.col_offset:].startswith(
        b"elif") else b"pass"
    lines[first] = head + stub + lines[last][node.end_col_offset:]
    lines[first + 1:last + 1] = [b""] * (last - first)
    return b"\n".join(lines)


class Mutant:
    def __init__(self, path: Path, node, scope: str, source: bytes):
        self.path, self.scope = path, scope
        self.text = source.split(b"\n")[node.lineno - 1].decode().strip()
        self.source = mutant(source, node)
        self.at = f"{path.as_posix()}:{node.lineno}"
        self.killed_by = None     # stage 1 or 2
        self.test = None          # the test that killed it in stage 2


class Copies:
    """Copies of the repository, each lent to one run at a time."""

    def __init__(self, tmp: Path, n: int):
        self.free = queue.Queue()
        for i in range(n):
            dest = tmp / f"copy{i}"
            for part in ("src", "tests", "bench"):
                shutil.copytree(ROOT / part, dest / part,
                                ignore=shutil.ignore_patterns(
                                    "__pycache__", ".hypothesis",
                                    ".pytest_cache"))
            self.free.put(dest)

    def run(self, m: Mutant | None, argv: list, timeout: float,
            blas_threads: bool = True):
        """(exit code, stdout) of argv in a copy holding mutant m; a run
        past its timeout returns (None, "")."""
        copy = self.free.get()
        target = copy / m.path if m else None
        original = target.read_bytes() if m else None
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(copy / "src"))
        if blas_threads:
            env["OPENBLAS_NUM_THREADS"] = "1"
        try:
            if m:
                target.write_bytes(m.source)
            r = subprocess.run([sys.executable, *argv], cwd=copy, env=env,
                               capture_output=True, text=True,
                               timeout=timeout)
            return r.returncode, r.stdout
        except subprocess.TimeoutExpired:
            return None, ""
        finally:
            if m:
                target.write_bytes(original)
            shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
            self.free.put(copy)


def _timed(copies: Copies, argv: list, **kw):
    t0 = time.perf_counter()
    result = copies.run(None, argv, timeout=3600, **kw)
    return result, 10.0 * (time.perf_counter() - t0) + 10.0


def digest_stage(copies, mutants):
    """Mark the mutants whose digests differ from the unmutated copy's."""
    argv = ["tests/artifact_digests.py"]
    want, timeout = _timed(copies, argv)
    if want[0] != 0:
        sys.exit(f"the unmutated copy's digests exited {want[0]}")
    with ThreadPoolExecutor(WORKERS) as pool:
        got = pool.map(lambda m: copies.run(m, argv, timeout), mutants)
        for i, (m, result) in enumerate(zip(mutants, got), 1):
            if result != want:
                m.killed_by = 1
            if i % 50 == 0 or i == len(mutants):
                print(f"stage 1: {i}/{len(mutants)}", file=sys.stderr)
    return [m for m in mutants if m.killed_by is None]


def _first_failure(stdout: str):
    for line in stdout.splitlines():
        match = re.match(r"(?:FAILED|ERROR) (\S+)", line)
        if match:
            return match.group(1)
    return None


def tier1_stage(copies, mutants):
    """Run tier-1 on each mutant in turn; keep the confirmed kills."""
    tier1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
    want, timeout = _timed(copies, tier1 + ["tests"], blas_threads=False)
    if want[0] != 0:
        sys.exit(f"tier-1 fails on the unmutated copy:\n{want[1]}")
    for i, m in enumerate(mutants, 1):
        first = Path("tests") / f"test_{m.path.stem}.py"
        order = [str(first)] if (ROOT / first).exists() else []
        code, out = copies.run(m, tier1 + ["-x", *order, "tests"], timeout,
                               blas_threads=False)
        if code is None:
            m.killed_by, m.test = 2, "a timeout"
        elif code != 0:
            test = _first_failure(out)
            if test is None:
                m.killed_by, m.test = 2, f"pytest exit {code}"
            elif copies.run(m, tier1 + [test], timeout,
                            blas_threads=False)[0] != 0:
                m.killed_by, m.test = 2, test
        print(f"stage 2: {i}/{len(mutants)} {m.at} "
              f"{'killed by ' + m.test if m.test else 'survives'}",
              file=sys.stderr)


def _keys(mutants_or_entries):
    """A key per survivor, (file, scope, statement, occurrence among the
    survivors), stable under edits elsewhere in the file."""
    seen, keys = {}, []
    for item in mutants_or_entries:
        if isinstance(item, Mutant):
            base = (item.path.as_posix(), item.scope, item.text)
        else:
            base = (item["at"].rsplit(":", 1)[0], item["scope"],
                    item["statement"])
        seen[base] = seen.get(base, 0) + 1
        keys.append(base + (seen[base],))
    return keys


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    old = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    known = dict(zip(_keys(old.get("survivors", [])),
                     old.get("survivors", [])))

    mutants = []
    for path in sorted((ROOT / PKG).glob("*.py")):
        source = path.read_bytes()
        for node, scope in statements(source.decode()):
            mutants.append(Mutant(PKG / path.name, node, scope, source))
    started = time.perf_counter()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = Copies(Path(tmp), WORKERS)
        tier1_stage(copies, digest_stage(copies, mutants))

    survivors, unclassified = [], 0
    alive = [m for m in mutants if m.killed_by != 1]
    for m, key in zip(alive, _keys(alive)):
        entry = {"at": m.at, "scope": m.scope, "statement": m.text}
        was = known.get(key, {})
        if m.test:
            cls = was.get("class") if was.get("class") in KILLED else KILLED[0]
            entry.update({"class": cls, "test": m.test})
        elif was.get("class") in REASONS:
            entry.update({"class": was["class"], "reason": was["reason"]})
        else:
            entry["class"] = "unclassified"
            unclassified += 1
        survivors.append(entry)
    counts = {"statements": len(mutants),
              "killed by the digests": sum(m.killed_by == 1 for m in mutants),
              "survivors": len(survivors)}
    by_class = {}
    for entry in survivors:
        by_class[entry["class"]] = by_class.get(entry["class"], 0) + 1
    record = {"sweep": "each statement of src/expansionlab replaced by pass; "
                       "see tests/mutation_sweep.py",
              "counts": counts, "survivors by class": by_class,
              "survivors": survivors, "deleted": old.get("deleted", [])}
    RECORD.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")

    for name, n in [*counts.items(), *by_class.items()]:
        print(f"{name:<34} {n:>5}")
    print(f"{'minutes':<34} {(time.perf_counter() - started) / 60:>5.1f}")
    return 1 if unclassified else 0


if __name__ == "__main__":
    sys.exit(main())
