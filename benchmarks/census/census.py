#!/usr/bin/env python
"""Line census: which ``src/`` functions no shipped path ever calls.

Runs every shipped path — each ``examples/*.py``, the trace and HTTP
smokes, the benchmark tables (``pytest benchmarks``) and the perf
ledger's ``--check`` — natively and under ``PIA_PURE=1``, with
:mod:`hook` recording every code object called under ``src/`` in every
process those paths start.  An AST walk over ``src/`` then lists each
module-level function and method (nested classes included; functions
nested in a function count as part of it) whose first line — its first
decorator's, if it has one, as ``co_firstlineno`` reports it — was never
called, and sums their lines.

Every never-called function must be on ``allowlist.txt``, one entry a
line::

    <path under src>::<qualified name>  <group>  <reason>

``path`` and ``name`` may be ``fnmatch`` patterns.  The groups are in
``GROUPS``; a ``failure`` entry's reason names the test that reaches
it (``tests/<file>.py::<test>``, checked to exist).  The run fails when
a never-called function is on no entry, or an entry matches no
never-called function (it is gone or now called).

Usage::

    python benchmarks/census/census.py

Takes about a minute and a half on a 2-vCPU host (both backends run
side by side).  Nothing is written to the checkout: tables go to a temporary
``PIA_BENCH_RESULTS``, examples run in a temporary directory.
"""

from __future__ import annotations

import ast
import fnmatch
import glob
import os
import re
import subprocess
import sys
import tempfile
import threading
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.realpath(os.path.join(HERE, os.pardir, os.pardir))
SRC = os.path.join(REPO, "src")
ALLOWLIST = os.path.join(HERE, "allowlist.txt")

#: What an allow-list group says about its entries' code.
GROUPS = {
    "failure": "a failure or recovery path; the reason names the test "
               "that reaches it",
    "twin": "the pure-Python twin of a C-core method, kept for parity",
    "hook": "declared for a subclass or the interpreter (abstract, an "
            "empty handler, a copy/pickle/compare method)",
    "repr": "a __repr__ or __str__, for a person at a prompt",
    "cli": "a command-line entry point over a file a run leaves behind",
}

#: The test a failure entry's reason names: ``tests/<file>.py::Class::test``.
TEST_REF = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)+)")

#: Arguments an example runs with on its shipped path (its CI test's).
EXAMPLE_ARGS = {"wubbleu_page_load.py": ["--small"]}


class Def(NamedTuple):
    path: str        # relative to the source root, "/"-separated
    name: str        # qualified: Class.method
    first: int       # first decorator's line, else the def's
    last: int

    @property
    def key(self) -> str:
        return f"{self.path}::{self.name}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def shipped_paths(repo: str = REPO) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` for every path CI ships, run from any cwd."""
    py = sys.executable
    runs = []
    for path in sorted(glob.glob(os.path.join(repo, "examples", "*.py"))):
        name = os.path.basename(path)
        runs.append((f"examples/{name}",
                     [py, path, *EXAMPLE_ARGS.get(name, [])]))
    bench = os.path.join(repo, "benchmarks")
    for smoke in ("trace_smoke.py", "http_smoke.py"):
        runs.append((f"benchmarks/{smoke}",
                     [py, os.path.join(bench, smoke)]))
    runs.append(("pytest benchmarks",
                 [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  bench, "--ignore", os.path.join(bench, "ledger")]))
    runs.append(("ledger --check",
                 [py, os.path.join(bench, "ledger", "run.py"), "--check"]))
    return runs


def record(commands: Iterable[Tuple[str, List[str]]], root: str, *,
           env: Dict[str, str] = None, log=print) -> Set[str]:
    """Run ``commands`` with the call recorder installed; return every
    ``<path>:<first line>`` called under ``root`` (a directory)."""
    root = os.path.realpath(root) + os.sep
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        site = os.path.join(tmp, "site")
        out = os.path.join(tmp, "calls")
        os.makedirs(site)
        os.makedirs(out)
        with open(os.path.join(HERE, "hook.py"), encoding="utf-8") as fh:
            hook = fh.read()
        with open(os.path.join(site, "sitecustomize.py"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"{hook}\n_install({out!r}, {root!r})\n")
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (site, SRC, env.get("PYTHONPATH")) if p)
        env.setdefault("PIA_BENCH_RESULTS", os.path.join(tmp, "results"))
        run_dir = os.path.join(tmp, "cwd")
        os.makedirs(run_dir)
        failed = []
        for label, argv in commands:
            done = subprocess.run(argv, cwd=run_dir, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            log(f"  {'ok  ' if done.returncode == 0 else 'FAIL'} {label}")
            if done.returncode != 0:
                failed.append(label)
                log(done.stdout[-4000:])
        if failed:
            raise RuntimeError(f"shipped paths failed: {failed}")
        calls = set()
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                calls.update(line for line in fh.read().split() if line)
        return calls


def functions(root: str) -> List[Def]:
    """Every module-level function and method under ``root``."""
    found = []
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        _walk(tree.body, rel, "", found)
    return found


def _walk(body, rel: str, prefix: str, found: List[Def]) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # co_firstlineno of a decorated function is its first
            # decorator's line, not the def's.
            first = min([node.lineno] + [d.lineno for d in
                                         node.decorator_list])
            found.append(Def(rel, prefix + node.name, first,
                             node.end_lineno))
        elif isinstance(node, ast.ClassDef):
            _walk(node.body, rel, f"{prefix}{node.name}.", found)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                inner = getattr(node, field, None)
                if isinstance(inner, list):
                    _walk(inner, rel, prefix, found)


def never_called(defs: Iterable[Def], calls: Set[str]) -> List[Def]:
    return [d for d in defs if f"{d.path}:{d.first}" not in calls]


class Entry(NamedTuple):
    pattern: str
    group: str
    reason: str
    line: int


def load_allowlist(path: str = ALLOWLIST) -> List[Entry]:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3 or "::" not in parts[0]:
                raise ValueError(f"{path}:{number}: want "
                                 f"'<path>::<name>  <group>  <reason>'")
            pattern, group, reason = parts
            if group not in GROUPS:
                raise ValueError(f"{path}:{number}: unknown group "
                                 f"{group!r} (one of {sorted(GROUPS)})")
            if group == "failure":
                _check_test(f"{path}:{number}", reason)
            entries.append(Entry(pattern, group, reason, number))
    return entries


def _check_test(where: str, reason: str) -> None:
    """A failure entry names a test that exists."""
    ref = TEST_REF.search(reason)
    if ref is None:
        raise ValueError(f"{where}: a failure entry names the test that "
                         f"reaches it (tests/<file>.py::<test>)")
    try:
        with open(os.path.join(REPO, ref.group(1)), encoding="utf-8") as fh:
            source = fh.read()
    except OSError:
        raise ValueError(f"{where}: no test file {ref.group(1)}") from None
    for name in ref.group(2).split("::")[1:]:
        if not re.search(rf"^\s*(?:def|class) {name}\b", source, re.M):
            raise ValueError(f"{where}: {ref.group(1)} defines no {name}")


def sort_out(missed: List[Def], entries: List[Entry]):
    """``(by_group, unlisted, stale)``: never-called defs per allow-list
    group, those no entry covers, and entries that cover nothing."""
    by_group: Dict[str, List[Def]] = {group: [] for group in GROUPS}
    unlisted = []
    used = set()
    for d in missed:
        for entry in entries:
            if fnmatch.fnmatchcase(d.key, entry.pattern):
                by_group[entry.group].append(d)
                used.add(entry)
                break
        else:
            unlisted.append(d)
    stale = [entry for entry in entries if entry not in used]
    return by_group, unlisted, stale


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def report(root: str, calls: Set[str], entries: List[Entry],
           out=sys.stdout) -> int:
    """Print the census; return the number of problems found."""
    missed = never_called(functions(root), calls)
    by_group, unlisted, stale = sort_out(missed, entries)
    total = sum(d.lines for d in missed)
    print(f"census: {total:,} of {src_lines(root):,} src lines in "
          f"{len(missed)} never-called functions", file=out)
    for group, defs in by_group.items():
        print(f"  {group:<8} {sum(d.lines for d in defs):>5} lines  "
              f"{len(defs):>3} functions  ({GROUPS[group]})", file=out)
    print(f"  {'unlisted':<8} {sum(d.lines for d in unlisted):>5} lines  "
          f"{len(unlisted):>3} functions", file=out)
    for d in unlisted:
        print(f"UNLISTED {d.key}  ({d.lines} lines, line {d.first})",
              file=out)
    for entry in stale:
        print(f"STALE allowlist.txt:{entry.line} {entry.pattern}  "
              f"(gone, or now called)", file=out)
    return len(unlisted) + len(stale)


def main() -> int:
    calls: Set[str] = set()
    errors = []

    def census(label, pure):
        env = dict(os.environ)
        env.pop("PIA_PURE", None)
        if pure:
            env["PIA_PURE"] = "1"
        lines = []
        try:
            calls.update(record(shipped_paths(), SRC, env=env,
                                log=lines.append))
        except RuntimeError as exc:
            errors.append(f"{label}: {exc}")
        print(f"{label}:\n" + "\n".join(lines), flush=True)

    threads = [threading.Thread(target=census, args=(label, pure))
               for label, pure in (("native", False), ("PIA_PURE=1", True))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    return 1 if report(SRC, calls, load_allowlist()) else 0


if __name__ == "__main__":
    sys.exit(main())
