"""List the executable lines of ``src/phylocircuit`` that the tests never run.

Usage, from the repository root:

    PYTHONPATH=src python tests/unrun_lines.py [extra pytest arguments]

Runs the tier-1 suite in this process under ``sys.settrace`` (stdlib only,
no coverage package) and prints, per module, its executable lines, how
many never ran and their line numbers.  Executable lines are the lines of
every code object the module compiles to.  The child processes that tests
start, such as the CLI runs of ``test_cli.py``, are traced too: this
directory goes first on their ``PYTHONPATH``, so each child loads
``tests/sitecustomize.py``, which writes the package lines the child ran
to a file in a temporary directory on exit; those files are merged in.
``test_rebuild_and_invert_times_at_size`` and
``test_float_search_and_decomposition_time_at_size`` are deselected: they
time the library against a wall-clock budget, which tracing overruns.  A
run takes several minutes.  The lines left unrun on purpose, each with its
reason, are listed in ``CHANGES.md``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

from sitecustomize import OUT_DIR_VARIABLE

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "phylocircuit"
WALL_CLOCK_TESTS = (
    "tests/test_reconstruct.py::test_rebuild_and_invert_times_at_size",
    "tests/test_reconstruct.py::test_float_search_and_decomposition_time_at_size",
)


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction of every code object in a file."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """``1, 4-6, 9`` for [1, 4, 5, 6, 9]."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def hook_env(out_dir: str) -> dict[str, str]:
    """The variables that, set in this process's environment, make every
    child process it starts record the package lines it runs in ``out_dir``."""
    path = os.pathsep.join(p for p in (str(TESTS), os.environ.get("PYTHONPATH")) if p)
    return {"PYTHONPATH": path, OUT_DIR_VARIABLE: out_dir}


def child_lines(out_dir: str) -> dict[str, set[int]]:
    """{real path of a module file: lines run} over every child that wrote
    to ``out_dir``."""
    ran: dict[str, set[int]] = {}
    for record in sorted(Path(out_dir).glob("*.lines")):
        for row in record.read_text(encoding="utf-8").splitlines():
            name, _, lines = row.partition("\t")
            ran.setdefault(name, set()).update(map(int, lines.split()))
    return ran


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)
        return local

    with tempfile.TemporaryDirectory() as out_dir:
        os.environ.update(hook_env(out_dir))
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            status = pytest.main(
                ["-q", "-p", "no:cacheprovider",
                 *(f"--deselect={test}" for test in WALL_CLOCK_TESTS),
                 str(TESTS), *argv]
            )
        finally:
            sys.settrace(None)
            threading.settrace(None)
        children = child_lines(out_dir)
    for name, path in files.items():
        ran[name] |= children.get(os.path.realpath(path), set())

    total = unrun_total = outside_cli = 0
    print()
    for name, path in files.items():
        lines = executable_lines(path)
        unrun = sorted(lines - ran[name])
        total += len(lines)
        unrun_total += len(unrun)
        if path.name != "cli.py":
            outside_cli += len(unrun)
        print(f"{path.name}: {len(lines)} executable, {len(unrun)} unrun")
        if unrun:
            print(f"    {ranges(unrun)}")
    print(
        f"total: {total} executable lines, {unrun_total} unrun,"
        f" {outside_cli} of them outside cli.py (pytest exit status {int(status)})"
    )
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
