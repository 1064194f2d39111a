"""Line tracing for the child processes of the test suite.

``tests/unrun_lines.py`` puts this directory on ``PYTHONPATH`` and names an
output directory in ``PHYLOCIRCUIT_UNRUN_DIR``.  Every Python process started
under it, such as the CLI children of ``tests/test_cli.py``, then records the
lines of ``src/phylocircuit`` it runs and on exit writes them to
``<dir>/<pid>.lines``: one ``<path>\\t<line> <line> ...`` row per module file.
Without that variable this module does nothing.  It prints nothing and imports
no module that the interpreter has not loaded at start-up already, so a
child's stdout and stderr stay as they were and its ``-X importtime`` listing
gains only this module.
"""

import atexit
import os
import sys

OUT_DIR_VARIABLE = "PHYLOCIRCUIT_UNRUN_DIR"


def _install(out_dir: str) -> None:
    package = os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "src", "phylocircuit")
    )
    ran: dict[str, set[int]] = {}
    # co_filename -> the lines run of a package file, None for any other file
    seen_in: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            seen_in[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in seen_in:
            path = os.path.realpath(filename)
            seen_in[filename] = (
                ran.setdefault(path, set()) if os.path.dirname(path) == package else None
            )
        seen = seen_in[filename]
        if seen is None:
            return None
        seen.add(frame.f_lineno)
        return local

    def write() -> None:
        sys.settrace(None)
        path = os.path.join(out_dir, f"{os.getpid()}.lines")
        with open(path, "w", encoding="utf-8") as fh:
            for name, lines in sorted(ran.items()):
                fh.write(f"{name}\t{' '.join(map(str, sorted(lines)))}\n")

    atexit.register(write)
    sys.settrace(trace)


if os.environ.get(OUT_DIR_VARIABLE):
    _install(os.environ[OUT_DIR_VARIABLE])
