"""Print every statement of ``src/tierlang`` that the tier-1 tests never run.

Runs pytest in this process under ``sys.settrace``, recording the lines
executed in the package's files only, and prints each executable line that
never ran as ``path:line: source``, file by file.  Executable lines are the
line starts of every code object compiled from the file.  Lines that run
only in a child process (a test that starts ``python -m tierlang.cli``) are
not seen.  Needs nothing beyond pytest; tier-1 does not collect it.

Run from the repository root (extra arguments go to pytest)::

    python tests/linetrace.py [--ledger tests/unrun.txt] [PYTEST_ARGS...]

With ``--ledger FILE`` it also holds the unrun lines to that ledger, and
exits 1 when a line outside the ledger never ran or a ledger line now runs.
A ledger line reads ``FILE:LINE GROUP TEXT``: the place, a one-word group
saying why no test runs it, and the line's stripped text; ``#`` starts a
comment line.  ``tests/test_ledger.py`` checks in tier-1 that each text
still sits at its place.

Tracing slows the suite about fourfold.
"""

import dis
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tierlang"


def executable_lines(path: pathlib.Path) -> set:
    """The line of every instruction that starts a line, in every code object."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


class Lines:
    """A file's local trace function: records each line that runs in ``seen``.

    It returns itself, not a closure that names itself, so a traced frame
    leaves no reference cycle for the tests that count cyclic garbage.
    """

    def __init__(self):
        self.seen = set()

    def __call__(self, frame, event, arg):
        if event == "line":
            self.seen.add(frame.f_lineno)
        return self


def read_ledger(path) -> dict:
    """``(file, line) -> (group, text)`` for each entry of a ledger file."""
    entries = {}
    for row in pathlib.Path(path).read_text().splitlines():
        if row.strip() and not row.startswith("#"):
            place, group, text = row.split(maxsplit=2)
            file, line = place.rsplit(":", 1)
            entries[file, int(line)] = group, text
    return entries


def main(args) -> int:
    ledger = None
    if args[:1] == ["--ledger"]:
        ledger, args = read_ledger(args[1]), args[2:]
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: Lines() for name in files}

    def trace(frame, event, arg):
        tracer = ran.get(frame.f_code.co_filename)
        if tracer is not None:
            tracer.seen.add(frame.f_lineno)
        return tracer

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total, unrun = 0, set()
    for name, path in files.items():
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        never = sorted(lines - ran[name].seen)
        total += len(lines)
        unrun.update((str(path.relative_to(ROOT)), line) for line in never)
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{len(unrun)} of {total} executable lines never ran (pytest exit {int(status)})")
    if ledger is None:
        return int(status)
    outside, now_run = sorted(unrun - ledger.keys()), sorted(ledger.keys() - unrun)
    for file, line in outside:
        print(f"not in the ledger: {file}:{line}")
    for file, line in now_run:
        print(f"in the ledger, but ran: {file}:{line} {' '.join(ledger[file, line])}")
    return 1 if outside or now_run else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
