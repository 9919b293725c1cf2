"""The ledger of unrun lines still points at the lines it names.

``tests/unrun.txt`` lists the package lines that tier-1 never runs; the
traced run ``python tests/linetrace.py --ledger tests/unrun.txt`` holds the
tree to it.  That run is slow, so here, in tier-1, each entry's text is
checked at its place: an edit that moves or changes a ledger line fails at
once.
"""

from conftest import ROOT
from linetrace import read_ledger

LEDGER = ROOT / "tests" / "unrun.txt"
GROUPS = {"fall-through", "outside-caller", "counterexample-text", "defensive", "child-process"}


def test_each_ledger_text_sits_at_its_place():
    entries = read_ledger(LEDGER)
    assert entries
    sources = {file: (ROOT / file).read_text().splitlines() for file, _ in entries}
    moved = [
        (file, line, text) for (file, line), (group, text) in entries.items()
        if not 0 < line <= len(sources[file]) or sources[file][line - 1].strip() != text
    ]
    assert moved == []
    assert {group for group, _ in entries.values()} <= GROUPS
