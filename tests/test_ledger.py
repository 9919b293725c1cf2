"""The ledger of unrun lines still points at the lines it names.

``tests/unrun.txt`` lists the package lines that tier-1 never runs; the
traced run ``python tests/linetrace.py --ledger tests/unrun.txt`` holds the
tree to it.  That run is slow, so here, in tier-1, each entry's text is
checked at its place: an edit that moves or changes a ledger line fails at
once, and names the line a moved text now sits at when the text occurs
once in its file.
"""

from conftest import ROOT
from linetrace import read_ledger

LEDGER = ROOT / "tests" / "unrun.txt"
GROUPS = {"fall-through", "outside-caller", "defensive", "child-process"}


def test_each_ledger_text_sits_at_its_place():
    entries = read_ledger(LEDGER)
    assert entries
    sources = {
        file: [row.strip() for row in (ROOT / file).read_text().splitlines()]
        for file, _ in entries
    }
    moved = []
    for (file, line), (group, text) in entries.items():
        rows = sources[file]
        if 0 < line <= len(rows) and rows[line - 1] == text:
            continue
        # A text that occurs once in its file has moved to that line.
        places = [i for i, row in enumerate(rows, 1) if row == text]
        where = f"now at {file}:{places[0]}" if len(places) == 1 else f"on {len(places)} lines"
        moved.append(f"{file}:{line} {text} ({where})")
    assert not moved, "ledger entries not at their place:\n" + "\n".join(moved)
    assert {group for group, _ in entries.values()} <= GROUPS
