"""Golden typing derivations: the trees inference builds, pinned by hash.

For each safe case of ``levels.golden.json``, ``derivations.golden.json``
holds a hash of the pre-order ``(rule, tin, tout, level)`` tuples of its
derivation: one for a first-order program, and one per procedure of a
second-order program (a first-order program's ``.tl2`` embedding
included).  Re-checking shows a derivation is sound; this file shows the
builder puts every level where it put it when the file was recorded.

Re-record (only in a change that means to alter a derivation) with::

    PYTHONPATH=src python tests/test_derivations.py --record
"""

import hashlib
import json
import pathlib
import sys

import pytest

from test_levels import load_golden
from tierlang import parser, safety1, secondorder
from tierlang.syntax import Program1, level_str

GOLDEN = pathlib.Path(__file__).resolve().parent / "derivations.golden.json"


def derivation_hash(deriv: safety1.Judgment) -> str:
    rows = []
    stack = [deriv]
    while stack:
        j = stack.pop()
        rows.append([j.rule] + [level_str(v) for v in (j.tin, j.tout, j.level)])
        stack.extend(reversed(j.children))
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def procedure_hashes(result: secondorder.Safety2Result) -> dict:
    return {name: derivation_hash(d) for name, d in result.derivations.items()}


def derivations_of(source: str) -> dict | None:
    """The hashes of a safe program's derivations; None when unsafe."""
    program = parser.parse(source)
    if not isinstance(program, Program1):
        result = secondorder.infer_safety2(program)
        return {"procedures": procedure_hashes(result)} if result.safe else None
    result = safety1.infer_safety(program)
    if not result.safe:
        return None
    out = {"first_order": derivation_hash(result.derivation)}
    embedded = secondorder.infer_safety2(secondorder.embed_program1(program))
    if embedded.safe:
        out["embedded"] = procedure_hashes(embedded)
    return out


def safe_cases() -> list:
    return [
        case for case in load_golden()
        if case["levels"].get("first_order", case["levels"].get("second_order"))["safe"]
    ]


def load_derivations() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_safe_case():
    golden = load_derivations()
    assert sorted(golden) == sorted(case["name"] for case in safe_cases())
    assert golden["corpus/I.tl2"]["procedures"]
    assert sum("embedded" in entry for entry in golden.values()) >= 50


@pytest.mark.parametrize("case", safe_cases(), ids=lambda c: c["name"])
def test_derivations_are_unchanged(case):
    assert derivations_of(case["source"]) == load_derivations()[case["name"]]


def record():
    golden = {case["name"]: derivations_of(case["source"]) for case in safe_cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} cases in {GOLDEN.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
