"""Golden least solutions: the levels inference reports, pinned.

``levels.golden.json`` holds, for each case, the source text and what level
inference gave when the file was recorded: the first-order ``gamma``,
``loop_levels`` and body level, verdict and explanation of every corpus
``.tl`` program and of 300 seeded ``genprog`` programs, and the report of
each one's ``.tl2`` embedding (its omega among it); for the corpus ``.tl2``
programs, their second-order report.  The explanation golden pins the text
of failures; this file pins the least solution of the safe cases too, so a
faster solver must reach exactly the same levels.

Re-record (only in a change that means to alter a solution) with::

    PYTHONPATH=src python tests/test_levels.py --record
"""

import json
import pathlib
import random
import sys

import pytest

from conftest import ROOT
from tierlang import genprog, parser, safety1, secondorder
from tierlang.syntax import Program1

GOLDEN = pathlib.Path(__file__).resolve().parent / "levels.golden.json"

GENPROG_SEED = 20241012
GENPROG_CASES = 300


def golden_cases():
    """The cases, each without its levels: name and source."""
    cases = []
    for path in sorted((ROOT / "corpus").iterdir()):
        if path.suffix in (".tl", ".tl2"):
            cases.append({"name": f"corpus/{path.name}", "source": path.read_text()})
    rng = random.Random(GENPROG_SEED)
    for i in range(GENPROG_CASES):
        program = genprog.random_program(rng)
        cases.append({"name": f"genprog {i + 1}", "source": parser.pretty_print(program)})
    return cases


def levels_of(case) -> dict:
    program = parser.parse(case["source"])
    if not isinstance(program, Program1):
        return {"second_order": secondorder.infer_safety2(program).report()}
    result = safety1.infer_safety(program)
    first = result.report()
    first["body_level"] = result.body_level
    embedded = secondorder.infer_safety2(secondorder.embed_program1(program))
    return {"first_order": first, "embedded": embedded.report()}


def canonical(levels: dict) -> str:
    """Key order does not count: gamma follows PYTHONHASHSEED's set order."""
    return json.dumps(levels, sort_keys=True, indent=1)


def load_golden() -> list:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_safe_and_unsafe_solutions():
    golden = load_golden()
    names = [c["name"] for c in golden]
    assert len(names) == len(set(names))
    assert sum(n.startswith("genprog ") for n in names) == GENPROG_CASES
    verdicts = [
        c["levels"]["first_order"]["safe"] for c in golden if "first_order" in c["levels"]
    ]
    assert sum(verdicts) >= 50 and verdicts.count(False) >= 50
    omega = next(c for c in golden if c["name"] == "corpus/I.tl2")["levels"]
    assert omega["second_order"]["omega"]
    assert any(
        c["levels"]["first_order"]["loop_levels"]
        for c in golden if "first_order" in c["levels"]
    )


@pytest.mark.parametrize("case", load_golden(), ids=lambda c: c["name"])
def test_levels_are_unchanged(case):
    assert canonical(levels_of(case)) == canonical(case["levels"])


def record():
    cases = golden_cases()
    for case in cases:
        case["levels"] = levels_of(case)
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cases)} cases in {GOLDEN.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
