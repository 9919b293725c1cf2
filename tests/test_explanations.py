"""Golden explanations: the texts and levels inference reports, pinned.

``explanations.golden.json`` holds, for each case, the source text, the
inputs of the check and the report it gave when the file was recorded:
every corpus program, 200 seeded ``genprog`` programs that are unsafe (and
50 safe ones from the same stream), hand-written first-order programs that
fail through each kind of constraint, and ``.tl2`` programs that fail at
guardedness, simple typing and levels, including oracle-break reference
variables and a ``--delta`` restriction.  Speed work on inference must
leave every text and level exactly as it was.

Re-record (only in a change that means to alter an explanation) with::

    PYTHONPATH=src python tests/test_explanations.py --record
"""

import json
import pathlib
import random
import sys

import pytest

from conftest import ROOT
from tierlang import genprog, opreg, parser, safety1, secondorder
from tierlang.syntax import Program1

GOLDEN = pathlib.Path(__file__).resolve().parent / "explanations.golden.json"

GT_111 = {"gt": [[1, 1, 1]]}

FIRST_ORDER = {
    # a growing operator outside loops meets a loop level through an if
    "upper-bound": """prog(x, y){
  if(inc(x)){ while(y > eps){ y := tl(y) } } else { skip }
  return y
}""",
    "polynomial-in-loop": "prog(x){ while(x > eps){ x := cons(x, x) } return x }",
    # the bound of a declass outside loops sits at level 0, a loop guard above
    "declass-bound": """prog(x, z){
  while(z > eps){ z := tl(z) };
  x := declass(x, z)
  return x
}""",
    "break-guard": """prog(x){
  while(x > eps){ break(x + u1); x := tl(x) }
  return x
}""",
    "nested-growth": """prog(x, y){
  while(x > eps){ while(y > eps){ y := tl(y); x := x + u1 } }
  return x
}""",
}

SECOND_ORDER = {
    "guardedness-nested-call": """box[F, z] in
declare p(X, y){ while(y > u0){ y := X(X(y)) }; return y } in
call p(F, z)""",
    "guardedness-unguarded-loop-call": """box[F, z] in
declare p(X, y){ var t; while(y > u0){ t := truncate(X(y), y); y := y - u1 }; return t } in
call p(F, z)""",
    "simple-type-not-closed": """box[F, z] in
declare p(X, y){ y := w; return y } in
call p(F, z)""",
    "simple-type-closure-count": """box[F, z] in
declare p(X, y){ var t; t := truncate(X(y), y); return t } in
call p(, z)""",
    "levels-raw-oracle-answer": """box[F, z] in
declare p(X, y){ var t; t := X(y) return t } in
call p(F, z)""",
    "levels-loop-guarded-by-oracle": """box[F, z] in
declare p(X, y){ while(X(y)){ y := tl(y) }; return y } in
call p(F, z)""",
    "levels-reference-variable": """box[F, z] in
declare p(X, s, r){
  var i;
  i := r;
  while(s > u0){
    break(|X(i)| > |X(r)|);
    i := truncate(X(i), s);
    r := i;
    s := s - u1
  };
  return i
} in
call p(F, z, z)""",
    "levels-growth-in-loop": """box[F, z] in
declare p(X, y){ while(y > u0){ y := y + u1 }; return y } in
call p(F, z)""",
}


def golden_cases():
    """The cases, each without its report: name, source, how to check it."""
    cases = []
    for path in sorted((ROOT / "corpus").iterdir()):
        if path.suffix in (".tl", ".tl2"):
            cases.append({"name": f"corpus/{path.name}", "source": path.read_text()})
    cases.append({
        "name": "corpus/bubble.tl --delta",
        "source": (ROOT / "corpus" / "bubble.tl").read_text(),
        "delta": GT_111,
    })
    cases.append({
        "name": "corpus/I.tl2 --delta",
        "source": (ROOT / "corpus" / "I.tl2").read_text(),
        "delta": GT_111,
    })
    for name, source in {**FIRST_ORDER, **SECOND_ORDER}.items():
        cases.append({"name": name, "source": source})
    rng = random.Random(20240601)
    unsafe = safe = 0
    while unsafe < 200 or safe < 50:
        program = genprog.random_program(rng)
        verdict = safety1.infer_safety(program).safe
        if verdict and safe < 50:
            safe += 1
            name = f"genprog safe {safe}"
        elif not verdict and unsafe < 200:
            unsafe += 1
            name = f"genprog unsafe {unsafe}"
        else:
            continue
        cases.append({"name": name, "source": parser.pretty_print(program)})
    return cases


def report_of(case) -> dict:
    program = parser.parse(case["source"])
    config = opreg.DeltaConfig.from_json(case["delta"]) if "delta" in case else None
    if isinstance(program, Program1):
        return safety1.infer_safety(program, config).report()
    return secondorder.infer_safety2(program, config).report()


def canonical(report: dict) -> str:
    """Key order does not count: gamma follows PYTHONHASHSEED's set order."""
    return json.dumps(report, sort_keys=True, indent=1)


def load_golden() -> list:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_kind_of_case():
    golden = load_golden()
    names = [c["name"] for c in golden]
    assert len(names) == len(set(names))
    reports = {c["name"]: c["report"] for c in golden}
    assert sum(n.startswith("genprog unsafe") for n in names) == 200
    assert all(not reports[n]["safe"] for n in names if n.startswith("genprog unsafe"))
    assert not reports["corpus/inc_loop.tl"]["safe"]
    stages = {reports[n]["stage"] for n in SECOND_ORDER}
    assert stages == {"guardedness", "simple-type", "levels"}
    assert "reference variable r" in reports["levels-reference-variable"]["explanation"]
    for name in ("corpus/bubble.tl --delta", "corpus/I.tl2 --delta"):
        assert "forbidden" in reports[name]["explanation"]
    for name in FIRST_ORDER:
        assert reports[name]["explanation"], name
    assert "needs level(" in reports["upper-bound"]["explanation"]


@pytest.mark.parametrize("case", load_golden(), ids=lambda c: c["name"])
def test_explanation_is_unchanged(case):
    expected = case["report"]
    assert canonical(report_of(case)) == canonical(expected)


def record():
    cases = golden_cases()
    for case in cases:
        case["report"] = report_of(case)
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cases)} cases in {GOLDEN.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
