"""Golden parses: what the parser makes of the corpus and of broken copies of it.

``parses.golden.json`` holds, for every corpus file, for ten seeded
re-spacings of each, and for 1,000 seeded mutants of corpus sources (a run
of 1-3 tokens deleted, duplicated or inserted, as
``test_parser.mutated_sources`` draws them), one of two results:

* a ``ParseError``: its class, message, line, column and sorted expected
  kinds;
* a program: a hash of its ``pretty_print`` text and the
  ``(loop_id, line, for_origin)`` of every ``While`` in pre-order.

Re-spacings and mutants join their tokens with a space, a newline or a
comment, so the lines and columns of errors and loops move across lines
and comments too; most mutants are parse errors, every re-spacing parses.
The test rebuilds the file and compares it byte for byte.

Re-record (only in a change that means to alter a parse) with::

    PYTHONPATH=src python tests/test_parses.py --record
"""

import hashlib
import json
import pathlib
import random
import sys

from conftest import ROOT
from tokencheck import tokenize_stepwise
from tierlang.parser import ParseError, parse, pretty_print
from tierlang.syntax import Program1, While, iter_stmts

GOLDEN = pathlib.Path(__file__).resolve().parent / "parses.golden.json"
RESPACINGS = 10
MUTANTS = 1000
SEED = 5
SEPARATORS = (" ", " ", " ", "\n", "\n  ", " // note\n")

CORPUS = sorted(
    p for p in (ROOT / "corpus").iterdir() if p.suffix in (".tl", ".tl2")
)


def sources() -> list:
    """(name, text) of every corpus file, re-spacing and seeded mutant."""
    out = [(f"corpus/{p.name}", p.read_text(encoding="utf-8")) for p in CORPUS]
    tokens = [[t[1] for t in tokenize_stepwise(text)[:-1]] for _, text in out]
    vocabulary = sorted({t for ts in tokens for t in ts} | {"frob", "for", "to"})
    rng = random.Random(SEED)

    def spaced(ts) -> str:
        return "".join(rng.choice(SEPARATORS) + t for t in ts)

    for (name, _), ts in zip(list(out), tokens):
        out += [(f"{name} spaced {n}", spaced(ts)) for n in range(RESPACINGS)]
    for n in range(MUTANTS):
        ts = list(rng.choice(tokens))
        i, k = rng.randint(0, len(ts) - 1), rng.randint(1, 3)
        how = rng.choice(["delete", "insert", "duplicate"])
        if how == "delete":
            del ts[i:i + k]
        elif how == "duplicate":
            ts[i:i] = ts[i:i + k]
        else:
            ts[i:i] = [rng.choice(vocabulary) for _ in range(k)]
        out.append((f"mutant {n}", spaced(ts)))
    return out


def parse_result(text: str) -> dict:
    try:
        program = parse(text)
    except ParseError as err:
        return {"error": [type(err).__name__, err.message, err.line, err.col,
                          sorted(err.expected)]}
    bodies = [program.body] if isinstance(program, Program1) else [
        p.body for p in program.procedures
    ]
    loops = [[s.loop_id, s.line, s.for_origin]
             for b in bodies for s in iter_stmts(b) if isinstance(s, While)]
    tree = hashlib.sha256(pretty_print(program).encode()).hexdigest()[:16]
    return {"tree": tree, "loops": loops}


def golden_text() -> str:
    """The golden file's text: one case per line."""
    cases = [{"name": name, **parse_result(text)} for name, text in sources()]
    return "[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n"


def test_golden_covers_errors_and_programs():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    programs = len(CORPUS) * (1 + RESPACINGS)
    assert len(cases) == programs + MUTANTS
    assert all("tree" in c for c in cases[:programs])
    assert len({c["loops"][0][1] for c in cases[:programs]}) >= 10  # lines move
    mutants = cases[programs:]
    assert sum("error" in c for c in mutants) >= MUTANTS // 2
    assert sum(bool(c.get("loops")) for c in mutants) >= 20


def test_parses_are_unchanged():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.write_text(golden_text(), encoding="utf-8")
    print(f"recorded {len(CORPUS) * (1 + RESPACINGS) + MUTANTS} cases in {GOLDEN.name}")
