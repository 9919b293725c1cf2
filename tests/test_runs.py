"""Golden runs: what ``tierlang run`` reports, pinned.

``runs.golden.json`` holds, for each case, its command line and the
``result``, ``stats`` and ``stop`` of its report when the file was recorded.
The cases are every corpus ``.tl`` program on a small grid of inputs, with
and without ``--monitor``, first under a cap of ``CAP`` steps and then at
budgets ``steps - 1``, 0 and 7 (``steps`` of the capped run); and
``corpus/I.tl2`` under each builtin and ``prog:`` oracle, the same way.  The
step count is the paper's cost measure, so a faster evaluator must report
exactly the same figures and stop at exactly the same point.

Re-record (only in a change that means to alter the cost model) with::

    PYTHONPATH=src python tests/test_runs.py --record
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from conftest import ROOT
from tierlang import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "runs.golden.json"

CAP = 20_000
FIRST_ORDER = {
    "bubble.tl": [["list="], ["list=1"], ["list=0110"], ["list=10110"]],
    "bubble_for.tl": [["list="], ["list=1"], ["list=0110"], ["list=10110"]],
    "exp1.tl": [["x=", "y="], ["x=u1", "y=1"], ["x=u3", "y="], ["x=u6", "y=0"]],
    "exp2.tl": [["y="], ["y=1"], ["y=101"], ["y=1100"]],
    "inc_loop.tl": [["x="], ["x=u1"], ["x=u3"]],
}
ORACLES = [
    "builtin:append1", "builtin:double", "builtin:bitflip", "builtin:const:101",
    "prog:corpus/bubble.tl", "prog:corpus/inc_loop.tl",
]
ITERATOR_INPUTS = [
    ["u=1", "v=1111", "w=u3"],
    ["u=10", "v=110100", "w=u2"],
    ["u=", "v=11", "w=u1"],
]


def base_commands() -> list:
    """Each case's command line without its budget, paths relative to the root."""
    commands = []
    runs = [(f"corpus/{name}", [], grid) for name, grid in FIRST_ORDER.items()]
    runs += [("corpus/I.tl2", ["--oracle", f"F={oracle}"], ITERATOR_INPUTS)
             for oracle in ORACLES]
    commands = []
    for path, options, grid in runs:
        for inputs in grid:
            argv = ["run", path, *options]
            for value in inputs:
                argv += ["--input", value]
            commands += [argv, argv + ["--monitor"]]
    return commands


def outcome(argv) -> dict:
    """The deterministic part of the report of ``tierlang <argv> --json``.

    ``corpus/`` in an argument names the repository's corpus.
    """
    out = io.StringIO()
    rooted = [arg.replace("corpus/", f"{ROOT / 'corpus'}/") for arg in argv]
    with contextlib.redirect_stdout(out):
        cli.main(rooted + ["--json"])
    report = json.loads(out.getvalue())
    return {key: report[key] for key in ("result", "stats", "stop")}


def golden_cases() -> list:
    cases = []
    for argv in base_commands():
        capped = argv + ["--max-steps", str(CAP)]
        first = outcome(capped)
        cases.append({"argv": capped, "outcome": first})
        steps = first["stats"]["steps"]
        for budget in sorted({steps - 1, 0, 7} - {CAP}):
            budgeted = argv + ["--max-steps", str(budget)]
            cases.append({"argv": budgeted, "outcome": outcome(budgeted)})
    return cases


def load_golden() -> list:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_stop_kind():
    golden = load_golden()
    assert len({" ".join(c["argv"]) for c in golden}) == len(golden)
    kinds = {(c["outcome"]["stop"] or {}).get("kind") for c in golden}
    assert kinds == {None, "budget-exhausted", "aperiodicity-violation"}
    assert any(c["outcome"]["stats"]["oracle_calls"] for c in golden)


@pytest.mark.parametrize("case", load_golden(), ids=lambda c: " ".join(c["argv"][1:]))
def test_runs_are_unchanged(case):
    assert outcome(case["argv"]) == case["outcome"]


def record():
    cases = golden_cases()
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cases)} cases in {GOLDEN.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
