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

import functools
import hashlib
import json
import pathlib
import random
import sys

import pytest

from conftest import ORACLE_BREAK_WITH_OPERATORS, corpus
from test_levels import load_golden
from test_safety1 import preorder
from tierlang import genprog, parser, safety1, secondorder
from tierlang.syntax import INFINITY, Program1, Skip, level_str

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


# ---------------------------------------------------------------------------
# The judge's teeth: forged and mutated derivations are rejected


def solved_levels(body, names):
    """The solution inference finds for ``body``: anonymous levels, gamma, loops."""
    analysis = safety1.LevelAnalysis()
    for name in sorted(names):
        analysis.var_term(name)
    analysis.gen_stmt(body, None, None)
    values, explanation = analysis.cs.solve()
    assert values is not None, explanation
    gamma = {name: values[u] for name, u in analysis.var_ids.items()}
    loops = {loop_id: values[u] for loop_id, u in analysis.loop_ids.items()}
    levels = [v for v, label in zip(values, analysis.cs.unknowns) if label is None]
    return levels, gamma, loops


def forge(twin, body, names):
    """A derivation of ``body`` built from the solution of its safe ``twin``."""
    levels, gamma, loops = solved_levels(twin, names)
    return safety1._DerivationBuilder(levels, gamma, loops).stmt(body, 0, 0), gamma


ORACLE_OF_A_GROWING_WORD = (
    "box[F, z] in declare p(X, s, r){ var y, i; y := s; i := s; while(y > u0){ "
    "break(|X(tl(i))| > |X(r)|); i := truncate(X(tl(i)), r); y := y - u1 }; "
    "return y } in call p(F, z, z)"
)


def test_an_oracle_call_must_judge_its_operands():
    twin = parser.parse(ORACLE_OF_A_GROWING_WORD).procedures[0]
    program = parser.parse(ORACLE_OF_A_GROWING_WORD.replace("tl(i)", "cons(i, i)"))
    assert not secondorder.infer_safety2(program).safe
    proc = program.procedures[0]
    deriv, gamma = forge(twin.body, proc.body, set(proc.params) | set(proc.locals))
    for j in preorder(deriv):
        if j.rule == "ORC":
            j.children = []  # hides the cons the loop cannot afford
    assert not safety1.check_derivation(proc, gamma, deriv)


def test_a_declass_operand_must_sit_in_the_declass_context():
    source = "prog(n, a, b){ while(n > u0){ x := declass(cons(a, b), n); n := n - u1 } return x }"
    program = parser.parse(source)
    assert not safety1.infer_safety(program).safe
    twin = parser.parse(source.replace("cons(a, b)", "tl(a)"))
    deriv, gamma = forge(twin.body, program.body, {"n", "a", "b", "x"})
    for j in preorder(deriv):
        if j.rule == "OP" and j.subject.op == "cons":
            for k in preorder(j):
                k.tin = k.tout = 0  # outside every loop, cons is allowed
    assert not safety1.check_derivation(program, gamma, deriv)


def test_the_judge_rejects_what_no_rule_derives():
    """An infinite variable, a body typed inside a loop, a rule on the wrong node, no rule."""
    program = parser.parse_file(corpus("bubble.tl"))
    result = safety1.infer_safety(program)
    gamma, deriv = result.gamma, result.derivation
    assert not safety1.check_derivation(program, dict(gamma, n=INFINITY), deriv)
    op = next(j for j in preorder(deriv) if j.rule == "OP")
    for j, field, value in [(deriv, "tin", 1), (deriv, "rule", "OBK"), (deriv, "rule", "NONE"),
                            (op, "rule", "NONE")]:
        kept = getattr(j, field)
        setattr(j, field, value)
        assert not safety1.check_derivation(program, gamma, deriv), (j.rule, field, value)
        setattr(j, field, kept)
    assert safety1.check_derivation(program, gamma, deriv)


# An operator result the judge must refuse at the infinite level: a
# truncated oracle answer, and a constant.  Under an assignment the
# assignment's rule refuses an infinite source as well; under cons, outside
# every loop, nothing but the operator rule does, since a polynomial
# operator there takes operands at any level.  (The second truncate is not
# guarded, which the judge does not ask.)
@pytest.mark.parametrize("source, op", [
    ("box[F, z] in declare p(X, y){ var x; x := truncate(X(y), y); return x } in call p(F, z)",
     "truncate"),
    ("box[F, z] in declare p(X, y){ var x; x := cons(truncate(X(y), y), y); return x } "
     "in call p(F, z)", "truncate"),
    ("prog(y){ x := eps return x }", "eps"),
    ("prog(y){ x := cons(eps, y) return x }", "eps"),
])
def test_an_operator_result_at_the_infinite_level_is_rejected(source, op):
    program = parser.parse(source)
    if isinstance(program, Program1):
        owner, result = program, safety1.infer_safety(program)
    else:
        owner = program.procedures[0]
        result = secondorder.infer_procedure_levels(owner)
    gamma, deriv = result.gamma, result.derivation
    assert safety1.check_derivation(owner, gamma, deriv)
    node = next(j for j in preorder(deriv) if j.rule == "OP" and j.subject.op == op)
    node.level = INFINITY
    assert not safety1.check_derivation(owner, gamma, deriv)


def judged_bodies():
    """(body owner, gamma, derivation) of safe corpus, oracle-break and genprog bodies."""
    programs = [parser.parse_file(corpus(name)) for name in (
        "bubble.tl", "bubble_for.tl", "exp1.tl", "exp2.tl", "inc_loop.tl", "I.tl2",
    )]
    programs.append(parser.parse(ORACLE_BREAK_WITH_OPERATORS))
    rng, safe = random.Random(20241012), 0
    while safe < 100:
        program = genprog.random_program(rng)
        if safety1.infer_safety(program).safe:
            programs += [program, secondorder.embed_program1(program)]
            safe += 1
    for program in programs:
        if isinstance(program, Program1):
            result = safety1.infer_safety(program)
            if result.safe:
                yield program, result.gamma, result.derivation
            continue
        result = secondorder.infer_safety2(program)
        for proc in program.procedures if result.safe else ():
            check = result.checks[proc.name]
            yield proc, check.gamma, check.derivation


EXPRESSION_RULES = ("VAR", "OP", "DCL", "ORC")


def mutants(deriv, gamma):
    """Change one node at a time in place; each yield sees one mutant."""
    for parent in preorder(deriv):
        # A premise no rule has: a sound leaf judgment in the node's own context.
        parent.children.append(safety1.Judgment("SKP", Skip(), parent.tin, parent.tout, 0))
        yield "premise", parent
        parent.children.pop()
        for k in parent.children:
            if k.rule in EXPRESSION_RULES:
                context = k.tin, k.tout
                k.tin, k.tout = k.tin + 1, k.tout + 1
                yield "context", k
                k.tin, k.tout = context
        if parent.rule in ("OP", "DCL", "ORC", "SEQ", "CND", "WH", "WI", "OBK"):
            kids = parent.children
            for i in range(len(kids)):
                parent.children = kids[:i] + kids[i + 1:]
                yield "drop", parent
            parent.children = kids
        if parent.rule in ("WH", "WI"):
            guard = parent.children[0]
            lam, guard.level = guard.level, 0
            yield "guard level", parent
            guard.level = lam
        if parent.rule in ("VAR", "ORC", "WH", "WI"):
            level = parent.level
            parent.level = gamma[parent.subject.name] + 1 if parent.rule == "VAR" else 0
            yield "level", parent
            parent.level = level


def test_every_single_node_mutant_is_rejected():
    kinds, bodies = set(), 0
    for owner, gamma, deriv in judged_bodies():
        assert safety1.check_derivation(owner, gamma, deriv)
        bodies += 1
        for kind, j in mutants(deriv, gamma):
            assert not safety1.check_derivation(owner, gamma, deriv), (kind, j.rule, j.subject)
            kinds.add((kind, j.rule))
        assert safety1.check_derivation(owner, gamma, deriv)  # every mutant was undone
    assert bodies >= 200
    for kind, rule in [("drop", r) for r in ("OP", "DCL", "ORC", "SEQ", "CND", "WH", "OBK")] + [
        ("level", "VAR"), ("level", "ORC"), ("level", "WH"), ("level", "WI"), ("guard level", "WH"),
        ("context", "VAR"), ("context", "OP"), ("context", "DCL"), ("context", "ORC"),
        ("premise", "VAR"), ("premise", "SKP"),
    ]:
        assert (kind, rule) in kinds


RULES = ("SUB", "SKP", "ASG", "SEQ", "CND", "WH", "WI", "BRK", "OBK", "VAR", "OP", "DCL", "ORC")


@functools.cache
def rule_bodies():
    """(body owner, gamma, derivation) of small safe programs that use all of ``RULES``."""
    programs = [parser.parse_file(corpus(name)) for name in ("bubble.tl", "exp1.tl", "I.tl2")]
    programs += [parser.parse(source) for source in (
        ORACLE_BREAK_WITH_OPERATORS,
        "prog(x){ while(x > u0){ x := tl(x); break(x > u1) }; skip; return x }",
    )]
    bodies = []
    for program in programs:
        if isinstance(program, Program1):
            result = safety1.infer_safety(program)
            bodies.append((program, result.gamma, result.derivation))
        else:
            result = secondorder.infer_safety2(program)
            bodies += [(proc, result.checks[proc.name].gamma, result.checks[proc.name].derivation)
                       for proc in program.procedures]
    return bodies


@pytest.mark.parametrize("rule", RULES)
def test_a_premise_the_rule_lacks_is_rejected(rule):
    """A sound leaf premise, or a second copy of the last premise, on any node of ``rule``."""
    nodes = 0
    for owner, gamma, deriv in rule_bodies():
        assert safety1.check_derivation(owner, gamma, deriv)
        for j in [j for j in preorder(deriv) if j.rule == rule]:
            extras = [safety1.Judgment("SKP", Skip(), j.tin, j.tout, 0)] + j.children[-1:]
            for extra in extras:
                j.children.append(extra)
                assert not safety1.check_derivation(owner, gamma, deriv), (rule, extra.rule)
                j.children.pop()
            assert safety1.check_derivation(owner, gamma, deriv)
            nodes += 1
    assert nodes


def record():
    golden = {case["name"]: derivations_of(case["source"]) for case in safe_cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} cases in {GOLDEN.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
