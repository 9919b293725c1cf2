"""Static discharge: the loops the monitor does not watch can never repeat.

``Interp.discharged`` skips the monitor on a loop whose body changes the
length of a guard variable v once per pass, by one of its own statements:
a countdown shortens a v the guard needs non-empty, and a countup lengthens
an undeclassified v by one symbol.  These tests judge the rule three ways:

* the materialized tree of ``treecheck`` finds no repeated configuration of
  a discharged loop, on inputs of 0 to 6 symbols;
* an interpreter that watches only the discharged loops never stops with a
  violation (for ``I.tl2``, where the tree oracle has no oracle calls);
* a run with the rule stops exactly where a run watching every loop stops,
  with the same stats, and so do the near misses the rule must refuse.
"""

import random
import tracemalloc
from collections import Counter

import pytest

import treecheck
from conftest import ORACLE_BREAK_WITH_OPERATORS, corpus
from tierlang import genprog, parser
from tierlang.interp1 import DEFAULT_BUDGET, Interp, RuntimeStop
from tierlang.secondorder import Interp2, Oracle, make_oracle
from tierlang.syntax import (
    Assign, Declass, If, OpApp, Program1, Seq, Skip, Var, While, assign_loop_ids, iter_stmts, seq_of,
)

BUDGET = 3000
FUEL = 20_000
CONSTS = [OpApp("eps"), OpApp("true"), OpApp("false"), OpApp("const:1"), OpApp("const:11")]


class WatchAll(Interp):
    """The monitor as it was before the rule: every loop observed."""

    def discharged(self, s):
        return False


class WatchSkipped(Interp):
    """Observes exactly the loops the rule skips, and no others."""

    def discharged(self, s):
        return not Interp.discharged(self, s)


class WatchAll2(Interp2):
    def discharged(self, s):
        return False


class WatchSkipped2(Interp2):
    def discharged(self, s):
        return not Interp2.discharged(self, s)


def loops(program):
    bodies = [program.body] if isinstance(program, Program1) else [
        p.body for p in program.procedures
    ]
    return [s for b in bodies for s in iter_stmts(b) if isinstance(s, While)]


def discharged_ids(program) -> set:
    interp = Interp()
    return {s.loop_id for s in loops(program) if interp.discharged(s)}


def outcome(make, *args):
    """What a monitored run ends with, and its stats."""
    interp = make()
    try:
        end = ("result", interp.run(*args), None)
    except RuntimeStop as stop:
        end = (stop.subcode, getattr(stop, "iteration", None), getattr(stop, "witness", None))
    return end, interp.stats.as_dict(), interp.stats.obk_events


def same_as_watching_all(program, inputs):
    ours = outcome(lambda: Interp(BUDGET, True), program, inputs)
    assert ours == outcome(lambda: WatchAll(BUDGET, True), program, inputs), (
        parser.pretty_print(program), inputs,
    )
    return ours


def no_repeat_by_tree(program, inputs, only) -> bool:
    """Assert the tree repeats no loop in ``only``; False if the run does not end."""
    if outcome(lambda: Interp(BUDGET), program, inputs)[0][0] == "budget-exhausted":
        return False
    assert not treecheck.periodic_by_tree(program, inputs, FUEL, only), (
        parser.pretty_print(program), inputs,
    )
    return True


def small_inputs(rng, params, count: int) -> list:
    grid = [[""] * len(params), ["111111"] * len(params)]
    for _ in range(count):
        grid.append([
            "".join(rng.choice("01#") for _ in range(rng.randint(0, 6))) for _ in params
        ])
    return grid


# ---------------------------------------------------------------------------
# A seeded family of countdown shapes


def retarget(s, v: str, to: str):
    """``s`` with every write of v made a write of ``to`` instead."""
    if isinstance(s, Assign):
        return Assign(to if s.var == v else s.var, s.expr)
    if isinstance(s, Seq):
        return seq_of([retarget(t, v, to) for t in s.stmts])
    if isinstance(s, If):
        return If(s.guard, retarget(s.then, v, to), retarget(s.orelse, v, to))
    if isinstance(s, While):
        return While(s.guard, retarget(s.body, v, to))
    return s


def ranked_guard(rng, v: str):
    """A guard that only a non-empty v satisfies, in one of the four forms."""
    form, c = rng.randrange(4), rng.choice(CONSTS)
    if form == 0:
        return OpApp("ne", [Var(v), OpApp("eps")])
    if form == 1:
        return OpApp("gt", [Var(v), c])
    if form == 2:
        return OpApp("lt", [c, Var(v)])
    return OpApp("le", [rng.choice(CONSTS[1:]), Var(v)])


MISSES = ["empty-guard", "branch", "twice"]


def countdown(rng, names: list, depth: int, miss: str | None = None) -> While:
    """A loop the rule discharges, with genprog statements around its shrink.

    With ``miss``, one ingredient is spoiled: the guard admits the empty
    word, the shrink sits in one branch of an if, or v is written twice.
    """
    v = rng.choice(names)
    others = [n for n in names if n != v]
    parts = []
    for _ in range(rng.randint(0, 3)):
        if depth > 0 and len(others) > 1 and rng.random() < 0.3:
            part = countdown(rng, others, depth - 1)
        else:
            part = genprog.random_stmt(rng, names, 2, 1)
        parts.append(retarget(part, v, rng.choice(others)))
    guard = ranked_guard(rng, v)
    shrink = Assign(v, OpApp(rng.choice(["dec", "tl"]), [Var(v)]))
    if miss == "empty-guard":
        guard = rng.choice([OpApp("le", [OpApp("eps"), Var(v)]), OpApp("le", [Var(v), guard.args[-1]])])
    elif miss == "branch":
        shrink = If(genprog.random_expr(rng, names, 1), *rng.sample([shrink, Skip()], 2))
    elif miss == "twice":
        parts.insert(rng.randint(0, len(parts)), Assign(v, genprog.random_expr(rng, names, 2)))
    parts.insert(rng.randint(0, len(parts)), shrink)
    return While(guard, seq_of(parts))


GROWTHS = [OpApp("const:1"), OpApp("const:0"), OpApp("const:#"), OpApp("true")]
UP_MISSES = ["two-symbols", "word", "branch", "twice", "declass"]


def countup(rng, names: list, depth: int, miss: str | None = None) -> While:
    """A loop the rule discharges: a guard variable v grows by one symbol a pass.

    With ``miss``, one ingredient is spoiled: v grows by a two-symbol
    constant (which appends nothing) or by a variable, the growth sits in
    one branch of an if, v is written twice, or the guard reads v only
    under declass.
    """
    v = rng.choice(names)
    others = [n for n in names if n != v]
    parts = [retarget(genprog.random_stmt(rng, names, depth, 1), v, rng.choice(others))
             for _ in range(rng.randint(0, 3))]
    seen, c = Var(v), rng.choice(CONSTS + [OpApp("const:1111")])
    if miss == "declass":
        seen = Declass(seen, Var(rng.choice(others)))
    guard = rng.choice([
        OpApp("lt", [seen, c]), OpApp("le", [seen, c]), OpApp("gt", [c, seen]),
        OpApp("and", [OpApp("lt", [seen, c]), genprog.random_expr(rng, others, 1)]),
    ])
    grow = Assign(v, OpApp("append", [Var(v), rng.choice(GROWTHS)]))
    if miss == "two-symbols":
        grow = Assign(v, OpApp("append", [Var(v), OpApp("const:01")]))
    elif miss == "word":
        grow = Assign(v, OpApp("append", [Var(v), Var(rng.choice(others))]))
    elif miss == "branch":
        grow = If(genprog.random_expr(rng, names, 1), *rng.sample([grow, Skip()], 2))
    elif miss == "twice":
        parts.insert(rng.randint(0, len(parts)), Assign(v, genprog.random_expr(rng, names, 2)))
    parts.insert(rng.randint(0, len(parts)), grow)
    return While(guard, seq_of(parts))


def loop_program(seed: int, make=countdown, miss: str | None = None) -> tuple:
    """A program around one loop that ``make`` builds, and that loop."""
    rng = random.Random(seed)
    names = ["v", "a", "b", "c"][: rng.randint(2, 4)]
    loop = make(rng, names, 2, miss)
    body = seq_of([
        genprog.random_stmt(rng, names, 1, 1), loop, genprog.random_stmt(rng, names, 1, 1),
    ])
    program = Program1(list(names), body, rng.choice(names))
    assign_loop_ids(program)
    return program, loop


def test_the_rule_discharges_what_it_should_in_the_corpus(iterator_program):
    expected = {
        "bubble.tl": {1, 2, 3}, "bubble_for.tl": {1, 2}, "exp1.tl": {1, 2},
        "exp2.tl": set(), "inc_loop.tl": {1},
    }
    for name, ids in expected.items():
        assert discharged_ids(parser.parse_file(corpus(name))) == ids, name
    # iterate's loop counts s down; drive's n is reloaded through declass.
    assert discharged_ids(iterator_program) == {1}


@pytest.mark.parametrize("name", ["bubble.tl", "bubble_for.tl", "exp1.tl", "exp2.tl"])
def test_corpus_discharged_loops_never_repeat(name):
    program = parser.parse_file(corpus(name))
    only, checked = discharged_ids(program), 0
    for inputs in small_inputs(random.Random(name), program.params, 40):
        same_as_watching_all(program, inputs)
        checked += no_repeat_by_tree(program, inputs, only)
        watched = outcome(lambda: WatchSkipped(BUDGET, True), program, inputs)
        assert watched[0][0] != "aperiodicity-violation", inputs
    assert checked == 42


@pytest.mark.parametrize("oracle", [
    "builtin:append1", "builtin:double", "builtin:bitflip", "builtin:const:101",
    "prog:" + corpus("bubble.tl"),
], ids=["append1", "double", "bitflip", "const", "prog-bubble"])
def test_iterate_loop_never_repeats(iterator_program, oracle):
    oracles = {"F": make_oracle(oracle)}
    rng = random.Random(oracle)
    for _ in range(40):
        u, v = ("".join(rng.choice("01") for _ in range(rng.randint(0, 6))) for _ in "uv")
        inputs = [u, v, "1" * rng.randint(0, 6)]
        watched = outcome(lambda: WatchSkipped2(iterator_program, oracles, BUDGET, True), inputs)
        assert watched[0][0] != "aperiodicity-violation", inputs
        assert outcome(lambda: Interp2(iterator_program, oracles, BUDGET, True), inputs) == (
            outcome(lambda: WatchAll2(iterator_program, oracles, BUDGET, True), inputs)
        )


def test_seeded_programs_never_repeat_a_discharged_loop():
    rng, programs = random.Random(17), []
    for seed in range(300):
        program, loop = loop_program(seed)
        assert Interp().discharged(loop), parser.pretty_print(program)
        programs.append(program)
    programs += [genprog.random_program(random.Random(seed)) for seed in range(300)]
    loops_seen, tree_runs = 0, 0
    for program in programs:
        only = discharged_ids(program)
        loops_seen += len(only)
        for inputs in small_inputs(rng, program.params, 3):
            same_as_watching_all(program, inputs)
            if only:
                tree_runs += no_repeat_by_tree(program, inputs, only)
                assert outcome(lambda: WatchSkipped(BUDGET, True), program, inputs)[0][0] != (
                    "aperiodicity-violation"
                )
    assert loops_seen >= 400 and tree_runs >= 1200


def test_spoiled_countdowns_stay_observed():
    rng, violations = random.Random(23), 0
    for seed in range(300):
        program, loop = loop_program(seed, countdown, MISSES[seed % 3])
        assert not Interp().discharged(loop), parser.pretty_print(program)
        for inputs in small_inputs(rng, program.params, 3):
            end = same_as_watching_all(program, inputs)[0]
            violations += end[0] == "aperiodicity-violation"
    assert violations >= 300


def test_seeded_countups_never_repeat():
    rng, tree_runs = random.Random(29), 0
    for seed in range(300):
        program, loop = loop_program(seed, countup)
        assert Interp().discharged(loop), parser.pretty_print(program)
        only = discharged_ids(program)
        for inputs in small_inputs(rng, program.params, 3):
            same_as_watching_all(program, inputs)
            tree_runs += no_repeat_by_tree(program, inputs, only)
            assert outcome(lambda: WatchSkipped(BUDGET, True), program, inputs)[0][0] != (
                "aperiodicity-violation"
            )
    assert tree_runs >= 1200


def test_spoiled_countups_stay_observed():
    rng, violations = random.Random(31), Counter()
    for seed in range(500):
        miss = UP_MISSES[seed % len(UP_MISSES)]
        program, loop = loop_program(seed, countup, miss)
        assert not Interp().discharged(loop), parser.pretty_print(program)
        for inputs in small_inputs(rng, program.params, 3):
            end = same_as_watching_all(program, inputs)[0]
            violations[miss] += end[0] == "aperiodicity-violation"
    assert min(violations.values()) >= 100, violations


# ---------------------------------------------------------------------------
# Near misses: observed, and stopped where the monitor always stopped them

NEAR_MISSES = [
    # The guard admits the empty word, which dec leaves empty.
    ("prog(v){ while(v <= u3){ v := dec(v) } return v }", [""], 2),
    ("prog(v){ while(eps <= v){ v := v - u1 } return v }", ["11"], 4),
    # The shrink sits inside one branch of an if.
    ("prog(v, a){ while(v != eps){ if(a){ v := dec(v) } else { skip } } return v }",
     ["11", "0"], 2),
    ("prog(v, a){ while(v > u0){ if(a){ skip } else { v := tl(v) } } return v }",
     ["11", "1"], 2),
    # v is written twice, or by something other than a shrink of itself.
    ("prog(v){ while(v != eps){ v := dec(v); v := v + u1 } return v }", ["11"], 2),
    ("prog(v, a){ while(u1 < v){ v := dec(v); a := v; v := a + u1 } return v }", ["11", ""], 2),
    ("prog(v, a){ while(v != eps){ v := dec(a) } return v }", ["11", "11"], 3),
    ("prog(v, a){ while(v != eps){ a := tl(v) } return v }", ["11", ""], 2),
    # The guard is not one of the four forms.
    ("prog(v, a){ while(v != a){ v := dec(v) } return v }", ["", "1"], 2),
    ("prog(v){ while(v = v){ v := dec(v) } return v }", [""], 2),
    # v grows by no single symbol: append of a two-symbol word yields eps.
    ('prog(v){ while(v != u3){ v := v + "01" } return v }', ["1"], 3),
    ("prog(v, a){ while(v != u3){ v := v + a } return v }", ["1", ""], 2),
    # The growth sits inside one branch, v is written twice or grown from
    # another variable, or the guard reads v only under declass.
    ("prog(v, a){ while(v < u3){ if(a){ v := v + u1 } else { skip } } return v }", ["1", "0"], 2),
    ("prog(v){ while(v != u3){ v := v + u1; v := tl(v) } return v }", ["1"], 2),
    ("prog(v, a){ while(v != u3){ v := a + u1 } return v }", ["", "1"], 3),
    ("prog(v, a){ while(declass(v, a) != u3){ v := v + u1 } return v }", ["", "11"], 2),
]


@pytest.mark.parametrize("source, inputs, iteration", NEAR_MISSES)
def test_near_misses_stay_observed(source, inputs, iteration):
    program = parser.parse(source)
    assert discharged_ids(program) == set()
    end = same_as_watching_all(program, inputs)[0]
    assert end[:2] == ("aperiodicity-violation", iteration)


def test_a_desugared_for_loop_in_the_body_keeps_discharge():
    program = parser.parse(
        "prog(v, a){ while(v != eps){ for i = u1 to a { skip }; v := dec(v) } return v }"
    )
    assert discharged_ids(program) == {1, 2}


def test_oracle_break_shrinking_in_a_branch_stays_observed():
    program = parser.parse(ORACLE_BREAK_WITH_OPERATORS)
    assert discharged_ids(program) == set()
    oracles = {"F": Oracle("pair", 2, lambda a, b: a + b)}
    for z in ["", "1", "11#0", "1111"]:
        assert outcome(lambda: Interp2(program, oracles, BUDGET, True), [z]) == (
            outcome(lambda: WatchAll2(program, oracles, BUDGET, True), [z])
        )


# ---------------------------------------------------------------------------
# Memory


def peak_bytes(source: str, inputs: list, monitor: bool, budget: int = DEFAULT_BUDGET) -> tuple:
    """How a run ends (its result or its stop), and the peak of memory it traced."""
    program, interp = parser.parse(source), Interp(budget, monitor)
    tracemalloc.start()
    try:
        try:
            end = interp.run(program, inputs)
        except RuntimeStop as stop:
            end = stop.subcode
        return end, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_monitored_countdown_holds_no_projections():
    countdown, inputs = "prog(x){ while(x > u0){ x := x - u1 } return x }", ["1" * 5000]
    (end, watched), (_, plain) = (peak_bytes(countdown, inputs, m) for m in (True, False))
    assert end == "" and watched - plain < 2**20


def test_a_growing_guard_is_not_observed():
    # inc_loop grows x by one symbol a pass until the budget stops it, with
    # the stop and stats of a run watching its loop, and keeps no projections:
    # watching it keeps 3,333 of them, about 6 MB at the peak.
    program = parser.parse_file(corpus("inc_loop.tl"))
    assert discharged_ids(program) == {1}
    assert same_as_watching_all(program, ["1"])[0][0] == "budget-exhausted"
    source = open(corpus("inc_loop.tl")).read()
    (end, watched), (_, plain) = (peak_bytes(source, ["1"], m, 10 * BUDGET) for m in (True, False))
    assert end == "budget-exhausted" and watched - plain < 2**20
