"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds).
"""

import itertools
import json
import random
import time

import pytest

import treecheck
from conftest import corpus, procedure, run
from tierlang import cli, genprog, interp1, parser, safety1, secondorder as so
from tierlang.interp1 import AperiodicityViolation, BudgetExhausted, TopLevelBreak
from tierlang.syntax import (
    Assign,
    Break,
    Declass,
    OpApp,
    OracleBreak,
    Program1,
    Seq,
    Skip,
    Var,
    While,
    assign_loop_ids,
    iter_stmts,
    seq_chain,
)


def report_of(capsys, *argv):
    code = cli.main(list(argv) + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def ok(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_bubble_typability(capsys):
    start = time.monotonic()
    code, report = report_of(capsys, "check", corpus("bubble.tl"))
    elapsed = time.monotonic() - start
    assert code == 0
    gamma = {k: int(v) for k, v in report["gamma"].items()}
    high = {"list", "list1", "len1", "len2"}
    low = {"list2", "len", "x", "y", "r"}
    assert min(gamma[v] for v in high) > max(gamma[v] for v in low)
    assert elapsed < 1.0
    ok(1, f"bubble safe with the expected level partition in {elapsed*1000:.0f} ms")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_bubble_behavior_and_aperiodicity(capsys):
    rng = random.Random(202)
    for i in range(50):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
        code, report = report_of(
            capsys, "run", corpus("bubble.tl"), "--input", f"list={w}", "--monitor"
        )
        assert code == 0, (w, report)
        assert report["result"] == "".join(sorted(w))
        assert report["verdicts"]["aperiodic"] is True
    ok(2, "50 random lists sorted correctly with zero monitor violations")


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_exp2_detection(capsys):
    code, report = report_of(capsys, "check", corpus("exp2.tl"))
    assert code == 0 and report["verdicts"]["safety"] is True
    program = parser.parse_file(corpus("exp2.tl"))
    loop = next(s for s in iter_stmts(program.body) if isinstance(s, While))
    checked = 0
    for size in range(2, 7):
        for tail in itertools.product("01", repeat=size - 1):
            y = "1" + "".join(tail)  # every binary numeral of this size
            with pytest.raises(AperiodicityViolation) as err:
                interp1.Interp(monitor=True).run(program, [y])
            assert err.value.loop_id == loop.loop_id
            assert err.value.iteration == 2
            checked += 1
    assert checked == 2 + 4 + 8 + 16 + 32
    ok(3, f"exp2 safe, and {checked} binary inputs all flagged at iteration 2")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_declass_semantics():
    rng = random.Random(404)
    interp = interp1.Interp()
    for _ in range(1000):
        w1 = "".join(rng.choice("01#") for _ in range(rng.randint(0, 40)))
        w2 = "".join(rng.choice("01#") for _ in range(rng.randint(0, 40)))
        value = interp.evaluate(Declass(Var("a"), Var("b")), {"a": w1, "b": w2})
        assert value == "1" * min(len(w1), len(w2))
    ok(4, "1000 randomized pairs evaluate declass to the exact unary minimum")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_inference_vs_brute_force():
    rng = random.Random(505)
    start = time.monotonic()
    agreements = 0
    safes = 0
    for _ in range(200):
        program = genprog.random_program(rng)
        inferred = safety1.infer_safety(program).safe
        brute = safety1.brute_force_safe(program, 3)
        assert inferred == brute, parser.pretty_print(program)
        agreements += 1
        safes += inferred
    elapsed = time.monotonic() - start
    assert agreements == 200
    assert elapsed < 60.0
    assert 0 < safes < 200  # both verdicts actually occur
    ok(5, f"200/200 agreement ({safes} safe) in {elapsed:.1f} s")


# -- 6 ----------------------------------------------------------------------


def _steps(program, inputs):
    _, stats = run(program, inputs)
    return stats.steps


def test_criterion_06_growth_envelopes():
    bubble = parser.parse_file(corpus("bubble.tl"))
    sizes = [8, 16, 32, 64]
    pattern = lambda n: ("10" * n)[:n]
    bubble_steps = [_steps(bubble, [pattern(n)]) for n in sizes]
    bubble_ratios = [b / a for a, b in zip(bubble_steps, bubble_steps[1:])]
    assert all(r <= 8.5 for r in bubble_ratios), bubble_ratios

    exp1 = parser.parse_file(corpus("exp1.tl"))
    exp1_steps = [_steps(exp1, ["1" * n, "1" * n]) for n in sizes]
    exp1_ratios = [b / a for a, b in zip(exp1_steps, exp1_steps[1:])]
    assert all(r <= 4.25 for r in exp1_ratios), exp1_ratios
    ok(
        6,
        "bubble doubling ratios "
        + "/".join(f"{r:.2f}" for r in bubble_ratios)
        + " within 8.5; exp1 ratios "
        + "/".join(f"{r:.2f}" for r in exp1_ratios)
        + " within 4.25",
    )


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_for_criterion(capsys):
    assert report_of(capsys, "forcheck", corpus("bubble_for.tl"))[0] == 0
    assert report_of(capsys, "forcheck", corpus("bubble.tl"))[0] == 1
    assert report_of(capsys, "forcheck", corpus("exp2.tl"))[0] == 1

    extra = parser.parse(
        "prog(n){ s := u0; for i = u1 to declass(n, n) { s := s + u1 } return s }"
    )
    accepted = [parser.parse_file(corpus("bubble_for.tl"))]
    if safety1.check_for_program(extra) is None and safety1.infer_safety(extra).safe:
        accepted.append(extra)
    assert len(accepted) == 2
    runs = 0
    for program in accepted:
        for n in range(0, 9):
            run(program, ["1" * n] * len(program.params), monitor=True)
            runs += 1
    ok(7, f"forcheck verdicts as expected; {runs} monitored unary runs all clean")


# -- 8 ----------------------------------------------------------------------


def _reference_iterate(f, u, v, w):
    value = u
    for _ in range(len(w)):
        answer = f(value)
        value = answer if len(answer) <= len(v) else answer[: len(v)]
    return value


def test_criterion_08_second_order_pipeline(capsys):
    code, report = report_of(capsys, "check", corpus("I.tl2"))
    assert code == 0
    assert report["verdicts"]["guarded"] is True
    assert report["verdicts"]["simple_type"] is True
    assert report["verdicts"]["safety"] is True

    program = parser.parse_file(corpus("I.tl2"))
    out, _ = run(program, ["1", "1111", "111"], {"F": so.make_oracle("builtin:append1")})
    assert out == "1111" == _reference_iterate(lambda x: x + "1", "1", "1111", "111")

    rng = random.Random(808)
    builtins = [
        ("builtin:append1", lambda x: x + "1"),
        ("builtin:double", lambda x: x + x),
        ("builtin:bitflip", lambda x: x.translate(str.maketrans("01", "10"))),
        ("builtin:const:1101", lambda x: "1101"),
        ("builtin:const:", lambda x: ""),
    ]
    for trial in range(20):
        spec, pyfn = builtins[trial % len(builtins)]
        u = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(1, 7)))
        w = "1" * rng.randint(0, 6)
        out, _ = run(program, [u, v, w], {"F": so.make_oracle(spec)})
        assert out == _reference_iterate(pyfn, u, v, w), (spec, u, v, w)

    import copy

    broken = copy.deepcopy(program)
    loop = next(
        s for s in iter_stmts(procedure(broken, "iterate").body) if isinstance(s, While)
    )
    chain = seq_chain(loop.body)
    assert isinstance(chain[0], OracleBreak)
    loop.body = Seq([chain[1], chain[2]])
    with pytest.raises(so.GuardednessError):
        so.check_guarded(broken)

    raw = copy.deepcopy(program)
    for s in iter_stmts(procedure(raw, "drive").body):
        if isinstance(s, Assign) and s.var == "n" and isinstance(s.expr, Declass):
            s.expr = s.expr.expr
    verdict = so.infer_safety2(raw)
    assert not verdict.safe and verdict.stage == "levels"
    assert "n := hd(tl(t))" in verdict.explanation
    ok(8, "iterator program checks out; 20 randomized runs match the reference; both sabotages detected")


# -- 9 ----------------------------------------------------------------------


def _monitor_verdict(program, inputs) -> bool:
    try:
        interp1.Interp(5000, monitor=True).run(program, inputs)
    except AperiodicityViolation:
        return True
    except TopLevelBreak:
        pass
    return False


def _family():
    """A grid of single-loop programs, nested cases and seeded genprog programs."""
    x, y = Var("x"), Var("y")
    u1 = OpApp("const:1")
    guards = [
        x,
        OpApp("gt", [x, OpApp("eps")]),
        Declass(y, x),
        Declass(y, u1),
        OpApp("eq", [Declass(y, u1), u1]),
        OpApp("ne", [x, y]),
    ]
    pool = [
        Assign("x", OpApp("dec", [x])),
        Assign("y", OpApp("dec", [y])),
        Assign("y", OpApp("decb", [y])),
        Assign("x", Declass(y, u1)),
        Assign("x", OpApp("tl", [x])),
        Assign("y", x),
        Skip(),
        Break(x),
        Assign("x", Declass(y, x)),
    ]
    inputs = [(a, b) for a in ("", "1", "11") for b in ("", "1", "10")]
    for guard in guards:
        for s1, s2 in itertools.product(pool, pool):
            program = Program1(["x", "y"], While(guard, Seq([s1, s2])), "x")
            assign_loop_ids(program)
            for pair in inputs:
                yield program, list(pair)

    nested = [
        # inner loop re-entered with an identical store each outer pass:
        # separate activations are sibling subtrees, not periodicity
        """prog(x, y){
             while(x > u0){
               z := u1;
               while(z = u1){ z := eps };
               x := x - u1
             };
             return x
           }""",
        # inner guard declassifies everything: flagged once two inner
        # evaluations happen inside one activation
        """prog(x, y){
             while(x > u0){
               while(declass(y, u1) = u1){ y := tl(y) };
               x := x - u1
             };
             return x
           }""",
        # sequential textually identical loops: siblings, never periodic
        """prog(x, y){
             while(x = u1){ x := eps };
             x := u1;
             while(x = u1){ x := eps };
             return x
           }""",
        # shared countdown across nesting levels
        """prog(x, y){
             while(x > u0){
               x := x - u1;
               while(x > u0){ x := x - u1 }
             };
             return x
           }""",
    ]
    for src in nested:
        program = parser.parse(src)
        for pair in [("", ""), ("1", "1"), ("11", "10"), ("111", "111")]:
            yield program, list(pair)

    # seeded random programs, each on one random input of up to 3 symbols
    rng = random.Random(1)
    for _ in range(500):
        program = genprog.random_program(rng)
        inputs = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
            for _ in program.params
        ]
        yield program, inputs


def test_criterion_09_monitor_matches_tree_oracle():
    total = agreements = violations = 0
    for program, inputs in _family():
        try:
            interp1.Interp(budget=50).run(program, inputs)
        except BudgetExhausted:
            continue
        except TopLevelBreak:
            pass
        streaming = _monitor_verdict(program, inputs)
        tree = treecheck.periodic_by_tree(program, inputs)
        assert streaming == tree, (parser.pretty_print(program), inputs)
        total += 1
        agreements += 1
        violations += streaming
    assert total > 1000
    assert 0 < violations < total
    ok(
        9,
        f"{agreements}/{total} verdicts agree with the materialized-tree check "
        f"({violations} periodic)",
    )


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_registry_validation(capsys):
    code, report = report_of(capsys, "ops", "--validate", "1000")
    assert code == 0
    assert report["validation"]["samples"] == 1000
    assert report["validation"]["counterexamples"] == []
    ok(10, "1000-sample class validation reports zero counterexamples")
