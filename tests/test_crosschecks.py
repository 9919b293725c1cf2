"""Randomized cross-checks tying the modules together."""

import random

import pytest

import treecheck
from tierlang import genprog, interp1, parser, safety1, secondorder as so
from tierlang.words import EPSILON


def test_inferred_derivations_always_recheck():
    rng = random.Random(31337)
    seen = 0
    for _ in range(120):
        program = genprog.random_program(rng)
        result = safety1.infer_safety(program)
        if not result.safe:
            continue
        assert safety1.check_derivation(program, result.gamma, result.derivation), (
            parser.pretty_print(program)
        )
        embedded = so.embed_program1(program)
        checked = so.infer_safety2(embedded)
        assert checked.safe
        for proc in embedded.procedures:
            check = checked.checks[proc.name]
            assert safety1.check_derivation(proc, check.gamma, check.derivation), (
                parser.pretty_print(program)
            )
        seen += 1
    assert seen > 40


def test_embedding_runs_identically():
    for monitor in (False, True):
        compare_embedding_runs(monitor)


def compare_embedding_runs(monitor: bool):
    # The embedded run spends 1 + len(params) more steps: one for the call
    # and one per argument term; everything else must agree exactly.
    rng = random.Random(90210)
    compared = 0
    for _ in range(80):
        program = genprog.random_program(rng)
        embedded = so.embed_program1(program)
        inputs = [
            "".join(rng.choice("01#") for _ in range(rng.randint(0, 4)))
            for _ in program.params
        ]
        extra = 1 + len(program.params)
        direct = run_or_stop(interp1.Interp(2000, monitor), program, inputs)
        via2 = run_or_stop(so.Interp2(embedded, {}, 2000 + extra, monitor), inputs)
        (out1, stats1), (out2, stats2) = direct, via2
        where = f"monitor={monitor}\n{parser.pretty_print(program)}"
        assert type(out1) is type(out2), where
        if isinstance(out1, interp1.RuntimeStop):
            assert getattr(out1, "iteration", None) == getattr(out2, "iteration", None), where
        else:
            assert out1 == out2, where
        assert stats2.steps - stats1.steps == extra, where
        assert stats1.loop_iterations == stats2.loop_iterations, where
        assert stats1.max_store_size == stats2.max_store_size, where
        compared += 1
    assert compared > 30


def test_escaping_break_stops_both_runs():
    # genprog puts breaks inside loops only, so this one is written out: a
    # break outside every loop has no rule, and both runs stop on it.
    program = parser.parse(
        'prog(x){ y := x; break(x = "1"); y := y + u1 return y }'
    )
    embedded = so.embed_program1(program)
    for word, stops in (("1", True), ("0", False)):
        direct = run_or_stop(interp1.Interp(), program, [word])
        via2 = run_or_stop(so.Interp2(embedded, {}), [word])
        (out1, stats1), (out2, stats2) = direct, via2
        assert isinstance(out1, interp1.TopLevelBreak) is stops
        assert type(out1) is type(out2)
        if not stops:
            assert out1 == out2 == word + "1"
        assert stats2.steps - stats1.steps == 2
        assert stats1.max_store_size == stats2.max_store_size


def run_or_stop(interp, *args):
    """(result, stats) of ``interp.run(*args)``, or (the RuntimeStop, the stats)."""
    try:
        return interp.run(*args), interp.stats
    except interp1.RuntimeStop as stop:
        return stop, interp.stats


def test_embedded_programs_pass_simple_typing():
    rng = random.Random(55)
    for _ in range(25):
        program = genprog.random_program(rng)
        embedded = so.embed_program1(program)
        assert so.simple_typecheck(embedded) == " -> ".join(["W"] * (len(program.params) + 1))


def test_runs_match_the_tree_oracle():
    # treecheck materializes the derivation by literal unrolling and spends
    # one unit of fuel per rule application, which is what a step counts.
    # At every budget below a finished run's steps, the run stops where the
    # builder's fuel runs out, with the builder's largest store and loop
    # iterations up to that rule.
    rng = random.Random(2718)
    budget = 1500
    finished = 0
    for _ in range(1000):
        program = genprog.random_program(rng)
        inputs = [
            "".join(rng.choice("01#") for _ in range(rng.randint(0, 4)))
            for _ in program.params
        ]
        store = dict(zip(program.params, inputs))
        builder = treecheck.TreeBuilder(fuel=budget + 1)
        try:
            broke, out, node = builder.exec_tree(store, program.body)
        except treecheck.TreeFuelExhausted:
            broke = out = node = None
        where = parser.pretty_print(program)
        interp = interp1.Interp(budget)
        try:
            result = interp.run(program, inputs)
        except interp1.BudgetExhausted:
            assert node is None, where
            assert_stopped_like(interp.stats, builder, budget, where)
            continue
        except interp1.TopLevelBreak:
            assert broke, where
            continue
        assert node is not None and not broke, where
        stats = interp.stats
        assert result == out.get(program.ret, EPSILON), where
        assert stats.steps == budget + 1 - builder.fuel, where
        assert stats.max_store_size == builder.largest, where
        assert stats.loop_iterations == builder.iterations, where
        for b in range(stats.steps):
            stop, cut_stats = run_or_stop(interp1.Interp(b), program, inputs)
            assert isinstance(stop, interp1.BudgetExhausted), where
            cut = treecheck.TreeBuilder(fuel=b + 1)
            with pytest.raises(treecheck.TreeFuelExhausted):
                cut.exec_tree(store, program.body)
            assert_stopped_like(cut_stats, cut, b, f"budget {b}\n{where}")
        finished += 1
    assert finished > 800


def assert_stopped_like(stats, builder, budget: int, where: str):
    """A budget stop's stats agree with a builder whose fuel ran out at the same rule."""
    assert stats.steps == budget + 1, where
    assert stats.max_store_size == builder.largest, where
    assert stats.loop_iterations == builder.iterations, where
