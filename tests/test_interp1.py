import ast
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import treecheck
from conftest import ROOT, iter_exprs, run, stmt_exprs
from tierlang import opreg, parser
from tierlang.interp1 import (
    AperiodicityViolation,
    BudgetExhausted,
    Interp,
    LoopMonitorState,
    TopLevelBreak,
)
from tierlang.syntax import (
    Assign, Break, Declass, If, OpApp, OracleBreak, OracleCall, Seq, Skip, Var, While,
    iter_stmts, undeclassified_vars,
)

word_st = st.text(alphabet="01#", max_size=20)


def evaluate(store, e):
    """The value of expression ``e`` in ``store``."""
    return Interp().evaluate(e, store)


def execute(store, s, interp=None):
    """Run statement ``s`` on ``store`` in place; returns (break flag, interpreter)."""
    interp = interp or Interp()
    interp.note_store(store)
    return interp.compiled(s)(interp, store), interp


def ev(src_store, expr_text):
    p = parser.parse(f"prog(x){{y := {expr_text} return y}}")
    return evaluate(dict(src_store), p.body.expr)


def test_variable_lookup():
    assert ev({"x": "101"}, "x") == "101"
    assert ev({}, "x") == ""  # stores are total, default empty


def test_declass_rule():
    assert ev({"y": "0101", "z": "11"}, "declass(y, z)") == "11"
    assert ev({"z": "111"}, "declass(eps, z)") == ""
    assert ev({"y": "10"}, "declass(y, eps)") == ""


@given(word_st, word_st)
def test_declass_is_unary_min(w1, w2):
    store = {"a": w1, "b": w2}
    assert ev(store, "declass(a, b)") == "1" * min(len(w1), len(w2))


def test_skip_preserves_store():
    store = {"x": "1"}
    broke, _ = execute(store, Skip())
    assert not broke
    assert store == {"x": "1"}


def test_break_flags():
    assert execute({"x": "1"}, Break(Var("x")))[0]
    assert not execute({"x": "0"}, Break(Var("x")))[0]
    assert not execute({}, Break(Var("x")))[0]


def test_false_guard_never_runs_body():
    # x holds true, so the break would be taken if the body ran
    loop = While(OpApp("false"), Break(Var("x")))
    broke, interp = execute({"x": "1"}, loop)
    assert not broke
    assert interp.stats.loop_iterations == {}


def test_break_inside_while_is_contained():
    loop = While(Var("x"), Break(Var("x")))
    store = {"x": "1"}
    broke, interp = execute(store, loop)
    assert not broke  # the loop converts the break to normal exit
    assert store["x"] == "1"
    assert interp.stats.loop_iterations[loop.loop_id] == 1


def test_seq_short_circuits_on_break():
    s = Seq([Break(OpApp("true")), Skip()])
    assert execute({}, s)[0]
    # a while over it still terminates normally
    loop = While(OpApp("true"), s)
    assert not execute({}, loop)[0]


@pytest.mark.parametrize(
    "bad, steps",
    [
        (Assign("y", OracleCall("F", (Var("x"),))), 3),
        (OracleBreak("F", (Var("x"),), ("x",)), 2),
    ],
    ids=["oracle-call", "oracle-break"],
)
def test_an_oracle_node_reaches_its_hook_in_place(bad, steps):
    # The core hands an oracle node to the ``apply_oracle`` hook, which
    # ``secondorder.Interp2`` defines, after its operands are evaluated (and
    # ticked), and keeps that place at every budget: below the hook's step
    # the run stops on the budget, from it on in the hook.
    class Reached(Exception):
        pass

    class Hooked(Interp):
        def apply_oracle(self, store, name, args):
            raise Reached(name, args)

    stmt = Seq([Skip(), If(Var("x"), bad, Skip())])
    assert execute({"x": "0"}, stmt)[1].stats.steps == 5
    hook_step = 4 + steps
    for budget in range(hook_step + 3):
        interp = Hooked(budget)
        with pytest.raises(BudgetExhausted if budget < hook_step else Reached):
            execute({"x": "1"}, stmt, interp)
        assert interp.stats.steps == min(budget + 1, hook_step)


def test_if_dispatches_on_truthiness():
    p = parser.parse(
        'prog(x){if(x){y := "1"} else {y := "0"} return y}'
    )
    for w, expect in [("1", "1"), ("0", "0"), ("", "0"), ("11", "0"), ("#", "0")]:
        out, _ = run(p, [w])
        assert out == expect


def test_identity_and_copy_programs():
    p = parser.parse("prog(x){skip return x}")
    assert run(p, ["01"])[0] == "01"
    q = parser.parse("prog(x){y := x return y}")
    assert run(q, ["10#"])[0] == "10#"


def test_countdown_on_a_long_unary_word():
    # 8 steps per iteration; dec reads the whole word on each of them
    n = 5000
    p = parser.parse("prog(x){ while(x != eps){ x := dec(x) } return x }")
    result, stats = run(p, ["1" * n])
    assert (result, stats.steps) == ("", 8 * n + 4)


def test_top_level_break():
    p = parser.parse("prog(x){break(true) return x}")
    with pytest.raises(TopLevelBreak):
        Interp().run(p, ["1"])


def test_budget_exhaustion():
    p = parser.parse("prog(x){while(true){skip} return x}")
    with pytest.raises(BudgetExhausted):
        Interp(budget=200).run(p, ["1"])


def test_input_arity_checked():
    # A wrong input count is a fault of the caller's inputs, raised before
    # the run takes its first step.
    p = parser.parse("prog(x){skip return x}")
    interp = Interp()
    with pytest.raises(ValueError, match="program expects 1 inputs, got 2"):
        interp.run(p, ["1", "0"])
    assert interp.stats.steps == 0


def test_bubble_sorts(bubble):
    rng = random.Random(11)
    for _ in range(25):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
        out, _ = run(bubble, [w], monitor=True)
        assert out == "".join(sorted(w))


@pytest.mark.parametrize("monitor", [False, True])
def test_bubble_takes_few_python_calls_per_step(bubble, monitor):
    # Counts frames, not seconds: a fused assignment or a skipped monitor
    # shows on any machine.
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"
    interp = Interp(monitor=monitor)
    sys.setprofile(profile)
    try:
        interp.run(bubble, ["01" * 20])
    finally:
        sys.setprofile(None)
    assert interp.stats.steps == 41_141
    assert calls <= 0.70 * interp.stats.steps


def test_compiling_a_constant_looks_no_operator_up(monkeypatch):
    # The parser has checked a constant's word, so the compile reads it off
    # the name instead of building and validating a registry entry for it.
    asked = []
    lookup = opreg.BUILTINS.lookup
    monkeypatch.setattr(opreg.BUILTINS, "lookup", lambda name: asked.append(name) or lookup(name))
    constants = 0
    for path in sorted((ROOT / "corpus").glob("*.tl*")):
        program = parser.parse_file(str(path))
        for body in [p.body for p in getattr(program, "procedures", [program])]:
            Interp().compile_stmt(body)
            constants += sum(
                type(e) is OpApp and e.op.startswith(opreg.CONST_PREFIX)
                for s in iter_stmts(body) for top in stmt_exprs(s) for e in iter_exprs(top)
            )
    assert constants and asked
    assert [name for name in asked if name.startswith(opreg.CONST_PREFIX)] == []


def test_determinism(bubble):
    a = run(bubble, ["100101"], monitor=False)
    b = run(bubble, ["100101"], monitor=False)
    assert a[0] == b[0]
    assert a[1].steps == b[1].steps
    assert a[1].loop_iterations == b[1].loop_iterations
    assert a[1].max_store_size == b[1].max_store_size


# ---------------------------------------------------------------------------
# Monitoring


def test_monitor_guard_standalone():
    state = LoopMonitorState(1, ("x",))
    assert state.observe({"x": "1"}) is None
    assert state.observe({"x": "11"}) is None
    witness = state.observe({"x": "1"})
    assert witness == {"x": "1"}


def test_exp2_monitor_flags_iteration_two():
    p = parser.parse_file(__file__.rsplit("/", 2)[0] + "/corpus/exp2.tl")
    with pytest.raises(AperiodicityViolation) as err:
        Interp(monitor=True).run(p, ["100"])
    assert err.value.iteration == 2
    assert err.value.witness == {"x": "1"}


def test_bubble_monitor_clean(bubble):
    out, _ = run(bubble, ["cab".replace("c", "1").replace("a", "0").replace("b", "0")], monitor=True)
    out, _ = run(bubble, ["10#0"], monitor=True)


def test_declass_guard_projects_to_bound_only():
    # guard declass(y, z): undeclassified set is {z}; z constant, y varies
    p = parser.parse(
        "prog(y, z){while(declass(y, z)){y := tl(y)} return y}"
    )
    guard = next(
        s for s in __import__("tierlang.syntax", fromlist=["iter_stmts"]).iter_stmts(p.body)
        if isinstance(s, While)
    ).guard
    assert undeclassified_vars(guard) == {"z"}
    with pytest.raises(AperiodicityViolation) as err:
        Interp(monitor=True).run(p, ["111", "1"])
    assert err.value.iteration == 2


def test_projection_matches_pointwise_equality_on_u():
    # the monitor's equivalence is pointwise equality on the U-set
    guard = Declass(Var("y"), Var("z"))
    uset = tuple(sorted(undeclassified_vars(guard)))
    state = LoopMonitorState(1, uset)
    s1 = {"y": "000", "z": "11"}
    s2 = {"y": "111", "z": "11"}  # differs only outside U
    assert state.observe(s1) is None
    assert state.observe(s2) == {"z": "11"}


def test_final_false_guard_counts():
    # guard is true once, then false with the same projection on U
    # (the exit evaluation is a nested configuration of the same loop)
    p = parser.parse(
        "prog(y, z){while(declass(y, z) = u1){y := eps} return y}"
    )
    with pytest.raises(AperiodicityViolation):
        Interp(monitor=True).run(p, ["1", "1"])
    # the tree oracle agrees
    assert treecheck.periodic_by_tree(p, ["1", "1"])


def test_monitor_agrees_with_tree_oracle_smoke():
    rng = random.Random(5)
    from tierlang import genprog

    checked = 0
    for _ in range(200):
        program = genprog.random_program(rng)
        inputs = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
            for _ in program.params
        ]
        try:
            Interp(budget=50).run(program, inputs)
        except BudgetExhausted:
            continue
        except TopLevelBreak:
            pass
        try:
            streaming = False
            Interp(5000, monitor=True).run(program, inputs)
        except AperiodicityViolation:
            streaming = True
        except TopLevelBreak:
            pass
        assert streaming == treecheck.periodic_by_tree(program, inputs), (
            parser.pretty_print(program),
            inputs,
        )
        checked += 1
    assert checked > 50


def test_importing_the_interpreter_loads_no_checker():
    loaded = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, tierlang.interp1; "
            "print(sorted(m for m in ('tierlang.safety1', 'tierlang.parser') if m in sys.modules))",
        ],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert loaded.stdout == "[]\n"


def test_importing_the_cli_loads_no_introspection_modules():
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext")
    loaded = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; before = set(sys.modules); import tierlang.cli; "
            f"print(sorted(m for m in {heavy!r} if m in set(sys.modules) - before))",
        ],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert loaded.stdout == "[]\n"


def test_no_module_uses_dataclasses():
    sources = sorted((ROOT / "src" / "tierlang").glob("*.py"))
    assert sources
    assert [p.name for p in sources if "dataclass" in p.read_text(encoding="utf-8")] == []


def unused_imports(path) -> list:
    """``file:line name`` of each name that module ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_has_an_unused_import():
    sources = sorted((ROOT / "src" / "tierlang").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py")
    )
    assert len(sources) > 20
    assert [u for p in sources for u in unused_imports(p)] == []
