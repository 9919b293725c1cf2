import collections
import gc
import json
import random
import re
import tracemalloc

import pytest

from conftest import ORACLE_BREAK_WITH_OPERATORS, ROOT, corpus, straight_line
from tierlang import genprog, parser, safety1, secondorder
from tierlang.opreg import DeltaConfig
from tierlang.safety1 import (
    Judgment,
    TooLarge,
    brute_force_safe,
    check_derivation,
    check_for_program,
    infer_safety,
)
from tierlang.syntax import (
    Assign,
    Break,
    Declass,
    If,
    OpApp,
    Program1,
    Seq,
    Skip,
    Var,
    While,
    seq_of,
    undeclassified_vars,
)


def parse(src):
    return parser.parse(src)


# ---------------------------------------------------------------------------
# Undeclassified variables


def test_u_of_variable():
    assert undeclassified_vars(Var("x")) == {"x"}


def test_u_of_declass_keeps_bound_side():
    assert undeclassified_vars(Declass(Var("y"), Var("z"))) == {"z"}


def test_u_recurses_through_operators():
    e = OpApp("eq", [Var("x"), Declass(Var("y"), Var("z"))])
    assert undeclassified_vars(e) == {"x", "z"}


def test_u_of_oracle_call_unions_arguments():
    from tierlang.syntax import OracleCall

    e = OracleCall("F", (Var("a"), Declass(Var("b"), Var("c"))))
    assert undeclassified_vars(e) == {"a", "c"}


# ---------------------------------------------------------------------------
# Inference on the corpus


def test_bubble_inference(bubble):
    result = infer_safety(bubble)
    assert result.safe
    high = {"list", "list1", "len1", "len2"}
    low = {"list2", "len", "x", "y", "r"}
    top = min(result.gamma[v] for v in high)
    bottom = max(result.gamma[v] for v in low)
    assert bottom < top
    assert set(result.loop_levels) == {1, 2, 3}


def test_increment_loop_unsafe():
    result = infer_safety(parse("prog(x){while(x > u0){x := x + u1} return x}"))
    assert not result.safe
    assert "x" in result.explanation


def test_no_loop_lifts_constraints():
    result = infer_safety(parse("prog(x){y := x + u1 return y}"))
    assert result.safe


def test_exp2_inference():
    result = infer_safety(parser.parse_file(corpus("exp2.tl")))
    assert result.safe
    assert result.gamma["x"] == 1
    assert result.gamma["y"] == 0


def test_exp1_inference():
    result = infer_safety(parser.parse_file(corpus("exp1.tl")))
    assert result.safe
    assert result.gamma["x"] == 1
    assert result.gamma["y"] == 0


def erase_declass(s):
    """Statement ``s`` with every ``declass(e, b)`` replaced by ``e``."""
    def expr(e):
        if isinstance(e, Declass):
            return expr(e.expr)
        return OpApp(e.op, [expr(a) for a in e.args]) if isinstance(e, OpApp) else e
    if isinstance(s, Assign):
        return Assign(s.var, expr(s.expr))
    if isinstance(s, Seq):
        return seq_of([erase_declass(t) for t in s.stmts])
    if isinstance(s, If):
        return If(expr(s.guard), erase_declass(s.then), erase_declass(s.orelse))
    if isinstance(s, While):
        return While(expr(s.guard), erase_declass(s.body), s.loop_id, s.for_origin, s.line)
    return Break(expr(s.guard)) if isinstance(s, Break) else s


@pytest.mark.parametrize("name, with_declass, erased", [
    # bubble's declassified bounds only restate len, which is safe as it is.
    ("bubble.tl", True, True),
    ("bubble_for.tl", True, True),
    # exp1 and exp2 need their declass to be typable at all.
    ("exp1.tl", True, False),
    ("exp2.tl", True, False),
    ("inc_loop.tl", False, False),
])
def test_corpus_verdicts_with_declass_erased(name, with_declass, erased):
    program = parser.parse_file(corpus(name))
    bare = Program1(program.params, erase_declass(program.body), program.ret)
    assert "declass" not in parser.pretty_print(bare)
    assert (infer_safety(program).safe, infer_safety(bare).safe) == (with_declass, erased)


# Of the 300 genprog programs in levels.golden.json, only genprog 143 is
# safe with its declass and unsafe without it.  These 18 are the reverse:
# a declass constraint rejects them (its bound must sit exactly at the
# outermost loop level, and it caps its result there).
UNSAFE_ONLY_WITH_DECLASS = [
    13, 39, 60, 62, 74, 77, 136, 141, 152, 167, 186, 208, 216, 224, 248, 271, 289, 299,
]
DECLASS_CONSTRAINT = re.compile(r"the declass bound|declass\(\.\.\., ")


def test_genprog_verdicts_with_declass_erased():
    verdicts, explanations = collections.defaultdict(list), {}
    for case in json.loads((ROOT / "tests" / "levels.golden.json").read_text()):
        if not case["name"].startswith("genprog "):
            continue
        n, program = int(case["name"].split()[1]), parser.parse(case["source"])
        result = infer_safety(program)
        bare = Program1(program.params, erase_declass(program.body), program.ret)
        verdicts[result.safe, infer_safety(bare).safe].append(n)
        explanations[n] = result.explanation
    assert {key: len(ns) for key, ns in verdicts.items()} == {
        (True, True): 235, (True, False): 1, (False, True): 18, (False, False): 46,
    }
    assert verdicts[True, False] == [143]
    assert verdicts[False, True] == UNSAFE_ONLY_WITH_DECLASS
    for n in UNSAFE_ONLY_WITH_DECLASS:
        assert DECLASS_CONSTRAINT.search(explanations[n]), (n, explanations[n])


def test_nested_loops_force_level_two():
    src = """
    prog(a, w){
      while(a > u0){
        z := w + u1;
        while(z > u0){ z := z - u1 };
        a := a - u1
      };
      return a
    }
    """
    result = infer_safety(parse(src))
    assert result.safe
    assert result.gamma["a"] == 2
    assert result.gamma["z"] == 1
    assert result.loop_levels == {1: 2, 2: 1}


def test_declass_bound_must_sit_at_outer_level():
    # the declass bound types exactly at the outermost loop level, so a
    # variable that must stay at 0 cannot serve as the bound inside a loop
    src = """
    prog(x, y){
      while(x > u0){
        y := y + u1;
        z := declass(x, y);
        x := x - u1
      };
      return z
    }
    """
    result = infer_safety(parse(src))
    assert not result.safe


def test_pointwise_least_solution():
    result = infer_safety(parse("prog(x){while(x > u0){x := x - u1} return x}"))
    assert result.gamma["x"] == 1
    assert result.loop_levels[1] == 1


def test_solver_reports_an_unfed_strict_cycle_as_a_chain():
    cs = safety1.Constraints()
    a, b, c = (cs.fresh(n) for n in "abc")
    cs.le(c, a, "{what} below a", Var("c"))
    cs.le(b, c, "{what} below c", Var("b"))
    cs.lt(a, b, "{what} strictly below b", Var("a"))
    values, explanation = cs.solve()
    assert values is None
    assert explanation.startswith("conflicting constraint chain:")


def test_a_long_strict_cycle_is_explained_whole():
    cs = safety1.Constraints()
    us = [cs.fresh(f"u{i}") for i in range(1000)]
    for i, u in enumerate(us):
        cs.lt(u, us[(i + 1) % len(us)], "edge {arg}", Var("u"), i)
    values, explanation = cs.solve()
    assert values is None
    origins = explanation.removeprefix("conflicting constraint chain: ").split(" <- ")
    assert sorted(origins) == sorted(f"edge {i}" for i in range(1000))


def test_solver_reaches_the_least_solution_of_a_reversed_chain():
    cs = safety1.Constraints()
    xs = [cs.fresh(f"x{i}") for i in range(30)]
    for lo, hi in reversed(list(zip(xs, xs[1:]))):
        cs.lt(lo, hi, "{what} below the next", Var(lo))
    values, explanation = cs.solve()
    assert explanation is None
    assert values[xs[-1]] == 29


def test_fresh_unknowns_are_dense_ints_with_lazy_labels():
    cs = safety1.Constraints()
    unknowns = [cs.fresh(("var", "x")), cs.fresh(), cs.fresh(("loop", 3)), cs.fresh()]
    assert unknowns == [0, 1, 2, 3]
    assert [cs.label(u) for u in unknowns] == ["var:x", "e1", "loop:3", "e2"]


def test_a_zero_lower_bound_keeps_no_edge():
    cs = safety1.Constraints()
    u = cs.fresh("u")
    cs.le(None, u, "{what} at or above 0", Var("u"))
    assert cs.edges == [] and cs.failure is None
    assert cs.solve() == ([0], None)


def test_a_loop_level_floor_is_named_in_the_chain():
    cs = safety1.Constraints()
    lam, x = cs.fresh(("loop", 1)), cs.fresh(("var", "x"))
    cs.lt(None, lam, "{what}: loop levels start at 1", Var("w"))
    cs.le(lam, x, "{what}: x sits at the loop level", Var("x"))
    cs.le(x, None, "{what}: x stays at 0", Var("x"))
    values, explanation = cs.solve()
    assert values is None
    assert explanation == (
        "x: x stays at 0: needs level(var:x) <= 0 but other constraints force 1; "
        "conflicting constraint chain: x: x sits at the loop level <- "
        "w: loop levels start at 1"
    )


def test_a_reference_variable_floor_is_named_in_the_chain():
    program = parse("""box[F, z] in
declare p(X, s, r){ var y; break(|X(s)| > |X(r)|); y := declass(s, r); return y } in
call p(F, z, z)""")
    result = secondorder.infer_safety2(program)
    assert result.explanation == (
        "procedure p: the declass bound r must sit exactly at the outermost loop "
        "level: needs level(var:r) <= 0 but other constraints force 1; "
        "conflicting constraint chain: break(|X(...)| > |X(r)|): reference "
        "variable r must sit strictly above the outermost loop level"
    )


def test_a_strict_bound_between_constants_fails_at_once():
    cs = safety1.Constraints()
    cs.lt(None, None, "{what} lies strictly below 0", Var("z"))
    assert cs.failure is not None and cs.edges == [] and cs.uppers == []
    assert cs.solve() == (None, "z lies strictly below 0")


# ---------------------------------------------------------------------------
# Derivation checking


def test_inferred_derivations_recheck(bubble):
    for src in (
        "prog(x){skip return x}",
        "prog(x){y := x + u1 return y}",
        open(corpus("exp1.tl")).read(),
        open(corpus("exp2.tl")).read(),
        open(corpus("bubble_for.tl")).read(),
    ):
        program = parse(src)
        result = infer_safety(program)
        assert result.safe
        assert check_derivation(program, result.gamma, result.derivation)
    result = infer_safety(bubble)
    assert check_derivation(bubble, result.gamma, result.derivation)


def test_derivation_is_built_once_on_first_read(bubble, monkeypatch):
    calls = []
    build = safety1._DerivationBuilder.stmt

    def counted(self, *args):
        calls.append(args[0])
        return build(self, *args)

    monkeypatch.setattr(safety1._DerivationBuilder, "stmt", counted)
    result = infer_safety(bubble)
    assert calls == []  # nothing is built until the derivation is read
    first = result.derivation
    built = len(calls)
    assert built > 0
    assert result.derivation is first
    assert len(calls) == built
    assert check_derivation(bubble, result.gamma, first)


def test_delta_config_builds_the_derivation_eagerly(bubble, monkeypatch):
    def refuse(*args):
        raise AssertionError("derivation built")

    monkeypatch.setattr(safety1._DerivationBuilder, "stmt", refuse)
    infer_safety(bubble)  # no config: nothing is built
    with pytest.raises(AssertionError):
        infer_safety(bubble, config=DeltaConfig({}))


def test_derivation_rejects_wrong_gamma(bubble):
    result = infer_safety(bubble)
    broken = dict(result.gamma)
    broken["len1"] = 0  # the outer guard needs len1 at the loop level >= 1
    assert not check_derivation(bubble, broken, result.derivation)


def test_trivial_skip_derivation():
    program = parse("prog(x){skip return x}")
    deriv = Judgment("SKP", program.body, 0, 0, 0)
    assert check_derivation(program, {"x": 0}, deriv)
    assert check_derivation(program, {"x": 2}, deriv)


def test_derivation_shape_mismatch_rejected():
    program = parse("prog(x){skip return x}")
    wrong = Judgment("ASG", program.body, 0, 0, 0)
    assert not check_derivation(program, {"x": 0}, wrong)
    other = parse("prog(x){y := x return y}")
    assert not check_derivation(other, {"x": 0}, Judgment("SKP", Skip(), 0, 0, 0))


def test_seq_judgment_needs_one_child_per_statement():
    program = parse("prog(x){y := x; z := y; skip return z}")
    deriv = infer_safety(program).derivation
    assert deriv.rule == "SEQ" and len(deriv.children) == 3
    assert check_derivation(program, {}, deriv)
    for children in (deriv.children[:2], deriv.children + deriv.children[-1:]):
        wrong = Judgment("SEQ", program.body, 0, 0, deriv.level, children)
        assert not check_derivation(program, {}, wrong)


def test_explicit_sub_nodes_accepted():
    program = parse("prog(x){skip return x}")
    inner = Judgment("SKP", program.body, 0, 0, 0)
    outer = Judgment("SUB", program.body, 0, 0, 3, [inner])
    assert check_derivation(program, {"x": 0}, outer)


# ---------------------------------------------------------------------------
# The level order: the builder takes each anonymous level where it was made


class RecordingAnalysis(safety1.LevelAnalysis):
    """Generation that notes the node each anonymous unknown is made for."""

    def __init__(self):
        super().__init__()
        self.made = []  # (node, unknown) of every operator, declass and if

    def gen_expr(self, e, tin, tout):
        term = super().gen_expr(e, tin, tout)
        if isinstance(e, (OpApp, Declass)):
            self.made.append((e, term))
        return term

    def gen_stmt(self, s, tin, tout):
        floors = super().gen_stmt(s, tin, tout)
        if isinstance(s, If):
            self.made.append((s, floors[0]))
        return floors


def preorder(j):
    stack = [j]
    while stack:
        j = stack.pop()
        yield j
        stack.extend(reversed(j.children))


def check_level_order(body, names) -> bool:
    """Generate, solve and build by hand; False when the body is unsafe.

    The builder is handed the anonymous unknowns themselves for levels, so
    each operator, declass and if judgment shows which unknown it took:
    every one must be taken exactly once, by the node it was made for.
    """
    analysis = RecordingAnalysis()
    for name in sorted(names):
        analysis.var_term(name)
    analysis.gen_stmt(body, None, None)
    values, _ = analysis.cs.solve()
    if values is None:
        return False
    anonymous = [u for u, label in enumerate(analysis.cs.unknowns) if label is None]
    gamma = {name: values[u] for name, u in analysis.var_ids.items()}
    loops = {loop_id: values[u] for loop_id, u in analysis.loop_ids.items()}
    deriv = safety1._DerivationBuilder(anonymous, gamma, loops).stmt(body, 0, 0)
    taken = [
        (j.subject, j.level) for j in preorder(deriv) if j.rule in ("OP", "DCL", "CND")
    ]
    assert sorted(u for _, u in taken) == anonymous
    assert collections.Counter((id(node), u) for node, u in taken) == (
        collections.Counter((id(node), u) for node, u in analysis.made)
    )
    return True


def level_order_bodies():
    """(body, names) of corpus, oracle-break and seeded genprog programs."""
    programs = [parser.parse_file(corpus(name)) for name in (
        "bubble.tl", "bubble_for.tl", "exp1.tl", "exp2.tl", "inc_loop.tl", "I.tl2",
    )]
    programs.append(parse(ORACLE_BREAK_WITH_OPERATORS))
    rng = random.Random(4242)
    programs += [genprog.random_program(rng) for _ in range(150)]
    for program in programs:
        if isinstance(program, Program1):
            yield program.body, set(program.params) | {program.ret}
        else:
            for proc in program.procedures:
                yield proc.body, set(proc.params) | set(proc.locals)


def test_every_anonymous_level_is_taken_once_where_it_was_made():
    safe = [check_level_order(body, names) for body, names in level_order_bodies()]
    assert safe[:3] == [True, True, True]  # bubble, bubble_for, exp1
    assert all(safe[5:8])  # I.tl2's two procedures and the oracle-break one
    assert sum(safe) > 60


def test_a_safe_result_holds_little_memory():
    n = 30_000
    program = parse(straight_line(n))
    gc.collect()
    tracemalloc.start()
    try:
        result = infer_safety(program)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.safe
    assert held <= 64 * n, f"{held / n:.1f} bytes per statement"


# ---------------------------------------------------------------------------
# Brute force oracle


def test_brute_force_trivial():
    assert brute_force_safe(parse("prog(x){skip return x}"), 2)


def test_brute_force_rejects_increment_loop():
    p = parse("prog(x){while(x > u0){x := x + u1} return x}")
    assert not brute_force_safe(p, 3)


def test_brute_force_guard_on_variable_count():
    p = parse("prog(a, b, c, d){e := a; f := b; g := c return a}")
    with pytest.raises(TooLarge):
        brute_force_safe(p, 2)


def test_differential_small_run():
    rng = random.Random(20240601)
    for _ in range(60):
        program = genprog.random_program(rng)
        assert infer_safety(program).safe == brute_force_safe(program, 3)


# ---------------------------------------------------------------------------
# Registry restrictions


def test_config_restriction_rejects_bubble(bubble):
    config = DeltaConfig({"gt": [[1, 1, 1]]})
    restricted = infer_safety(bubble, config=config)
    assert not restricted.safe
    assert "forbidden" in restricted.explanation
    # monotonicity: safe under a restriction implies safe without it
    assert infer_safety(bubble).safe


def test_config_restriction_monotone():
    rng = random.Random(7)
    config = DeltaConfig({"gt": [[1, 1, 1]], "append": [[0, 0, 0]]})
    for _ in range(40):
        program = genprog.random_program(rng)
        if infer_safety(program, config=config).safe:
            assert infer_safety(program).safe


# ---------------------------------------------------------------------------
# The for criterion


def test_for_check_on_corpus(bubble):
    assert check_for_program(parser.parse_file(corpus("bubble_for.tl"))) is None
    assert check_for_program(bubble) == "the while loop at line 7 is not a for loop"
    assert check_for_program(parser.parse_file(corpus("exp2.tl"))) is not None
    assert check_for_program(parse("prog(x){skip return x}")) is None


@pytest.mark.parametrize(
    "low, ends",
    [("u1", True), ("u2", True), ('"0#1"', True), ("hd(u3)", True),
     ("u0", False), ("eps", False), ("tl(u1)", False), ("n", False), ("hd(n)", False)],
)
def test_for_loop_counts_only_with_a_constant_non_empty_lower_bound(low, ends):
    # while(e <= i) holds forever when e is eps, and a bound with variables
    # can move; neither loop is sure to end.
    program = parse(f"prog(n){{\n  skip;\n  for i = {low} to n {{ skip }}\n  return n\n}}")
    why_not = check_for_program(program)
    if ends:
        assert why_not is None
    else:
        assert why_not.startswith("the for loop at line 3 counts down to ")
